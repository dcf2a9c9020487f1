"""Generalised parameter sweeps over any :class:`ScenarioSpec` field.

Where the old ``ThresholdSweep`` could only walk a threshold grid, a
:class:`Sweep` takes any spec field as an axis — ``num_edges``,
``router``, ``cloud_servers``, ``lower_threshold``, anything — and runs
the cross product of all its axes through the unified runner::

    Sweep(axis="num_edges", values=[1, 2, 4, 8]).run()
    Sweep(base=spec, axis="num_edges", values=[1, 2, 4, 8])
        .and_axis("router", ["round-robin", "hotspot"])
        .run()

The result keeps the heatmap/series accessors the threshold sweep
established (indexed, so point lookups are O(1)) and serialises every
cell as a :class:`~repro.experiments.report.RunReport`, so a sweep's
JSON output is just many runs of the one shared schema.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import product
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.experiments import runner as _runner
from repro.experiments.report import RunReport
from repro.experiments.spec import CLUSTER_FIELDS, ScenarioSpec, spec_field_names


@dataclass(frozen=True)
class SweepAxis:
    """One swept spec field and the values it takes."""

    field: str
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if self.field not in spec_field_names():
            known = ", ".join(spec_field_names())
            raise ValueError(
                f"unknown sweep axis {self.field!r}; sweepable fields: {known}"
            )
        if not self.values:
            raise ValueError(f"axis {self.field!r} needs at least one value")


def _canon(value: Any) -> Any:
    """Hashable lookup key for one axis value (floats rounded like the
    threshold grid, so ``report_at(lower_threshold=0.30000000001)`` still
    hits)."""
    if isinstance(value, float):
        return round(value, 6)
    return value


@dataclass(frozen=True)
class SweepCell:
    """One point of the cross product: its assignment, spec, and report."""

    assignment: dict[str, Any]
    spec: ScenarioSpec
    report: RunReport


class Sweep:
    """A cross product of axes over a base scenario.

    Parameters
    ----------
    base:
        Scenario every cell starts from.  When omitted, the default is a
        cluster scenario if any axis is cluster-only (so the issue-shaped
        ``Sweep(axis="num_edges", values=[1, 2, 4, 8])`` does what it
        says), else a single-edge scenario.
    axis, values:
        Convenience for the common one-axis sweep.
    axes:
        Explicit axis list (crossed in order).
    skip_invalid:
        When True, cells whose field combination fails spec validation
        (e.g. ``lower_threshold > upper_threshold`` in a full threshold
        grid) are skipped and recorded instead of raising.
    """

    def __init__(
        self,
        base: ScenarioSpec | None = None,
        axis: str | None = None,
        values: Iterable[Any] | None = None,
        axes: Sequence[SweepAxis] = (),
        skip_invalid: bool = False,
    ) -> None:
        collected = list(axes)
        if axis is not None:
            if values is None:
                raise ValueError("axis requires values")
            collected.append(SweepAxis(axis, tuple(values)))
        elif values is not None:
            raise ValueError("values requires axis")
        if not collected:
            raise ValueError("a sweep needs at least one axis")
        seen: set[str] = set()
        for sweep_axis in collected:
            if sweep_axis.field in seen:
                raise ValueError(f"duplicate sweep axis {sweep_axis.field!r}")
            seen.add(sweep_axis.field)
        if base is None:
            deployment = "cluster" if seen & CLUSTER_FIELDS else "single"
            base = ScenarioSpec(deployment=deployment)
        elif base.deployment == "single" and seen & CLUSTER_FIELDS:
            # A cluster-only axis over a single-edge base would run N
            # bit-identical cells dressed up as a series — refuse early.
            conflicting = ", ".join(sorted(seen & CLUSTER_FIELDS))
            raise ValueError(
                f"axis {conflicting} only affects cluster runs, but the base "
                "scenario is single-edge; use a cluster base"
            )
        self.base = base
        self.axes: tuple[SweepAxis, ...] = tuple(collected)
        self.skip_invalid = skip_invalid

    def and_axis(self, field: str, values: Iterable[Any]) -> "Sweep":
        """New sweep with one more crossed axis."""
        return Sweep(
            base=self.base,
            axes=self.axes + (SweepAxis(field, tuple(values)),),
            skip_invalid=self.skip_invalid,
        )

    def points(self) -> list[dict[str, Any]]:
        """Every axis assignment of the cross product, in axis order."""
        fields = [sweep_axis.field for sweep_axis in self.axes]
        return [
            dict(zip(fields, combination))
            for combination in product(*(sweep_axis.values for sweep_axis in self.axes))
        ]

    def run(
        self,
        runner: Callable[[ScenarioSpec], RunReport] | None = None,
        max_workers: int | None = None,
    ) -> "SweepResult":
        """Run every cell and return the indexed result.

        ``max_workers`` > 1 executes the cells on a
        :class:`~concurrent.futures.ProcessPoolExecutor`: every cell is
        an independent seeded run, so fanning them out changes nothing
        but the wall clock.  Cells are *submitted and collected in the
        cross-product order*, so the resulting ``SweepResult`` — cell
        order, reports, JSON — is identical to a serial run of the same
        sweep (a custom ``runner`` must be picklable to cross the
        process boundary).
        """
        execute = runner if runner is not None else _runner.run
        valid: list[tuple[dict[str, Any], ScenarioSpec]] = []
        skipped: list[dict[str, Any]] = []
        for assignment in self.points():
            try:
                spec = self.base.with_(**assignment)
            # TypeError covers mistyped axis values (e.g. a string where
            # the field's validation compares numerically) — for a sweep
            # cell that is a validation failure like any other.
            except (ValueError, TypeError):
                if self.skip_invalid:
                    skipped.append(assignment)
                    continue
                raise
            valid.append((assignment, spec))

        if max_workers is not None and max_workers > 1 and len(valid) > 1:
            # Imported here: it pulls in multiprocessing, socket and
            # subprocess, which no serial sweep or single run needs.
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                reports = list(pool.map(execute, [spec for _, spec in valid]))
        else:
            reports = [execute(spec) for _, spec in valid]

        cells = [
            SweepCell(assignment=assignment, spec=spec, report=report)
            for (assignment, spec), report in zip(valid, reports)
        ]
        return SweepResult(
            base=self.base,
            axes=self.axes,
            cells=tuple(cells),
            skipped=tuple(skipped),
        )


class SweepResult:
    """All reports of one sweep, with O(1) point lookup and heatmaps."""

    def __init__(
        self,
        base: ScenarioSpec,
        axes: Sequence[SweepAxis],
        cells: Sequence[SweepCell],
        skipped: Sequence[dict[str, Any]] = (),
    ) -> None:
        self.base = base
        self.axes = tuple(axes)
        self.cells = tuple(cells)
        self.skipped = tuple(skipped)
        self._fields = tuple(sweep_axis.field for sweep_axis in self.axes)
        self._index: dict[tuple[Any, ...], SweepCell] = {
            self._key(cell.assignment): cell for cell in self.cells
        }

    def _key(self, assignment: Mapping[str, Any]) -> tuple[Any, ...]:
        missing = [field for field in self._fields if field not in assignment]
        if missing:
            raise KeyError(f"assignment is missing swept axis value(s): {missing}")
        return tuple(_canon(assignment[field]) for field in self._fields)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)

    def report_at(self, **assignment: Any) -> RunReport | None:
        """Report of one grid point, or None when it was not in the sweep."""
        cell = self._index.get(self._key(assignment))
        return cell.report if cell is not None else None

    def series(self, metric: str, axis: str, **fixed: Any) -> list[tuple[Any, float]]:
        """``(axis value, metric)`` pairs along one axis.

        ``metric`` is any numeric :class:`RunReport` attribute
        (``f_score``, ``throughput_fps``, ``queue_delay_ms``, ...);
        ``fixed`` pins the remaining axes.
        """
        if axis not in self._fields:
            raise ValueError(f"{axis!r} is not a swept axis of this sweep")
        pinned = {field: _canon(value) for field, value in fixed.items()}
        pairs = []
        for cell in self.cells:
            if all(_canon(cell.assignment[field]) == value for field, value in pinned.items()):
                pairs.append((cell.assignment[axis], getattr(cell.report, metric)))
        return pairs

    def heatmap(self, metric: str, x_axis: str, y_axis: str, **fixed: Any) -> dict[tuple[Any, Any], float]:
        """Mapping of ``(x, y)`` axis values to a metric — the generalised
        form of the threshold sweep's heatmap accessor."""
        for axis in (x_axis, y_axis):
            if axis not in self._fields:
                raise ValueError(f"{axis!r} is not a swept axis of this sweep")
        pinned = {field: _canon(value) for field, value in fixed.items()}
        result: dict[tuple[Any, Any], float] = {}
        for cell in self.cells:
            if all(_canon(cell.assignment[field]) == value for field, value in pinned.items()):
                key = (cell.assignment[x_axis], cell.assignment[y_axis])
                result[key] = getattr(cell.report, metric)
        return result

    def to_dict(self) -> dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": [
                {"field": sweep_axis.field, "values": list(sweep_axis.values)}
                for sweep_axis in self.axes
            ],
            "cells": [
                {"assignment": dict(cell.assignment), "report": cell.report.to_dict()}
                for cell in self.cells
            ],
            "skipped": [dict(assignment) for assignment in self.skipped],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)
