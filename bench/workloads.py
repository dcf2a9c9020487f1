"""The committed workload set: ``workloads.json`` and the spec each run gets.

Every workload is a fully expanded ``ScenarioSpec.to_dict()`` so that an
edit to the scenario registry cannot move the yardstick.  The benchmark
touches exactly two keys of that dictionary — ``seed`` and the workload's
``size_field`` — and hands the rest to the program unread.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path
from typing import Any

WORKLOADS_FILE = Path(__file__).with_name("workloads.json")

#: ``--scale smoke`` divides the size by this (self-test only, never reported).
SMOKE_DIVISOR = 10
#: The warm-up run before each timed run is the same spec at 1/20 size.
WARMUP_DIVISOR = 20


class UnknownWorkload(ValueError):
    """A workload name that ``workloads.json`` does not define."""


def load_workloads(path: Path | str = WORKLOADS_FILE) -> dict[str, dict[str, Any]]:
    """Name -> workload entry, in file order."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload["workloads"]


def select(workloads: dict[str, dict[str, Any]], name: str | None) -> dict[str, dict[str, Any]]:
    """All workloads, or the single one called ``name``."""
    if name is None:
        return workloads
    if name not in workloads:
        raise UnknownWorkload(
            f"unknown workload {name!r}; known workloads: {', '.join(workloads)}"
        )
    return {name: workloads[name]}


def provenance(entry: dict[str, Any]) -> str:
    """``registered-scenario + overrides`` the committed spec was expanded from."""
    origin = entry["derived_from"]
    overrides = ", ".join(f"{key}={value}" for key, value in origin["overrides"].items())
    return f"{origin['scenario']} + {{{overrides}}}"


def spec_dict(entry: dict[str, Any], seed: int, divisor: int = 1) -> dict[str, Any]:
    """The spec dictionary of one run: seed replaced, size divided."""
    spec = copy.deepcopy(entry["spec"])
    spec["seed"] = seed
    if divisor != 1:
        field = entry["size_field"]
        size = spec[field] / divisor
        spec[field] = max(2, int(size)) if isinstance(spec[field], int) else size
    return spec
