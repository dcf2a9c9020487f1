"""The traced run: one workload under ``cProfile``, reduced to layers.

The profile is taken from here, around the call into the program; nothing
in ``src/`` is hooked.  ``pstats`` rows are mapped to layers by source
path (``…/repro/<package>/…``).  A built-in, stdlib or NumPy function has
no layer of its own: its self time, and the calls it makes back into
``repro`` (a generator resumed through ``send``, a ``sorted`` key), are
charged to the layers of the ``repro`` frames that called it, weighted by
call count.  Spans are aggregated per (caller layer -> callee function)
edge, held in memory, and written when the run ends.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Mapping

import child
import metrics

RESULTS_DIR = Path(__file__).with_name("results")
OTHER = "other"

FuncKey = tuple[str, int, str]


def layer_of(filename: str, package_root: str) -> str | None:
    """Package (or top-level module) of ``repro`` a source path belongs to."""
    try:
        first = Path(filename).relative_to(package_root).parts[0]
    except (ValueError, IndexError):
        return None
    return first[:-3] if first.endswith(".py") else first


def caller_layers(
    stats: Mapping[FuncKey, tuple], package_root: str, rounds: int = 8
) -> dict[FuncKey, dict[str, float]]:
    """For every function, layer -> share of its calls that came from it.

    A ``repro`` function is its own layer.  Any other function inherits
    the layers of its callers in proportion to call counts, resolved by a
    few rounds of propagation (chains of non-``repro`` frames are short);
    one that no ``repro`` frame reaches is ``other``.
    """
    weights: dict[FuncKey, dict[str, float]] = {}
    foreign: list[FuncKey] = []
    for func in stats:
        layer = layer_of(func[0], package_root)
        if layer is None:
            foreign.append(func)
            weights[func] = {}
        else:
            weights[func] = {layer: 1.0}
    for _ in range(rounds):
        updated: dict[FuncKey, dict[str, float]] = {}
        for func in foreign:
            shares: dict[str, float] = defaultdict(float)
            for caller, edge in stats[func][4].items():
                for layer, share in weights.get(caller, {}).items():
                    shares[layer] += edge[0] * share
            total = sum(shares.values())
            updated[func] = {layer: count / total for layer, count in shares.items()} if total else {}
        weights.update(updated)
    for func in foreign:
        if not weights[func]:
            weights[func] = {OTHER: 1.0}
    return weights


def reduce_to_layers(stats: Mapping[FuncKey, tuple], package_root: str) -> dict[str, Any]:
    """``pstats``-shaped statistics -> per-layer self time, calls, boundary spans.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct, callers)``
    with ``callers`` mapping a caller key to its ``(nc, cc, tt, ct)`` edge.
    Calls to non-``repro`` functions are counted under ``other`` while
    their time goes to the calling layer; an *entry* into a layer is a
    call whose (resolved) caller is in a different layer.
    """
    weights = caller_layers(stats, package_root)
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, float] = defaultdict(float)
    entries: dict[str, float] = defaultdict(float)
    spans: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0.0])
    for func, (_, ncalls, self_time, _, callers) in stats.items():
        layer = layer_of(func[0], package_root)
        calls[layer or OTHER] += ncalls
        if layer is not None:
            self_s[layer] += self_time
        if not callers:  # the profile's root
            if layer is None:
                self_s[OTHER] += self_time
            else:
                entries[layer] += ncalls
        for caller, (edge_calls, _, edge_self, edge_cum) in callers.items():
            caller_is_repro = layer_of(caller[0], package_root) is not None
            for caller_layer, share in weights.get(caller, {OTHER: 1.0}).items():
                if layer is None:
                    self_s[caller_layer] += edge_self * share
                    if caller_is_repro:
                        entries[OTHER] += edge_calls * share
                elif caller_layer != layer:
                    entries[layer] += edge_calls * share
                    span = spans[(caller_layer, f"{layer}.{func[2]}")]
                    span[0] += edge_calls * share
                    span[1] += edge_cum * share
    # Shares of a split call count are floats: round away the summation-order dust
    # so that counts repeat exactly from run to run.
    entries = {layer: round(count, 6) for layer, count in entries.items()}
    rows = [
        {"caller": caller, "callee": callee, "count": round(count, 6), "cum_s": cum_s}
        for (caller, callee), (count, cum_s) in spans.items()
    ]
    rows.sort(key=lambda row: (-row["cum_s"], row["caller"], row["callee"]))
    return {"self_s": dict(self_s), "calls": dict(calls), "entries": dict(entries), "spans": rows}


def layer_metrics(reduced: Mapping[str, Any], frames: int) -> dict[str, float]:
    """The ``<layer>.*`` and ``run.py_calls_per_frame`` values of one traced run.

    The known layers are always reported (0 when untouched); a layer the
    trace found beyond them is reported too.
    """
    total_self = sum(reduced["self_s"].values()) or 1.0
    names = list(metrics.LAYERS) + sorted(
        (set(reduced["self_s"]) | set(reduced["calls"])) - set(metrics.LAYERS)
    )
    values: dict[str, float] = {}
    for layer in names:
        values[f"{layer}.self_share"] = reduced["self_s"].get(layer, 0.0) / total_self
        values[f"{layer}.calls_per_frame"] = reduced["calls"].get(layer, 0.0) / frames
        values[f"{layer}.entries_per_frame"] = reduced["entries"].get(layer, 0.0) / frames
    values["run.py_calls_per_frame"] = sum(reduced["calls"].values()) / frames
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    child.add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        run, spec, spec_dict, entry = child.set_up(args)
        profile = cProfile.Profile()
        start = time.perf_counter()
        report = profile.runcall(run, spec)
        traced_wall_s = time.perf_counter() - start
        result = child.check(report, entry, spec_dict)
    except Exception as error:  # the run boundary: a failure is a counted outcome
        return child.emit_failure(error)
    import repro

    profile.create_stats()
    reduced = reduce_to_layers(profile.stats, str(Path(repro.__file__).parent))
    RESULTS_DIR.mkdir(exist_ok=True)
    profile.dump_stats(RESULTS_DIR / f"trace-{args.workload}.prof")
    with open(RESULTS_DIR / f"trace-{args.workload}.json", "w", encoding="utf-8") as handle:
        json.dump({"workload": args.workload, "seed": args.seed, "scale": args.scale,
                   "frames": result["frames"], "traced_wall_s": traced_wall_s, **reduced},
                  handle, indent=1)
    result.update(
        ok=True,
        traced_wall_s=traced_wall_s,
        layers=layer_metrics(reduced, result["frames"]),
        spans_top=reduced["spans"][:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
