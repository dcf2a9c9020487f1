"""One measured run in a fresh process: set up, warm up, time ``run(spec)``
with tracing off, check the report, print one JSON line.

The program is used from outside: the only names taken from ``src/`` are
``repro.experiments.{ScenarioSpec, run, validate_report}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from typing import Any, Callable

import metrics
import workloads as workload_set


def set_up(args: argparse.Namespace) -> tuple[Callable[[Any], Any], Any, dict[str, Any], dict[str, Any]]:
    """Import the program, build the spec, run the warm-up.

    Returns ``(run, spec, spec_dict, workload_entry)``.
    """
    from repro.experiments import ScenarioSpec, run

    entry = workload_set.select(workload_set.load_workloads(args.workloads_file), args.workload)[
        args.workload
    ]
    divisor = workload_set.SMOKE_DIVISOR if args.scale == "smoke" else 1
    spec_dict = workload_set.spec_dict(entry, args.seed, divisor)
    warm_up = workload_set.spec_dict(entry, args.seed, divisor * workload_set.WARMUP_DIVISOR)
    run(ScenarioSpec.from_dict(warm_up))
    return run, ScenarioSpec.from_dict(spec_dict), spec_dict, entry


def check(report: Any, entry: dict[str, Any], spec_dict: dict[str, Any]) -> dict[str, Any]:
    """Validate the report and reduce it to what the orchestrator needs."""
    from repro.experiments import validate_report

    payload = report.to_dict()
    validate_report(payload)
    problem = metrics.conservation_problem(payload, entry, spec_dict)
    if problem:
        raise ValueError(f"conservation check failed: {problem}")
    return {
        "frames": payload["frames"],
        "report_digest": metrics.report_digest(payload),
        "sim": metrics.sim_end_to_end(payload, entry["omit"]),
        "report_layers": metrics.report_layer_metrics(payload),
    }


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--workloads-file", default=str(workload_set.WORKLOADS_FILE))
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the orchestrator just before the spawn "
                             "(one clock for every process of a boot, and no wall-clock steps)")


def emit_failure(error: BaseException) -> int:
    """Report a failed run as data, with the traceback on stderr."""
    traceback.print_exc()
    print(json.dumps({"ok": False, "error": f"{type(error).__name__}: {error}"}))
    return 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    args = parser.parse_args(argv)
    try:
        run, spec, spec_dict, entry = set_up(args)
        setup_s = time.monotonic() - args.spawned_at
        gc.collect()
        start = time.perf_counter()
        report = run(spec)
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = check(report, entry, spec_dict)
    except Exception as error:  # the run boundary: a failure is a counted outcome
        return emit_failure(error)
    result.update(
        ok=True,
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        setup_s=setup_s,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
