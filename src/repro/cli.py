"""Command-line interface for running Croesus experiments.

Usage (after ``pip install -e .``)::

    python -m repro run --video v1 --frames 80 --lower 0.3 --upper 0.7
    python -m repro tune --video v2 --target 0.85 --method brute --step 0.05
    python -m repro compare --video v4 --frames 60
    python -m repro cluster --edges 4 --streams 8 --router hotspot
    python -m repro cluster --edges 2 --streams 4 --fps 5 --adaptation retune
    python -m repro scenario fig2-v4
    python -m repro scenario --list
    python -m repro sweep cluster-scaleout
    python -m repro sweep --base cluster-uniform --axis num_edges=1,2,4,8
    python -m repro videos

Every command is a thin spec-builder over the declarative experiment
layer (:mod:`repro.experiments`): it constructs a
:class:`~repro.experiments.spec.ScenarioSpec`, hands it to the unified
runner, and renders the returned
:class:`~repro.experiments.report.RunReport`.  The flags that set spec
axes are declared on the spec's own fields (their ``flag`` metadata):
``cluster`` and ``scenario`` generate their arguments from those
declarations and apply them in one loop, ``run`` reads its
``--consistency`` off the same declaration, and the values are
validated by the spec (hence by the subsystem configs), never here.
The text of an optional subsystem's report block is rendered by the code
that builds the block.  Every command accepts
``--json`` (emit the machine-readable report instead of tables) and
``--output FILE`` (write wherever the output would have been printed);
invalid inputs exit with status 2, success with 0.  The commands that
execute a simulation (``run``, ``cluster``, ``scenario``) also accept
``--profile [FILE]``: the run happens under :mod:`cProfile`, the top 25
functions by cumulative time are printed to stderr, and ``FILE`` (if
given) receives the raw pstats dump.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path
from types import NoneType
from typing import Any, Sequence, get_args, get_origin, get_type_hints

from repro.analysis.tables import format_table
from repro.cluster.replication import ReplicationManager
from repro.cluster.results import ClusterRunResult
from repro.core.adaptive import AdaptationManager
from repro.core.optimizer import (
    ThresholdEvaluator,
    brute_force_search,
    gradient_step_search,
    threshold_grid,
)
from repro.experiments import (
    ScenarioSpec,
    Sweep,
    build_single_config,
    get_scenario,
    get_sweep,
    list_scenarios,
    list_sweeps,
    run as run_scenario,
)
from repro.experiments.report import RunReport
from repro.geo import GeoTier
from repro.video.library import VIDEO_LIBRARY


#: ``spec field -> AxisFlag`` of every axis a flag sets, in ``--help``
#: order: the flags are declared on the :class:`ScenarioSpec` fields.
_AXIS_FLAGS = dict(
    sorted(
        (
            (spec_field.name, spec_field.metadata["flag"])
            for spec_field in fields(ScenarioSpec)
            if "flag" in spec_field.metadata
        ),
        key=lambda item: item[1].order,
    )
)

#: The spec ``cluster`` starts from: its flag defaults are this spec's
#: field values (``--frames 40`` is the one departure from the spec default).
_CLUSTER_BASE = ScenarioSpec(deployment="cluster", frames=40)


def _add_axis_flags(parser: argparse.ArgumentParser, base: ScenarioSpec | None) -> None:
    """Add the axis flags: all of them defaulting to ``base``'s values, or,
    without a base, the ones with an ``override`` help defaulting to ``None``
    (= keep)."""
    hints = get_type_hints(ScenarioSpec)
    for name, flag in _AXIS_FLAGS.items():
        if base is None and flag.override is None:
            continue
        hint = hints[name]
        default = None if base is None else getattr(base, name)
        if get_origin(hint) is tuple:
            # A schedule axis: repeatable A:B:C triples, parsed on apply.
            kind: dict[str, Any] = {"action": "append"}
            default = None if default is None else list(default)
        else:
            kind = {"type": next(t for t in get_args(hint) or (hint,) if t is not NoneType)}
            if base is not None and default is None:
                default = flag.none
        parser.add_argument(
            flag.option,
            dest=name,
            default=default,
            choices=flag.choices,
            metavar=flag.metavar,
            help=flag.help if base is not None else flag.override,
            **kind,
        )


def _apply_axis_flags(spec: ScenarioSpec, args: argparse.Namespace) -> ScenarioSpec:
    """``spec`` with every axis flag ``args`` carries a value for applied."""
    overrides: dict[str, Any] = {}
    for name, flag in _AXIS_FLAGS.items():
        value = getattr(args, name, None)
        if value is None:
            continue
        if isinstance(value, list):
            value = tuple(_parse_triple(text, flag.option) for text in value)
        elif value == flag.none:
            value = None
        overrides[name] = value
    return spec.with_(**overrides)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Croesus: multi-stage edge-cloud video analytics (ICDE 2022 reproduction)",
    )
    # Global output contract, shared by every subcommand.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON instead of tables"
    )
    output.add_argument(
        "--output", metavar="FILE", default=None, help="write the output to FILE instead of stdout"
    )
    # Profiling contract of the commands that execute a simulation.
    profiling = argparse.ArgumentParser(add_help=False)
    profiling.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="FILE",
        help="run under cProfile; print the top 25 functions by cumulative "
        "time to stderr, and with FILE also dump the raw pstats data there "
        "(load it with `python -m pstats FILE` or snakeviz)",
    )

    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", parents=[output, profiling], help="run Croesus on one video"
    )
    _add_common_arguments(run_parser)
    run_parser.add_argument("--lower", type=float, default=0.3, help="lower threshold θL")
    run_parser.add_argument("--upper", type=float, default=0.7, help="upper threshold θU")
    flag = _AXIS_FLAGS["consistency"]
    run_parser.add_argument(
        flag.option, choices=flag.choices, default=ScenarioSpec.consistency, help=flag.help
    )

    tune_parser = subparsers.add_parser(
        "tune", parents=[output], help="find optimal bandwidth thresholds"
    )
    _add_common_arguments(tune_parser)
    tune_parser.add_argument("--target", type=float, default=0.8, help="F-score floor µ")
    tune_parser.add_argument(
        "--method",
        choices=["brute", "gradient", "all"],
        default="all",
        help="search strategy (all = brute + gradient)",
    )
    tune_parser.add_argument(
        "--step",
        type=float,
        default=None,
        metavar="STEP",
        help="grid resolution of the searches (default: each method's own)",
    )

    compare_parser = subparsers.add_parser(
        "compare",
        parents=[output],
        help="compare Croesus against the edge-only and cloud-only baselines",
    )
    _add_common_arguments(compare_parser)
    compare_parser.add_argument("--target", type=float, default=0.8, help="F-score floor µ")

    cluster_parser = subparsers.add_parser(
        "cluster",
        parents=[output, profiling],
        help="run many camera streams on a multi-edge cluster",
    )
    _add_axis_flags(cluster_parser, _CLUSTER_BASE)

    scenario_parser = subparsers.add_parser(
        "scenario", parents=[output, profiling], help="run a registered scenario by name"
    )
    scenario_parser.add_argument("name", nargs="?", help="registered scenario name")
    scenario_parser.add_argument(
        "--list", action="store_true", help="list the registered scenarios"
    )
    _add_axis_flags(scenario_parser, None)

    sweep_parser = subparsers.add_parser(
        "sweep", parents=[output], help="run a sweep over any ScenarioSpec axes"
    )
    sweep_parser.add_argument("name", nargs="?", help="registered sweep name")
    sweep_parser.add_argument("--list", action="store_true", help="list the registered sweeps")
    sweep_parser.add_argument(
        "--axis",
        action="append",
        default=[],
        metavar="FIELD=V1,V2,...",
        help="sweep axis (repeat for cross products), e.g. --axis num_edges=1,2,4,8",
    )
    sweep_parser.add_argument(
        "--base",
        metavar="SCENARIO",
        default=None,
        help="registered scenario the axes sweep over (for --axis sweeps)",
    )
    sweep_parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="run sweep cells on a process pool of this size (cells are "
        "independent seeded runs; results are identical to serial)",
    )

    subparsers.add_parser("videos", parents=[output], help="list the available video workloads")
    return parser


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--video", default="v1", choices=sorted(VIDEO_LIBRARY), help="video workload")
    parser.add_argument("--frames", type=int, default=80, help="number of frames to process")
    parser.add_argument("--seed", type=int, default=0, help="experiment seed")


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "videos": _cmd_videos,
        "run": _cmd_run,
        "tune": _cmd_tune,
        "compare": _cmd_compare,
        "cluster": _cmd_cluster,
        "scenario": _cmd_scenario,
        "sweep": _cmd_sweep,
    }
    return handlers[args.command](args)


# -- output plumbing ----------------------------------------------------------
def _fail(command: str, message: str) -> int:
    """Report one usage error on stderr and return exit status 2."""
    print(f"repro {command}: error: {message}", file=sys.stderr)
    return 2


def _emit(args: argparse.Namespace, text: str, payload: Any = None) -> int:
    """Write the command's output honouring ``--json`` / ``--output``.

    ``payload`` is the machine-readable form; when ``--json`` is given it
    replaces the human tables.  ``--output FILE`` redirects either form
    to a file.
    """
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.output:
        try:
            Path(args.output).write_text(text + "\n", encoding="utf-8")
        except OSError as error:
            return _fail(args.command, f"cannot write --output {args.output}: {error}")
    else:
        print(text)
    return 0


def _profiled(args: argparse.Namespace, thunk):
    """Run ``thunk`` honouring ``--profile [FILE]``.

    Without ``--profile`` this is a plain call.  With it, the run happens
    under :mod:`cProfile`; the top 25 functions by cumulative time go to
    stderr (stdout stays reserved for the report, so ``--json`` output
    remains parseable), and a ``FILE`` argument additionally dumps the
    raw pstats data for offline analysis.
    """
    profile = getattr(args, "profile", None)
    if profile is None:
        return thunk()
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        return thunk()
    finally:
        profiler.disable()
        if profile != "-":
            profiler.dump_stats(profile)
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats("cumulative").print_stats(25)
        print(stream.getvalue(), file=sys.stderr, end="")


# -- subcommands --------------------------------------------------------------
def _cmd_videos(args: argparse.Namespace) -> int:
    specs = sorted(VIDEO_LIBRARY.values(), key=lambda s: s.key)
    rows = [[spec.key, spec.query_class, spec.description] for spec in specs]
    payload = [
        {"key": spec.key, "query": spec.query_class, "description": spec.description}
        for spec in specs
    ]
    return _emit(args, format_table(["key", "query", "description"], rows), payload)


def _cmd_run(args: argparse.Namespace) -> int:
    # Spec validation covers the numeric arguments (frames > 0,
    # 0 <= lower <= upper < 1); the except below turns it into exit 2.
    try:
        spec = ScenarioSpec(
            deployment="single",
            video=args.video,
            frames=args.frames,
            seed=args.seed,
            lower_threshold=args.lower,
            upper_threshold=args.upper,
            consistency=args.consistency,
        )
    except ValueError as error:
        return _fail("run", str(error))
    report = _profiled(args, lambda: run_scenario(spec))
    table = format_table(
        ["video", "F-score", "initial latency (ms)", "final latency (ms)", "BU"],
        [
            [
                args.video,
                report.f_score,
                report.latency["initial_ms"],
                report.latency["final_ms"],
                report.bandwidth_utilization,
            ]
        ],
    )
    return _emit(args, table, report.to_dict())


def _cmd_tune(args: argparse.Namespace) -> int:
    if args.frames <= 0:
        return _fail("tune", f"--frames must be positive, got {args.frames}")
    if not 0.0 < args.target <= 1.0:
        return _fail("tune", f"--target must be in (0, 1], got {args.target}")
    if args.step is not None:
        try:
            threshold_grid(args.step)  # the grid owns the step's range; check it before profiling
        except ValueError as error:
            return _fail("tune", f"--step {args.step}: {error}")
    step_kwargs = {} if args.step is None else {"step": args.step}
    spec = ScenarioSpec(deployment="single", video=args.video, frames=args.frames, seed=args.seed)
    evaluator = ThresholdEvaluator.profile(
        build_single_config(spec), spec.video, num_frames=spec.frames
    )
    rows = []
    methods: dict[str, Any] = {}
    if args.method in ("brute", "all"):
        brute = brute_force_search(evaluator, target_f_score=args.target, **step_kwargs)
        rows.append(_tune_row("brute force", brute))
        methods["brute"] = brute
    if args.method in ("gradient", "all"):
        gradient = gradient_step_search(evaluator, target_f_score=args.target, **step_kwargs)
        rows.append(_tune_row("gradient step", gradient))
        methods["gradient"] = gradient
    table = format_table(
        ["method", "(θL, θU)", "BU", "F-score", "evaluations", "frame rescores"], rows
    )
    payload = {
        "scenario": spec.to_dict(),
        "target_f_score": args.target,
        "methods": {
            name: {
                "thresholds": list(result.thresholds),
                "bandwidth_utilization": result.best.bandwidth_utilization,
                "f_score": result.best.f_score,
                "evaluations": result.evaluations,
                "frame_rescores": result.frame_rescores,
                "feasible": result.feasible,
            }
            for name, result in methods.items()
        },
    }
    return _emit(args, table, payload)


def _tune_row(name: str, result: Any) -> list[Any]:
    return [
        name,
        str(result.thresholds),
        result.best.bandwidth_utilization,
        result.best.f_score,
        result.evaluations,
        result.frame_rescores,
    ]


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.frames <= 0:
        return _fail("compare", f"--frames must be positive, got {args.frames}")
    if not 0.0 < args.target <= 1.0:
        return _fail("compare", f"--target must be in (0, 1], got {args.target}")
    base = ScenarioSpec(deployment="single", video=args.video, frames=args.frames, seed=args.seed)
    evaluator = ThresholdEvaluator.profile(
        build_single_config(base), base.video, num_frames=base.frames
    )
    optimum = brute_force_search(evaluator, target_f_score=args.target)
    lower, upper = optimum.thresholds

    reports = [
        run_scenario(base.with_(lower_threshold=lower, upper_threshold=upper)),
        run_scenario(base.with_(system="edge-only")),
        run_scenario(base.with_(system="cloud-only")),
    ]
    rows = [
        [
            report.system,
            report.f_score,
            report.latency["initial_ms"],
            report.latency["final_ms"],
            report.bandwidth_utilization,
        ]
        for report in reports
    ]
    table = format_table(
        ["system", "F-score", "initial latency (ms)", "final latency (ms)", "BU"], rows
    )
    payload = {
        "target_f_score": args.target,
        "tuned_thresholds": [lower, upper],
        "reports": [report.to_dict() for report in reports],
    }
    return _emit(args, table, payload)


def _cmd_cluster(args: argparse.Namespace) -> int:
    try:
        spec = _apply_axis_flags(_CLUSTER_BASE, args)
    except ValueError as error:
        return _fail("cluster", str(error))
    report = _profiled(args, lambda: run_scenario(spec))
    return _emit(args, _cluster_text(report), report.to_dict())


def _cluster_text(report: RunReport) -> str:
    """The cluster command's human-readable output, from one report."""
    edge_rows = [
        [
            edge["edge_id"],
            edge["machine"],
            len(edge["streams"]),
            edge["frames_processed"],
            f"{edge['utilization']:.1%}",
            edge["mean_queue_delay_ms"],
        ]
        for edge in report.edges
    ]
    blocks = [
        format_table(
            ["edge", "machine", "streams", "frames", "utilization", "queue delay (ms)"], edge_rows
        ),
        format_table(
            ["throughput (fps)", "queue delay (ms)", "cross-partition", "2PC abort rate", "F-score"],
            [
                [
                    report.throughput_fps,
                    report.queue_delay_ms,
                    f"{report.cross_partition_fraction:.1%}"
                    f" ({report.cross_partition_txns} txns)",
                    f"{report.abort_rate:.1%}",
                    report.f_score,
                ]
            ],
        ),
    ]
    if report.traffic:
        blocks += ClusterRunResult.traffic_text(report.traffic)
    if report.coordinator_round_trips:
        line = (
            f"transaction policy: {report.transaction_policy} — "
            f"{report.coordinator_round_trips} coordinator round trips over "
            f"{report.cross_partition_txns} cross-partition txns "
            f"({report.round_trips_per_cross_partition_txn:.2f}/txn)"
        )
        if report.coordinator_batches:
            line += f", {report.coordinator_batches} batches"
        if report.overlap_saved_ms:
            line += f", {report.overlap_saved_ms:.1f} ms prepare overlap saved"
        blocks.append(line)
    cloud = report.cloud_queue or {}
    if cloud.get("queued"):
        blocks.append(
            f"cloud queueing: {cloud['queued']}/{cloud['validations']} validations waited "
            f"(mean over all {cloud['validations']}: {cloud['mean_delay_ms']:.0f} ms, "
            f"max {cloud['max_delay_ms']:.0f} ms)"
        )
    if report.batch_flushes:
        flushes = report.batch_flushes
        blocks.append(
            f"coordinator batches: {flushes['flushes']} flushes covering "
            f"{flushes['transactions']} commits "
            f"({flushes['transactions_per_flush']:.1f}/flush, "
            f"mean {flushes['mean_duration_ms']:.1f} ms)"
        )
    if report.migration_events:
        moved = {event["stream"] for event in report.migration_events}
        blocks.append(
            f"runtime migrations: {len(report.migration_events)} ({len(moved)} streams)"
        )
        for event in report.migration_events:
            blocks.append(
                f"  t={event['time_s']:6.2f}s  {event['stream']}: "
                f"edge {event['from_edge']} -> edge {event['to_edge']}"
            )
    if report.checkpoints:
        blocks.append(f"checkpoints: {report.checkpoints}")
    if report.failure_events:
        blocks.append(
            f"failures: {len(report.failure_events)} — total downtime "
            f"{report.downtime_ms:.0f} ms, WAL replay {report.recovery_time_ms:.0f} ms, "
            f"{report.frames_replayed} transactions replayed, "
            f"{report.txns_aborted_by_failure} txns aborted by failure"
        )
        for event in report.failure_events:
            blocks.append(
                f"  t={event['failed_at_s']:6.2f}s  edge {event['edge']} failed "
                f"({event['streams_migrated']} streams migrated, "
                f"{event['txns_aborted']} in-flight txns aborted); "
                f"rejoined t={event['recovered_at_s']:.2f}s after replaying "
                f"{event['records_replayed']} records"
            )
    if report.replication:
        blocks += ReplicationManager.summary_text(report.replication)
    if report.geo:
        blocks += GeoTier.summary_text(report.geo)
    if report.adaptation:
        blocks += AdaptationManager.report_text(
            report.adaptation,
            report.threshold_updates,
            report.tuner_evaluations,
            report.tuner_frame_rescores,
        )
    if report.reshard_events:
        blocks.append(f"re-shards: {len(report.reshard_events)}")
        for event in report.reshard_events:
            blocks.append(
                f"  t={event['time_s']:6.2f}s  partition {event['partition']}: "
                f"edge {event['from_edge']} -> edge {event['to_edge']} "
                f"({event['keys_copied']} keys copied, "
                f"{event['records_shipped']} log records shipped)"
            )
    return "\n".join(blocks)


_REPORT_HEADERS = [
    "scenario",
    "deployment",
    "frames",
    "F-score",
    "BU",
    "initial (ms)",
    "final (ms)",
    "throughput (fps)",
    "queue delay (ms)",
]


def _report_row(name: str, report: RunReport) -> list[Any]:
    return [
        name,
        report.deployment,
        report.frames,
        report.f_score,
        report.bandwidth_utilization,
        report.latency["initial_ms"],
        report.latency["final_ms"],
        report.throughput_fps,
        report.queue_delay_ms,
    ]


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list:
        entries = list_scenarios()
        table = format_table(
            ["name", "deployment", "description"],
            [[entry.name, entry.build().deployment, entry.description] for entry in entries],
        )
        payload = [
            {
                "name": entry.name,
                "description": entry.description,
                "scenario": entry.build().to_dict(),
            }
            for entry in entries
        ]
        return _emit(args, table, payload)
    if not args.name:
        return _fail("scenario", "a scenario name is required (or use --list)")
    try:
        spec = _apply_axis_flags(get_scenario(args.name), args)
    except KeyError as error:
        return _fail("scenario", str(error.args[0]))
    except ValueError as error:
        return _fail("scenario", str(error))
    report = _profiled(args, lambda: run_scenario(spec))
    table = format_table(_REPORT_HEADERS, [_report_row(args.name, report)])
    if report.deployment == "cluster":
        table += "\n" + _cluster_text(report)
    return _emit(args, table, report.to_dict())


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.list:
        entries = list_sweeps()
        table = format_table(
            ["name", "description"], [[entry.name, entry.description] for entry in entries]
        )
        payload = [{"name": entry.name, "description": entry.description} for entry in entries]
        return _emit(args, table, payload)

    if args.name:
        if args.axis or args.base:
            return _fail("sweep", "give either a registered sweep name or --base/--axis, not both")
        try:
            sweep = get_sweep(args.name)
        except KeyError as error:
            return _fail("sweep", str(error.args[0]))
    else:
        if not args.axis:
            return _fail("sweep", "an --axis (or a registered sweep name) is required")
        try:
            axes = [_parse_axis(text) for text in args.axis]
            base = get_scenario(args.base) if args.base else None
            # Ad-hoc grids may cross into invalid combinations (e.g. a
            # full threshold grid); skip those cells instead of dying.
            sweep = Sweep(base=base, axes=axes, skip_invalid=True)
        except KeyError as error:
            return _fail("sweep", str(error.args[0]))
        except ValueError as error:
            return _fail("sweep", str(error))

    if args.workers < 1:
        return _fail("sweep", f"--workers must be at least 1, got {args.workers}")
    try:
        result = sweep.run(max_workers=args.workers)
    except (ValueError, TypeError) as error:
        return _fail("sweep", str(error))
    if not result.cells:
        return _fail(
            "sweep",
            f"no valid cells: all {len(result.skipped)} axis combinations failed validation",
        )
    axis_fields = [axis.field for axis in sweep.axes]
    rows = [
        [str(cell.assignment[field]) for field in axis_fields]
        + _report_row("-", cell.report)[2:]
        for cell in result.cells
    ]
    table = format_table(axis_fields + _REPORT_HEADERS[2:], rows)
    if result.skipped:
        table += f"\nskipped {len(result.skipped)} invalid combinations"
    return _emit(args, table, result.to_dict())


def _parse_triple(text: str, option: str) -> tuple[float, float, float]:
    """Parse one ``A:B:C`` schedule argument (``--fail`` / ``--reshard``)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{option} must look like A:B:C, got {text!r}")
    try:
        return tuple(float(part) for part in parts)  # type: ignore[return-value]
    except ValueError:
        raise ValueError(f"{option} needs three numbers, got {text!r}") from None


def _parse_axis(text: str):
    """Parse one ``--axis FIELD=V1,V2,...`` argument into a SweepAxis."""
    from repro.experiments.sweep import SweepAxis

    field, separator, values_text = text.partition("=")
    if not separator or not field or not values_text:
        raise ValueError(f"--axis must look like FIELD=V1,V2,..., got {text!r}")
    return SweepAxis(field, tuple(_parse_value(value) for value in values_text.split(",")))


def _parse_value(text: str):
    """Coerce one axis value: None, int, float, or string."""
    lowered = text.strip().lower()
    if lowered in ("none", "null", "unbounded"):
        return None
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text.strip()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
