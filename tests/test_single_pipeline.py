"""The single-edge deployment on the one frame pipeline.

``CroesusSystem.run`` drives the same frame body as the cluster
(:mod:`repro.core.pipeline`), one lane, closed-loop.  This file guards
that fold:

* **pins** — five seeded single-edge runs hashed at three depths (the
  report, every frame trace, the order things happened in), captured on
  the hand-written ``CroesusSystem._video_process`` loop the commit
  before it was deleted.  Absolute timestamps are deliberately not
  hashed: the body sums the cloud leg as ``initial_done + (up + down) +
  detect + wait`` where the old loop walked the clock ``((now + up) +
  detect) + down``, which moves them by a few ULPs;
* **closed-loop properties** — what "frame ``k+1`` enters the edge only
  after frame ``k``'s final commit" means for responses, queue delays
  and the transaction history, with and without online adaptation;
* **source scan** — each pipeline stage has exactly one call site under
  ``src/repro``.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from pathlib import Path

import pytest

from repro.core.adaptive import AdaptationConfig
from repro.core.client import Client
from repro.core.system import CroesusSystem
from repro.experiments import get_scenario, run
from repro.experiments.spec import build_single_config
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.policy import TXN_POLICIES, ImmediatePolicy
from repro.video.library import make_video

from helpers import run_summary

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


# -- the five pinned runs ------------------------------------------------------------
def _spec(name: str, **overrides):
    return get_scenario(name).with_(**overrides)


#: name -> (spec, enable_feedback).  ``enable_feedback`` is a
#: ``CroesusConfig`` knob the spec layer does not expose, so that run has
#: no ``RunReport`` and pins its ``helpers.run_summary`` instead.  Its
#: pin was captured on the old loop *with* ``TemporalSmoother``'s
#: tie-break fixed (ties used to follow PYTHONHASHSEED, so the old loop
#: had no single answer to pin); the other four are the old loop as it was.
RUNS = {
    "fig4-ms-sr": (_spec("fig4-ms-sr"), False),
    "fig4-ms-ia": (_spec("fig4-ms-ia"), False),
    "batched-2pc": (_spec("fig4-ms-ia", transaction_policy="batched-2pc", seed=7), False),
    "async-2pc-ms-sr": (_spec("fig4-ms-sr", transaction_policy="async-2pc", seed=5), False),
    "enable-feedback": (_spec("fig4-ms-ia", frames=60, seed=11), True),
}


def _drive(spec, feedback: bool = False, adaptation: AdaptationConfig | None = None):
    """Run ``spec`` on a ``CroesusSystem`` with the system and client kept."""
    config = build_single_config(spec).with_feedback(feedback)
    video = make_video(spec.video, num_frames=spec.frames, seed=config.seed)
    system = CroesusSystem(config, adaptation=adaptation)
    client = Client(video)
    result = system.run(video, client=client)
    return system, client, result


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _report_digest(name: str, result) -> str:
    spec, feedback = RUNS[name]
    if feedback:
        return _sha(json.dumps(run_summary(result), sort_keys=True))
    return _sha(run(spec).to_json())


def _trace_digest(result) -> str:
    return _sha(
        [
            (
                trace.frame_id,
                trace.sent_to_cloud,
                tuple(trace.latency.to_dict().values()),
                (
                    trace.accuracy.true_positives,
                    trace.accuracy.false_positives,
                    trace.accuracy.false_negatives,
                ),
                trace.corrections,
                trace.apologies,
                trace.transactions_triggered,
                trace.frame_bytes_sent,
            )
            for trace in result.traces
        ]
    )


def _order_digest(system, client) -> str:
    return _sha(
        (
            [(response.frame_id, response.stage) for response in client.responses],
            [(record.transaction_id, record.section.value) for record in system.history],
        )
    )


#: name -> (report, traces, order) digests captured on the old loop.
PINS = {
    "fig4-ms-sr": (
        "441cde55cf3a87483c35270ad8db9ba169184e3bcbec424e9f5c106ca439104b",
        "de5d117a9d438df00c19d5129cc86d5d2890b74c8c1751387dfea10ec8688604",
        "462a52a66f08abd3b3a73aef48c8e472564cfe6dc2b1a1fa0f44d6e6e34936b0",
    ),
    "fig4-ms-ia": (
        "0c6ac9cee0dc8c08944c8acc6c47de597473451c166d7da8ed818a746933d38b",
        "de5d117a9d438df00c19d5129cc86d5d2890b74c8c1751387dfea10ec8688604",
        "462a52a66f08abd3b3a73aef48c8e472564cfe6dc2b1a1fa0f44d6e6e34936b0",
    ),
    "batched-2pc": (
        "add8e3a8adf799b7aaf1bab83a4d17e0bfb32d067ce207ab90068d570e2a1241",
        "186b028782876db505097a67ad9e0b1f7f4c490636a9adab8491f44ff8509adb",
        "48f61f56023b39a3e638c2ba30c8c9f9d8f656dcf64323e96a3b73082670c1c6",
    ),
    "async-2pc-ms-sr": (
        "8b5ea7b88a0295c3aefd7d1f7301d16f14143a873e0d7d29cb1a2ad4d02a0f24",
        "ef276520928888ecc71641104fdb102d0bac23fcbda75803c96f9765388f3005",
        "c66ff08dec6ba8678f9c20b4160021c4081495dad129c859fd1893b0206f7f5d",
    ),
    "enable-feedback": (
        "8a2ec7ceab91e6d4d08020e39fa1ba576858437394f25d151b9bd4c76d783e27",
        "7d86a32fb92731396e704c5e147c5db51ed29f12741cf68dea9b19822dad31b1",
        "b387fd3e7de0f7375781a1674b705a0e353ecf6fc1b91e1ee638bdb2b8b8cafa",
    ),
}


@pytest.mark.usefixtures("rows_kept")  # the order digest reads the History's sections
@pytest.mark.parametrize("name", sorted(RUNS))
def test_single_edge_run_is_pinned_at_three_depths(name):
    spec, feedback = RUNS[name]
    system, client, result = _drive(spec, feedback)
    assert (
        _report_digest(name, result),
        _trace_digest(result),
        _order_digest(system, client),
    ) == PINS[name]


# -- closed-loop properties ------------------------------------------------------------
@pytest.mark.parametrize("consistency", ["ms-sr", "ms-ia"])
@pytest.mark.parametrize(
    "adaptation",
    [None, AdaptationConfig(mode="retune", interval_s=0.5), AdaptationConfig(mode="feedback")],
    ids=["static", "retune", "feedback"],
)
def test_one_stream_is_served_closed_loop(consistency, adaptation):
    frames = 40
    spec = _spec("fig4-ms-ia", consistency=consistency, frames=frames, seed=23)
    system, client, result = _drive(spec, adaptation=adaptation)

    responses = client.responses
    assert len(responses) == 2 * frames
    assert [(r.frame_id, r.stage) for r in responses] == [
        (frame_id, stage) for frame_id in range(frames) for stage in ("initial", "final")
    ]
    # Frame k+1 enters the edge only after frame k's final commit ...
    for final, next_initial in zip(responses[1::2], responses[2::2]):
        assert next_initial.timestamp >= final.timestamp
    # ... so nothing ever queues, at the edge or before the final stage.
    assert result.num_frames == frames
    for trace in result.traces:
        assert trace.latency.queue_delay == 0.0
        assert trace.latency.final_queue_delay == 0.0
        assert trace.edge_id == 0

    assert len(system.history) > 0
    check = check_ms_sr if consistency == "ms-sr" else check_ms_ia
    assert check(system.history)
    assert (system.last_adaptation is not None) == (adaptation is not None)
    if adaptation is not None and adaptation.mode == "retune":
        assert system.last_adaptation.threshold_updates > 0


# -- a commit policy on one edge ---------------------------------------------------------
@pytest.mark.parametrize("consistency", ["ms-sr", "ms-ia"])
def test_every_commit_policy_runs_the_single_node_controller(consistency):
    """One edge owns every key, so no commit has a remote participant: every
    policy runs the node's single-node controller behind the immediate
    policy and reports what ``immediate-2pc`` reports, bar the echo."""
    controller = TwoStage2PL if consistency == "ms-sr" else MSIAController
    reports = []
    for policy in TXN_POLICIES:
        spec = _spec("fig4-ms-ia", consistency=consistency, frames=20, transaction_policy=policy)
        system = CroesusSystem(build_single_config(spec))
        assert type(system.edge.policy) is ImmediatePolicy
        assert type(system.edge.controller) is controller
        report = run(spec).to_dict()
        assert report.pop("transaction_policy") == report["scenario"].pop("transaction_policy")
        reports.append(report)
    assert all(report == reports[0] for report in reports)


# -- one call site per pipeline stage --------------------------------------------------
@pytest.mark.parametrize(
    "call", ["process_initial_stage(", "process_final_stage(", "observed_labels(", "cloud.detect("]
)
def test_each_pipeline_stage_has_one_call_site(call):
    definition = re.compile(r"^\s*def " + re.escape(call))
    sites = [
        f"{path.relative_to(SRC)}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if call in line and not definition.match(line) and not line.lstrip().startswith("#")
    ]
    assert len(sites) == 1, sites
    assert sites[0].startswith("core/pipeline.py:")


def test_core_does_not_import_the_cluster_and_the_old_loop_is_gone():
    tree = ast.parse((SRC / "core" / "pipeline.py").read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and not [module for module in imported if module.startswith("repro.cluster")]
    system = (SRC / "core" / "system.py").read_text()
    for gone in ("_video_process", "OpenLoopRunResult", "run_open_loop", "_adaptation_process"):
        assert gone not in system
