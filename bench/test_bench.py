"""Self-test of the benchmark at ``--scale smoke`` (``pytest bench/ -q``).

Not collected by tier-1, whose ``testpaths`` is ``tests``.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path

import pytest

import compare
import metrics
import run
import trace
import workloads as workload_set

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]*")
MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


@pytest.fixture(scope="module")
def all_workloads():
    return workload_set.load_workloads()


@pytest.fixture(scope="module")
def smoke(all_workloads):
    tallies = run.measure(all_workloads, seed=11, scale="smoke", repeats=1)
    return {name: run.aggregate(tally) for name, tally in tallies.items()}


def test_every_applicable_metric_is_reported_with_a_unit(all_workloads, smoke):
    assert list(smoke) == list(all_workloads) and len(smoke) == 6
    for name, result in smoke.items():
        assert result["runs_failed"] == 0, result["errors"]
        # one pass over the program seeds, the traced run, and any calibration re-run
        assert result["runs_attempted"] == run.PROGRAM_SEEDS + 1 + result["calibration_reruns"]
        omitted = set(all_workloads[name]["omit"])
        expected = {metric["name"] for metric in metrics.END_TO_END} - omitted
        assert set(result["end_to_end"]) == expected
        assert set(metrics.PER_LAYER_UNITS) <= set(result["per_layer"])
        for metric_name, stat in {**result["end_to_end"], **result["per_layer"]}.items():
            assert NAME.fullmatch(metric_name) and stat["unit"]
        for stat in result["end_to_end"].values():
            assert stat["median"] > 0
        shares = [v["value"] for k, v in result["per_layer"].items() if k.endswith(".self_share")]
        assert sum(shares) == pytest.approx(1.0)
        assert result["spans_top"]


def test_contract_lines_carry_exactly_the_manifest_metrics(smoke):
    manifest = json.loads(MANIFEST.read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(smoke)
    for trace_flag, key in ((0, "end_to_end"), (1, "per_layer")):
        line = json.loads(run.contract_line(smoke["single-edge"], trace_flag))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        declared = {metric["name"]: metric["unit"] for metric in manifest[key]}
        assert {name: value["unit"] for name, value in line["metrics"].items()} == declared
    for declared in manifest["end_to_end"]:
        ours = metrics.END_TO_END_BY_NAME[declared["name"]]
        assert ours["everywhere"] and ours["better"] == declared["better"]
        # the manifest's bounds also cover seed-to-seed spread: see README "Bounds"
        assert ours["bound"] <= declared["bound"] <= 0.25


def test_unknown_workload_is_rejected(all_workloads):
    with pytest.raises(workload_set.UnknownWorkload, match="known workloads: engine-stress"):
        workload_set.select(all_workloads, "no-such-workload")
    assert "scale-stress + {duration_s=" in workload_set.provenance(all_workloads["engine-stress"])


def test_a_raising_spec_is_a_failed_run_not_a_crash(all_workloads, tmp_path):
    broken = {"broken": copy.deepcopy(all_workloads["single-edge"])}
    broken["broken"]["spec"]["no_such_axis"] = 1
    path = tmp_path / "workloads.json"
    path.write_text(json.dumps({"workloads": broken}))
    tally = run.measure(broken, seed=1, scale="smoke", repeats=1, program_seeds=2, traced=False,
                        workloads_file=path)["broken"]
    result = run.aggregate(tally)
    assert result["runs_attempted"] == 2 and result["runs_failed"] == 2
    assert "no_such_axis" in result["errors"][0]
    assert result["end_to_end"] == {}


def test_a_doctored_digest_trips_the_determinism_check():
    tally = run.Tally()
    tally.passes = [[{"report_digest": "a" * 64}, {"report_digest": "c" * 64}],
                    [{"report_digest": "b" * 64}, {"report_digest": "c" * 64}]]
    tally.fail_digest_mismatches()
    assert tally.failed == 1 and tally.passes[1] == [None, {"report_digest": "c" * 64}]
    assert "program seed #0: report_digest bbbbbbbbbbbb != aaaaaaaaaaaa" in tally.errors[0]


def _results(us_per_frame: float, f_score: float = 0.9) -> dict:
    def stat(value, spread=0.0):
        return {"median": value, "q1": value * (1 - spread), "q3": value * (1 + spread), "n": 5}

    return {"seed": 1, "scale": "full", "workloads": {"w": {
        "report_digest": "d",
        "end_to_end": {"us_per_frame": stat(us_per_frame, 0.01), "sim_f_score": stat(f_score)}}}}


def test_compare_verdicts_follow_bound_and_baseline_spread():
    def verdicts(new):
        return {row["metric"]: row["verdict"] for row in compare.compare(_results(100.0), new)}

    assert verdicts(_results(111.0)) == {"us_per_frame": "regressed", "sim_f_score": "identical"}
    assert verdicts(_results(109.0))["us_per_frame"] == "unresolved"
    assert verdicts(_results(100.0))["us_per_frame"] == "unresolved"  # never "unchanged"
    assert verdicts(_results(85.0))["us_per_frame"] == "improved"
    assert verdicts(_results(100.0, f_score=0.88))["sim_f_score"] == "regressed"
    assert verdicts(_results(100.0, f_score=0.899))["sim_f_score"] == "changed-within-bound"
    noisy = _results(100.0)
    noisy["workloads"]["w"]["end_to_end"]["us_per_frame"].update(q1=90.0, q3=110.0)
    row = compare.compare(noisy, _results(115.0))[0]
    assert row["verdict"] == "unresolved"  # beyond the bound but inside the baseline's own spread


def test_layer_reducer_makes_a_new_layer_of_an_unseen_package():
    root = "/x/src/repro"
    entry = (f"{root}/experiments/runner.py", 1, "run")
    fresh = (f"{root}/telemetry/spans.py", 5, "emit")
    builtin = ("~", 0, "<built-in method sorted>")
    key = (f"{root}/telemetry/spans.py", 9, "<lambda>")
    stats = {
        entry: (1, 1, 0.1, 1.0, {}),
        fresh: (10, 10, 0.4, 0.9, {entry: (10, 10, 0.4, 0.9)}),
        builtin: (10, 10, 0.3, 0.5, {fresh: (10, 10, 0.3, 0.5)}),
        key: (40, 40, 0.2, 0.2, {builtin: (40, 40, 0.2, 0.2)}),
    }
    assert trace.layer_of("/usr/lib/python3/heapq.py", root) is None
    reduced = trace.reduce_to_layers(stats, root)
    assert reduced["self_s"] == pytest.approx({"experiments": 0.1, "telemetry": 0.9})
    assert reduced["calls"] == {"experiments": 1, "telemetry": 50, "other": 10}
    # the sorted() key is called from telemetry through a built-in: not a boundary
    assert reduced["entries"] == {"experiments": 1, "telemetry": 10, "other": 10}
    values = trace.layer_metrics(reduced, frames=10)
    assert values["telemetry.self_share"] == pytest.approx(0.9)
    assert values["telemetry.entries_per_frame"] == 1.0 and values["sim.calls_per_frame"] == 0.0
    assert metrics.per_layer_unit("telemetry.self_share") == "share"
    assert reduced["spans"] == [{"caller": "experiments", "callee": "telemetry.emit", "count": 10, "cum_s": 0.9}]
