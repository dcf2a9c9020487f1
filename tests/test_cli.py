"""Tests for the command-line interface."""

import argparse
import hashlib
import json
from dataclasses import fields

import pytest

from repro.cli import _AXIS_FLAGS, build_parser, main
from repro.core.optimizer import ThresholdEvaluator, gradient_step_search
from repro.experiments import ScenarioSpec, build_single_config
from repro.experiments.report import REQUIRED_KEYS, validate_report

#: Every subcommand's option strings, as they stood before the axis flags
#: were declared once in one flag table: no flag may be gained or lost.
#: ``run`` has since dropped ``--txn-policy``, a cluster-only axis that
#: changed nothing a single-edge run reports.
OPTION_STRINGS = {
    "run": "--consistency --frames --json --lower --output --profile --seed --upper --video",
    "tune": "--frames --json --method --output --seed --step --target --video",
    "compare": "--frames --json --output --seed --target --video",
    "cluster": "--adaptation --adaptation-interval --adaptation-target --admission "
    "--apology-budget --checkpoint-interval --cloud-servers --consistency "
    "--cross-region-policy --discipline --duration --edges --fail --fps --frames --json "
    "--offered-rate --output --partitions-per-edge --placement --profile --regions "
    "--replication-factor --replication-mode --reshard --router --seed --streams --traffic "
    "--txn-policy --wan-link",
    "scenario": "--adaptation --adaptation-interval --adaptation-target --cross-region-policy "
    "--json --list --output --placement --profile --regions --replication-factor "
    "--replication-mode --txn-policy --wan-link",
    "sweep": "--axis --base --json --list --output --workers",
    "videos": "--json --output",
}


#: sha256 of each subcommand parser's actions as plain data (see
#: :func:`parser_facts`), captured before the axis flags were read off the
#: :class:`ScenarioSpec` field metadata: every option string, dest,
#: default, choice, metavar, help text, argparse type and action class must
#: survive a change to where the flags are declared (``run``'s pin was
#: re-captured when ``--txn-policy`` went, the one action it lost).  Unlike
#: ``format_help()`` text, these facts do not depend on the Python version.
PARSER_PINS = {
    "cluster": "ce1af2e3bd427350c7c71a11db0c9194fa92cf7bbd2857427e64714840f51770",
    "compare": "a28b6e36640ec3ae70375000b74f245ca8f17c3decd2786d6d62f59b9cd9678e",
    "run": "02680cd2ff270084df00a365c2d4f83060a45a2dd4003beb6342326fbe4577ff",
    "scenario": "dc2057158c9edec7266a1b697ceb3bf8494cf1448ef5b712c456af5bfb8061bf",
    "sweep": "8a87d73f316124b851fb62c82bc25048dc56d184039f0ad7fe613d70ac314f5d",
    "tune": "8237f2303c62b97bab6fb3cd5d2eec81629c0ed43afa914018cdb34a6866b0eb",
    "videos": "389541ac1a3309d904700990d6db2746483345b67c5e151126c5f485729f647b",
}


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return subparsers.choices


def parser_facts(parser: argparse.ArgumentParser) -> list[list]:
    """One row per action, in the order the parser holds them."""
    return [
        [
            action.option_strings,
            action.dest,
            action.default,
            None if action.choices is None else list(action.choices),
            action.metavar,
            action.help,
            getattr(action.type, "__name__", None),
            type(action).__name__,
        ]
        for action in parser._actions
    ]


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.video == "v1"
        assert args.lower == 0.3
        assert args.consistency == "ms-ia"
        assert args.json is False
        assert args.output is None

    def test_txn_policy_is_a_cluster_flag_only(self, capsys):
        """The commit policy changes nothing a single-edge run reports, so
        ``run`` refuses the flag while ``cluster`` and ``scenario`` take it."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--txn-policy", "batched-2pc"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --txn-policy" in capsys.readouterr().err
        for command in ("cluster", "scenario"):
            args = build_parser().parse_args([command, "--txn-policy", "batched-2pc"])
            assert args.transaction_policy == "batched-2pc"

    def test_unknown_video_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--video", "v99"])

    def test_every_command_accepts_the_output_flags(self):
        for command in ("run", "tune", "compare", "cluster", "scenario", "sweep", "videos"):
            args = build_parser().parse_args([command, "--json"])
            assert args.json is True, command


    def test_no_subcommand_gained_or_lost_a_flag(self):
        found = {
            name: " ".join(
                sorted(
                    option
                    for action in parser._actions
                    for option in action.option_strings
                    if option not in ("-h", "--help")
                )
            )
            for name, parser in subcommand_parsers().items()
        }
        assert found == OPTION_STRINGS

    @pytest.mark.parametrize("command", sorted(OPTION_STRINGS))
    def test_parser_actions_are_pinned(self, command):
        facts = json.dumps(parser_facts(subcommand_parsers()[command]), sort_keys=True)
        digest = hashlib.sha256(facts.encode("utf-8")).hexdigest()
        assert digest == PARSER_PINS[command]

    def test_axis_flags_are_read_off_the_spec_fields(self):
        """The flags are the ``ScenarioSpec`` fields' declared ones, in their
        declared order; ``cluster`` defaults to the spec field's default (or
        the flag's stand-in for ``None``) — except ``--frames``, the one
        stated departure."""
        declared = {
            spec_field.name: spec_field
            for spec_field in fields(ScenarioSpec)
            if "flag" in spec_field.metadata
        }
        assert set(_AXIS_FLAGS) == set(declared)
        assert len(_AXIS_FLAGS) == 28
        assert sum(flag.override is not None for flag in _AXIS_FLAGS.values()) == 10
        assert [flag.order for flag in _AXIS_FLAGS.values()] == list(range(28))
        cluster = subcommand_parsers()["cluster"]
        for name, flag in _AXIS_FLAGS.items():
            assert flag is declared[name].metadata["flag"], name
            expected = declared[name].default
            if flag.option == "--frames":
                expected = 40
            elif expected is None:
                expected = flag.none
            elif isinstance(expected, tuple):
                expected = list(expected)
            assert cluster.get_default(name) == expected, flag.option

    def test_scenario_overrides_default_to_keep(self):
        args = build_parser().parse_args(["scenario", "cluster-small"])
        for name, flag in _AXIS_FLAGS.items():
            if flag.override is not None:
                assert getattr(args, name) is None, flag.option
            else:
                assert not hasattr(args, name), flag.option


class TestCommands:
    def test_videos_lists_workloads(self, capsys):
        assert main(["videos"]) == 0
        output = capsys.readouterr().out
        for key in ("v1", "v2", "v3", "v4", "v5"):
            assert key in output

    def test_run_prints_metrics(self, capsys):
        assert main(["run", "--video", "v1", "--frames", "10", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "F-score" in output
        assert "v1" in output

    def test_run_with_ms_sr(self, capsys):
        assert main(
            ["run", "--video", "v1", "--frames", "8", "--consistency", "ms-sr"]
        ) == 0
        assert "F-score" in capsys.readouterr().out

    def test_tune_gradient_only(self, capsys):
        assert main(
            ["tune", "--video", "v1", "--frames", "20", "--method", "gradient", "--target", "0.7"]
        ) == 0
        output = capsys.readouterr().out
        assert "gradient step" in output
        assert "brute force" not in output

    def test_tune_both_methods(self, capsys):
        assert main(
            ["tune", "--video", "v3", "--frames", "20", "--target", "0.7", "--method", "all"]
        ) == 0
        output = capsys.readouterr().out
        assert "gradient step" in output
        assert "brute force" in output

    def test_tune_all_methods_by_default(self, capsys):
        assert main(["tune", "--video", "v3", "--frames", "20", "--target", "0.7"]) == 0
        output = capsys.readouterr().out
        assert "brute force" in output
        assert "gradient step" in output
        assert "frame rescores" in output
        assert main(
            ["tune", "--video", "v3", "--frames", "20", "--target", "0.7", "--json"]
        ) == 0
        assert set(json.loads(capsys.readouterr().out)["methods"]) == {"brute", "gradient"}

    @pytest.mark.parametrize("method", ["descent", "grid", "both"])
    def test_tune_has_no_method_aliases(self, method, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tune", "--method", method])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_tune_brute_rescores_the_table_not_every_pair(self, capsys):
        """Brute force reads every pair off the evaluator's table: it
        label-matches each frame once per decision state, far fewer times
        than once per pair."""
        assert main(
            ["tune", "--video", "v1", "--frames", "25", "--target", "0.7",
             "--step", "0.05", "--method", "brute", "--json"]
        ) == 0
        brute = json.loads(capsys.readouterr().out)["methods"]["brute"]
        assert brute["feasible"]
        assert 0 < brute["frame_rescores"] * 10 < brute["evaluations"] * 25

    def test_tune_step_reaches_the_gradient_search(self, capsys):
        assert main(
            ["tune", "--video", "v1", "--frames", "20", "--target", "0.7",
             "--step", "0.05", "--method", "gradient", "--json"]
        ) == 0
        entry = json.loads(capsys.readouterr().out)["methods"]["gradient"]
        spec = ScenarioSpec(deployment="single", video="v1", frames=20)
        evaluator = ThresholdEvaluator.profile(build_single_config(spec), "v1", num_frames=20)
        direct = gradient_step_search(evaluator, 0.7, step=0.05)
        assert entry == {
            "thresholds": list(direct.thresholds),
            "bandwidth_utilization": direct.best.bandwidth_utilization,
            "f_score": direct.best.f_score,
            "evaluations": direct.evaluations,
            "frame_rescores": direct.frame_rescores,
            "feasible": direct.feasible,
        }
        # A 0.05 step lands on pairs the default 0.1 grid does not have.
        default = gradient_step_search(evaluator, 0.7)
        assert direct.scores != default.scores

    def test_tune_step_outside_the_grid_exits_2_before_profiling(self, capsys, monkeypatch):
        """``--step 0.6`` used to pass the CLI's own bound, profile the
        video and die in the grid with a traceback."""

        def no_profiling(*args, **kwargs):
            raise AssertionError("profiled before the step was checked")

        monkeypatch.setattr(ThresholdEvaluator, "profile", no_profiling)
        argv = ["tune", "--video", "v1", "--frames", "10", "--step", "0.6", "--method", "brute"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "repro tune: error: --step 0.6: grid step must be in (0, 0.5]\n"
        )

    def test_compare_prints_three_systems(self, capsys):
        assert main(["compare", "--video", "v1", "--frames", "15", "--target", "0.7"]) == 0
        output = capsys.readouterr().out
        for name in ("croesus", "edge-only", "cloud-only"):
            assert name in output

    def test_cluster_prints_edge_table(self, capsys):
        assert main(
            ["cluster", "--edges", "2", "--streams", "2", "--frames", "4", "--seed", "5"]
        ) == 0
        output = capsys.readouterr().out
        assert "machine" in output
        assert "throughput (fps)" in output

    def test_cluster_with_failure_prints_the_availability_timeline(self, capsys):
        assert main(
            [
                "cluster",
                "--edges", "3",
                "--streams", "4",
                "--frames", "8",
                "--fps", "5",
                "--fail", "1:1.0:2.0",
                "--checkpoint-interval", "0.5",
                "--seed", "11",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "failures: 1" in output
        assert "edge 1 failed" in output
        assert "checkpoints:" in output

    def test_cluster_with_adaptation_prints_the_controller_summary(self, capsys):
        assert main(
            [
                "cluster",
                "--edges", "2",
                "--streams", "3",
                "--frames", "10",
                "--fps", "5",
                "--adaptation", "retune",
                "--adaptation-interval", "0.5",
                "--seed", "7",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "threshold adaptation: retune" in output
        assert "tuner evaluations" in output
        assert "cam0-v1" in output

    def test_scenario_adaptation_override(self, capsys):
        """--adaptation none strips the registered scenario's adaptation."""
        assert main(["scenario", "adaptive-thresholds", "--adaptation", "none", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["threshold_adaptation"] is None
        assert payload["threshold_updates"] == 0
        assert payload["adaptation"] is None

    def test_cluster_with_reshard_prints_the_move(self, capsys):
        assert main(
            [
                "cluster",
                "--edges", "3",
                "--streams", "4",
                "--frames", "6",
                "--fps", "5",
                "--reshard", "1.0:0:2",
                "--seed", "11",
            ]
        ) == 0
        output = capsys.readouterr().out
        assert "re-shards: 1" in output
        assert "partition 0: edge 0 -> edge 2" in output

    def test_scenario_list(self, capsys):
        assert main(["scenario", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fig2-v1" in output
        assert "cluster-small" in output

    def test_scenario_runs_by_name(self, capsys):
        assert main(["scenario", "cluster-small"]) == 0
        output = capsys.readouterr().out
        assert "cluster-small" in output
        assert "F-score" in output

    def test_sweep_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        output = capsys.readouterr().out
        assert "cluster-scaleout" in output

    def test_sweep_over_an_axis(self, capsys):
        assert main(
            ["sweep", "--base", "cluster-small", "--axis", "num_edges=1,2"]
        ) == 0
        output = capsys.readouterr().out
        assert "num_edges" in output
        assert "throughput (fps)" in output

    def test_sweep_skips_invalid_combinations(self, capsys):
        """An ad-hoc grid with some invalid cells runs the valid ones."""
        assert main(
            ["sweep", "--base", "cluster-small", "--axis", "frames=0,4"]
        ) == 0
        output = capsys.readouterr().out
        assert "skipped 1 invalid combinations" in output


class TestJsonOutput:
    """--json must parse and carry the shared report schema's keys."""

    def test_run_json_is_a_valid_report(self, capsys):
        assert main(["run", "--video", "v1", "--frames", "8", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["deployment"] == "single"
        assert set(REQUIRED_KEYS) <= set(payload)

    def test_cluster_json_is_a_valid_report(self, capsys):
        assert main(
            ["cluster", "--edges", "2", "--streams", "2", "--frames", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["deployment"] == "cluster"
        assert len(payload["edges"]) == 2

    def test_one_stream_cluster_json_is_a_valid_report(self, capsys):
        """No ``--num-long`` flag exists, so the inert default must not
        reject ``--streams 1``."""
        assert main(
            ["cluster", "--edges", "1", "--streams", "1", "--frames", "5", "--json"]
        ) == 0
        payload = validate_report(json.loads(capsys.readouterr().out))
        assert (payload["streams"], payload["frames"]) == (1, 5)

    def test_scenario_json_is_a_valid_report(self, capsys):
        assert main(["scenario", "cluster-small", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        validate_report(payload)
        assert payload["scenario"]["seed"] == 11

    def test_compare_json_carries_three_reports(self, capsys):
        assert main(
            ["compare", "--video", "v1", "--frames", "10", "--target", "0.7", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["reports"]) == 3
        for report in payload["reports"]:
            validate_report(report)
        assert len(payload["tuned_thresholds"]) == 2

    def test_tune_json_carries_methods(self, capsys):
        assert main(
            ["tune", "--video", "v1", "--frames", "15", "--method", "gradient",
             "--target", "0.7", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "gradient" in payload["methods"]
        assert len(payload["methods"]["gradient"]["thresholds"]) == 2

    def test_videos_json_lists_workloads(self, capsys):
        assert main(["videos", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert {entry["key"] for entry in payload} == {
            "v1",
            "v2",
            "v3",
            "v4",
            "v5",
            "stress",
        }

    def test_scenario_list_json(self, capsys):
        assert main(["scenario", "--list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {entry["name"] for entry in payload}
        assert "cluster-small" in names

    def test_sweep_json_serialises_cells(self, capsys):
        assert main(
            ["sweep", "--base", "cluster-small", "--axis", "num_edges=1", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["cells"]) == 1
        validate_report(payload["cells"][0]["report"])

    def test_output_writes_to_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert main(
            ["run", "--video", "v1", "--frames", "8", "--json", "--output", str(target)]
        ) == 0
        assert capsys.readouterr().out == ""
        validate_report(json.loads(target.read_text()))


class TestInvalidInput:
    """Bad arguments exit 2 with a message instead of raising a traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--frames", "0"],
            ["run", "--frames", "-5"],
            ["run", "--lower", "0.8", "--upper", "0.2"],
            ["run", "--lower", "-0.1", "--upper", "0.5"],
            ["run", "--upper", "1.5"],
            ["tune", "--frames", "0"],
            ["tune", "--target", "0"],
            ["tune", "--target", "1.5"],
            ["tune", "--target", "-0.3"],
            ["tune", "--step", "0"],
            ["tune", "--step", "0.95"],
            ["compare", "--frames", "-1"],
            ["compare", "--target", "2.0"],
            ["cluster", "--edges", "0"],
            ["cluster", "--streams", "-1"],
            ["cluster", "--frames", "0"],
            ["cluster", "--fps", "0"],
            ["cluster", "--cloud-servers", "-1"],
            ["cluster", "--fail", "1:2.0"],
            ["cluster", "--fail", "1:2.0:1.0"],
            ["cluster", "--fail", "one:2.0:3.0"],
            ["cluster", "--edges", "2", "--fail", "5:1.0:2.0"],
            ["cluster", "--checkpoint-interval", "-1"],
            ["cluster", "--reshard", "1.0:0"],
            ["cluster", "--edges", "2", "--reshard", "1.0:9:0"],
            ["cluster", "--adaptation", "retune", "--adaptation-interval", "0"],
            ["cluster", "--adaptation", "feedback", "--adaptation-target", "0"],
            ["scenario", "adaptive-thresholds", "--adaptation-target", "1.5"],
            ["scenario", "geo-baseline", "--txn-policy", "batched-2pc"],
            ["cluster", "--regions", "2", "--router", "migrating"],
            ["scenario"],
            ["scenario", "no-such-scenario"],
            ["sweep"],
            ["sweep", "no-such-sweep"],
            ["sweep", "--axis", "not_a_field=1"],
            ["sweep", "--axis", "num_edges"],
            ["sweep", "--base", "no-such-scenario", "--axis", "num_edges=1"],
            ["sweep", "cluster-scaleout", "--axis", "num_edges=1"],
            ["sweep", "--base", "cluster-small", "--axis", "num_edges=two"],
            ["sweep", "--base", "cluster-small", "--axis", "frames=0,-1"],
            ["sweep", "--base", "fig2-v1", "--axis", "num_edges=1,2"],
            ["videos", "--output", "/no/such/dir/out.txt"],
        ],
    )
    def test_exits_2_with_a_message(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error" in captured.err
        assert captured.out == ""
