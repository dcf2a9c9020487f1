"""Tests for the declarative experiment layer (spec, runner, sweeps, registry)."""

import json
import os
import subprocess
import sys
from dataclasses import dataclass, fields

import pytest

import repro
from repro.cluster import ClusterConfig, ClusterSystem
from repro.core.baselines import run_croesus
from repro.core.config import CroesusConfig
from repro.experiments import (
    CLUSTER_FIELDS,
    REQUIRED_KEYS,
    ReportSchemaError,
    RunReport,
    ScenarioSpec,
    Sweep,
    SweepAxis,
    build_single_config,
    get_scenario,
    get_sweep,
    list_scenarios,
    list_sweeps,
    register_scenario,
    run,
    validate_report,
)
from repro.video.library import make_camera_streams


def cluster_spec(**overrides) -> ScenarioSpec:
    base = dict(deployment="cluster", num_edges=2, streams=2, frames=4, seed=5)
    base.update(overrides)
    return ScenarioSpec(**base)


def assert_report_matches_cluster_result(report: RunReport, result) -> None:
    """The runner's normalisation of a ``ClusterRunResult``, field by field."""
    assert len(report.edges) == len(result.edges)
    assert report.streams == len(result.per_stream)
    assert report.frames == result.num_frames
    assert report.makespan_s == result.makespan
    assert report.throughput_fps == result.throughput_fps
    assert report.queue_delay_ms == result.mean_queue_delay * 1000.0
    assert report.cloud_queue_delay_ms == result.mean_cloud_queue_delay * 1000.0
    assert report.max_utilization == max(edge.utilization for edge in result.edges)
    assert report.transactions == result.total_transactions
    assert report.cross_partition_txns == result.cross_edge_transactions
    assert report.cross_partition_fraction == result.cross_partition_fraction
    assert report.aborts == result.stats.aborts
    assert report.abort_rate == result.stats.abort_rate
    assert report.f_score == result.f_score
    assert report.bandwidth_utilization == result.bandwidth_utilization
    assert report.migrations == len(result.migrations)
    assert report.replication == result.replication
    counters = result.adaptation or {}
    for name in ("threshold_updates", "tuner_evaluations", "tuner_frame_rescores"):
        assert getattr(report, name) == counters.get(name, 0), name


#: One accepted non-default value per cluster-only spec field.
CLUSTER_ONLY_VALUES = dict(
    streams=8,
    num_edges=4,
    partitions_per_edge=2,
    router="hotspot",
    fps=10.0,
    cloud_servers=1,
    workload="hotspot",
    hot_key_range=10,
    long_frames=20,
    num_long=1,
    transaction_policy="batched-2pc",
    edge_discipline="priority",
    failure_schedule=((1, 0.1, 0.2),),
    checkpoint_interval_s=1.0,
    resharding=((1.0, 0, 1),),
    traffic="poisson",
    offered_rate=2.0,
    duration_s=4.0,
    peak_factor=2.0,
    stream_length="geometric",
    admission="token-bucket",
    admission_rate=2.0,
    shed_threshold=0.5,
    apology_budget=1.0,
    failback=True,
    failure_hazard_rate=0.1,
    failure_outage_s=2.0,
    record_frames=False,
    reference_engine=True,
    traffic_video="v2",
    replication_factor=2,
    replication_mode="async",
    wal_group_commit_window_ms=5.0,
    regions=2,
    wan_link="intercontinental",
    cross_region_policy="async-reconcile",
    placement="dominant-region",
)

#: The cluster-only fields the spec refuses outright on the single deployment.
REFUSED_ON_SINGLE = {"record_frames", "regions", "traffic", "traffic_video"}


class TestClusterOnlyFields:
    """``CLUSTER_FIELDS`` is the mark sweeps trust to pick a deployment: a
    field in it must change nothing a single-deployment run reports."""

    def test_every_cluster_only_field_has_a_value(self):
        assert set(CLUSTER_ONLY_VALUES) == CLUSTER_FIELDS

    @pytest.fixture(scope="class")
    def single_report(self):
        report = run(get_scenario("fig4-ms-sr").with_(frames=10)).to_dict()
        report.pop("scenario")
        report.pop("transaction_policy")
        return report

    @pytest.mark.parametrize("name", sorted(CLUSTER_ONLY_VALUES))
    def test_a_cluster_only_field_is_inert_on_the_single_deployment(self, name, single_report):
        base = get_scenario("fig4-ms-sr").with_(frames=10)
        value = CLUSTER_ONLY_VALUES[name]
        assert value != getattr(base, name)
        if name in REFUSED_ON_SINGLE:
            with pytest.raises(ValueError):
                base.with_(**{name: value})
            return
        report = run(base.with_(**{name: value})).to_dict()
        assert report.pop("scenario")[name] != getattr(base, name)
        report.pop("transaction_policy")
        assert report == single_report


class TestScenarioSpec:
    def test_round_trip_is_lossless(self):
        spec = ScenarioSpec(
            deployment="cluster",
            system="croesus",
            video="v3",
            frames=12,
            seed=9,
            lower_threshold=0.2,
            upper_threshold=0.8,
            consistency="ms-sr",
            streams=6,
            num_edges=3,
            partitions_per_edge=2,
            router="hotspot",
            fps=10.0,
            cloud_servers=2,
            workload="hotspot",
            hot_key_range=25,
            long_frames=30,
            num_long=1,
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_to_dict_survives_json(self):
        spec = cluster_spec(cloud_servers=None)
        assert ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown ScenarioSpec field"):
            ScenarioSpec.from_dict({"video": "v1", "numedges": 4})

    @pytest.mark.parametrize("payload", [[], "x", None])
    def test_from_dict_rejects_a_payload_that_is_not_a_mapping(self, payload):
        with pytest.raises(TypeError, match=f"got {type(payload).__name__}"):
            ScenarioSpec.from_dict(payload)

    def test_from_dict_fills_defaults(self):
        spec = ScenarioSpec.from_dict({"video": "v2"})
        assert spec.video == "v2"
        assert spec.deployment == "single"
        assert spec.frames == 80

    @pytest.mark.parametrize(
        "overrides",
        [
            {"deployment": "hybrid"},
            {"system": "nope"},
            {"video": "v99"},
            {"frames": 0},
            {"lower_threshold": 0.9, "upper_threshold": 0.2},
            {"consistency": "serializable"},
            {"streams": 0},
            {"num_edges": 0},
            {"partitions_per_edge": 0},
            {"router": "nope"},
            {"fps": 0.0},
            {"deployment": "cluster", "fps": float("nan")},
            {"cloud_servers": 0},
            {"workload": "tpcc"},
            {"hot_key_range": 0},
            {"long_frames": -1},
            {"long_frames": 30, "num_long": 99},
            {"long_frames": 30, "streams": 1},
            {"failure_schedule": ((0, 2.0, 1.0),)},
            {"failure_schedule": ((9, 1.0, 2.0),)},
            {"failure_schedule": ((0, 1.0),)},
            {"num_edges": 1, "failure_schedule": ((0, 1.0, 2.0),)},
            {"checkpoint_interval_s": 0.0},
            {"resharding": ((1.0, 9, 0),)},
            {"resharding": ((1.0, 0, 9),)},
            {"threshold_adaptation": "nope"},
            {"threshold_adaptation": "retune", "system": "edge-only"},
            {"adaptation_interval_s": 0.0},
            {"adaptation_target_f": 0.0},
            {"adaptation_target_f": 1.5},
            {"deployment": "cluster", "frames": 5, "checkpoint_interval_s": float("nan")},
            {"deployment": "cluster", "frames": 5, "failure_hazard_rate": float("nan")},
            {"deployment": "cluster", "frames": 5, "wal_group_commit_window_ms": float("nan")},
            {"deployment": "cluster", "frames": 5, "adaptation_interval_s": float("nan")},
            {"deployment": "cluster", "frames": 5, "failure_outage_s": float("nan")},
            {
                "deployment": "cluster",
                "frames": 5,
                "failure_hazard_rate": 0.5,
                "failure_outage_s": float("nan"),
            },
            {"deployment": "cluster", "traffic": "poisson", "offered_rate": float("nan")},
            {"deployment": "cluster", "traffic": "poisson", "admission_rate": float("nan")},
            {"deployment": "cluster", "traffic": "poisson", "apology_budget": float("nan")},
        ],
    )
    def test_rejects_bad_values(self, overrides):
        with pytest.raises(ValueError) as error:
            ScenarioSpec(**overrides)
        for key, value in overrides.items():
            if value != value:  # a NaN is refused by the config that owns it, by name
                stem = key.removeprefix("failure_").removesuffix("_ms").removesuffix("_s")
                assert stem in str(error.value)

    #: Every integer-typed field; the test below checks the list is whole.
    INT_FIELDS = (
        "frames",
        "seed",
        "streams",
        "num_edges",
        "partitions_per_edge",
        "cloud_servers",
        "hot_key_range",
        "long_frames",
        "num_long",
        "replication_factor",
        "regions",
    )

    def test_int_fields_are_every_integer_typed_field(self):
        typed = {f.name for f in fields(ScenarioSpec) if f.type in ("int", "int | None")}
        assert set(self.INT_FIELDS) == typed

    @pytest.mark.parametrize("value", [2.5, 2.0, True, False, "ten", "2"])
    @pytest.mark.parametrize("name", INT_FIELDS)
    def test_a_wrong_typed_count_is_refused_by_name(self, name, value):
        """Hand-written JSON can carry ``"frames": 2.5`` (which used to fail
        deep inside ``run()``), ``true`` (which ran one frame) or ``"ten"``
        (a bare comparison error): each is refused, naming the field."""
        with pytest.raises(TypeError, match=rf"^{name} must be an integer, got "):
            ScenarioSpec.from_dict({"deployment": "cluster", name: value})

    def test_only_an_optional_count_may_be_none(self):
        for name in ("cloud_servers", "long_frames"):
            assert getattr(ScenarioSpec(deployment="cluster", **{name: None}), name) is None
        with pytest.raises(TypeError, match="^frames must be an integer, got NoneType"):
            ScenarioSpec(frames=None)

    def test_num_long_is_inert_without_long_frames(self):
        """The default ``num_long=2`` must not forbid a one-stream cluster
        whose stream lengths are even (``long_frames`` unset)."""
        spec = cluster_spec(num_edges=1, streams=1)
        assert spec.long_frames is None and spec.num_long > spec.streams
        report = run(spec)
        assert (report.streams, report.frames) == (1, spec.frames)
        assert ScenarioSpec(num_long=99).num_long == 99

    @pytest.mark.parametrize("deployment", ["single", "cluster"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"lower_threshold": 0.9, "upper_threshold": 0.2},
            {"transaction_policy": "x"},
            {"seed": -1},
            {"num_edges": 0},
            {"partitions_per_edge": 0},
            {"router": "x"},
            {"cloud_servers": 0},
            {"edge_discipline": "x"},
            {"failure_schedule": ((9, 1.0, 2.0),)},
            {"resharding": ((1.0, 9, 0),)},
            {"resharding": ((1.0, 0, 9),)},
            {"checkpoint_interval_s": 0.0},
            {"failure_hazard_rate": -1.0},
            {"failure_hazard_rate": 0.5, "failure_schedule": ((1, 1.0, 2.0),)},
            {"failure_hazard_rate": 0.5, "num_edges": 1},
            {"failure_outage_s": 0.0},
            {"reference_engine": True, "record_frames": False},
            {"replication_mode": "x"},
            {"replication_factor": 0},
            {"replication_factor": 3},
            {"replication_factor": 2, "resharding": ((1.0, 0, 1),)},
            {"wal_group_commit_window_ms": 0.0},
            {"traffic": "x"},
            {"offered_rate": 0.0},
            {"duration_s": 0.0},
            {"duration_s": float("inf")},
            {"peak_factor": 0.5},
            {"stream_length": "x"},
            {"admission": "x"},
            {"admission_rate": 0.0},
            {"shed_threshold": 0.0},
            {"apology_budget": 0.0},
            {"regions": 0},
            {"wan_link": "x"},
            {"cross_region_policy": "x"},
            {"placement": "x"},
            {"threshold_adaptation": "x"},
            {"adaptation_interval_s": 0.0},
            {"adaptation_target_f": 1.5},
        ],
    )
    def test_subsystem_axes_are_rejected_by_their_owning_config(self, deployment, overrides):
        """The spec validates these axes by building the config that
        consumes them (CroesusConfig, ClusterConfig, TrafficConfig,
        GeoConfig) — on either deployment, and with traffic, geo and
        adaptation off, exactly as when it checked them itself."""
        with pytest.raises(ValueError):
            ScenarioSpec(deployment=deployment, **overrides)

    def test_failure_axes_round_trip_through_json(self):
        spec = cluster_spec(
            failure_schedule=((1, 1.0, 2.0),),
            checkpoint_interval_s=0.5,
            resharding=((1.5, 0, 1),),
        )
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        # JSON lists normalise back into the same tuple-of-tuples shape.
        assert rebuilt.failure_schedule == ((1, 1.0, 2.0),)
        assert rebuilt.resharding == ((1.5, 0, 1),)

    def test_with_revalidates(self):
        spec = ScenarioSpec()
        assert spec.with_(num_edges=4).num_edges == 4
        with pytest.raises(ValueError):
            spec.with_(frames=-1)

    def test_frame_interval(self):
        assert cluster_spec(fps=5.0).frame_interval == pytest.approx(0.2)


class TestRunReportSchema:
    @pytest.fixture(scope="class")
    def single_report(self):
        return run(ScenarioSpec(video="v1", frames=10, seed=3))

    @pytest.fixture(scope="class")
    def cluster_report(self):
        return run(cluster_spec())

    def test_single_report_validates(self, single_report):
        validate_report(single_report.to_dict())

    def test_cluster_report_validates(self, cluster_report):
        validate_report(cluster_report.to_dict())

    def test_report_round_trips(self, cluster_report):
        rebuilt = RunReport.from_dict(cluster_report.to_dict())
        assert rebuilt.to_dict() == cluster_report.to_dict()

    def test_missing_key_rejected(self, single_report):
        payload = single_report.to_dict()
        del payload["f_score"]
        with pytest.raises(ReportSchemaError, match="f_score"):
            validate_report(payload)

    def test_wrong_type_rejected(self, single_report):
        payload = single_report.to_dict()
        payload["frames"] = "ten"
        with pytest.raises(ReportSchemaError, match="frames"):
            validate_report(payload)

    def test_incomplete_latency_rejected(self, single_report):
        payload = single_report.to_dict()
        payload["latency"] = {"initial_ms": 1.0}
        with pytest.raises(ReportSchemaError, match="final_ms"):
            validate_report(payload)

    def test_bad_embedded_scenario_rejected(self, single_report):
        payload = single_report.to_dict()
        payload["scenario"] = {"video": "v99"}
        with pytest.raises(ReportSchemaError, match="scenario"):
            validate_report(payload)

    @pytest.mark.parametrize(
        "block", ["cloud_queue", "batch_flushes", "traffic", "replication", "geo", "adaptation"]
    )
    def test_nullable_block_must_be_null_or_a_mapping(self, cluster_report, block):
        payload = cluster_report.to_dict()
        validate_report({**payload, block: None})
        with pytest.raises(ReportSchemaError, match=block):
            validate_report({**payload, block: 5})
        with pytest.raises(ReportSchemaError, match=block):
            RunReport.from_dict({**payload, block: 5})

    def test_serialisation_is_derived_from_the_dataclass_fields(self, cluster_report):
        names = [report_field.name for report_field in fields(RunReport)]
        assert list(cluster_report.to_dict()) == names
        json_types = {
            "str": str,
            "int": int,
            "float": (int, float),
            "dict[str, Any]": dict,
            "dict[str, float]": dict,
            "tuple[dict[str, Any], ...]": list,
        }
        assert REQUIRED_KEYS == {
            report_field.name: json_types[report_field.type]
            for report_field in fields(RunReport)
            if not report_field.type.endswith("| None")
        }
        assert len(names) == 53 and len(REQUIRED_KEYS) == 47

    def test_a_new_report_field_is_a_one_line_declaration(self, cluster_report):
        """A field added to the dataclass serialises, validates and
        round-trips without any edit to ``report.py``."""

        @dataclass(frozen=True)
        class ExtendedReport(RunReport):
            energy_joules: float = 0.0

        extended = ExtendedReport(**vars(cluster_report), energy_joules=12.5)
        payload = extended.to_dict()
        assert list(payload)[-1] == "energy_joules" and payload["energy_joules"] == 12.5
        validate_report(payload)
        assert ExtendedReport.from_dict(payload) == extended
        del payload["energy_joules"]
        assert ExtendedReport.from_dict(payload).energy_joules == 0.0

    def test_report_is_replayable_from_embedded_scenario(self, cluster_report):
        """A stored report names its own scenario; re-running it reproduces it."""
        replayed = run(ScenarioSpec.from_dict(cluster_report.to_dict()["scenario"]))
        assert replayed.to_json() == cluster_report.to_json()


class TestRunnerSingle:
    def test_matches_the_baseline_runner(self):
        spec = ScenarioSpec(video="v2", frames=10, seed=4)
        report = run(spec)
        baseline = run_croesus(build_single_config(spec), "v2", num_frames=10)
        assert report.f_score == baseline.f_score
        assert report.bandwidth_utilization == baseline.bandwidth_utilization
        assert report.latency["initial_ms"] == baseline.average_initial_latency * 1000.0
        assert report.latency["final_ms"] == baseline.average_final_latency * 1000.0
        assert report.frames == 10
        assert report.transactions == baseline.transactions

    def test_every_single_system_runs(self):
        for system in ("edge-only", "cloud-only", "croesus-compression"):
            report = run(ScenarioSpec(system=system, video="v1", frames=6, seed=2))
            validate_report(report.to_dict())
            assert report.deployment == "single"

    def test_cloud_only_initial_equals_final(self):
        report = run(ScenarioSpec(system="cloud-only", video="v1", frames=6, seed=2))
        assert report.latency["initial_ms"] == report.latency["final_ms"]
        assert report.bandwidth_utilization == 1.0


class TestRunnerCluster:
    def test_matches_a_direct_cluster_run(self):
        spec = cluster_spec(num_edges=3, router="hotspot", frames=5)
        report = run(spec)
        system = ClusterSystem(
            ClusterConfig(
                base=CroesusConfig(seed=spec.seed),
                num_edges=3,
                router_policy="hotspot",
            )
        )
        result = system.run(make_camera_streams(2, num_frames=5, seed=spec.seed))
        assert_report_matches_cluster_result(report, result)

    def test_migration_events_recorded(self):
        spec = cluster_spec(
            num_edges=3,
            streams=6,
            frames=10,
            router="migrating",
            fps=5.0,
            long_frames=40,
            seed=2022,
            consistency="ms-sr",
            workload="hotspot",
        )
        report = run(spec)
        assert report.migrations == len(report.migration_events)
        for event in report.migration_events:
            assert set(event) == {"time_s", "stream", "from_edge", "to_edge"}

    def test_finite_cloud_reports_queueing(self):
        report = run(cluster_spec(streams=6, frames=8, cloud_servers=1, seed=2))
        assert report.cloud_queue is not None
        assert report.cloud_queue["validations"] > 0
        assert report.cloud_queue["queued"] > 0
        assert report.cloud_queue_delay_ms > 0.0


class TestDeterminism:
    """Two runs of one spec are bit-for-bit identical — the golden-summary
    pin of PR 2, extended to the new schema."""

    #: Golden summary of the seeded cluster run pinned since PR 1
    #: (seed 11, 2 edges, 4 streams x 6 frames), re-expressed in the
    #: RunReport schema.  These exact values must never drift.
    GOLDEN = {
        "frames": 24,
        "streams": 4,
        "makespan_s": 3.5568000021864665,
        "throughput_fps": 6.747638322437729,
        "queue_delay_ms": 786.8335646687067,
        "cloud_queue_delay_ms": 0.0,
        "cross_partition_fraction": 0.7857142857142857,
        "cross_partition_txns": 22,
        "abort_rate": 0.0,
        "f_score": 0.5853658536585366,
        "migrations": 0,
    }

    def golden_spec(self) -> ScenarioSpec:
        return ScenarioSpec(deployment="cluster", num_edges=2, streams=4, frames=6, seed=11)

    def test_seeded_cluster_report_matches_golden_values(self):
        report = run(self.golden_spec())
        for key, value in self.GOLDEN.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
        assert report.max_utilization == pytest.approx(0.6918158752054603, rel=1e-12)

    def test_cluster_json_is_deterministic(self):
        first = run(self.golden_spec()).to_json()
        second = run(self.golden_spec()).to_json()
        assert first == second

    def test_single_json_is_deterministic(self):
        spec = ScenarioSpec(video="v4", frames=12, seed=6)
        assert run(spec).to_json() == run(spec).to_json()

    def test_spec_round_trip_preserves_the_run(self):
        spec = self.golden_spec()
        assert run(ScenarioSpec.from_dict(spec.to_dict())).to_json() == run(spec).to_json()


class TestSweep:
    def test_points_cross_product(self):
        sweep = Sweep(
            base=cluster_spec(),
            axes=(SweepAxis("num_edges", (1, 2)), SweepAxis("router", ("round-robin", "hotspot"))),
        )
        assert sweep.points() == [
            {"num_edges": 1, "router": "round-robin"},
            {"num_edges": 1, "router": "hotspot"},
            {"num_edges": 2, "router": "round-robin"},
            {"num_edges": 2, "router": "hotspot"},
        ]

    def test_and_axis_extends_the_cross_product(self):
        sweep = Sweep(base=cluster_spec(), axis="num_edges", values=[1, 2]).and_axis(
            "router", ["round-robin", "hotspot"]
        )
        assert len(sweep.points()) == 4

    def test_rejects_unknown_axis_and_duplicates(self):
        with pytest.raises(ValueError, match="unknown sweep axis"):
            Sweep(axis="edges", values=[1])
        with pytest.raises(ValueError, match="duplicate"):
            Sweep(base=cluster_spec(), axis="num_edges", values=[1]).and_axis("num_edges", [2])
        with pytest.raises(ValueError, match="at least one axis"):
            Sweep(base=cluster_spec())

    def test_default_base_follows_the_axis(self):
        assert Sweep(axis="num_edges", values=[1]).base.deployment == "cluster"
        assert Sweep(axis="lower_threshold", values=[0.1]).base.deployment == "single"

    def test_cluster_axis_over_single_base_is_rejected(self):
        """N bit-identical single-edge cells are not a scale-out series."""
        with pytest.raises(ValueError, match="cluster"):
            Sweep(base=ScenarioSpec(video="v1"), axis="num_edges", values=[1, 2])
        # Shared fields over a cluster base are fine.
        assert Sweep(base=cluster_spec(), axis="lower_threshold", values=[0.1]).points()

    def test_num_edges_sweep_reproduces_direct_runs(self):
        """Acceptance: the generalized sweep reproduces the bespoke loop."""
        base = cluster_spec(streams=4, frames=5, seed=7)
        result = Sweep(base=base, axis="num_edges", values=[1, 2, 4]).run()
        for edges in (1, 2, 4):
            direct = ClusterSystem(
                ClusterConfig(base=CroesusConfig(seed=7), num_edges=edges)
            ).run(make_camera_streams(4, num_frames=5, seed=7))
            report = result.report_at(num_edges=edges)
            assert report is not None
            assert_report_matches_cluster_result(report, direct)

    def test_report_at_and_series(self):
        base = cluster_spec(frames=3)
        result = Sweep(base=base, axis="num_edges", values=[1, 2]).run()
        assert result.report_at(num_edges=1) is not None
        assert result.report_at(num_edges=8) is None
        with pytest.raises(KeyError):
            result.report_at(router="hotspot")
        series = result.series("throughput_fps", axis="num_edges")
        assert [edges for edges, _ in series] == [1, 2]
        assert all(isinstance(value, float) for _, value in series)

    def test_heatmap_accessor(self):
        result = Sweep(
            base=ScenarioSpec(video="v1", frames=6, seed=1),
            axes=(
                SweepAxis("lower_threshold", (0.0, 0.4)),
                SweepAxis("upper_threshold", (0.6, 0.8)),
            ),
        ).run()
        heatmap = result.heatmap("bandwidth_utilization", "lower_threshold", "upper_threshold")
        assert set(heatmap) == {(0.0, 0.6), (0.0, 0.8), (0.4, 0.6), (0.4, 0.8)}
        assert all(0.0 <= value <= 1.0 for value in heatmap.values())

    def test_skip_invalid_records_skipped_cells(self):
        result = Sweep(
            base=ScenarioSpec(video="v1", frames=4, seed=1),
            axes=(
                SweepAxis("lower_threshold", (0.0, 0.8)),
                SweepAxis("upper_threshold", (0.2, 0.9)),
            ),
            skip_invalid=True,
        ).run()
        # (0.8, 0.2) is the one invalid pair of the grid.
        assert len(result.cells) == 3
        assert result.skipped == ({"lower_threshold": 0.8, "upper_threshold": 0.2},)

    def test_skip_invalid_covers_mistyped_axis_values(self):
        """A string value hitting a numeric validation is skipped, not a crash."""
        result = Sweep(
            base=cluster_spec(frames=3),
            axis="num_edges",
            values=["two", 1],
            skip_invalid=True,
        ).run()
        assert len(result.cells) == 1
        assert result.skipped == ({"num_edges": "two"},)

    def test_invalid_cell_raises_without_skip(self):
        sweep = Sweep(
            base=ScenarioSpec(video="v1", frames=4, seed=1),
            axes=(
                SweepAxis("lower_threshold", (0.8,)),
                SweepAxis("upper_threshold", (0.2,)),
            ),
        )
        with pytest.raises(ValueError):
            sweep.run()

    def test_parallel_run_is_identical_to_serial(self):
        """Acceptance: a process-pool sweep reproduces the serial result
        cell for cell, byte for byte."""
        sweep = Sweep(base=cluster_spec(frames=3), axis="num_edges", values=[1, 2, 3])
        serial = sweep.run()
        parallel = sweep.run(max_workers=2)
        assert parallel.to_json() == serial.to_json()
        assert [cell.assignment for cell in parallel] == [cell.assignment for cell in serial]

    def test_max_workers_one_stays_serial(self):
        sweep = Sweep(base=cluster_spec(frames=3), axis="num_edges", values=[1])
        assert sweep.run(max_workers=1).to_json() == sweep.run().to_json()

    def test_importing_the_experiment_layer_leaves_the_process_pool_out(self):
        """Only a ``max_workers > 1`` sweep imports ``concurrent.futures``
        (and with it multiprocessing, socket, subprocess and logging): a
        fresh interpreter that imports the experiment layer and runs a
        scenario has none of them."""
        source = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import sys, repro.experiments as e; "
            "e.run(e.get_scenario('fig4-ms-sr').with_(frames=4)); "
            "print(sorted({m.split('.')[0] for m in sys.modules} & "
            "{'concurrent', 'multiprocessing', 'socket', 'subprocess', 'logging'}))"
        )
        env = {**os.environ, "PYTHONPATH": source}
        result = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        )
        assert result.stdout.strip() == "[]"

    def test_to_dict_serialises_every_cell(self):
        result = Sweep(base=cluster_spec(frames=3), axis="num_edges", values=[1]).run()
        payload = json.loads(result.to_json())
        assert payload["axes"] == [{"field": "num_edges", "values": [1]}]
        assert len(payload["cells"]) == 1
        validate_report(payload["cells"][0]["report"])


class TestRegistry:
    def test_scenarios_are_registered(self):
        names = [entry.name for entry in list_scenarios()]
        assert "fig2-v1" in names
        assert "cluster-small" in names
        assert names == sorted(names)

    def test_sweeps_are_registered(self):
        names = [entry.name for entry in list_sweeps()]
        for expected in ("cluster-scaleout", "cloud-contention", "migration-policies"):
            assert expected in names

    def test_get_scenario_builds_a_spec(self):
        spec = get_scenario("cluster-small")
        assert spec.deployment == "cluster"
        assert spec == ScenarioSpec(
            deployment="cluster", num_edges=2, streams=4, frames=6, seed=11
        )

    def test_every_registered_scenario_builds(self):
        for entry in list_scenarios():
            assert isinstance(entry.build(), ScenarioSpec)
            assert entry.description

    def test_every_registered_sweep_builds(self):
        for entry in list_sweeps():
            assert entry.build().points()

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError, match="known scenarios"):
            get_scenario("nope")
        with pytest.raises(KeyError, match="known sweeps"):
            get_sweep("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario("cluster-small")(lambda: ScenarioSpec())

    def test_undocumented_lambda_builder_registers(self):
        """The extension point must accept builders without docstrings."""
        from repro.experiments import registry

        register_scenario("tmp-lambda-scenario")(lambda: ScenarioSpec(video="v3"))
        try:
            assert get_scenario("tmp-lambda-scenario").video == "v3"
            assert registry._SCENARIOS["tmp-lambda-scenario"].description == ""
        finally:
            del registry._SCENARIOS["tmp-lambda-scenario"]
