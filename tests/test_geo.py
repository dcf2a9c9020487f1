"""Tests for the geo-hierarchical deployment tier.

Covers the geo spec/config validation surface (the multi-region rules
are the cluster config's), the WAN fabric, the reconciler's convergence
property (hypothesis: the converged state is independent of delivery
order), commit-variant conformance (the three cross-region policies only
change messaging, never store outcomes), a reused system's geo block
covering its own run only, the geo determinism golden pin, and
single-region inertness (``regions=1`` builds no geo machinery and stays
bit-for-bit on the golden pins).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterConfig,
    ClusterSystem,
    GeoRouter,
    RoutingError,
    make_router,
)
from repro.core.config import CroesusConfig
from repro.experiments import ScenarioSpec, get_scenario, run
from repro.experiments.runner import build_cluster_config, build_streams
from repro.geo import (
    CROSS_REGION_POLICIES,
    PLACEMENTS,
    GeoConfig,
    PlacementTracker,
    Reconciler,
    ShipStamp,
    WanFabric,
    WriteShip,
)
from repro.geo.placement import PLACEMENT_MIN_ACCESSES
from repro.geo.wan import HANDOFF_MESSAGE_BYTES, HANDOFF_RESULT_BYTES, WRITE_SET_MESSAGE_BYTES
from repro.network.topology import WAN_LINKS
from repro.sim.rng import RngRegistry
from repro.traffic.shedding import ApologyBudget
from repro.transactions.policy import (
    ACK_MESSAGE_BYTES,
    COMMIT_MESSAGE_BYTES,
    PREPARE_MESSAGE_BYTES,
    VOTE_MESSAGE_BYTES,
)


def geo_spec(**overrides) -> ScenarioSpec:
    """The small seeded geo cell the conformance and pin tests share."""
    base = dict(
        deployment="cluster",
        seed=2022,
        streams=8,
        frames=8,
        consistency="ms-sr",
        num_edges=4,
        partitions_per_edge=2,
        workload="hotspot",
        hot_key_range=50,
        regions=2,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestGeoConfigValidation:
    def test_defaults_are_valid(self):
        config = GeoConfig()
        assert config.regions == 1
        assert config.cross_region_policy in CROSS_REGION_POLICIES
        assert config.placement in PLACEMENTS

    def test_rejects_bad_regions(self):
        with pytest.raises(ValueError):
            GeoConfig(regions=0)

    def test_rejects_unknown_wan_link(self):
        with pytest.raises(ValueError):
            GeoConfig(regions=2, wan_link="carrier-pigeon")

    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError):
            GeoConfig(regions=2, cross_region_policy="three-phase-commit")

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            GeoConfig(regions=2, placement="random")

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"num_edges": 3}, "must split evenly into 2 regions"),
            ({"router_policy": "hotspot"}, "router must be 'round-robin'"),
            (
                {"base": CroesusConfig(transaction_policy="batched-2pc")},
                "stacks the cross-region commit variants on immediate-2pc",
            ),
            ({"replication_factor": 2}, "does not replicate partitions"),
            ({"failure_hazard_rate": 0.5}, "does not support failure injection"),
            ({"resharding": ((1.0, 0, 1),)}, "conflicts with geo placement"),
            ({"record_frames": False}, "requires record_frames=True"),
            ({"reference_engine": True}, "does not run on the reference engine"),
        ],
    )
    def test_the_cluster_config_owns_the_multi_region_rules(self, overrides, message):
        axes = {"num_edges": 4, **overrides}
        with pytest.raises(ValueError, match=message):
            ClusterConfig(geo=GeoConfig(regions=2), **axes)
        # The same axes are fine on a single-region cluster.
        ClusterConfig(**axes)


class TestGeoSpecValidation:
    def test_geo_fields_round_trip(self):
        spec = geo_spec(wan_link="intercontinental", cross_region_policy="migrated-2pc")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec

    def test_rejects_regions_on_single_deployment(self):
        with pytest.raises(ValueError):
            ScenarioSpec(deployment="single", regions=2)

    def test_rejects_unknown_wan_link(self):
        with pytest.raises(ValueError):
            geo_spec(wan_link="string-and-cans")

    def test_rejects_unknown_cross_region_policy(self):
        with pytest.raises(ValueError):
            geo_spec(cross_region_policy="hope")

    def test_rejects_unknown_placement(self):
        with pytest.raises(ValueError):
            geo_spec(placement="chaotic")

    def test_rejects_indivisible_edge_count(self):
        with pytest.raises(ValueError):
            geo_spec(num_edges=3)

    def test_rejects_non_immediate_transaction_policy(self):
        with pytest.raises(ValueError):
            geo_spec(transaction_policy="batched-2pc")

    def test_rejects_replication(self):
        with pytest.raises(ValueError):
            geo_spec(replication_factor=2)

    def test_rejects_failure_schedule(self):
        with pytest.raises(ValueError):
            geo_spec(failure_schedule=((1, 2.5, 4.0),), checkpoint_interval_s=1.0)

    def test_rejects_resharding(self):
        with pytest.raises(ValueError):
            geo_spec(resharding=((2.0, 0, 1),), checkpoint_interval_s=1.0)

    @pytest.mark.parametrize("router", ["consistent-hash", "least-loaded", "hotspot", "migrating"])
    def test_rejects_a_router_the_geo_placement_would_ignore(self, router):
        with pytest.raises(RoutingError, match="router must be 'round-robin'"):
            geo_spec(router=router)

    def test_single_region_keeps_the_full_surface(self):
        # regions=1 is inert, so none of the geo restrictions apply.
        spec = geo_spec(regions=1, transaction_policy="batched-2pc")
        assert spec.regions == 1


class TestWanFabric:
    def test_builds_a_full_mesh(self):
        fabric = WanFabric(regions=3, wan_link="cross-country", rngs=RngRegistry(7))
        pairs = {(a, b) for a in range(3) for b in range(3) if a != b}
        for src, dst in pairs:
            assert fabric.channel(src, dst) is not None

    def test_rejects_single_region(self):
        with pytest.raises(ValueError):
            WanFabric(regions=1, wan_link="cross-country", rngs=RngRegistry(7))

    def test_rejects_unknown_link(self):
        with pytest.raises(ValueError):
            WanFabric(regions=2, wan_link="smoke-signal", rngs=RngRegistry(7))

    def test_channels_use_the_multi_hop_profile(self):
        fabric = WanFabric(regions=2, wan_link="intercontinental", rngs=RngRegistry(7))
        path = WAN_LINKS["intercontinental"]
        profile = fabric.channel(0, 1).profile
        assert profile.propagation_delay == pytest.approx(path.propagation_delay)
        assert profile.bandwidth_bytes_per_sec == pytest.approx(
            path.bandwidth_bytes_per_sec
        )

    def test_accounting_aggregates_over_the_mesh(self):
        fabric = WanFabric(regions=2, wan_link="cross-country", rngs=RngRegistry(7))
        fabric.channel(0, 1).send(1000)
        fabric.channel(1, 0).send(500)
        assert fabric.total_bytes == 1500
        assert fabric.transfer_count == 2
        fabric.reset()
        assert fabric.total_bytes == 0


class TestGeoRouter:
    def test_stripes_regions_first(self):
        router = GeoRouter(regions=2, edges_per_region=2)
        edges = [router.place(f"s{i}") for i in range(8)]
        regions = [edge // 2 for edge in edges]
        assert regions == [0, 1, 0, 1, 0, 1, 0, 1]
        # Within each region, streams cycle over both edges.
        assert sorted(set(edges)) == [0, 1, 2, 3]

    def test_uneven_stream_count_loads_low_regions_first(self):
        router = GeoRouter(regions=4, edges_per_region=1)
        edges = [router.place(f"s{i}") for i in range(6)]
        assert edges == [0, 1, 2, 3, 0, 1]

    def test_make_router_picks_it_for_several_regions(self):
        router = make_router("round-robin", 4, regions=2)
        assert isinstance(router, GeoRouter)
        assert (router.regions, router.edges_per_region) == (2, 2)
        assert not isinstance(make_router("round-robin", 4), GeoRouter)


class TestPlacementTracker:
    def test_dominant_region_requires_min_accesses(self):
        tracker = PlacementTracker(num_partitions=2, regions=2)
        for _ in range(PLACEMENT_MIN_ACCESSES - 1):
            tracker.observe(0, 1)
        assert tracker.dominant_region(0, home_region=0) is None
        tracker.observe(0, 1)
        assert tracker.dominant_region(0, home_region=0) == 1

    def test_dominance_needs_a_margin_over_home(self):
        tracker = PlacementTracker(num_partitions=1, regions=2)
        for _ in range(10):
            tracker.observe(0, 0)
        for _ in range(12):
            tracker.observe(0, 1)
        # 12 < 1.5 * 10: not dominant enough to justify a move.
        assert tracker.dominant_region(0, home_region=0) is None
        for _ in range(3):
            tracker.observe(0, 1)
        assert tracker.dominant_region(0, home_region=0) == 1

    def test_forget_resets_the_partition(self):
        tracker = PlacementTracker(num_partitions=1, regions=2)
        for _ in range(20):
            tracker.observe(0, 1)
        tracker.forget(0)
        assert tracker.counts(0) == (0, 0)
        assert tracker.dominant_region(0, home_region=0) is None


class TestReconciler:
    def stamp(self, t, region, seq):
        return ShipStamp(commit_time=t, origin_region=region, seq=seq)

    def test_last_writer_wins(self):
        reconciler = Reconciler()
        reconciler.deliver(WriteShip("k", "old", self.stamp(1.0, 0, 1), arrival_time=1.0))
        reconciler.deliver(WriteShip("k", "new", self.stamp(2.0, 1, 2), arrival_time=2.1))
        assert reconciler.snapshot() == {"k": "new"}

    def test_stale_ship_is_dropped(self):
        reconciler = Reconciler()
        reconciler.deliver(WriteShip("k", "new", self.stamp(2.0, 0, 2), arrival_time=2.0))
        won = reconciler.deliver(WriteShip("k", "old", self.stamp(1.0, 1, 1), arrival_time=2.5))
        assert not won
        assert reconciler.snapshot() == {"k": "new"}
        assert reconciler.stale_drops == 1

    def test_in_flight_overlap_is_a_conflict(self):
        reconciler = Reconciler()
        # Region 0 commits at t=1.0; the ship lands at t=1.5.  Region 1
        # commits the same key at t=1.2 — before region 0's write had
        # landed — so the writes raced and one of them owes an apology.
        reconciler.deliver(WriteShip("k", "a", self.stamp(1.0, 0, 1), arrival_time=1.5))
        reconciler.deliver(WriteShip("k", "b", self.stamp(1.2, 1, 2), arrival_time=1.2))
        assert reconciler.conflicts == 1
        assert reconciler.apologies == 1

    def test_sequential_writes_do_not_conflict(self):
        reconciler = Reconciler()
        reconciler.deliver(WriteShip("k", "a", self.stamp(1.0, 0, 1), arrival_time=1.1))
        reconciler.deliver(WriteShip("k", "b", self.stamp(2.0, 1, 2), arrival_time=2.1))
        assert reconciler.conflicts == 0

    def test_same_origin_never_conflicts(self):
        reconciler = Reconciler()
        reconciler.deliver(WriteShip("k", "a", self.stamp(1.0, 0, 1), arrival_time=1.5))
        reconciler.deliver(WriteShip("k", "b", self.stamp(1.2, 0, 2), arrival_time=1.7))
        assert reconciler.conflicts == 0

    def test_budget_caps_apologies(self):
        reconciler = Reconciler(budget=ApologyBudget(per_second=1.0, burst=1))
        for seq in range(4):
            reconciler.deliver(
                WriteShip("k", seq, self.stamp(1.0 + seq * 0.01, seq % 2, seq + 1),
                          arrival_time=1.5)
            )
        assert reconciler.conflicts >= 2
        assert reconciler.apologies < reconciler.conflicts


#: Ship batches for the convergence property: a handful of keys and
#: regions, arbitrary commit times, unique sequence numbers.
ships_strategy = st.lists(
    st.tuples(
        st.sampled_from(["k0", "k1", "k2"]),
        st.integers(min_value=0, max_value=2),  # origin region
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),  # flight time
    ),
    min_size=0,
    max_size=20,
)


@settings(deadline=None, max_examples=200)
@given(ships_strategy, st.randoms(use_true_random=False))
def test_reconciled_state_is_independent_of_delivery_order(entries, random):
    """The hypothesis property: for ANY interleaving of deliveries, the
    reconciler converges to the state the stamp order dictates — i.e.
    what a serial 2PC execution in commit order would have left behind."""
    ships = [
        WriteShip(key, value=seq, stamp=ShipStamp(commit, region, seq),
                  arrival_time=commit + flight)
        for seq, (key, region, commit, flight) in enumerate(entries)
    ]
    in_order = Reconciler()
    for ship in sorted(ships, key=lambda s: s.stamp):
        in_order.deliver(ship)
    shuffled = list(ships)
    random.shuffle(shuffled)
    any_order = Reconciler()
    for ship in shuffled:
        any_order.deliver(ship)
    assert any_order.snapshot() == in_order.snapshot()


class TestCommitVariantConformance:
    """The three cross-region policies model different WAN messaging
    over the *same* store execution: everything except the geo
    messaging metrics must be identical across the policy grid."""

    @pytest.fixture(scope="class")
    def reports(self):
        return {
            policy: run(geo_spec(cross_region_policy=policy))
            for policy in CROSS_REGION_POLICIES
        }

    def test_policy_is_echoed_in_the_geo_block(self, reports):
        for policy, report in reports.items():
            assert report.geo["cross_region_policy"] == policy

    def test_store_outcomes_are_policy_independent(self, reports):
        baseline = reports["global-2pc"]
        for report in reports.values():
            assert report.frames == baseline.frames
            assert report.f_score == baseline.f_score
            assert report.transactions == baseline.transactions
            assert report.cross_partition_txns == baseline.cross_partition_txns
            assert report.geo["cross_region_txns"] == baseline.geo["cross_region_txns"]
            assert report.cross_region_txn_fraction == baseline.cross_region_txn_fraction

    def test_migrated_never_exceeds_global_round_trips(self, reports):
        assert (
            reports["migrated-2pc"].wan_round_trips_per_txn
            <= reports["global-2pc"].wan_round_trips_per_txn
        )
        assert reports["migrated-2pc"].geo["migrated_handoffs"] > 0

    def test_async_has_no_synchronous_commit_charge(self, reports):
        async_report = reports["async-reconcile"]
        assert async_report.geo["cross_region_mean_ms"] == 0.0
        assert async_report.geo["reconcile_ships"] > 0
        # Exactly one one-way ship per (commit round, remote region).
        assert async_report.wan_round_trips_per_txn >= 1.0

    @pytest.mark.parametrize("policy", CROSS_REGION_POLICIES)
    def test_wan_bytes_are_the_messages_of_the_counted_round_trips(self, reports, policy):
        geo = reports[policy].geo
        round_trips = geo["wan_round_trips"]
        handoffs = geo["migrated_handoffs"]
        assert round_trips == sum(region["wan_round_trips"] for region in geo["per_region"]) > 0
        if policy == "async-reconcile":
            # One one-way write-set ship per remote region of a round.
            assert round_trips == geo["reconcile_ships"]
            assert geo["wan_bytes"] == round_trips * WRITE_SET_MESSAGE_BYTES
            return
        # A handoff is one round trip; every other round trip is one
        # prepare/vote or commit/ack exchange with a remote partition.
        exchange = (
            PREPARE_MESSAGE_BYTES + VOTE_MESSAGE_BYTES + COMMIT_MESSAGE_BYTES + ACK_MESSAGE_BYTES
        ) / 2
        assert (handoffs > 0) == (policy == "migrated-2pc")
        assert geo["wan_bytes"] == (
            handoffs * (HANDOFF_MESSAGE_BYTES + HANDOFF_RESULT_BYTES)
            + (round_trips - handoffs) * exchange
        )


class TestGeoBlockIsPerRun:
    """A reused system's geo block covers its own run, like every other
    block of the result."""

    #: ``(total_txns, wan_round_trips, wan_bytes, apologies)`` of two
    #: back-to-back runs of ``geo-baseline`` on one system (default bank).
    #: Geo state kept across runs would read 4246 / 9756 / 4995072 / 0 on
    #: the second global-2pc run, and 4246 / 3698 / 2840064 / 156 on the
    #: second async one (a reconciler still holding the first run's later
    #: stamps finds no new race).
    RUNS = {
        "global-2pc": [(2129, 4876, 2496512, 0), (2117, 4880, 2498560, 0)],
        "async-reconcile": [(2129, 1840, 1413120, 156), (2117, 1858, 1426944, 149)],
    }

    @pytest.mark.parametrize("policy", sorted(RUNS))
    def test_a_reused_system_reports_each_run_alone(self, policy):
        spec = get_scenario("geo-baseline").with_(cross_region_policy=policy)
        system = ClusterSystem(build_cluster_config(spec))
        seen = []
        for _ in range(2):
            result = system.run(build_streams(spec))
            geo = result.geo
            assert geo["total_txns"] == result.total_transactions
            seen.append(
                (geo["total_txns"], geo["wan_round_trips"], geo["wan_bytes"], geo["apologies"])
            )
        assert seen == self.RUNS[policy]


class TestGeoDeterminism:
    """The geo golden pin: the seeded 2-region cell must never drift."""

    GOLDEN = {
        "cross_region_txn_fraction": 0.9655172413793104,
        "wan_round_trips_per_txn": 3.4285714285714284,
        "makespan_s": 4.856657567660452,
        "throughput_fps": 13.177787214433993,
        "f_score": 0.9203539823008849,
    }

    def test_seeded_geo_run_matches_golden_values(self):
        report = run(geo_spec())
        for key, value in self.GOLDEN.items():
            assert getattr(report, key) == pytest.approx(value, rel=1e-12, abs=1e-12), key
        assert report.geo["wan_bytes"] == 49152
        assert report.geo["wan_round_trips"] == 96
        assert report.geo["cross_region_txns"] == 28

    def test_geo_json_is_deterministic(self):
        spec = geo_spec(cross_region_policy="async-reconcile", placement="dominant-region")
        assert run(spec).to_json() == run(spec).to_json()


class TestSingleRegionInertness:
    """``regions=1`` must build zero geo machinery and keep every
    single-region seeded run bit-for-bit identical to a plain cluster."""

    def test_runner_emits_no_geo_block(self):
        report = run(geo_spec(regions=1))
        assert report.geo is None
        assert report.cross_region_txn_fraction == 0.0
        assert report.wan_round_trips_per_txn == 0.0

    def test_a_single_region_cluster_builds_no_geo_tier(self):
        system = ClusterSystem(build_cluster_config(geo_spec(regions=1)))
        assert not isinstance(system.router, GeoRouter)
        assert system.run(build_streams(geo_spec(regions=1))).geo is None
        assert all(replica.policy.on_commit_round is None for replica in system.replicas)
        assert not any(name.startswith("wan-") for name in system.rngs._streams)

    def test_single_region_report_matches_the_plain_cluster(self):
        plain = geo_spec(regions=1)
        report = run(plain)
        payload = report.to_dict()
        # The geo columns are present but zeroed — consumers never
        # branch on key presence (the report schema's contract).
        assert payload["geo"] is None
        golden = ScenarioSpec(deployment="cluster", num_edges=2, streams=4, frames=6, seed=11)
        pinned = run(golden)
        assert pinned.makespan_s == pytest.approx(3.5568000021864665, rel=1e-12)
        assert pinned.geo is None
