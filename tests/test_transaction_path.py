"""Pins and properties of the transaction/storage path.

The report digests pinned elsewhere cannot see store contents, so this
file pins *state*: a sha256 over every partition's write-ahead log plus
the controllers' commit/abort counters for three seeded cluster runs
(captured before the path was optimised; they must never move, under any
``PYTHONHASHSEED``).  A seeded property then drives all four controllers
through interleaved, contended sections and checks what the path must
keep true — valid histories, dense recoverable logs, quiescent lock
tables, audit records that render to exactly what was executed — and the
counting rule the routing plan and the store's key -> slot memo exist for:
a section hashes each key it locks at most once, and a store hashes each
distinct key once, whatever is split, merged or transferred meanwhile.

The distributed controllers' lock lifecycle (acquire, body, prepare on
the held locks, commit, one release per routed partition) is held to what
it promises: one hold record per key a section locks, none for the keys a
denied acquisition gives back, the same votes as a
prepare that re-took every lock (an undeclared write or an S -> X upgrade
under another holder still votes NO), every lock released when a
participant failed between MS-SR's sections, and one participant-set
object per distinct set.  The admission — a controller's first lock pass,
which the frame body runs on a draft before building the transaction —
is held to the raising ``process_initial`` on the draft's built twin,
over every controller and commit policy on randomly contended stores, and
a denied attempt in a seeded cluster run to building nothing.  The FNV-1a
bucket, masked once, is held to the per-byte-masked definition.
"""

from __future__ import annotations

import copy
import hashlib
import random
from collections import Counter
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.partition as partition_module
import repro.transactions.model as model_module
import repro.transactions.ops as ops_module
from repro.cluster.system import ClusterSystem, hotspot_bank_factory
from repro.core.edge import EdgeNode, TriggeredTransaction
from repro.core.system import CroesusSystem
from repro.experiments import get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import (
    build_cluster_config,
    build_single_config,
    build_traffic_config,
)
from repro.network.channel import Channel
from repro.network.latency import SAME_REGION
from repro.sim.rng import RngRegistry
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockHoldRecord, LockManager, LockMode
from repro.storage.partition import PartitionedStore, SectionRoutes, TwoPhaseCommitCoordinator
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.distributed import (
    DistributedCommitRecord,
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.exceptions import TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import (
    MultiStageTransaction,
    RowSection,
    SectionContext,
    SectionKind,
    SectionSpec,
)
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet
from repro.transactions.policy import TransactionPolicy, make_policy
from repro.video.library import make_video
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.ycsb import YCSBWorkload

from helpers import count_constructions, keeping_rows
from helpers import section as section_of


# -- state pins ---------------------------------------------------------------
def _run_cluster(spec) -> ClusterSystem:
    """Run ``spec`` the way ``repro.experiments.run`` does, keeping the system."""
    bank_factory = None
    if spec.workload == "hotspot":
        bank_factory = hotspot_bank_factory(spec.seed, key_range=spec.hot_key_range)
    system = ClusterSystem(build_cluster_config(spec), bank_factory=bank_factory)
    if spec.traffic is None:
        system.run(build_streams(spec))
    else:
        system.run_open_loop(build_traffic_config(spec))
    return system


def _state_digest(system: ClusterSystem) -> str:
    digest = hashlib.sha256()
    for partition_id in system.store.partition_ids():
        for record in system.store.partition(partition_id).wal.records():
            row = (partition_id, record.lsn, record.transaction_id, record.key, repr(record.value))
            digest.update(repr(row).encode())
    for replica in system.replicas:
        stats = replica.controller.stats
        row = (replica.edge_id, stats.initial_commits, stats.final_commits, stats.aborts)
        digest.update(repr(row).encode())
    return digest.hexdigest()


STATE_PINS = {
    # MS-IA, YCSB, closed loop: the golden-pin smoke cell.
    "cluster-small": (
        lambda: get_scenario("cluster-small"),
        "18878bb0a51adae5d10916c0777dbaf5a07e4e7d1a258135993fecce1a2ef0a4",
        (0, 0),
    ),
    # MS-IA, YCSB, open loop at ~2x capacity: single-partition commits, no aborts.
    "sustained-overload": (
        lambda: get_scenario("sustained-overload").with_(duration_s=8.0),
        "e4905d5c8aaf0c625d971854ed327ddf98892fdb68f39853bb268e31d4441fd0",
        (0, 0),
    ),
    # MS-SR hotspot with sync WAL shipping and a mid-run promotion: aborts per edge.
    "replicated-failover": (
        lambda: get_scenario("replicated-failover").with_(hot_key_range=200),
        "752c271ba16e487480f80e7b97861d567e16ba56866a11be067ddd3ce16df282",
        (551, 74, 165, 302),
    ),
}


@pytest.mark.usefixtures("rows_kept")
@pytest.mark.parametrize("name", sorted(STATE_PINS))
def test_wal_and_controller_state_is_pinned(name, monkeypatch):
    build_spec, expected_digest, expected_aborts = STATE_PINS[name]
    rendered = count_constructions(monkeypatch, LockHoldRecord, Operation)

    system = _run_cluster(build_spec())

    assert _state_digest(system) == expected_digest
    aborts = tuple(replica.controller.stats.aborts for replica in system.replicas)
    assert aborts == expected_aborts
    managers = [system.store.partition(pid).locks for pid in system.store.partition_ids()]
    assert all(manager.is_quiescent for manager in managers)
    # No History is attached and nobody read hold_records: the audit
    # records of this run exist only as rows.
    assert rendered == {"LockHoldRecord": 0, "Operation": 0}
    assert sum(len(manager.hold_records) for manager in managers) > 0


# -- the four controllers under contention ------------------------------------
class _CountingLockManager(LockManager):
    """Counts the tenures its grants begin: each must end in a hold record."""

    def __init__(self) -> None:
        super().__init__()
        self.tenures_begun = 0

    def acquire_all(self, holder, exclusive, shared=(), now=0.0):
        held_before = self.held_keys(holder)
        granted = super().acquire_all(holder, exclusive, shared, now)
        if granted:
            self.tenures_begun += len(self.held_keys(holder) - held_before)
        return granted


def _single_node(controller_cls):
    def build(history):
        manager = _CountingLockManager()
        controller = controller_cls(KeyValueStore(), manager, history=history)
        return controller, None, [manager]

    return build


def _distributed(controller_cls):
    def build(history):
        store = PartitionedStore(num_partitions=3)
        managers = []
        for partition_id in store.partition_ids():
            store.partition(partition_id).locks = manager = _CountingLockManager()
            managers.append(manager)
        return controller_cls(store, history=history), store, managers

    return build


CONTROLLERS = {
    "TwoStage2PL": (_single_node(TwoStage2PL), check_ms_sr, True),
    "MSIAController": (_single_node(MSIAController), check_ms_ia, False),
    "DistributedTwoStage2PL": (_distributed(DistributedTwoStage2PL), check_ms_sr, True),
    "DistributedMSIAController": (_distributed(DistributedMSIAController), check_ms_ia, False),
}


def _hot_transaction(txn_id, rng, executed):
    """Increment three hot keys in the initial section and one in the final,
    logging into ``executed[(txn_id, section)]`` what the body observed."""
    keys = [f"hot-{rng.randrange(8)}" for _ in range(4)]
    initial_keys, final_keys = keys[:3], keys[3:]

    def body(section_keys, section):
        def run(ctx):
            log = executed[(txn_id, section)] = []
            for key in section_keys:
                value = ctx.read(key, default=0)
                log.append(Operation(OperationKind.READ, key, value))
                value = (value or 0) + 1  # an undone first write reads back as None
                ctx.write(key, value)
                log.append(Operation(OperationKind.WRITE, key, value))

        return run

    def rwset(section_keys):
        return ReadWriteSet(reads=frozenset(section_keys), writes=frozenset(section_keys))

    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body(initial_keys, SectionKind.INITIAL), rwset(initial_keys)),
        final=SectionSpec(body(final_keys, SectionKind.FINAL), rwset(final_keys)),
    )


def _record_fnv_evaluations(monkeypatch) -> list[str]:
    """The keys ``_stable_bucket`` is evaluated on from here on, in order."""
    fnv = partition_module._stable_bucket
    hashed: list[str] = []

    def recording_fnv(key, buckets):
        hashed.append(key)
        return fnv(key, buckets)

    monkeypatch.setattr(partition_module, "_stable_bucket", recording_fnv)
    return hashed


@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_pending_finals_is_a_property_through_a_policy(name):
    """One calling convention on all four controllers: a tuple, read
    without a call, so ``if policy.pending_finals:`` is False when nothing
    waits (a bound method would always be truthy)."""
    build, _, _ = CONTROLLERS[name]
    controller, _, _ = build(None)
    policy = make_policy("immediate-2pc", controller)
    assert policy.pending_finals == ()
    assert not policy.pending_finals
    transaction = _hot_transaction("t1", random.Random(0), {})
    policy.process_initial(transaction, now=1.0)
    assert policy.pending_finals == ("t1",)
    policy.process_final(transaction, now=2.0)
    assert not policy.pending_finals


@pytest.mark.usefixtures("rows_kept")
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(CONTROLLERS))
def test_contended_sections_keep_the_path_invariants(name, seed, monkeypatch):
    build, check, holds_locks_across_sections = CONTROLLERS[name]
    history = History()
    controller, store, managers = build(history)

    hashed = _record_fnv_evaluations(monkeypatch)

    def run_section(process, transaction, locked: ReadWriteSet, now):
        """One section; it may hash each key of the rwset it locks at most once."""
        before = len(hashed)
        try:
            process(transaction, now=now)
            return True
        except TransactionAborted:
            return False
        finally:
            assert len(hashed) - before <= len(locked.keys)

    rng = random.Random(seed)
    executed: dict[tuple[str, SectionKind], list[Operation]] = {}
    in_flight: list[MultiStageTransaction] = []
    committed: list[MultiStageTransaction] = []
    started = 0
    now = 0.0
    while started < 80 or in_flight:
        now += 1.0
        if started < 80 and (not in_flight or rng.random() < 0.6):
            started += 1
            transaction = _hot_transaction(f"t{started}", rng, executed)
            locked = (
                transaction.combined_rwset()
                if holds_locks_across_sections
                else transaction.initial.rwset
            )
            if run_section(controller.process_initial, transaction, locked, now):
                in_flight.append(transaction)
            else:
                assert transaction.is_aborted
        else:
            transaction = in_flight.pop(rng.randrange(len(in_flight)))
            locked = (
                transaction.combined_rwset()
                if holds_locks_across_sections
                else transaction.final.rwset
            )
            assert run_section(controller.process_final, transaction, locked, now)
            committed.append(transaction)

    # Hot keys make MS-SR abort; MS-IA holds no lock between sections.
    assert (controller.stats.aborts > 0) == holds_locks_across_sections
    assert controller.stats.final_commits == len(committed) > 0
    assert check(history)

    # Audit records render to exactly what the bodies executed, frozen.
    for transaction in committed:
        for section in SectionKind:
            record = section_of(history, transaction.transaction_id, section)
            assert record.operations == tuple(executed[(transaction.transaction_id, section)])
    with pytest.raises(FrozenInstanceError):
        record.operations[0].key = "other"

    # Every lock tenure ended, and every tenure begun left one hold record.
    assert all(manager.is_quiescent for manager in managers)
    for manager in managers:
        assert len(manager.hold_records) == manager.tenures_begun
        assert all(isinstance(row, LockHoldRecord) for row in manager.hold_records)

    if store is None:
        assert not hashed
        snapshots = [controller.store.snapshot()]
    else:
        # One FNV evaluation per distinct key per store, not per section.
        touched = {operation.key for operations in executed.values() for operation in operations}
        assert touched <= set(hashed) and len(hashed) == len(set(hashed)) <= 8
        partitions = [store.partition(pid) for pid in store.partition_ids()]
        snapshots = [partition.store.snapshot() for partition in partitions]
        for partition, snapshot in zip(partitions, snapshots):
            records = partition.wal.records()
            assert [record.lsn for record in records] == list(range(1, len(records) + 1))
            replayed = KeyValueStore()
            partition.wal.replay_into(replayed)
            assert replayed.snapshot() == snapshot
    # Every committed increment is in the store exactly once, no aborted one is.
    assert sum(sum(snapshot.values()) for snapshot in snapshots) == 4 * len(committed)


def test_a_store_hashes_each_key_once_across_transfer_recovery_and_promotion(monkeypatch):
    """A key's partition is fixed for the store's life and re-homing swaps a
    partition's store, never the partition, so the key -> partition memo is
    never stale: after a transfer, a crash and recovery and a promotion
    every key still routes where a fresh hash sends it, and none was
    hashed twice."""
    fnv = partition_module._stable_bucket
    hashed = _record_fnv_evaluations(monkeypatch)
    store = PartitionedStore(num_partitions=4)
    keys = [f"key-{index}" for index in range(64)]

    def routes_match_a_fresh_hash():
        for key in keys:
            assert store.partition_for(key).partition_id == fnv(key, 4)
            assert store.read(key, default=None) == (key.upper() if key in written else None)

    written = set(keys[::2])
    for key in sorted(written):
        store.write(key, key.upper())
    assert sorted(hashed) == sorted(written)  # half the keys routed so far, once each
    store.transfer_partition(1)
    routes_match_a_fresh_hash()
    store.partition(2).crash()
    store.partition(2).recover()
    routes_match_a_fresh_hash()
    standby = KeyValueStore()
    store.partition(3).wal.replay(standby)
    store.partition(3).promote(standby)
    routes_match_a_fresh_hash()
    assert sorted(hashed) == sorted(keys)


# -- the distributed lock lifecycle ---------------------------------------------
DISTRIBUTED = {
    "DistributedTwoStage2PL": DistributedTwoStage2PL,
    "DistributedMSIAController": DistributedMSIAController,
}


def _keys_on_distinct_partitions(store: PartitionedStore, count: int) -> list[str]:
    """``count`` keys, each owned by a different partition."""
    by_partition: dict[int, str] = {}
    index = 0
    while len(by_partition) < count:
        key = f"key-{index}"
        by_partition.setdefault(store.partition_for(key).partition_id, key)
        index += 1
    return [by_partition[partition_id] for partition_id in sorted(by_partition)]


def _section(reads=(), writes=(), written=None):
    """A section declaring ``reads`` / ``writes`` whose body writes
    ``written`` (the declared writes unless given)."""
    written = tuple(writes if written is None else written)

    def body(ctx):
        for key in reads:
            ctx.read(key, default=0)
        for key in written:
            ctx.write(key, (ctx.read(key, default=0) or 0) + 1)

    return SectionSpec(body, ReadWriteSet(reads=frozenset(reads), writes=frozenset(writes)))


def _hold_counts(store: PartitionedStore) -> Counter:
    return Counter(
        (record.key, record.acquired_at, record.released_at)
        for partition_id in store.partition_ids()
        for record in store.partition(partition_id).locks.hold_records
    )


@pytest.mark.usefixtures("rows_kept")
@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_each_key_a_section_locks_leaves_one_hold_record(name):
    """Prepare votes on the locks the section still holds and one release
    per routed partition ends them: a key leaves one tenure per section
    that locked it (MS-IA: per section; MS-SR: one, initial to final)."""
    store = PartitionedStore(num_partitions=4)
    a, b, c, d = _keys_on_distinct_partitions(store, 4)
    transaction = MultiStageTransaction(
        transaction_id="t1",
        initial=_section(reads=(a,), writes=(b,)),
        final=_section(reads=(c,), writes=(b, d)),
    )
    controller = DISTRIBUTED[name](store)
    controller.process_initial(transaction, now=1.0)
    controller.process_final(transaction, now=3.0)

    assert transaction.is_committed
    if name == "DistributedTwoStage2PL":
        tenures = [(key, 1.0, 3.0) for key in (a, b, c, d)]
    else:
        tenures = [(a, 1.0, 1.0), (b, 1.0, 1.0), (b, 3.0, 3.0), (c, 3.0, 3.0), (d, 3.0, 3.0)]
    assert _hold_counts(store) == Counter(tenures)
    assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())
    assert store.read(b) == 2 and store.read(d) == 1


@pytest.mark.parametrize("other_mode", [LockMode.SHARED, LockMode.EXCLUSIVE])
@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_an_undeclared_write_still_votes_no_on_conflict(name, other_mode):
    """The prepare takes an undeclared write as a new request, so another
    holder's lock on that key still turns the round into an abort — and
    nothing the aborted round held stays locked."""
    store = PartitionedStore(num_partitions=4)
    declared, undeclared = _keys_on_distinct_partitions(store, 2)
    store.partition_for(undeclared).locks.try_acquire("other", undeclared, other_mode)
    sneaky = _section(writes=(declared,), written=(declared, undeclared))
    if name == "DistributedTwoStage2PL":
        transaction = MultiStageTransaction("t1", initial=_section(writes=(declared,)), final=sneaky)
        controller = DISTRIBUTED[name](store)
        controller.process_initial(transaction, now=1.0)
        with pytest.raises(TransactionAborted, match="final atomic commit failed"):
            controller.process_final(transaction, now=2.0)
    else:
        transaction = MultiStageTransaction("t1", initial=sneaky, final=_section())
        controller = DISTRIBUTED[name](store)
        with pytest.raises(TransactionAborted, match="initial-section atomic commit failed"):
            controller.process_initial(transaction, now=1.0)
        assert transaction.is_aborted
    assert controller.stats.aborts == 1
    assert store.read(declared, default=None) is None  # atomic: nothing applied
    assert store.read(undeclared, default=None) is None
    assert not store.partition_for(declared).locks.held_keys("t1")
    assert not store.partition_for(undeclared).locks.held_keys("t1")
    assert store.partition_for(undeclared).locks.held_keys("other") == {undeclared}
    assert store.failure_aborts == 0


@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_an_upgrade_under_another_reader_votes_no(name):
    """A key declared read-only but written by the body needs S -> X at
    prepare; a second reader of the key denies it, as a re-take would."""
    store = PartitionedStore(num_partitions=4)
    (key,) = _keys_on_distinct_partitions(store, 1)
    store.partition_for(key).locks.try_acquire("reader", key, LockMode.SHARED)
    upgrade = _section(reads=(key,), written=(key,))
    controller = DISTRIBUTED[name](store)
    transaction = MultiStageTransaction("t1", initial=upgrade, final=_section())
    if name == "DistributedTwoStage2PL":
        controller.process_initial(transaction, now=1.0)  # MS-SR commits at the end
        with pytest.raises(TransactionAborted):
            controller.process_final(transaction, now=2.0)
    else:
        with pytest.raises(TransactionAborted):
            controller.process_initial(transaction, now=1.0)
    assert store.read(key, default=None) is None
    assert not store.partition_for(key).locks.held_keys("t1")
    # Alone on the key, the same upgrade commits.
    store.partition_for(key).locks.release("reader", key)
    controller = DISTRIBUTED[name](store)
    transaction = MultiStageTransaction("t2", initial=upgrade, final=_section())
    controller.process_initial(transaction, now=3.0)
    controller.process_final(transaction, now=4.0)
    assert transaction.is_committed and store.read(key) == 1
    assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())


@pytest.mark.usefixtures("rows_kept")
@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_a_denied_acquisition_records_no_tenure(name):
    """All-or-nothing acquisition gives back the keys granted before the
    denied one without recording them: no body ran under those locks, so a
    zero-length hold record would pull ``average_hold_time`` (Fig 6a) down."""
    store = PartitionedStore(num_partitions=4)
    first, second, contested = sorted(_keys_on_distinct_partitions(store, 3))
    store.partition_for(contested).locks.try_acquire("other", contested, LockMode.EXCLUSIVE)
    before = {pid: store.partition(pid).locks.hold_records for pid in store.partition_ids()}
    controller = DISTRIBUTED[name](store)
    transaction = MultiStageTransaction(
        "t1", initial=_section(writes=(first, second, contested)), final=_section()
    )

    with pytest.raises(TransactionAborted, match="remote lock denied"):
        controller.process_initial(transaction, now=1.0)
    assert transaction.is_aborted and controller.stats.aborts == 1
    assert {pid: store.partition(pid).locks.hold_records for pid in store.partition_ids()} == before
    assert all(not store.partition(pid).locks.held_keys("t1") for pid in store.partition_ids())
    assert store.partition_for(contested).locks.held_keys("other") == {contested}


def test_an_ms_sr_final_whose_participant_failed_releases_every_lock():
    store = PartitionedStore(num_partitions=4)
    keys = _keys_on_distinct_partitions(store, 3)
    transaction = MultiStageTransaction(
        "t1", initial=_section(writes=keys[:2]), final=_section(reads=keys[2:], writes=keys[:1])
    )
    controller = DistributedTwoStage2PL(store)
    controller.process_initial(transaction, now=1.0)
    failed = store.partition_for(keys[1])
    failed.crash()

    with pytest.raises(TransactionAborted, match="participant unavailable"):
        controller.process_final(transaction, now=2.0)
    assert store.failure_aborts == 1
    assert controller.stats.aborts == 1
    assert all(store.partition(pid).locks.is_quiescent for pid in store.partition_ids())
    assert store.read(keys[0], default=None) is None  # the live participant applied nothing
    assert not controller.pending_finals


@pytest.mark.parametrize("name", sorted(DISTRIBUTED))
def test_rounds_with_the_same_participants_share_one_set(name):
    store = PartitionedStore(num_partitions=4)
    a, b, c = _keys_on_distinct_partitions(store, 3)
    controller = DISTRIBUTED[name](store)
    for index, written in enumerate([(a, b), (b, a), (a, c), (c, a), (b, a)]):
        transaction = MultiStageTransaction(
            f"t{index}", initial=_section(writes=written), final=_section(writes=written)
        )
        controller.process_initial(transaction, now=float(index))
        controller.process_final(transaction, now=float(index) + 0.5)

    rounds = [
        participants
        for record in controller.commit_records.values()
        for participants in record.rounds
    ]
    assert len(rounds) == (5 if name == "DistributedTwoStage2PL" else 10)
    assert len({id(participants) for participants in rounds}) == len(set(rounds)) == 2

    coordinator = TwoPhaseCommitCoordinator(store)
    first = coordinator.commit("x1", {a: 1, b: 1}).participants
    assert coordinator.commit("x2", {b: 2, a: 2}).participants is first
    assert coordinator.commit("x3", {c: 3}).participants is not first


def test_a_commit_record_keeps_no_attribute_dict():
    record = DistributedCommitRecord("t1")
    assert not hasattr(record, "__dict__")
    record.rounds.append(frozenset({0, 1}))
    assert record.partitions_touched == frozenset({0, 1})


# -- admission: a draft against its built twin ---------------------------------------
#: Every controller behind the immediate policy; batched and async 2PC need a
#: controller with commit hooks, so they run over the two distributed ones.
ADMISSION_CELLS = [(name, "immediate-2pc") for name in sorted(CONTROLLERS)] + [
    (name, policy) for name in sorted(DISTRIBUTED) for policy in ("batched-2pc", "async-2pc")
]


def _drafts(kind: str, seed: int, count: int) -> list:
    """A frame's drafts from a small key space, so that they contend."""
    rng = np.random.default_rng(seed)
    if kind == "hotspot":
        return HotspotWorkload(rng=rng, key_range=6).draft_transactions(count)
    workload = YCSBWorkload(rng=rng, key_space=2)
    return workload.draft_transactions([None] * count, [f"y{index}" for index in range(count)])


def _admission_run(name, policy_name, drafts, grants, down, through_drafts):
    """Prepare a store (grants held by other holders, crashed partitions),
    then run every draft's initial section — admitted as a draft, or
    materialised and sent through the raising ``process_initial`` — and
    every granted transaction's final section; returns what may differ."""
    build, _, _ = CONTROLLERS[name]
    history = History()
    controller, store, managers = build(history)
    if store is None:
        policy = make_policy(policy_name, controller)
    else:
        channel = Channel(SAME_REGION, RngRegistry(7).stream("coordinator"))
        policy = make_policy(policy_name, controller, frozenset({0}), channel)
    for key, mode, holder in grants:
        manager = managers[0] if store is None else store.partition_for(key).locks
        manager.try_acquire(f"other-{holder}", key, mode, 0.0)
    for partition_id in down:
        store.partition(partition_id).crash()

    stages: list[float] = []
    before_stage = policy._before_stage
    policy._before_stage = lambda now: (stages.append(now), before_stage(now))[1]
    hashed: list[str] = []
    fnv = partition_module._stable_bucket
    partition_module._stable_bucket = lambda key, n: (hashed.append(key), fnv(key, n))[1]
    try:
        outcomes, granted = [], []
        for index, draft in enumerate(drafts):
            now = 1.0 + index
            if through_drafts:
                try:
                    transaction = policy.admit(draft, now=now)
                    outcome = "denied" if transaction is None else "granted"
                except TransactionAborted:
                    outcome, transaction = "raised", None
            else:
                transaction = draft.materialise()
                try:
                    policy.process_initial(transaction, now=now)
                    outcome = "granted"
                except TransactionAborted as aborted:
                    outcome = "denied" if aborted.reason == controller.denial else "raised"
                    assert transaction.is_aborted
            outcomes.append(outcome)
            if outcome == "granted":
                granted.append(transaction)
                assert transaction.initial_result is not None
        admitted = (
            outcomes,
            [(manager._table, manager._held_by, manager.hold_records) for manager in managers],
            controller.stats.aborts,
            None if store is None else store.failure_aborts,
            len(stages),
            list(hashed),
        )
        admitted = copy.deepcopy(admitted)
        finals = []
        for index, transaction in enumerate(granted):
            try:
                policy.process_final(transaction, now=100.0 + index)
                finals.append(transaction.is_committed)
            except TransactionAborted:
                finals.append("raised")
        policy.commit(200.0)
    finally:
        partition_module._stable_bucket = fnv
    if store is None:
        written = [(key, controller.store.history(key)) for key in sorted(controller.store.keys())]
    else:
        written = [
            (partition_id, record.lsn, record.transaction_id, record.key, repr(record.value))
            for partition_id in store.partition_ids()
            for record in store.partition(partition_id).wal.records()
        ]
    return admitted, finals, repr(written), repr(list(history)), policy.policy_stats


@settings(max_examples=60, deadline=None)
@given(data=st.data())
@pytest.mark.parametrize("name, policy_name", ADMISSION_CELLS)
def test_an_admitted_draft_matches_its_materialised_twin(name, policy_name, data):
    """The admission is ``process_initial``'s own first lock pass: a draft
    admitted through the policy and its materialised twin sent through the
    raising path, on identically prepared stores, are granted or denied
    alike and leave the same lock tables, hold records, abort and
    failure-abort counts, ``_before_stage`` calls and hashed keys; after
    the finals commit, the same WAL records (store versions on one node),
    History and coordinator accounting."""
    kind = data.draw(st.sampled_from(["hotspot", "ycsb"]))
    seed = data.draw(st.integers(0, 2**16))
    count = data.draw(st.integers(1, 8))
    keys = sorted(
        {key for draft in _drafts(kind, seed, count) for keys in draft.lock_requests() for key in keys}
    )
    modes = st.sampled_from([LockMode.SHARED, LockMode.EXCLUSIVE])
    holders = st.integers(0, 2)
    grants = data.draw(st.lists(st.tuples(st.sampled_from(keys), modes, holders), max_size=6))
    down = data.draw(st.sets(st.integers(0, 2), max_size=2)) if name in DISTRIBUTED else set()

    with keeping_rows():
        admitted = _admission_run(name, policy_name, _drafts(kind, seed, count), grants, down, True)
        twin = _admission_run(name, policy_name, _drafts(kind, seed, count), grants, down, False)
    assert admitted == twin


def test_a_denied_attempt_builds_nothing(monkeypatch):
    """On a replicated-failover-shaped hotspot cluster (MS-SR, four edges,
    sync shipping, a mid-run promotion), an attempt whose admission is
    denied builds no routing plan, transaction, section,
    ``TriggeredTransaction`` or ``TransactionAborted``; a granted one builds
    one plan (its lock pass's) and what it always did — one transaction,
    its two row sections and, in the initial stage, one entry."""
    built = count_constructions(
        monkeypatch,
        SectionRoutes,
        MultiStageTransaction,
        RowSection,
        TriggeredTransaction,
        TransactionAborted,
    )
    attempts = Counter()
    admit = TransactionPolicy.admit

    def counting_admit(self, draft, labels=None, now=0.0):
        before = dict(built)
        transaction = admit(self, draft, labels=labels, now=now)
        delta = {cls: built[cls] - before[cls] for cls in built}
        if transaction is None:
            attempts["denied"] += 1
            assert not any(delta.values())
        else:
            attempts["granted"] += 1
            assert delta == {
                "SectionRoutes": 1,
                "MultiStageTransaction": 1,
                "RowSection": 2,
                "TriggeredTransaction": 0,
                "TransactionAborted": 0,
            }
        return transaction

    monkeypatch.setattr(TransactionPolicy, "admit", counting_admit)
    stage = EdgeNode.process_initial_stage

    def counting_stage(self, *args, **kwargs):
        before = built["TriggeredTransaction"]
        outcome = stage(self, *args, **kwargs)
        assert built["TriggeredTransaction"] - before == len(outcome.triggered)
        return outcome

    monkeypatch.setattr(EdgeNode, "process_initial_stage", counting_stage)
    system = _run_cluster(get_scenario("replicated-failover").with_(hot_key_range=200))

    assert attempts["denied"] > attempts["granted"] > 0
    # The controllers' aborts are these denials plus the transactions that
    # initial-committed and never final-committed (the failover's aborts).
    stats = [replica.controller.stats for replica in system.replicas]
    assert attempts["denied"] == sum(s.aborts - s.initial_commits + s.final_commits for s in stats)


@pytest.mark.parametrize("scenario", ["fig4-ms-sr", "fig4-ms-ia"])
def test_a_committed_transaction_builds_two_contexts_and_one_handoff(monkeypatch, scenario):
    """On a single-edge YCSB run a committed transaction builds two section
    contexts, and a pending final keeps the initial section's labels
    themselves (no book-keeping record).  The initial section's handoff is
    copied once: the transaction keeps one dict, not its initial context's,
    and the final context reads that very dict."""
    contexts: list[SectionContext] = []
    init = SectionContext.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(self)

    monkeypatch.setattr(SectionContext, "__init__", recording_init)
    committed: list[MultiStageTransaction] = []
    mark_committed = MultiStageTransaction.mark_committed

    def recording_mark(self, *args, **kwargs):
        mark_committed(self, *args, **kwargs)
        committed.append(self)

    monkeypatch.setattr(MultiStageTransaction, "mark_committed", recording_mark)
    kept_labels: list[bool] = []
    for controller in (TwoStage2PL, MSIAController):

        def recording_admit(self, draft, labels=None, now=0.0, _admit=controller.admit):
            transaction = _admit(self, draft, labels, now)
            if transaction is not None:
                kept_labels.append(self._pending[draft.transaction_id] is labels)
            return transaction

        monkeypatch.setattr(controller, "admit", recording_admit)

    spec = get_scenario(scenario)
    config = build_single_config(spec)
    system = CroesusSystem(config)
    system.run(make_video(spec.video, num_frames=spec.frames, seed=config.seed))

    stats = system.edge.policy.stats
    assert stats.final_commits == stats.initial_commits == len(committed) > 0
    assert len(contexts) == 2 * len(committed)
    assert kept_labels == [True] * len(committed)
    by_section = {(context.transaction_id, context.section): context for context in contexts}
    for transaction in committed:
        initial = by_section[transaction.transaction_id, SectionKind.INITIAL]
        final = by_section[transaction.transaction_id, SectionKind.FINAL]
        assert transaction.handoff == initial._handoff
        assert transaction.handoff is not initial._handoff
        assert final._handoff is transaction.handoff


@pytest.mark.parametrize("scenario", ["fig4-ms-sr", "fig4-ms-ia"])
def test_no_lock_request_is_built_on_the_admission_path(monkeypatch, scenario):
    """A YCSB draft carries both sections' lock requests, built while its
    keys were formatted: over a single-edge run no admission, final lock
    pass or release builds a request (the lazy builder, counted through
    ``lock_keys``, never runs), and every final section, which reads
    nothing, shares the one empty tuple as its shared requests."""
    built = []

    def counting_lock_keys(reads, writes, _lock_keys=ops_module.lock_keys):
        built.append(writes)
        return _lock_keys(reads, writes)

    monkeypatch.setattr(ops_module, "lock_keys", counting_lock_keys)
    monkeypatch.setattr(model_module, "lock_keys", counting_lock_keys)
    ReadWriteSet(reads=frozenset({"a"}), writes=frozenset({"b"})).lock_requests()
    assert len(built) == 1  # the counter sees the lazy builder
    built.clear()
    materialised: list[MultiStageTransaction] = []
    materialise = YCSBWorkload.materialise

    def recording_materialise(self, draft):
        transaction = materialise(self, draft)
        materialised.append(transaction)
        return transaction

    monkeypatch.setattr(YCSBWorkload, "materialise", recording_materialise)
    spec = get_scenario(scenario)
    config = build_single_config(spec)
    system = CroesusSystem(config)
    system.run(make_video(spec.video, num_frames=spec.frames, seed=config.seed))

    assert system.edge.policy.stats.final_commits == len(materialised) > 0
    assert built == []
    shared = {id(transaction.final.lock_requests()[1]) for transaction in materialised}
    assert shared == {id(())}
    assert built == []


# -- the FNV-1a bucket ---------------------------------------------------------------
def _fnv_masked_per_byte(key: str, buckets: int) -> int:
    """32-bit FNV-1a as first written: reduced mod 2**32 after every byte."""
    value = 2166136261
    for byte in key.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value % buckets


@settings(max_examples=500, deadline=None)
@given(st.text(), st.integers(min_value=1, max_value=64))
def test_the_bucket_masked_once_is_the_per_byte_masked_bucket(key, buckets):
    assert partition_module._stable_bucket(key, buckets) == _fnv_masked_per_byte(key, buckets)


@pytest.mark.parametrize(
    "key, digest",
    [("", 0x811C9DC5), ("a", 0xE40C292C), ("foobar", 0xBF9CF968)],
)
def test_the_bucket_is_fnv1a_32(key, digest):
    """The published FNV-1a 32-bit vectors, read through a 2**32-slot space."""
    assert partition_module._stable_bucket(key, 2**32) == digest
