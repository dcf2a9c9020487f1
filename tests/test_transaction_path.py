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
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import FrozenInstanceError

import pytest

import repro.storage.partition as partition_module
from repro.cluster.system import ClusterSystem, hotspot_bank_factory
from repro.experiments import get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config, build_traffic_config
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockHoldRecord, LockManager
from repro.storage.partition import PartitionedStore
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.distributed import DistributedMSIAController, DistributedTwoStage2PL
from repro.transactions.exceptions import TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionKind, SectionSpec
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet

from helpers import count_constructions


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
    """Counts tenures that must end in a hold record."""

    def __init__(self) -> None:
        super().__init__()
        self.tenures_begun = 0
        self.unrecorded_releases = 0

    def try_acquire(self, holder, key, mode, now=0.0):
        already_held = self.holds(holder, key)
        granted = super().try_acquire(holder, key, mode, now)
        if granted and not already_held:
            self.tenures_begun += 1
        return granted

    def release(self, holder, key, now=0.0, record=True):
        if not record and self.holds(holder, key):
            self.unrecorded_releases += 1
        super().release(holder, key, now=now, record=record)


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
            record = history.section(transaction.transaction_id, section)
            assert record.operations == tuple(executed[(transaction.transaction_id, section)])
    with pytest.raises(FrozenInstanceError):
        record.operations[0].key = "other"

    # Every lock tenure ended, and every recorded release left one hold record.
    assert all(manager.is_quiescent for manager in managers)
    for manager in managers:
        assert len(manager.hold_records) == manager.tenures_begun - manager.unrecorded_releases
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


def test_a_store_hashes_each_key_once_across_split_merge_and_transfer(monkeypatch):
    """The slot space is fixed at construction and re-sharding only rewrites
    the slot -> partition table, so the key -> slot memo is never stale:
    after a split, a merge and a transfer every key still routes where a
    fresh hash sends it, and none was hashed twice."""
    fnv = partition_module._stable_bucket
    hashed = _record_fnv_evaluations(monkeypatch)
    store = PartitionedStore(num_partitions=4)
    keys = [f"key-{index}" for index in range(64)]

    def routes_match_a_fresh_hash():
        for key in keys:
            owner = store.partition_for(key)
            assert fnv(key, 4) in store.slots_of(owner.partition_id)
            assert store.read(key, default=None) == (key.upper() if key in written else None)

    written = set(keys[::2])
    for key in sorted(written):
        store.write(key, key.upper())
    assert sorted(hashed) == sorted(written)  # half the keys routed so far, once each
    store.merge(1, 0)  # partition 0 now owns two slots ...
    routes_match_a_fresh_hash()
    target = store.split(0)  # ... and gives one away: split() scans through the memo
    assert target.store.snapshot() and store.partition(0).store.snapshot()
    routes_match_a_fresh_hash()
    store.transfer_partition(target.partition_id)
    routes_match_a_fresh_hash()
    assert sorted(hashed) == sorted(keys)
