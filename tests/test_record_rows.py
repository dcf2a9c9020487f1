"""Audit records are kept as rows and rendered when they are read.

``KeyValueStore``, ``UndoLog``, ``History``, ``Channel``, the redo
``WriteAheadLog`` and the distributed controllers' 2PC rounds store what a
write or a commit round leaves behind as plain rows; ``Version``,
``UndoRecord``, ``SectionRecord`` (and its ``Operation`` tuples),
``TransferRecord``, ``LogRecord`` and ``DistributedCommitRecord`` are built
by the accessor that reads them (a ``LogRecord`` also by an append that has
a ship hook to feed).  The store keeps its version rows only when
``KeyValueStore.keep_versions`` is on, and the ``History`` its section rows
only when ``History.keep_rows`` is on, so the tests here that read them
build their stores and histories inside ``helpers.keeping_rows``.  Report digests see
none of that state, so this file guards it three ways:

* **state pins** — a sha256 over every rendered record of three seeded
  runs, captured on the commit that still built the records on the write
  (3013db9) and re-captured without the since-deleted event log on
  3642afe; and a sha256 over every rendered ``LogRecord`` (primary and
  standby logs) and ``DistributedCommitRecord`` of a ``sustained-overload``
  and a ``replicated-failover`` shaped run, captured on 0fa6932, the last
  commit that built one per write and one per transaction.  None may ever
  move, under any ``PYTHONHASHSEED``;
* **model tests** — random interleavings of store and undo-log calls
  against an oracle that keeps real record objects the way that commit
  did, a ``History`` fed rows against one fed rendered operations, the
  flat ``History`` against the tuple-row one it replaced, and redo-log
  appends, shipped records, checkpoints, reads, replays and recoveries
  against a log that keeps one ``LogRecord`` per append;
* **counting** — a run constructs none of the record classes, and each
  accessor renders the same non-zero number of them afterwards (the
  cluster report's span counts render none); a recorded run keeps a
  bounded number of bytes per committed operation, and an open-loop
  cluster run per committed write.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.system import ClusterSystem, hotspot_bank_factory
from repro.core.system import CroesusSystem
from repro.experiments import get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import (
    build_cluster_config,
    build_single_config,
    build_traffic_config,
)
from repro.network.channel import TransferRecord
from repro.storage.kvstore import KeyNotFound, KeyValueStore, Version
from repro.storage.partition import Partition, RecoveryOutcome
from repro.storage.wal import (
    Checkpoint,
    LogRecord,
    UndoLog,
    UndoRecord,
    restore_from_checkpoint,
)
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.distributed import DistributedCommitRecord
from repro.transactions.exceptions import SectionOrderError
from repro.transactions.history import History, SectionRecord
from repro.transactions.model import (
    MultiStageTransaction,
    SectionContext,
    SectionKind,
    SectionSpec,
)
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet
from repro.video.library import make_video

from helpers import (
    conflicting_pairs,
    count_constructions,
    keeping_rows,
    ordered_before,
    record_section,
    rollback_writer,
    section,
    sections_of,
)


# -- state pins ---------------------------------------------------------------
def _versions(store):
    return [
        (key, [(repr(v.value), v.writer, v.sequence) for v in store.history(key)])
        for key in store.keys()
    ]


def _sections(history):
    return [
        (
            record.transaction_id,
            record.section.value,
            record.commit_time,
            record.sequence,
            [(op.kind.value, op.key, repr(op.value)) for op in record.operations],
        )
        for record in history
    ]


def _transfers(channel):
    return [
        (record.timestamp, record.size_bytes, record.duration, record.description)
        for record in channel.transfers
    ]


def _sha(payload) -> str:
    return hashlib.sha256(repr(payload).encode()).hexdigest()


def _single_edge_state(system: CroesusSystem) -> str:
    return _sha(
        (
            _versions(system.edge.store),
            _sections(system.history),
            [_transfers(system.client_edge), _transfers(system.edge_cloud)],
        )
    )


def _run_single(spec, bank=None) -> CroesusSystem:
    config = build_single_config(spec)
    system = CroesusSystem(config, bank=bank)
    system.run(make_video(spec.video, num_frames=spec.frames, seed=config.seed))
    return system


def _retracting_bank() -> TransactionBank:
    """Count each label on the initial section; a final section whose
    corrected label differs retracts the count and writes the keys
    ``retract_initial_effects`` returned."""

    def factory(detection, txn_id):
        counter, marker = f"count:{detection.name}", f"retracted:{txn_id}"

        def initial(ctx):
            ctx.write(counter, (ctx.read(counter) or 0) + 1)
            ctx.write(f"seen:{txn_id}", detection.name)

        def final(ctx):
            corrected = ctx.labels
            if corrected is None or corrected.name != detection.name:
                ctx.write(marker, ctx.retract_initial_effects())
                ctx.apologize(f"{txn_id}: {detection.name} was not confirmed")

        touched = frozenset({counter, f"seen:{txn_id}"})
        return MultiStageTransaction(
            transaction_id=txn_id,
            initial=SectionSpec(initial, ReadWriteSet(reads={counter}, writes=touched)),
            final=SectionSpec(final, ReadWriteSet(writes=touched | {marker})),
        )

    bank = TransactionBank()
    bank.register("count", ANY_LABEL, factory)
    return bank


def _fig4_ms_sr() -> str:
    return _single_edge_state(_run_single(get_scenario("fig4-ms-sr")))


def _ms_ia_retracting() -> str:
    system = _run_single(get_scenario("fig4-ms-ia").with_(frames=40, seed=3), _retracting_bank())
    retracted = [key for key in system.edge.store.keys() if key.startswith("retracted:")]
    # The finals did retract, and wrote the undone keys newest-first.
    assert retracted
    for key in retracted:
        txn_id = key.split(":", 1)[1]
        undone = system.edge.store.read(key)
        assert undone[0] == f"seen:{txn_id}" and undone[1].startswith("count:")
    return _single_edge_state(system)


def _cluster_small() -> str:
    spec = get_scenario("cluster-small")
    system = ClusterSystem(build_cluster_config(spec))
    system.run(build_streams(spec))
    channels = system._client_edge + system._edge_cloud + system._coordinator_channels
    return _sha(
        (
            [
                _versions(system.store.partition(partition_id).store)
                for partition_id in system.store.partition_ids()
            ],
            [_transfers(channel) for channel in channels],
        )
    )


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


def _log(wal):
    checkpoint = wal.latest_checkpoint
    return (
        wal.last_lsn,
        None if checkpoint is None else checkpoint.lsn,
        [(r.lsn, r.transaction_id, r.key, repr(r.value)) for r in wal.records()],
    )


def _commit_round_state(system: ClusterSystem) -> str:
    """Every rendered redo-log record — primary logs, then each replication
    group's standby logs — and every replica's rendered commit records."""
    replication = system._replication
    standbys = [] if replication is None else [
        (
            group.partition_id,
            group.primary_edge,
            [(edge, _log(log)) for edge, log in sorted(group.standby_logs.items())],
        )
        for group in replication.groups()
    ]
    return _sha(
        (
            [_log(system.store.partition(pid).wal) for pid in system.store.partition_ids()],
            standbys,
            [
                [
                    (txn, [sorted(participants) for participants in record.rounds])
                    for txn, record in replica.controller.commit_records.items()
                ]
                for replica in system.replicas
            ],
        )
    )


def _overload_commit_rounds() -> str:
    """MS-IA YCSB, open loop at ~2x capacity, two partitions per edge: 921
    records and 614 rounds, 214 of them spanning two partitions."""
    spec = get_scenario("sustained-overload").with_(duration_s=8.0, partitions_per_edge=2)
    return _commit_round_state(_run_cluster(spec))


def _failover_commit_rounds() -> str:
    """MS-SR hotspot, sync shipping, a promotion and a fail-back re-enrolling
    the recovered edge as a standby: 1150 records on the primaries and 1150
    on the standbys, 233 rounds."""
    spec = get_scenario("replicated-failover").with_(hot_key_range=200, failback=True)
    return _commit_round_state(_run_cluster(spec))


STATE_PINS = {
    "fig4-ms-sr": (
        _fig4_ms_sr,
        "379f94b8df7b35b69a5b6e7805fa16c29b8bc4a266b75309ac84b16ea8b7e6fd",
    ),
    "ms-ia-retracting": (
        _ms_ia_retracting,
        "5f431f884696676ae6cd1bc21bfe4bd251f5a5ea43b09f3717bd22264b51d230",
    ),
    "cluster-small": (
        _cluster_small,
        "f0d46222e4885bbbdcd39e24ad7e0f7234ec86e00e41405c43ca4001c0075a90",
    ),
    "sustained-overload-commit-rounds": (
        _overload_commit_rounds,
        "012cbe2af90b59805f7ece084b3b117f65d019414ec2ea7f0a8c22908eb24e1a",
    ),
    "replicated-failover-commit-rounds": (
        _failover_commit_rounds,
        "fa686fd4b72015a775a1bb61488fba85a2e7f3dd1280546983a574d2ecdc0e5f",
    ),
}


@pytest.mark.parametrize("name", sorted(STATE_PINS))
def test_rendered_record_state_is_pinned(name):
    capture, expected = STATE_PINS[name]
    with keeping_rows():
        assert capture() == expected


# -- rows against an oracle that keeps objects ---------------------------------
class _ObjectOracle:
    """Store and undo log the way 3013db9 kept them: one frozen record
    object per write, built on the write."""

    def __init__(self) -> None:
        self.versions: dict[str, list[Version]] = {}
        self.undo_records: dict[str, list[UndoRecord]] = {}
        self.sequence = 0

    def write(self, key, value, writer):
        self.sequence += 1
        self.versions.setdefault(key, []).append(Version(value, writer, self.sequence))

    def version(self, key, index=-1):
        if key not in self.versions:
            raise KeyNotFound(key)
        return self.versions[key][index]

    def rollback_writer(self, key, writer):
        versions = self.versions.get(key, [])
        for index in range(len(versions) - 1, -1, -1):
            if versions[index].writer == writer:
                self.write(key, versions[index - 1].value if index else None, f"undo:{writer}")
                return True
        return False

    def log_write(self, txn, key, value):
        before = self.versions[key][-1].value if key in self.versions else None
        self.undo_records.setdefault(txn, []).append(UndoRecord(txn, key, before, value))

    def undo(self, txn):
        undone = self.undo_records.pop(txn, [])[::-1]
        for record in undone:
            self.write(record.key, record.before, f"undo:{txn}")
        return undone

    def dependents(self, txn):
        keys = {record.key for record in self.undo_records.get(txn, ())}
        return {
            other
            for other, records in self.undo_records.items()
            if other != txn and any(record.key in keys for record in records)
        }


_keys = st.sampled_from(["a", "b", "c", "d"])
_txns = st.sampled_from(["t1", "t2", "t3"])
_values = st.one_of(st.none(), st.integers(0, 9))
_calls = st.one_of(
    st.tuples(st.just("write"), _keys, _values, _txns),
    st.tuples(st.just("delete"), _keys, _txns),
    st.tuples(st.just("rollback_writer"), _keys, _txns),
    st.tuples(st.just("read"), _keys),
    st.tuples(st.just("read_version"), _keys, st.integers(-4, 4)),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("exists"), _keys),
    st.tuples(st.just("log_write"), _txns, _keys, _values),
    st.tuples(st.just("undo"), _txns),
    st.tuples(st.just("forget"), _txns),
    st.tuples(st.just("records_for"), _txns),
    st.tuples(st.just("touched_keys"), _txns),
    st.tuples(st.just("dependents"), _txns),
)


def _outcome(call):
    try:
        return call()
    except (KeyNotFound, IndexError) as error:
        return type(error)


@settings(max_examples=200, deadline=None)
@given(st.lists(_calls, max_size=40))
def test_store_and_undo_log_rows_render_what_the_objects_held(calls):
    with keeping_rows():
        store = KeyValueStore()
    oracle = _ObjectOracle()
    log = UndoLog(store)
    for name, *args in calls:
        if name == "write":
            key, value, writer = args
            store.write(key, value, writer=writer)
            oracle.write(key, value, writer)
        elif name == "delete":
            key, writer = args
            store.delete(key, writer=writer)
            oracle.write(key, None, writer)
        elif name == "rollback_writer":
            assert rollback_writer(store, *args) == oracle.rollback_writer(*args)
        elif name == "read":
            (key,) = args
            assert _outcome(lambda: store.read(key)) == _outcome(lambda: oracle.version(key).value)
            expected = oracle.versions[key][-1].value if key in oracle.versions else "absent"
            assert store.read(key, default="absent") == expected
        elif name == "read_version":
            assert _outcome(lambda: store.read_version(*args)) == _outcome(
                lambda: oracle.version(*args)
            )
        elif name == "snapshot":
            latest = {key: versions[-1].value for key, versions in oracle.versions.items()}
            assert store.snapshot() == {k: v for k, v in latest.items() if v is not None}
        elif name == "exists":
            (key,) = args
            assert store.exists(key) == (
                key in oracle.versions and oracle.versions[key][-1].value is not None
            )
        elif name == "log_write":
            # As a section context does: log the image, then write as the transaction.
            txn, key, value = args
            log.log_write(txn, key, value)
            oracle.log_write(txn, key, value)
            store.write(key, value, writer=txn)
            oracle.write(key, value, txn)
        elif name == "undo":
            assert log.undo(*args) == oracle.undo(*args)
        elif name == "forget":
            log.forget(*args)
            oracle.undo_records.pop(*args, None)
        elif name == "records_for":
            (txn,) = args
            assert log.records_for(txn) == tuple(oracle.undo_records.get(txn, ()))
        elif name == "touched_keys":
            (txn,) = args
            assert log.touched_keys(txn) == {r.key for r in oracle.undo_records.get(txn, ())}
        else:
            assert log.dependents(*args) == oracle.dependents(*args)

    assert list(store.keys()) == list(oracle.versions) and len(store) == len(oracle.versions)
    for key in "abcd":
        assert (key in store) == (key in oracle.versions)
        assert store.history(key) == tuple(oracle.versions.get(key, ()))


class _ObjectLog:
    """The redo log the way 0fa6932 kept it: one ``LogRecord`` per append,
    built on the append, and its newest checkpoint."""

    def __init__(self) -> None:
        self.records: list[LogRecord] = []
        self.checkpoint: Checkpoint | None = None

    def append(self, txn, key, value) -> LogRecord:
        record = LogRecord(len(self.records) + 1, txn, key, value)
        self.records.append(record)
        return record

    def append_record(self, record) -> LogRecord:
        if record.lsn != len(self.records) + 1:
            raise ValueError(record.lsn)
        self.records.append(record)
        return record

    def records_since(self, lsn) -> tuple[LogRecord, ...]:
        return tuple(self.records[max(int(lsn), 0) :])

    def replay_into(self, store, after_lsn) -> tuple[LogRecord, ...]:
        tail = self.records_since(after_lsn)
        for record in tail:
            store.write(record.key, record.value, writer=record.transaction_id)
        return tail


def _histories(store) -> dict:
    return {key: store.history(key) for key in store.keys()}


_log_calls = st.one_of(
    st.tuples(st.just("append"), _txns, _keys, _values, st.booleans()),
    st.tuples(st.just("append_record"), st.integers(-1, 1), _txns, _keys, _values),
    st.tuples(st.just("take_checkpoint")),
    st.tuples(st.just("records_since"), st.integers(-2, 12)),
    st.tuples(st.just("replay_into"), st.integers(-2, 12)),
    st.tuples(st.just("recover")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_log_calls, max_size=40))
def test_redo_log_rows_render_what_the_objects_held(calls):
    """A partition's log (appends written through to its store, crashes
    and recoveries) and a standby log fed shipped records, against logs
    that keep a record object per append."""
    with keeping_rows():
        _check_redo_log_against_objects(calls)


def _check_redo_log_against_objects(calls):
    partition, standby = Partition(0), Partition(1).wal
    oracle, oracle_standby, oracle_store = _ObjectLog(), _ObjectLog(), KeyValueStore()
    for name, *args in calls:
        wal = partition.wal
        if name == "append":
            txn, key, value, hooked = args
            shipped = []
            wal.on_append = shipped.append if hooked else None
            lsn = wal.append(txn, key, value)
            partition.store.write(key, value, writer=txn)
            expected = oracle.append(txn, key, value)
            oracle_store.write(key, value, writer=txn)
            assert lsn == expected.lsn
            assert shipped == ([expected] if hooked else [])
        elif name == "append_record":
            offset, txn, key, value = args
            record = LogRecord(standby.last_lsn + 1 + offset, txn, key, value)
            expected = _outcome_of(lambda: oracle_standby.append_record(record))
            assert _outcome_of(lambda: standby.append_record(record)) == (
                ValueError if expected is ValueError else expected.lsn
            )
        elif name == "take_checkpoint":
            checkpoint = partition.take_checkpoint()
            oracle.checkpoint = Checkpoint(len(oracle.records), oracle_store.snapshot())
            assert checkpoint == oracle.checkpoint
        elif name == "records_since":
            (lsn,) = args
            assert wal.records_since(lsn) == oracle.records_since(lsn)
            assert standby.records_since(lsn) == oracle_standby.records_since(lsn)
        elif name == "replay_into":
            (lsn,) = args
            replayed, expected = KeyValueStore(), KeyValueStore()
            assert wal.replay_into(replayed, lsn) == oracle.replay_into(expected, lsn)
            assert _histories(replayed) == _histories(expected)
        else:
            partition.crash()
            outcome = partition.recover()
            checkpoint = oracle.checkpoint
            from_lsn = 0 if checkpoint is None else checkpoint.lsn
            oracle_store = restore_from_checkpoint(checkpoint)
            tail = oracle.replay_into(oracle_store, from_lsn)
            assert outcome == RecoveryOutcome(
                0,
                from_lsn,
                0 if checkpoint is None else checkpoint.num_keys,
                len(tail),
                len({record.transaction_id for record in tail}),
            )
            assert _histories(partition.store) == _histories(oracle_store)

    for log, objects in ((partition.wal, oracle), (standby, oracle_standby)):
        assert log.records() == tuple(objects.records)
        assert log.last_lsn == len(log) == len(objects.records)
    assert partition.wal.latest_checkpoint == oracle.checkpoint
    assert partition.wal.num_checkpoints == sum(name == "take_checkpoint" for name, *_ in calls)


def _outcome_of(call, error=ValueError):
    try:
        return call()
    except error:
        return error


_operation_rows = st.lists(
    st.tuples(st.sampled_from(list(OperationKind)), st.sampled_from(["x", "y", "z"]), _values),
    max_size=4,
)
_section_rows = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2", "t3", "t4"]),
        st.sampled_from(list(SectionKind)),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        _operation_rows,
        st.booleans(),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(_section_rows)
def test_history_fed_rows_equals_history_fed_rendered_operations(sections):
    with keeping_rows():
        from_rows, from_operations, expected = History(), History(), []
    for txn, kind, commit_time, rows, read_now in sections:
        operations = tuple(Operation(*row) for row in rows)
        record_section(from_rows, txn, kind, commit_time, rows)
        record_section(from_operations, txn, kind, commit_time, operations)
        expected.append(SectionRecord(txn, kind, commit_time, len(expected) + 1, operations))
        if read_now:  # the rendered list grows between reads
            assert list(from_rows) == expected
    assert list(from_rows) == list(from_operations) == expected
    assert len(from_rows) == len(expected)

    first_commit_order = []
    for record in expected:
        if record.transaction_id not in first_commit_order:
            first_commit_order.append(record.transaction_id)
    assert from_rows.transaction_ids() == first_commit_order
    for txn in first_commit_order:
        assert sections_of(from_rows, txn) == [r for r in expected if r.transaction_id == txn]
        for kind in SectionKind:
            assert section(from_rows, txn, kind) == section(from_operations, txn, kind)

    for left, left_twin in zip(from_rows, from_operations):
        for right, right_twin in zip(from_rows, from_operations):
            assert ordered_before(left, right) == ordered_before(left_twin, right_twin)
    assert conflicting_pairs(from_rows) == conflicting_pairs(from_operations)
    # A section recorded twice is outside the check: both refuse it.
    repeated = len({(txn, kind) for txn, kind, *_ in sections}) < len(sections)
    for check in (check_ms_sr, check_ms_ia):
        outcome = _outcome_of(lambda: check(from_rows), SectionOrderError)
        assert outcome == _outcome_of(lambda: check(from_operations), SectionOrderError)
        assert (outcome is SectionOrderError) == repeated

    from_rows.clear()
    assert len(from_rows) == 0 and list(from_rows) == [] and from_rows.transaction_ids() == []


class _TupleRowHistory:
    """The History as kept before its operations went into one flat list:
    four slots per section, the last one the section's own list of
    ``(kind, key, value)`` tuples."""

    def __init__(self) -> None:
        self.rows: list = []

    def record_section(self, transaction_id, section, commit_time, operations) -> None:
        self.rows += (transaction_id, section, commit_time, operations)

    def sections(self) -> list[SectionRecord]:
        rows = self.rows
        return [
            SectionRecord(
                *rows[at : at + 3], at // 4 + 1, tuple(Operation(*op) for op in rows[at + 3])
            )
            for at in range(0, len(rows), 4)
        ]


_context_calls = st.lists(
    st.tuples(st.sampled_from(["read", "write"]), st.sampled_from(["x", "y", "z"]), _values),
    max_size=4,
)
_fed_sections = st.lists(
    st.tuples(
        st.sampled_from(["t1", "t2", "t3", "t4"]),
        st.sampled_from(list(SectionKind)),
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        _context_calls,
        st.sampled_from(["controller rows", "operations", "tuples"]),
        st.booleans(),
    ),
    max_size=10,
)


@settings(max_examples=200, deadline=None)
@given(_fed_sections, _fed_sections)
def test_flat_history_renders_what_tuple_rows_did(sections, after_clear):
    """Sections run through a real context and fed as the controllers feed
    them (the context's flat rows), or as ``Operation`` objects or tuples,
    interleaved, render the records the tuple-row History rendered; the
    context reads its flat rows back as the tuple rows it used to keep."""
    store = KeyValueStore()
    with keeping_rows():
        history = History()
    for batch in (sections, after_clear):
        oracle = _TupleRowHistory()
        for txn, kind, commit_time, calls, fed_as, read_now in batch:
            context = SectionContext(txn, kind, store)
            executed = []
            for name, key, value in calls:
                if name == "read":
                    executed.append((OperationKind.READ, key, context.read(key)))
                else:
                    context.write(key, value)
                    executed.append((OperationKind.WRITE, key, value))
            assert context.operations == tuple(Operation(*op) for op in executed)
            assert context.executed_rwset() == ReadWriteSet(
                reads=frozenset(key for op, key, _ in executed if op is OperationKind.READ),
                writes=frozenset(key for op, key, _ in executed if op is OperationKind.WRITE),
            )
            if fed_as == "controller rows":
                history.record_rows(txn, kind, commit_time, context.operation_rows)
                context.operation_rows.clear()  # the history keeps its own copy
            elif fed_as == "operations":
                record_section(history, txn, kind, commit_time, context.operations)
            else:
                record_section(history, txn, kind, commit_time, executed)
            oracle.record_section(txn, kind, commit_time, executed)
            if read_now:  # the rendered list grows between reads
                assert list(history) == oracle.sections()
        assert list(history) == oracle.sections()
        assert len(history) == len(batch)
        assert history.transaction_ids() == list(dict.fromkeys(oracle.rows[0::4]))
        assert len(history._operations) == 3 * sum(len(calls) for _, _, _, calls, _, _ in batch)

        history.clear()
        assert history._rows == [] and history._operations == [] and list(history) == []


# -- nothing is constructed on a write ------------------------------------------
RECORD_CLASSES = (Version, UndoRecord, Operation, SectionRecord, TransferRecord)


@pytest.mark.usefixtures("rows_kept")
def test_a_run_constructs_no_record_and_each_accessor_renders_them(monkeypatch):
    built = count_constructions(monkeypatch, *RECORD_CLASSES)

    def rendered_by(read) -> dict[str, int]:
        before = dict(built)
        read()
        return {name: n - before[name] for name, n in built.items() if n != before[name]}

    system = _run_single(get_scenario("fig4-ms-sr").with_(frames=30))
    store, history = system.edge.store, system.history
    assert not any(built.values()), built

    versions = sum(len(store.history(key)) for key in store.keys())
    assert rendered_by(lambda: [store.history(key) for key in store.keys()]) == {
        "Version": versions
    }
    assert rendered_by(lambda: [store.read_version(key) for key in store.keys()]) == {
        "Version": len(store)
    }

    # Two reads of the history render it once; the checker reads that list.
    operations = sum(len(record.operations) for record in history)
    assert built["SectionRecord"] == len(history) > 0
    assert built["Operation"] == operations > 0
    assert rendered_by(lambda: (list(history), check_ms_sr(history))) == {}

    for channel in (system.client_edge, system.edge_cloud):
        for _ in range(2):
            assert rendered_by(lambda: channel.transfers) == {
                "TransferRecord": channel.transfer_count
            }
    assert versions and system.edge_cloud.transfer_count

    # The run's undo images were forgotten on each final commit: log two anew.
    log = UndoLog(store)
    key = next(store.keys())
    assert rendered_by(lambda: (log.log_write("t", key, 1), log.log_write("t", "new", 2))) == {}
    assert log.touched_keys("t") == {key, "new"} and log.dependents("t") == frozenset()
    for _ in range(2):
        assert rendered_by(lambda: log.records_for("t")) == {"UndoRecord": 2}
    assert rendered_by(lambda: log.undo("t")) == {"UndoRecord": 2}


def test_a_cluster_run_constructs_no_log_or_commit_record(monkeypatch):
    built = count_constructions(monkeypatch, LogRecord, DistributedCommitRecord)

    def rendered_by(read) -> dict[str, int]:
        before = dict(built)
        read()
        return {name: n - before[name] for name, n in built.items() if n != before[name]}

    system = _run_cluster(get_scenario("cluster-small"))
    partitions = [system.store.partition(pid) for pid in system.store.partition_ids()]
    assert all(partition.wal.on_append is None for partition in partitions)  # unreplicated
    assert not any(built.values()), built

    # The report's span counts read the round rows.
    spans = rendered_by(lambda: [r.transaction_partition_counts() for r in system.replicas])
    assert spans == {}

    records = sum(len(partition.wal) for partition in partitions)
    for read in (
        lambda wal: wal.records(),
        lambda wal: wal.records_since(0),
        lambda wal: wal.replay_into(KeyValueStore()),
    ):
        assert rendered_by(lambda: [read(p.wal) for p in partitions]) == {"LogRecord": records}

    transactions = sum(r.transaction_partition_counts()[0] for r in system.replicas)
    for _ in range(2):
        assert rendered_by(lambda: [r.controller.commit_records for r in system.replicas]) == {
            "DistributedCommitRecord": transactions
        }
    assert records and transactions

    # A recovery replays the rows and counts its tail from them.
    outcomes = []
    assert rendered_by(lambda: outcomes.extend(p.recover() for p in partitions)) == {}
    assert sum(outcome.records_replayed for outcome in outcomes) == records


# -- what a recorded run keeps ---------------------------------------------------
#: Bytes a ``fig4-ms-sr`` run keeps alive per committed operation, with the
#: system still referenced (tracemalloc): 410.7 when every YCSB insert built
#: its own payload dict and the History kept a ``(kind, key, value)`` tuple
#: per operation and a list per section, 253.2 with one payload per
#: ``(label, stage)`` and flat rows, 236.5 without the event log's row per
#: frame stage, 148.3 with the store keeping each key's latest value and the
#: lock manager its tenure totals instead of rows, 61.1 with the History
#: checking each section as it commits instead of keeping its operation rows
#: (the operation count is the History's counter).  The ceiling keeps 253.2's
#: headroom ratio (330 / 253.2).
RETAINED_BYTES_PER_OPERATION_CEILING = 80


def test_a_recorded_run_keeps_few_bytes_per_committed_operation():
    spec = get_scenario("fig4-ms-sr")
    _run_single(spec)  # first use: imports, memo tables, payloads
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = _run_single(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    operations = system.history.operation_count
    assert operations > 3000
    assert retained / operations < RETAINED_BYTES_PER_OPERATION_CEILING


#: Bytes a ``sustained-overload`` run (8 s, open loop, YCSB, MS-IA) keeps
#: alive per committed write, with the system still referenced
#: (tracemalloc): 672.6 with one ``LogRecord`` per write and one
#: ``DistributedCommitRecord`` (and its round list) per transaction, 568.3
#: as rows, 399.0 with the stores keeping each key's latest value and the
#: lock managers their tenure totals.  The ceiling sits between the last two.
RETAINED_BYTES_PER_WRITE_CEILING = 483


def test_an_open_loop_cluster_run_keeps_few_bytes_per_committed_write():
    spec = get_scenario("sustained-overload").with_(duration_s=8.0)
    _run_cluster(spec)  # first use: imports, memo tables, payloads
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = _run_cluster(spec)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()
    writes = sum(len(system.store.partition(pid).wal) for pid in system.store.partition_ids())
    assert writes > 900
    assert retained / writes < RETAINED_BYTES_PER_WRITE_CEILING
