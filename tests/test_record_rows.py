"""Audit records are kept as rows and rendered when they are read.

``KeyValueStore``, ``UndoLog``, ``History`` and ``Channel`` store what a
write leaves behind as plain rows; ``Version``, ``UndoRecord``,
``SectionRecord`` (and its ``Operation`` tuples) and ``TransferRecord``
are built by the accessor that reads them.  Report digests see none of
that state, so this file guards it three ways:

* **state pins** — a sha256 over every rendered record of three seeded
  runs, captured on the commit that still built the records on the write
  (3013db9) and re-captured without the since-deleted event log on
  3642afe; they must never move, under any ``PYTHONHASHSEED``;
* **model tests** — random interleavings of store and undo-log calls
  against an oracle that keeps real record objects the way that commit
  did, a ``History`` fed rows against one fed rendered operations, and
  the flat ``History`` against the tuple-row one it replaced;
* **counting** — a run constructs none of the five record classes, and
  each accessor renders the same non-zero number of them afterwards; a
  recorded run keeps a bounded number of bytes per committed operation.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.system import ClusterSystem
from repro.core.system import CroesusSystem
from repro.experiments import get_scenario
from repro.experiments.runner import build_streams
from repro.experiments.spec import build_cluster_config, build_single_config
from repro.network.channel import TransferRecord
from repro.storage.kvstore import KeyNotFound, KeyValueStore, Version
from repro.storage.wal import UndoLog, UndoRecord
from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.history import History, SectionRecord
from repro.transactions.model import (
    MultiStageTransaction,
    SectionContext,
    SectionKind,
    SectionSpec,
)
from repro.transactions.ops import Operation, OperationKind, ReadWriteSet
from repro.video.library import make_video

from helpers import count_constructions


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
}


@pytest.mark.parametrize("name", sorted(STATE_PINS))
def test_rendered_record_state_is_pinned(name):
    capture, expected = STATE_PINS[name]
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
    store, oracle = KeyValueStore(), _ObjectOracle()
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
            assert store.rollback_writer(*args) == oracle.rollback_writer(*args)
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
    from_rows, from_operations, expected = History(), History(), []
    for txn, kind, commit_time, rows, read_now in sections:
        operations = tuple(Operation(*row) for row in rows)
        from_rows.record_section(txn, kind, commit_time, rows)
        from_operations.record_section(txn, kind, commit_time, operations)
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
        assert from_rows.sections_of(txn) == [r for r in expected if r.transaction_id == txn]
        for kind in SectionKind:
            assert from_rows.section(txn, kind) == from_operations.section(txn, kind)

    for left, left_twin in zip(from_rows, from_operations):
        for right, right_twin in zip(from_rows, from_operations):
            assert from_rows.ordered_before(left, right) == from_operations.ordered_before(
                left_twin, right_twin
            )
    assert from_rows.conflicting_pairs() == from_operations.conflicting_pairs()
    assert check_ms_sr(from_rows) == check_ms_sr(from_operations)
    assert check_ms_ia(from_rows) == check_ms_ia(from_operations)

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
    store, history = KeyValueStore(), History()
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
                history.record_section(txn, kind, commit_time, context.operations)
            else:
                history.record_section(txn, kind, commit_time, executed)
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


# -- what a recorded run keeps ---------------------------------------------------
#: Bytes a ``fig4-ms-sr`` run keeps alive per committed operation, with the
#: system still referenced (tracemalloc): 410.7 when every YCSB insert built
#: its own payload dict and the History kept a ``(kind, key, value)`` tuple
#: per operation and a list per section, 253.2 with one payload per
#: ``(label, stage)`` and flat rows, 236.5 without the event log's row per
#: frame stage.  The ceiling keeps 253.2's headroom ratio (330 / 253.2).
RETAINED_BYTES_PER_OPERATION_CEILING = 308


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
    operations = sum(len(record.operations) for record in system.history)
    assert operations > 3000
    assert retained / operations < RETAINED_BYTES_PER_OPERATION_CEILING
