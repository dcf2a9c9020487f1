"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detection.geometry import BoundingBox, iou, overlap_ratio
from repro.detection.metrics import AccuracyReport, f_score
from repro.core.thresholds import ConfidenceInterval, ThresholdPolicy
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager, LockMode
from repro.storage.partition import PartitionedStore
from repro.storage.wal import UndoLog
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction, SectionSpec
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.exceptions import TransactionAborted
from repro.transactions.ops import ReadWriteSet
from repro.transactions.sequencer import Sequencer

from helpers import checkpoint_all


# -- geometry ----------------------------------------------------------------

boxes = st.builds(
    lambda x, y, w, h: BoundingBox(x, y, x + w, y + h),
    st.floats(0, 1000),
    st.floats(0, 1000),
    st.floats(0.1, 500),
    st.floats(0.1, 500),
)


@given(boxes, boxes)
def test_iou_is_symmetric_and_bounded(a, b):
    value = iou(a, b)
    assert 0.0 <= value <= 1.0 + 1e-9
    assert abs(value - iou(b, a)) < 1e-9


@given(boxes)
def test_iou_with_self_is_one(box):
    assert iou(box, box) == 1.0


@given(boxes, boxes)
def test_overlap_ratio_dominates_iou(a, b):
    assert overlap_ratio(a, b) >= iou(a, b) - 1e-9


# -- metrics -----------------------------------------------------------------


@given(st.floats(0, 1), st.floats(0, 1))
def test_f_score_bounded_by_min_and_max(precision, recall):
    value = f_score(precision, recall)
    assert 0.0 <= value <= 1.0
    assert value <= max(precision, recall) + 1e-9
    if precision > 0 and recall > 0:
        assert value >= min(precision, recall) - 1e-9 or value > 0


@given(st.integers(0, 100), st.integers(0, 100), st.integers(0, 100))
def test_accuracy_report_metrics_bounded(tp, fp, fn):
    report = AccuracyReport(tp, fp, fn)
    assert 0.0 <= report.precision <= 1.0
    assert 0.0 <= report.recall <= 1.0
    assert 0.0 <= report.f_score <= 1.0


# -- thresholds ----------------------------------------------------------------


@given(
    st.floats(0, 1).flatmap(lambda lo: st.tuples(st.just(lo), st.floats(lo, 1))),
    st.floats(0.001, 0.999),
)
def test_threshold_classification_is_total_and_consistent(pair, confidence):
    policy = ThresholdPolicy(*pair)
    interval = policy.classify(confidence)
    assert interval in ConfidenceInterval
    if interval is ConfidenceInterval.DISCARD:
        assert confidence < policy.lower
    elif interval is ConfidenceInterval.KEEP:
        assert confidence > policy.upper
    else:
        assert policy.lower <= confidence <= policy.upper


# -- key-value store -----------------------------------------------------------


@given(st.lists(st.tuples(st.text(min_size=1, max_size=5), st.integers()), max_size=30))
def test_kvstore_latest_write_wins(writes):
    store = KeyValueStore()
    expected: dict[str, int] = {}
    for key, value in writes:
        store.write(key, value)
        expected[key] = value
    for key, value in expected.items():
        assert store.read(key) == value


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers()), min_size=1, max_size=20))
def test_undo_restores_pre_transaction_state(writes):
    store = KeyValueStore()
    store.write("a", 0)
    store.write("b", 0)
    store.write("c", 0)
    before = store.snapshot()

    log = UndoLog(store)
    for key, value in writes:
        log.log_write("txn", key, value)
        store.write(key, value, writer="txn")
    log.undo("txn")
    assert store.snapshot() == before


# -- locks ---------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["t1", "t2", "t3"]),
            st.sampled_from(["x", "y"]),
            st.sampled_from(list(LockMode)),
        ),
        max_size=30,
    )
)
def test_lock_manager_never_grants_conflicting_locks(requests):
    locks = LockManager()
    granted: dict[str, dict[str, LockMode]] = {}
    for holder, key, mode in requests:
        if locks.try_acquire(holder, key, mode):
            granted.setdefault(key, {})[holder] = mode
            holders = granted[key]
            exclusive_holders = [h for h, m in holders.items() if m is LockMode.EXCLUSIVE]
            if exclusive_holders:
                # An exclusive grant must be the only grant on that key.
                assert len(holders) == 1


# -- multi-stage protocols -------------------------------------------------------


def _counter_transaction(txn_id: str, key: str) -> MultiStageTransaction:
    def initial(ctx):
        value = ctx.read(key, default=0) or 0
        ctx.write(key, value + 1)

    def final(ctx):
        ctx.read(key, default=0)

    rwset = ReadWriteSet(reads=frozenset({key}), writes=frozenset({key}))
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body=initial, rwset=rwset),
        final=SectionSpec(body=final, rwset=ReadWriteSet(reads=frozenset({key}))),
    )


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=12))
def test_ms_sr_histories_always_satisfy_ms_sr(keys):
    """Whatever interleaving of committed transactions TwoStage2PL allows, the
    recorded history must satisfy the MS-SR conditions, and every increment of
    a committed transaction must be preserved (no lost updates)."""
    store = KeyValueStore()
    history = History()
    controller = TwoStage2PL(store, history=history)
    committed: dict[str, int] = {}
    now = 0.0
    for index, key in enumerate(keys):
        txn = _counter_transaction(f"t{index}", key)
        try:
            controller.process_initial(txn, now=now)
            controller.process_final(txn, now=now + 0.5)
            committed[key] = committed.get(key, 0) + 1
        except TransactionAborted:
            pass
        now += 1.0
    assert check_ms_sr(history)
    for key, count in committed.items():
        assert store.read(key, default=0) == count


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["x", "y", "z"]), min_size=1, max_size=12))
def test_ms_ia_histories_always_satisfy_ms_ia(keys):
    store = KeyValueStore()
    history = History()
    controller = MSIAController(store, history=history)
    pending = []
    now = 0.0
    for index, key in enumerate(keys):
        txn = _counter_transaction(f"t{index}", key)
        controller.process_initial(txn, now=now)
        pending.append(txn)
        now += 1.0
    # Finals arrive later, in reverse order (worst case for ordering).
    for txn in reversed(pending):
        controller.process_final(txn, now=now)
        now += 1.0
    assert check_ms_ia(history)
    assert controller.stats.aborts == 0


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d", "e"]), st.sampled_from(["a", "b", "c", "d", "e"])),
        min_size=1,
        max_size=20,
    )
)
def test_sequencer_waves_are_always_conflict_free(key_pairs):
    transactions = []
    for index, (first_key, second_key) in enumerate(key_pairs):
        rwset = ReadWriteSet(writes=frozenset({first_key, second_key}))
        transactions.append(
            MultiStageTransaction(
                transaction_id=f"t{index}",
                initial=SectionSpec(body=lambda ctx: None, rwset=rwset),
                final=SectionSpec.noop(),
            )
        )
    waves = Sequencer().schedule(transactions)
    scheduled = [txn.transaction_id for wave in waves for txn in wave]
    assert sorted(scheduled) == sorted(t.transaction_id for t in transactions)
    for wave in waves:
        for i, left in enumerate(wave):
            for right in wave[i + 1:]:
                assert not left.conflicts_with(right)


# -- durability (checkpoint + WAL replay) --------------------------------------

#: One step of a durability history: a committed write, or a checkpoint
#: of every partition (None).
_durability_steps = st.lists(
    st.one_of(
        st.tuples(
            st.sampled_from([f"key-{i}" for i in range(12)]),
            st.integers(-1000, 1000),
        ),
        st.none(),
    ),
    max_size=40,
)


@given(steps=_durability_steps, partitions=st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_checkpoint_plus_replay_reconstructs_the_store_exactly(steps, partitions):
    """Crash-recovering every partition — from whatever mix of committed
    writes and checkpoint points preceded the crash — must reconstruct
    the partitioned store's live state exactly."""
    store = PartitionedStore(num_partitions=partitions)
    expected: dict[str, int] = {}
    for txn_index, step in enumerate(steps):
        if step is None:
            checkpoint_all(store)
            continue
        key, value = step
        store.write(key, value, writer=f"t{txn_index}")
        expected[key] = value

    for partition_id in store.partition_ids():
        store.partition(partition_id).crash()
        outcome = store.partition(partition_id).recover()
        assert outcome.records_replayed >= 0

    recovered = {
        key: store.read(key) for key in expected
    }
    assert recovered == expected
    for partition_id in store.partition_ids():
        assert store.partition(partition_id).available
