"""Tests for the lock manager."""

from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kvstore import RowsNotKept
from repro.storage.locks import LockHoldRecord, LockManager, LockMode

from helpers import ReferenceLockManager, keeping_rows


class TestLockManager:
    def test_exclusive_lock_granted_when_free(self):
        locks = LockManager()
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert locks.holds("t1", "x")

    def test_exclusive_conflicts_with_exclusive(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)

    def test_shared_locks_are_compatible(self):
        locks = LockManager()
        assert locks.try_acquire("t1", "x", LockMode.SHARED)
        assert locks.try_acquire("t2", "x", LockMode.SHARED)

    def test_shared_blocks_exclusive(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert not locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)

    def test_exclusive_blocks_shared(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert not locks.try_acquire("t2", "x", LockMode.SHARED)

    def test_reacquire_is_idempotent(self):
        locks = LockManager()
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        assert locks.try_acquire("t1", "x", LockMode.SHARED)

    def test_upgrade_shared_to_exclusive_when_sole_holder(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)

    def test_upgrade_denied_with_other_sharers(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        locks.try_acquire("t2", "x", LockMode.SHARED)
        assert not locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)

    def test_release_frees_lock(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.release("t1", "x")
        assert locks.try_acquire("t2", "x", LockMode.EXCLUSIVE)

    def test_release_unheld_lock_is_noop(self):
        locks = LockManager()
        locks.release("t1", "x")  # must not raise

    def test_release_all(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.try_acquire("t1", "y", LockMode.SHARED)
        locks.release_all("t1")
        assert locks.held_keys("t1") == frozenset()
        assert locks.locked_keys() == frozenset()

    def test_acquire_all_atomicity(self):
        """If any lock in the group is denied, none are retained."""
        locks = LockManager()
        locks.try_acquire("other", "y", LockMode.EXCLUSIVE)
        granted = locks.acquire_all("t1", ("x", "y"))
        assert not granted
        assert not locks.holds("t1", "x")
        assert not locks.holds("t1", "y")

    def test_acquire_all_success(self):
        locks = LockManager()
        assert locks.acquire_all("t1", ("y",), ("x",))
        assert locks.held_keys("t1") == {"x", "y"}

    def test_acquire_all_keeps_previously_held_locks_on_failure(self):
        """A failed group acquisition must not drop locks held before the call."""
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.try_acquire("other", "y", LockMode.EXCLUSIVE)
        granted = locks.acquire_all("t1", ("x", "y"))
        assert not granted
        assert locks.holds("t1", "x")

    @pytest.mark.usefixtures("rows_kept")
    def test_hold_records_measure_duration(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE, now=1.0)
        locks.release("t1", "x", now=3.5)
        records = locks.hold_records
        assert len(records) == 1
        assert records[0].duration == 2.5
        assert locks.average_hold_time() == 2.5

    def test_average_hold_time_empty(self):
        assert LockManager().average_hold_time() == 0.0

    @pytest.mark.usefixtures("rows_kept")
    def test_hold_records_render_on_demand(self):
        """Tenures are kept as rows; each read renders equal frozen records."""
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE, now=1.0)
        locks.try_acquire("t1", "y", LockMode.SHARED, now=1.5)
        locks.release("t1", "x", now=2.0)
        locks.release("t1", "y", now=4.0, record=False)
        assert locks.hold_records == (LockHoldRecord("x", "t1", 1.0, 2.0),)
        assert locks.hold_records == locks.hold_records
        with pytest.raises(FrozenInstanceError):
            locks.hold_records[0].key = "z"


class TestLockTableResidue:
    """Dropping a holder's locks key by key must leave nothing behind —
    ``is_quiescent`` is the "lock table empty at quiescence" rule."""

    def test_fresh_manager_is_quiescent(self):
        assert LockManager().is_quiescent

    def test_held_lock_is_not_quiescent(self):
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.SHARED)
        assert not locks.is_quiescent

    def test_key_by_key_release_leaves_no_holder_entry(self):
        locks = LockManager()
        locks.acquire_all("t1", ("x",), ("y",))
        locks.release("t1", "x")
        assert not locks.is_quiescent
        locks.release("t1", "y")
        assert locks.is_quiescent
        assert locks.held_keys("t1") == frozenset()

    def test_denied_acquire_all_rolls_back_without_residue(self):
        locks = LockManager()
        locks.try_acquire("other", "y", LockMode.EXCLUSIVE)
        assert not locks.acquire_all("t1", ("x", "y"))
        locks.release_all("other")
        assert locks.is_quiescent

    def test_many_aborted_holders_leave_no_residue(self):
        """One entry per aborted transaction used to pile up for a whole run."""
        locks = LockManager()
        locks.try_acquire("winner", "hot", LockMode.EXCLUSIVE)
        for index in range(100):
            holder = f"t{index}"
            assert locks.try_acquire(holder, f"cold-{index}", LockMode.EXCLUSIVE)
            assert not locks.try_acquire(holder, "hot", LockMode.EXCLUSIVE)
            locks.release(holder, f"cold-{index}")
        locks.release("winner", "hot")
        assert locks.is_quiescent


class TestTenuresNotKept:
    def test_a_manager_keeps_totals_not_rows_by_default(self):
        assert LockManager.keep_tenures is False
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE, now=1.0)
        locks.release("t1", "x", now=3.5)
        with pytest.raises(RowsNotKept, match="keep_tenures"):
            locks.hold_records
        assert locks.average_hold_time() == 2.5

    def test_the_switch_is_read_when_a_manager_is_built(self):
        with keeping_rows():
            kept = LockManager()
        totals = LockManager()
        for locks in (kept, totals):
            locks.try_acquire("t1", "x", LockMode.SHARED, now=1.0)
            locks.release_all("t1", now=2.0)
        assert kept.hold_records == (LockHoldRecord("x", "t1", 1.0, 2.0),)
        with pytest.raises(RowsNotKept):
            totals.hold_records


_holders = st.sampled_from(["t1", "t2", "t3"])
_lock_keys = st.sampled_from(["x", "y", "z"])
_modes = st.sampled_from(list(LockMode))
_lock_calls = st.one_of(
    st.tuples(st.just("try_acquire"), _holders, _lock_keys, _modes),
    st.tuples(
        st.just("acquire_all"),
        _holders,
        st.lists(_lock_keys, max_size=3),
        st.lists(_lock_keys, max_size=3),
    ),
    st.tuples(st.just("acquire_exclusive"), _holders, st.lists(_lock_keys, max_size=3)),
    st.tuples(st.just("release"), _holders, _lock_keys, st.booleans()),
    st.tuples(st.just("release_all"), _holders),
)
_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


def _call(manager, name, args, now):
    if name == "release":
        holder, key, record = args
        return manager.release(holder, key, now=now, record=record)
    if name == "release_all":
        return manager.release_all(args[0], now=now)
    return getattr(manager, name)(*args, now=now)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([float, int]),
    st.lists(st.tuples(_lock_calls, _times), max_size=40),
)
def test_average_hold_time_is_the_same_with_and_without_tenure_rows(time_type, calls):
    """Random acquisitions and releases, run on a manager keeping tenure
    rows and on one keeping totals (times all ints or all floats): the
    same grants, and an ``average_hold_time`` equal, bit for bit, to the
    mean of the rendered records' durations as ``sum`` adds them."""
    with keeping_rows():
        with_rows = LockManager()
    without = LockManager()
    for (name, *args), now in calls:
        now = time_type(now)
        outcomes = [_call(manager, name, args, now) for manager in (with_rows, without)]
        assert outcomes[0] == outcomes[1]

    assert with_rows.locked_keys() == without.locked_keys()
    for holder in ("t1", "t2", "t3"):
        assert with_rows.held_keys(holder) == without.held_keys(holder)
    records = with_rows.hold_records
    mean = sum(record.duration for record in records) / len(records) if records else 0.0
    assert with_rows.average_hold_time() == without.average_hold_time() == mean
    assert type(without.average_hold_time()) is float


# -- the one grant loop against the per-key reference ---------------------------------
_pool = st.sampled_from("abcdefgh")
_grant_calls = st.one_of(
    st.tuples(
        st.just("acquire_all"),
        _holders,
        st.lists(_pool, max_size=5),
        st.lists(_pool, max_size=5),
    ),
    st.tuples(st.just("try_acquire"), _holders, _pool, _modes),
    st.tuples(st.just("release_all"), _holders),
)


def _state(manager):
    return (
        manager._table,
        # Each holder's keys in iteration order: release_all adds in that order.
        {holder: list(keys) for holder, keys in manager._held_by.items()},
        manager._tenures,
        manager._hold_total,
        manager._hold_error,
        Counter(manager.hold_records),
    )


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(_grant_calls, _times), max_size=50))
def test_the_grant_loop_matches_the_per_key_reference(calls):
    """``acquire_all``'s one grant loop (and ``try_acquire`` through it, and
    ``release_all`` ending its tenures inline) against the per-key
    ``try_acquire`` loop with its key-by-key rollback, kept in
    ``tests/helpers.py``: random holders over five keys, S/X mixes, S->X
    upgrades, keys the holder already holds and denials midway.  After
    every call both agree on the outcome, the lock table, every holder's
    key set in iteration order, the tenure count, the hold total and the
    tenures ended."""
    with keeping_rows():
        loop, reference = LockManager(), ReferenceLockManager()
    for (name, *args), now in calls:
        outcome = getattr(loop, name)(*args, now=now)
        assert outcome == getattr(reference, name)(*args, now=now)
        assert _state(loop) == _state(reference)
    for holder in ("t1", "t2", "t3"):
        loop.release_all(holder, now=2e6)
        reference.release_all(holder, now=2e6)
        assert _state(loop) == _state(reference)
    assert loop.is_quiescent and reference.is_quiescent
    assert loop.average_hold_time() == reference.average_hold_time()
