"""Tests for the lock manager."""

from dataclasses import FrozenInstanceError

import pytest

from repro.storage.locks import LockHoldRecord, LockManager, LockMode


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
        granted = locks.acquire_all(
            "t1", [("x", LockMode.EXCLUSIVE), ("y", LockMode.EXCLUSIVE)]
        )
        assert not granted
        assert not locks.holds("t1", "x")
        assert not locks.holds("t1", "y")

    def test_acquire_all_success(self):
        locks = LockManager()
        assert locks.acquire_all("t1", [("x", LockMode.SHARED), ("y", LockMode.EXCLUSIVE)])
        assert locks.held_keys("t1") == {"x", "y"}

    def test_acquire_all_keeps_previously_held_locks_on_failure(self):
        """A failed group acquisition must not drop locks held before the call."""
        locks = LockManager()
        locks.try_acquire("t1", "x", LockMode.EXCLUSIVE)
        locks.try_acquire("other", "y", LockMode.EXCLUSIVE)
        granted = locks.acquire_all(
            "t1", [("x", LockMode.EXCLUSIVE), ("y", LockMode.EXCLUSIVE)]
        )
        assert not granted
        assert locks.holds("t1", "x")

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
        locks.acquire_all("t1", [("x", LockMode.EXCLUSIVE), ("y", LockMode.SHARED)])
        locks.release("t1", "x")
        assert not locks.is_quiescent
        locks.release("t1", "y")
        assert locks.is_quiescent
        assert locks.held_keys("t1") == frozenset()

    def test_denied_acquire_all_rolls_back_without_residue(self):
        locks = LockManager()
        locks.try_acquire("other", "y", LockMode.EXCLUSIVE)
        assert not locks.acquire_all("t1", [("x", LockMode.EXCLUSIVE), ("y", LockMode.EXCLUSIVE)])
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

    def test_transferred_grant_leaves_no_residue_at_the_source(self):
        source, target = LockManager(), LockManager()
        source.try_acquire("t1", "x", LockMode.EXCLUSIVE, now=1.0)
        assert source.transfer_key("x", target)
        assert source.is_quiescent
        assert target.holds("t1", "x")
        target.release("t1", "x", now=3.0)
        assert target.is_quiescent
        assert target.hold_records[0].duration == 2.0
