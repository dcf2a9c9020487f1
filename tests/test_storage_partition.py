"""Tests for the partitioned store, two-phase commit, and durability."""

import pytest

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager, LockMode
from repro.storage.partition import (
    PartitionedStore,
    PartitionError,
    SectionRoutes,
    TwoPhaseCommitCoordinator,
    VoteOutcome,
    _stable_bucket,
    take_locks,
)

from helpers import checkpoint_all, store_lock_state


class TestPartitionedStore:
    def test_requires_at_least_one_partition(self):
        with pytest.raises(PartitionError):
            PartitionedStore(num_partitions=0)

    def test_key_routing_is_stable(self):
        store = PartitionedStore(num_partitions=4)
        first = store.partition_for("user:42").partition_id
        second = store.partition_for("user:42").partition_id
        assert first == second

    def test_read_write_through_routing(self):
        store = PartitionedStore(num_partitions=3)
        store.write("k", "v")
        assert store.read("k") == "v"

    def test_read_default(self):
        store = PartitionedStore(num_partitions=2)
        assert store.read("missing", default=5) == 5

    def test_partitions_touched(self):
        store = PartitionedStore(num_partitions=8)
        keys = [f"key-{i}" for i in range(50)]
        touched = store.partitions_touched(keys)
        assert touched
        assert all(0 <= p < 8 for p in touched)
        assert len(touched) > 1  # 50 keys should span several partitions

    def test_partition_lookup_by_id(self):
        store = PartitionedStore(num_partitions=2)
        assert store.partition(1).partition_id == 1
        for missing in (2, 5, -1):
            with pytest.raises(PartitionError):
                store.partition(missing)

    @pytest.mark.parametrize("num_partitions", [1, 2, 3, 5, 8])
    def test_a_key_is_owned_by_its_stable_bucket(self, num_partitions):
        """Routing is the FNV bucket over a fixed set of partitions: a key's
        owner is ``partition(_stable_bucket(key, n))``, the same object on
        every lookup."""
        store = PartitionedStore(num_partitions=num_partitions)
        keys = [f"user:{index}" for index in range(64)]
        for key in keys:
            owner = store.partition_for(key)
            assert owner is store.partition(_stable_bucket(key, num_partitions))
            assert store.partition_for(key) is owner
        assert store.partition_ids() == tuple(range(num_partitions))
        assert store.partitions_touched(keys) == frozenset(
            _stable_bucket(key, num_partitions) for key in keys
        )


class TestTwoPhaseCommit:
    def test_commit_applies_writes_everywhere(self):
        store = PartitionedStore(num_partitions=4)
        coordinator = TwoPhaseCommitCoordinator(store)
        writes = {f"key-{i}": i for i in range(20)}
        result = coordinator.commit("t1", writes)
        assert result.committed
        assert all(vote is VoteOutcome.YES for vote in result.votes.values())
        for key, value in writes.items():
            assert store.read(key) == value

    def test_commit_releases_locks(self):
        store = PartitionedStore(num_partitions=2)
        coordinator = TwoPhaseCommitCoordinator(store)
        coordinator.commit("t1", {"a": 1, "b": 2})
        # a second transaction touching the same keys must succeed
        result = coordinator.commit("t2", {"a": 10, "b": 20})
        assert result.committed
        assert store.read("a") == 10

    def test_abort_when_a_participant_cannot_prepare(self):
        store = PartitionedStore(num_partitions=2)
        # Simulate a concurrent holder of one key's lock.
        blocked_key = "contended"
        partition = store.partition_for(blocked_key)
        partition.locks.try_acquire("other", blocked_key, LockMode.EXCLUSIVE)

        coordinator = TwoPhaseCommitCoordinator(store)
        result = coordinator.commit("t1", {blocked_key: 1, "free": 2})
        assert not result.committed
        assert VoteOutcome.NO in result.votes.values()
        # No write may have been applied anywhere (atomicity).
        assert store.read(blocked_key, default=None) is None
        assert store.read("free", default=None) is None

    def test_participants_reported(self):
        store = PartitionedStore(num_partitions=4)
        coordinator = TwoPhaseCommitCoordinator(store)
        result = coordinator.commit("t1", {"only-one-key": 1})
        assert len(result.participants) == 1

    def test_unavailable_participant_votes_no(self):
        store = PartitionedStore(num_partitions=2)
        coordinator = TwoPhaseCommitCoordinator(store)
        writes = {f"key-{i}": i for i in range(10)}
        participants = store.partitions_touched(writes)
        assert len(participants) == 2
        store.partition(0).crash()

        result = coordinator.commit("t1", writes)
        assert not result.committed
        assert result.votes[0] is VoteOutcome.NO
        assert store.failure_aborts == 1
        # Atomicity: nothing was applied to the live partition either.
        assert all(store.read(key, default=None) is None for key in writes)


class TestPartitionDurability:
    def test_committed_writes_are_logged(self):
        store = PartitionedStore(num_partitions=1)
        store.write("a", 1, writer="t1")
        store.write("b", 2, writer="t2")
        wal = store.partition(0).wal
        assert len(wal) == 2
        assert [record.transaction_id for record in wal.records()] == ["t1", "t2"]

    def test_crash_loses_volatile_state_but_keeps_the_log(self):
        store = PartitionedStore(num_partitions=1)
        store.write("a", 1)
        partition = store.partition(0)
        partition.crash()
        assert not partition.available
        assert partition.store.read("a", default=None) is None
        assert len(partition.wal) == 1

    def test_recover_without_checkpoint_replays_the_whole_log(self):
        store = PartitionedStore(num_partitions=1)
        for index in range(5):
            store.write(f"k{index}", index, writer=f"t{index}")
        partition = store.partition(0)
        partition.crash()
        outcome = partition.recover()
        assert outcome.records_replayed == 5
        assert outcome.transactions_replayed == 5
        assert outcome.keys_restored == 0
        assert partition.available
        assert partition.store.snapshot() == {f"k{i}": i for i in range(5)}

    def test_recover_from_checkpoint_replays_only_the_tail(self):
        store = PartitionedStore(num_partitions=1)
        store.write("a", 1, writer="t1")
        store.write("b", 2, writer="t1")
        partition = store.partition(0)
        checkpoint = partition.take_checkpoint()
        store.write("c", 3, writer="t2")

        partition.crash()
        outcome = partition.recover()
        assert outcome.checkpoint_lsn == checkpoint.lsn
        assert outcome.keys_restored == 2
        assert outcome.records_replayed == 1
        assert outcome.transactions_replayed == 1
        assert partition.store.snapshot() == {"a": 1, "b": 2, "c": 3}

    def test_checkpoint_all_skips_unavailable_partitions(self):
        store = PartitionedStore(num_partitions=2)
        store.partition(1).crash()
        checkpoints = checkpoint_all(store)
        assert set(checkpoints) == {0}


class TestResharding:
    def _spanning_keys(self, store, count=40):
        keys = [f"key-{i}" for i in range(count)]
        for key in keys:
            store.write(key, key.upper(), writer="seed")
        return keys

    def test_transfer_partition_preserves_values(self):
        store = PartitionedStore(num_partitions=2)
        keys = self._spanning_keys(store)
        partition = store.partition(0)
        partition.take_checkpoint()
        store.write(keys[0], "tail-value", writer="late")

        outcome = store.transfer_partition(0)
        assert outcome.keys_copied > 0
        for key in keys:
            expected = "tail-value" if key == keys[0] else key.upper()
            assert store.read(key) == expected

    def test_transfer_ships_the_log_tail(self):
        store = PartitionedStore(num_partitions=1)
        store.write("a", 1)
        store.partition(0).take_checkpoint()
        store.write("b", 2)
        outcome = store.transfer_partition(0)
        assert outcome.records_shipped == 1

    def test_transfer_refuses_an_unavailable_partition(self):
        store = PartitionedStore(num_partitions=2)
        store.write("a", 1)
        partition = store.partition_for("a")
        partition.crash()
        with pytest.raises(PartitionError):
            store.transfer_partition(partition.partition_id)
        partition.recover()
        outcome = store.transfer_partition(partition.partition_id)
        assert outcome.keys_copied == 1
        assert store.read("a") == 1

    @pytest.mark.parametrize("how", ["transfer", "crash-recover", "promotion"])
    def test_a_live_lock_stays_with_its_partition_across_rehoming(self, how):
        """A partition keeps its lock table when it is re-homed: a grant
        taken before the move, on a written key or on one only locked (MS-SR
        buffers its writes), is still held after it and still excludes a
        second holder."""
        store = PartitionedStore(num_partitions=2)
        written = self._spanning_keys(store)[0]
        unwritten = "never-written-key"
        for key in (written, unwritten):
            assert store.partition_for(key).locks.try_acquire("t1", key, LockMode.EXCLUSIVE)

        for pid in store.partition_ids():
            partition = store.partition(pid)
            if how == "transfer":
                store.transfer_partition(pid)
            elif how == "crash-recover":
                partition.crash()
                partition.recover()
            else:
                standby = KeyValueStore()
                partition.wal.replay(standby)
                partition.crash()
                partition.promote(standby)

        for key in (written, unwritten):
            locks = store.partition_for(key).locks
            assert locks.holds("t1", key)
            assert not locks.try_acquire("t2", key, LockMode.EXCLUSIVE)
        assert store.read(written) == written.upper()

    def test_a_section_plan_routes_like_partition_for_across_rehoming(self):
        """``SectionRoutes`` resolves a miss through the store's memo: a plan
        built after each re-homing (a transfer, a crash and recovery, a
        promotion) agrees with the store's one-key path and with a fresh
        hash, for keys the store has and has not seen."""
        store = PartitionedStore(num_partitions=3)
        keys = self._spanning_keys(store) + [f"fresh-{i}" for i in range(20)]
        partitions = [store.partition(pid) for pid in store.partition_ids()]

        def agree():
            routes = SectionRoutes(store)
            assert all(routes[key] is store.partition_for(key) for key in reversed(keys))
            assert set(routes) == set(keys)  # every miss was kept
            assert all(
                store.partition_for(key).partition_id == _stable_bucket(key, 3) for key in keys
            )
            # Re-homing swaps a partition's store, never the partition.
            assert all(store.partition(pid) is partitions[pid] for pid in store.partition_ids())

        agree()
        store.transfer_partition(2)
        agree()
        store.partition(1).crash()
        store.partition(1).recover()
        agree()
        standby = KeyValueStore()
        store.partition(0).wal.replay_into(standby)
        store.partition(0).promote(standby)
        agree()
        assert {key: store.read(key, default=None) for key in keys} == {
            key: key.upper() if key.startswith("key-") else None for key in keys
        }


# -- the failure-abort rule of a section's lock pass --------------------------------
def _keys_on(store: PartitionedStore, partition_id: int, count: int) -> list[str]:
    keys = (f"key-{index}" for index in range(10_000))
    return [key for key in keys if store.partition_for(key).partition_id == partition_id][:count]


@pytest.mark.parametrize(
    "order, failure_abort",
    [
        # (requests as exclusive / shared tuples of "free", "down", "locked")
        ((("down", "locked"), ()), True),
        ((("locked", "down"), ()), False),
        ((("free", "down", "locked"), ()), True),
        ((("free", "locked", "down"), ()), False),
        ((("down",), ("locked",)), True),
        ((("locked",), ("down",)), False),
        ((("free",), ("locked", "down")), False),
    ],
)
def test_a_denial_is_a_failure_abort_only_when_an_unavailable_partition_comes_first(
    order, failure_abort
):
    """One partition is unavailable and a key on another is held
    exclusively elsewhere: the pass is denied either way, and counts a
    failure abort exactly when the first request that cannot be granted,
    in request order (exclusive keys, then shared keys), sits on the
    unavailable partition.  The pass takes no lock on the way."""
    store = PartitionedStore(num_partitions=3)
    down, = _keys_on(store, 2, 1)
    locked, free = _keys_on(store, 0, 1) + _keys_on(store, 1, 1)
    names = {"down": down, "locked": locked, "free": free}
    store.partition(0).locks.try_acquire("other", locked, LockMode.EXCLUSIVE)
    store.partition(2).crash()

    requests = tuple(tuple(names[name] for name in side) for side in order)
    assert take_locks(store, "t1", requests, now=1.0) is None
    assert store.failure_aborts == int(failure_abort)
    for partition_id in store.partition_ids():
        locks = store.partition(partition_id).locks
        assert locks.held_keys("t1") == frozenset()
        assert locks.average_hold_time() == 0.0
    assert store.partition(0).locks.held_keys("other") == {locked}
    assert store.partition(1).locks.is_quiescent


@pytest.mark.parametrize("num_partitions", [1, 2, 3])
def test_a_denied_pass_keeps_the_locks_its_holder_held_before_it(monkeypatch, num_partitions):
    """``t`` holds S on ``a`` and has ended one tenure; ``other`` holds X on
    ``b``.  A pass by ``t`` asking X on both is denied at ``b`` and leaves
    every lock table, every holder's key set and the tenure totals as they
    were: ``t`` still holds S on ``a``, and no lock was granted or released
    on the way.  (Granting ``a`` first and giving back every routed key on
    denial released the S lock ``t`` held before the pass.)"""
    store = PartitionedStore(num_partitions=num_partitions)
    store.partition_for("c").locks.try_acquire("t", "c", LockMode.EXCLUSIVE, now=0.5)
    store.partition_for("c").locks.release_all("t", now=0.75)
    store.partition_for("a").locks.try_acquire("t", "a", LockMode.SHARED, now=1.0)
    store.partition_for("b").locks.try_acquire("other", "b", LockMode.EXCLUSIVE, now=1.0)
    before = store_lock_state(store)
    calls = []

    def counted(name, method):
        def call(self, *args, **kwargs):
            calls.append(name)
            return method(self, *args, **kwargs)

        return call

    for name in ("acquire_all", "release", "release_all"):
        monkeypatch.setattr(LockManager, name, counted(name, getattr(LockManager, name)))

    assert take_locks(store, "t", (("a", "b"), ()), now=2.0) is None
    assert calls == []
    assert store_lock_state(store) == before
    assert store.partition_for("a").locks.holds("t", "a")
    assert store.failure_aborts == 0

