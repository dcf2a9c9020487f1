"""Partitioned store, two-phase commit, and partition durability (paper §4.5).

The paper focuses on a single edge node/partition but sketches the
multi-partition extension: lock requests for remote keys are sent to the
edge node owning the partition, and a two-phase commit (2PC) runs at the
end of the final section (MS-SR) or at the end of both sections (MS-IA).

This module provides that extension plus the durability seam the
failure/recovery scenarios stand on:

* every *committed* write routes through the owning partition's redo
  :class:`~repro.storage.wal.WriteAheadLog` before it lands in the
  in-memory store (:meth:`Partition.commit_write`), so a crashed
  partition can always be rebuilt from its latest checkpoint plus the
  log tail (:meth:`Partition.crash` / :meth:`Partition.recover`);
* keys route to partitions through a fixed hash-slot space with a
  slot→partition indirection, which is what lets partitions split,
  merge, and move between owners at runtime without rehashing the
  world (:meth:`PartitionedStore.split`, :meth:`PartitionedStore.merge`,
  :meth:`PartitionedStore.transfer_partition` — each a checkpoint-copy
  plus a log-shipped tail);
* the :class:`TwoPhaseCommitCoordinator` implements prepare/commit/abort
  over the participating partitions, voting NO for partitions whose
  replica is currently failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterable

from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager, LockRequests
from repro.storage.wal import Checkpoint, WriteAheadLog, restore_from_checkpoint


class PartitionError(RuntimeError):
    """Raised for malformed partition configurations or routing errors."""


@dataclass(frozen=True)
class RecoveryOutcome:
    """What one partition's recovery did."""

    partition_id: int
    checkpoint_lsn: int
    keys_restored: int
    records_replayed: int
    transactions_replayed: int


@dataclass(frozen=True)
class ReshardOutcome:
    """Data motion of one partition move/split/merge.

    ``keys_copied`` is the checkpoint-copy half of the move and
    ``records_shipped`` the log tail replayed on top of it.
    """

    partition_id: int
    keys_copied: int
    records_shipped: int
    checkpoint_lsn: int


@dataclass
class Partition:
    """One partition: a store, its lock manager, and its redo log.

    The store is the volatile half (lost when the hosting replica
    crashes); the write-ahead log and its checkpoints are the durable
    half recovery rebuilds from.
    """

    partition_id: int
    store: KeyValueStore = field(default_factory=KeyValueStore)
    locks: LockManager = field(default_factory=LockManager)
    wal: WriteAheadLog = field(default_factory=WriteAheadLog)
    #: False while the hosting replica is failed; lock acquisition and
    #: 2PC prepare against an unavailable partition are denied.
    available: bool = True

    def commit_write(self, key: str, value: Any, writer: str = "system") -> None:
        """Apply one committed write: log first, then the store."""
        self.wal.append(writer, key, value)
        self.store.write(key, value, writer=writer)

    def take_checkpoint(self) -> Checkpoint:
        """Snapshot the live state as the log's newest checkpoint."""
        return self.wal.take_checkpoint(self.store.snapshot())

    def crash(self) -> None:
        """Lose the volatile state: the in-memory store is wiped.

        The write-ahead log (durable) and the lock table (resolved
        explicitly through the transaction-policy seam, which aborts or
        parks in-flight holders per policy) survive.
        """
        self.store = KeyValueStore()
        self.available = False

    def promote(self, store: KeyValueStore) -> None:
        """Install a warm standby's store as the live state.

        Warm failover: instead of rebuilding from checkpoint + replay
        (:meth:`recover`), a promoted backup's already-applied store is
        swapped in and the partition comes straight back available.  The
        write-ahead log is untouched — it is the shared durable history
        the standby was fed from, and it keeps accepting appends from
        the new primary.
        """
        self.store = store
        self.available = True

    def recover(self) -> RecoveryOutcome:
        """Rebuild the store: latest checkpoint + replay of the log tail."""
        checkpoint = self.wal.latest_checkpoint
        from_lsn = checkpoint.lsn if checkpoint is not None else 0
        self.store = restore_from_checkpoint(checkpoint)
        records, transactions = self.wal.replay(self.store, after_lsn=from_lsn)
        self.available = True
        return RecoveryOutcome(
            partition_id=self.partition_id,
            checkpoint_lsn=from_lsn,
            keys_restored=checkpoint.num_keys if checkpoint is not None else 0,
            records_replayed=records,
            transactions_replayed=transactions,
        )


class PartitionedStore:
    """Hash-partitioned collection of :class:`Partition` objects.

    Keys hash into a *fixed* slot space (one slot per initial partition)
    and slots map to partitions through an indirection table.  With no
    re-sharding the mapping is the identity — routing is bit-for-bit the
    original direct hash — while ``split``/``merge``/``transfer`` only
    touch the indirection, so elasticity never reshuffles unrelated keys.

    A key's slot is hashed once per store and kept (``_key_slot``): the
    slot space is fixed at construction and re-sharding only rewrites
    ``_slot_owner``, so the memo is never invalidated.
    """

    def __init__(self, num_partitions: int = 1) -> None:
        if num_partitions < 1:
            raise PartitionError("need at least one partition")
        self._slot_count = num_partitions
        self._partitions: dict[int, Partition] = {
            i: Partition(partition_id=i) for i in range(num_partitions)
        }
        self._slot_owner: list[int] = list(range(num_partitions))
        self._key_slot: dict[str, int] = {}
        self._next_partition_id = num_partitions
        #: Transactions aborted because they touched an unavailable
        #: (crashed) partition; the cluster reports the per-run delta as
        #: ``txns_aborted_by_failure``.
        self.failure_aborts = 0

    @property
    def num_partitions(self) -> int:
        return len(self._partitions)

    def partition_ids(self) -> tuple[int, ...]:
        """Ids of the live partitions, ascending."""
        return tuple(sorted(self._partitions))

    def partition_for(self, key: str) -> Partition:
        """Partition that owns ``key`` (stable hash-slot routing)."""
        return self._partitions[self._slot_owner[self._slot_of(key)]]

    def _slot_of(self, key: str) -> int:
        slot = self._key_slot.get(key)
        if slot is None:
            slot = self._key_slot[key] = _stable_bucket(key, self._slot_count)
        return slot

    def partition(self, partition_id: int) -> Partition:
        """Partition by id."""
        try:
            return self._partitions[partition_id]
        except KeyError:
            raise PartitionError(f"no partition {partition_id}") from None

    def slots_of(self, partition_id: int) -> tuple[int, ...]:
        """Hash slots currently routed to ``partition_id``."""
        return tuple(
            slot for slot, owner in enumerate(self._slot_owner) if owner == partition_id
        )

    def read(self, key: str, default: Any = ...) -> Any:
        return self.partition_for(key).store.read(key, default=default)

    def write(self, key: str, value: Any, writer: str = "system") -> None:
        self.partition_for(key).commit_write(key, value, writer=writer)

    def partitions_touched(self, keys: Iterable[str]) -> frozenset[int]:
        """Set of partition ids a key-set spans."""
        return frozenset(self.partition_for(key).partition_id for key in keys)

    # -- durability ----------------------------------------------------------
    def checkpoint_all(self) -> dict[int, Checkpoint]:
        """Checkpoint every available partition; returns the snapshots."""
        return {
            pid: self._partitions[pid].take_checkpoint()
            for pid in self.partition_ids()
            if self._partitions[pid].available
        }

    def record_failure_abort(self) -> None:
        """Count one transaction aborted by partition unavailability."""
        self.failure_aborts += 1

    # -- re-sharding ---------------------------------------------------------
    def transfer_partition(self, partition_id: int) -> ReshardOutcome:
        """Move a partition's data to a new replica: checkpoint + log tail.

        Models handing the partition to another owner at runtime: the
        destination restores the latest checkpoint (taking one first if
        none exists), replays the log tail shipped on top of it, and the
        rebuilt store is swapped in.  Locks and the log itself move with
        the partition object, so in-flight transactions are undisturbed.
        """
        partition = self.partition(partition_id)
        if not partition.available:
            raise PartitionError(f"partition {partition_id} is unavailable")
        checkpoint = partition.wal.latest_checkpoint
        if checkpoint is None:
            checkpoint = partition.take_checkpoint()
        store = restore_from_checkpoint(checkpoint)
        records, _ = partition.wal.replay(store, after_lsn=checkpoint.lsn)
        partition.store = store
        return ReshardOutcome(
            partition_id=partition_id,
            keys_copied=checkpoint.num_keys,
            records_shipped=records,
            checkpoint_lsn=checkpoint.lsn,
        )

    def split(self, partition_id: int) -> Partition:
        """Split a partition: the upper half of its slots move to a new one.

        The new partition is seeded by checkpoint-copy (the moved slots'
        live keys) plus the source log tail for those keys; moved keys
        are tombstoned out of the source through its own log, and any
        live lock grants move with their keys.  Returns the new partition.
        """
        source = self.partition(partition_id)
        slots = self.slots_of(partition_id)
        if len(slots) < 2:
            raise PartitionError(
                f"partition {partition_id} owns {len(slots)} slot(s); need at least 2 to split"
            )
        moved = frozenset(slots[len(slots) // 2 :])
        new_id = self._next_partition_id
        self._next_partition_id += 1
        target = Partition(partition_id=new_id)

        checkpoint = source.take_checkpoint()
        moved_keys = sorted(
            key
            for key in checkpoint.state
            if self._slot_of(key) in moved
        )
        for key in moved_keys:
            target.commit_write(key, checkpoint.state[key], writer=f"split:{partition_id}")
            source.commit_write(key, None, writer=f"split:{partition_id}")
        # Every live grant on a moved key follows its key — including
        # grants on keys with no committed write yet (MS-SR buffers
        # writes while holding the locks), which the snapshot cannot see.
        for key in sorted(source.locks.locked_keys()):
            if self._slot_of(key) in moved:
                source.locks.transfer_key(key, target.locks)
        target.take_checkpoint()

        for slot in moved:
            self._slot_owner[slot] = new_id
        self._partitions[new_id] = target
        return target

    def merge(self, source_id: int, target_id: int) -> ReshardOutcome:
        """Merge ``source_id`` into ``target_id`` and drop the source.

        The target absorbs the source's live state (checkpoint-copy of
        its snapshot, written through the target's log so the merge is
        itself durable), live lock grants move with their keys, and the
        source's slots re-point at the target.
        """
        if source_id == target_id:
            raise PartitionError("cannot merge a partition into itself")
        source = self.partition(source_id)
        target = self.partition(target_id)
        checkpoint = source.take_checkpoint()
        for key in sorted(checkpoint.state):
            target.commit_write(key, checkpoint.state[key], writer=f"merge:{source_id}")
        # All live grants move, not just those on checkpointed keys: a
        # holder may lock a key whose write is still buffered (MS-SR).
        for key in sorted(source.locks.locked_keys()):
            source.locks.transfer_key(key, target.locks)
        for slot, owner in enumerate(self._slot_owner):
            if owner == source_id:
                self._slot_owner[slot] = target_id
        del self._partitions[source_id]
        return ReshardOutcome(
            partition_id=target_id,
            keys_copied=checkpoint.num_keys,
            records_shipped=0,
            checkpoint_lsn=checkpoint.lsn,
        )


class SectionRoutes(dict):
    """``key -> Partition`` routes resolved while one section runs.

    A miss routes the key the way :meth:`PartitionedStore.partition_for`
    does — slot memo, slot owner, partition — but in one place (the YCSB
    workloads mint fresh keys, so a section misses on nearly every key it
    locks; the lock pass routes those inline, a later miss through
    ``__missing__``) and keeps the answer: a section's lock acquisition,
    reads, lock release and 2PC grouping route each distinct key once.
    Build one per section execution and drop it with the section:
    ``split`` / ``merge`` / ``transfer_partition`` / promotion re-home
    slots between a transaction's sections, so a plan must never be kept
    on a transaction, controller or store.

    Built with a ``holder`` and its lock ``requests``, the plan is filled
    by taking those locks, all or nothing (a distributed section's lock
    pass): each request is routed in order and granted by its partition's
    :meth:`LockManager.acquire_all`, so the pass stops at the first request
    that cannot be granted without routing the rest (on a contended store
    most passes stop at their first or second request).  ``granted`` is
    False when one was held elsewhere or its partition is unavailable (a
    failure abort on the store); what was granted is given back with no
    tenure recorded, since no body ran.
    """

    __slots__ = ("_store", "granted")

    def __init__(
        self,
        store: PartitionedStore,
        holder: str | None = None,
        requests: LockRequests = ((), ()),
        now: float = 0.0,
    ) -> None:
        self._store = store
        self.granted = True
        key_slot, slot_owner, partitions = store._key_slot, store._slot_owner, store._partitions
        exclusive, shared = requests
        for key in exclusive:
            slot = key_slot.get(key)
            if slot is None:
                slot = key_slot[key] = _stable_bucket(key, store._slot_count)
            partition = self[key] = partitions[slot_owner[slot]]
            if not (partition.available and partition.locks.acquire_all(holder, (key,), (), now)):
                self._deny(holder, key, partition, now)
                return
        for key in shared:
            slot = key_slot.get(key)
            if slot is None:
                slot = key_slot[key] = _stable_bucket(key, store._slot_count)
            partition = self[key] = partitions[slot_owner[slot]]
            if not (partition.available and partition.locks.acquire_all(holder, (), (key,), now)):
                self._deny(holder, key, partition, now)
                return

    def _deny(self, holder: str, key: str, partition: Partition, now: float) -> None:
        """End a pass denied at ``key``: give back what it granted; a failure
        abort when ``partition`` is unavailable."""
        del self[key]
        for granted_key, owner in self.items():
            owner.locks.release(holder, granted_key, now, record=False)
        if not partition.available:
            self._store.record_failure_abort()
        self.granted = False

    def __missing__(self, key: str) -> Partition:
        store = self._store
        slot = store._key_slot.get(key)
        if slot is None:
            slot = store._key_slot[key] = _stable_bucket(key, store._slot_count)
        partition = self[key] = store._partitions[store._slot_owner[slot]]
        return partition


class VoteOutcome(Enum):
    """A participant's vote in the prepare phase."""

    YES = "yes"
    NO = "no"


@dataclass
class TwoPhaseCommitResult:
    """Outcome of one 2PC round."""

    committed: bool
    votes: dict[int, VoteOutcome]
    participants: frozenset[int]


class TwoPhaseCommitCoordinator:
    """Atomic commitment across the partitions a transaction touched.

    The coordinator asks every participating partition to *prepare* by
    holding exclusive locks on the transaction's keys in that partition
    (requesting only those it does not hold already); if every vote is
    YES, writes are applied and locks released, otherwise all partitions
    abort and release.  A partition whose hosting replica is failed cannot
    prepare and votes NO.  A round's participant set is interned (one
    frozenset per distinct set, kept here), so a caller keeping every
    round's set keeps no object per round.
    """

    def __init__(self, store: PartitionedStore) -> None:
        self._store = store
        self._participant_sets: dict[frozenset[int], frozenset[int]] = {}

    def commit(
        self,
        transaction_id: str,
        writes: dict[str, Any],
        now: float = 0.0,
        routes: SectionRoutes | None = None,
    ) -> TwoPhaseCommitResult:
        """Run 2PC for ``writes`` on behalf of ``transaction_id``.

        ``routes`` is the calling section's routing plan, so keys it has
        already routed are not hashed again.  Prepare votes on the locks
        the section holds: a key ``transaction_id`` already holds
        exclusively is no request, so only an undeclared write or an S→X
        upgrade is asked for, all or nothing per partition.  Whatever the
        decision, the holder's locks are released on every partition the
        plan routed — the section's read-only partitions included — once
        each.
        """
        if routes is None:
            routes = SectionRoutes(self._store)
        groups: dict[int, tuple[Partition, dict[str, Any]]] = {}
        for key, value in writes.items():
            partition = routes[key]
            group = groups.get(partition.partition_id)
            if group is None:
                group = groups[partition.partition_id] = (partition, {})
            group[1][key] = value

        votes: dict[int, VoteOutcome] = {}
        decision = True

        # Phase 1: prepare (hold an exclusive lock on every written key).
        for partition_id, (partition, partition_writes) in groups.items():
            if partition.available and partition.locks.acquire_exclusive(
                transaction_id, partition_writes, now
            ):
                votes[partition_id] = VoteOutcome.YES
            else:
                votes[partition_id] = VoteOutcome.NO
                decision = False

        if not decision and any(not partition.available for partition, _ in groups.values()):
            self._store.record_failure_abort()

        # Phase 2: commit (log first, then the store) or abort everywhere,
        # then release.
        if decision:
            for partition, partition_writes in groups.values():
                append, write = partition.wal.append, partition.store.write
                for key, value in partition_writes.items():
                    append(transaction_id, key, value)
                    write(key, value, writer=transaction_id)
        release_routed(transaction_id, routes, now)

        participants = frozenset(groups)
        participants = self._participant_sets.setdefault(participants, participants)
        return TwoPhaseCommitResult(decision, votes, participants)


def release_routed(holder: str, routes: SectionRoutes, now: float = 0.0) -> None:
    """Release ``holder``'s locks on every partition ``routes`` routed, once each."""
    released: set[int] = set()
    for partition in routes.values():
        partition_id = partition.partition_id
        if partition_id not in released:
            released.add(partition_id)
            partition.locks.release_all(holder, now)


def _stable_bucket(key: str, buckets: int) -> int:
    """Deterministic, process-independent hash bucket for a key.

    32-bit FNV-1a, reduced mod 2**32 once at the end: XOR with a byte and
    multiplication both commute with that reduction, so the low 32 bits
    are those of the per-byte-masked loop.
    """
    value = 2166136261
    for byte in key.encode("utf-8"):
        value = (value ^ byte) * 16777619
    return (value & 0xFFFFFFFF) % buckets
