"""Edge data-store substrate.

The edge node "hosts the main copy of its partition's data" (paper §3.1)
and processes transactions against it.  This package provides the
key-value store (each key's latest value), the lock manager used by both concurrency
controllers, undo logging for apologies/retractions, the per-partition
redo write-ahead log with checkpoints that failure recovery replays,
and a partitioned store over a fixed set of hash partitions with a
two-phase-commit coordinator; a partition moves to another replica at
runtime by a checkpoint-copy plus a log-shipped tail (paper §4.5).
"""

from repro.storage.kvstore import KeyValueStore, RowsNotKept, Version
from repro.storage.locks import LockManager, LockMode
from repro.storage.partition import (
    Partition,
    PartitionedStore,
    RecoveryOutcome,
    ReshardOutcome,
    TwoPhaseCommitCoordinator,
)
from repro.storage.wal import Checkpoint, LogRecord, UndoLog, UndoRecord, WriteAheadLog

__all__ = [
    "KeyValueStore",
    "RowsNotKept",
    "Version",
    "LockManager",
    "LockMode",
    "UndoLog",
    "UndoRecord",
    "WriteAheadLog",
    "LogRecord",
    "Checkpoint",
    "Partition",
    "PartitionedStore",
    "RecoveryOutcome",
    "ReshardOutcome",
    "TwoPhaseCommitCoordinator",
]
