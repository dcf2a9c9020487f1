"""Replicated partitions: log shipping and warm-standby promotion.

PR 5's availability story recovers a crashed partition by checkpoint
restore plus write-ahead-log replay — ``downtime_ms`` scales with the
log tail.  This module adds the replicated alternative the paper's
single-owner design leaves open: every partition gets a
:class:`ReplicationGroup` whose primary ships each
:class:`~repro.storage.wal.WriteAheadLog` append to
``replication_factor - 1`` warm backups over a
:class:`~repro.network.channel.Channel`, each backup maintaining a
standby store plus a standby log (applied through the LSN-checked
:meth:`~repro.storage.wal.WriteAheadLog.append_record` path).  Record
applications are scheduled as engine events at their arrival times, so
a backup's ``applied_lsn`` at any simulated instant reflects exactly
what the network has delivered.

Three shipping modes, sweepable as ``replication_mode``:

* ``sync`` — the primary's ack waits for *all* backups to apply; the
  per-append ack wait (the max link delay) accrues to the run's
  ``ack_wait_s``.
* ``quorum`` — the ack waits for a majority of the replication group
  (the primary counts toward the majority, so with ``factor`` replicas
  the ack needs the ``factor // 2``-th fastest backup).
* ``async`` — fire-and-forget: no ack wait, but each shipment is
  buffered for :data:`ASYNC_FLUSH_DELAY_S` before it goes out, so
  backups run with bounded staleness and a crash loses a longer
  in-flight tail to catch up.

On failover the :class:`ReplicationManager` elects the most-caught-up
backup (highest applied LSN, ties to the lowest edge id) and promotes
its standby store after replaying only the *gap* — records the primary
logged but the network had not yet delivered — from the surviving log
tail.  The promotion protocol itself (detect, elect, re-route, catch
up) runs as engine events in :mod:`repro.cluster.system`, so the
measured downtime is detection + an election round trip + the gap
replay rather than a full checkpoint restore.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from repro.cluster.failure import REPLAY_SECONDS_PER_RECORD, PromotionRecord
from repro.network.channel import Channel
from repro.storage.kvstore import KeyValueStore
from repro.storage.partition import PartitionedStore
from repro.storage.wal import LogRecord, WriteAheadLog

#: The shipping/ack disciplines a replication group supports.
REPLICATION_MODES = ("sync", "quorum", "async")

#: Wire size of one shipped log record (LSN + txn id + key + value).
REPLICATION_MESSAGE_BYTES = 256

#: Wire size of one election/re-route control message.
ELECTION_MESSAGE_BYTES = 128

#: Async mode buffers shipments for this long before sending — the
#: bounded-staleness window fire-and-forget trades for zero ack wait.
ASYNC_FLUSH_DELAY_S = 0.05


class ReplicationGroup:
    """One partition's primary plus its warm backups.

    The group tracks, per backup edge, a standby :class:`KeyValueStore`,
    a standby :class:`WriteAheadLog` (fed through ``append_record`` so
    LSNs stay aligned with the primary's log), the highest applied LSN,
    and the latest scheduled arrival time (shipping is FIFO per link, so
    arrivals are monotone and the applied LSN is always a dense prefix).
    """

    def __init__(
        self,
        partition_id: int,
        primary_edge: int,
        backup_edges: tuple[int, ...],
        factor: int,
        mode: str,
    ) -> None:
        if mode not in REPLICATION_MODES:
            raise ValueError(
                f"unknown replication_mode {mode!r}; known: {', '.join(REPLICATION_MODES)}"
            )
        self.partition_id = partition_id
        self.primary_edge = primary_edge
        self.backup_edges = tuple(backup_edges)
        self.factor = factor
        self.mode = mode
        self.standby_stores: dict[int, KeyValueStore] = {}
        self.standby_logs: dict[int, WriteAheadLog] = {}
        self.applied_lsn: dict[int, int] = {}
        self.last_apply_at: dict[int, float] = {}
        for edge in self.backup_edges:
            self._init_standby(edge)

    def _init_standby(self, edge: int) -> None:
        self.standby_stores[edge] = KeyValueStore()
        self.standby_logs[edge] = WriteAheadLog()
        self.applied_lsn[edge] = 0
        self.last_apply_at[edge] = 0.0

    # -- shipping ------------------------------------------------------------
    def apply(self, edge: int, record: LogRecord) -> None:
        """Deliver one shipped record to a backup's standby state.

        A record may arrive for an edge that was promoted or crashed
        while it was in flight; such deliveries are dropped — the durable
        history lives in the primary's log, and a re-enrolling standby
        rebuilds from it.
        """
        log = self.standby_logs.get(edge)
        if log is None:
            return
        log.append_record(record)
        self.standby_stores[edge].write(record.key, record.value, writer=record.transaction_id)
        self.applied_lsn[edge] = record.lsn

    def ack_delay(self, delays: list[float]) -> float:
        """The per-append ack wait this group's mode imposes.

        ``delays`` are the per-backup delivery delays of one append.
        """
        if not delays or self.mode == "async":
            return 0.0
        ordered = sorted(delays)
        if self.mode == "sync":
            return ordered[-1]
        # quorum: the primary already holds the record, so the ack needs
        # majority - 1 backup deliveries.
        needed = self.factor // 2
        if needed <= 0:
            return 0.0
        return ordered[min(needed, len(ordered)) - 1]

    # -- failover ------------------------------------------------------------
    def elect(self) -> int | None:
        """Most-caught-up backup: highest applied LSN, ties to lowest edge."""
        if not self.backup_edges:
            return None
        return max(self.backup_edges, key=lambda edge: (self.applied_lsn[edge], -edge))

    def promote(self, winner: int, wal: WriteAheadLog) -> tuple[KeyValueStore, tuple[LogRecord, ...]]:
        """Make ``winner`` the primary; returns (warm store, caught-up gap).

        The gap — records the crashed primary logged that had not yet
        been delivered to the winner — is replayed from the surviving
        log ``wal`` into the standby state before the store is handed
        back for installation.
        """
        applied = self.applied_lsn[winner]
        gap = wal.records_since(applied)
        store = self.standby_stores.pop(winner)
        log = self.standby_logs.pop(winner)
        for record in gap:
            log.append_record(record)
            store.write(record.key, record.value, writer=record.transaction_id)
        del self.applied_lsn[winner]
        del self.last_apply_at[winner]
        self.backup_edges = tuple(edge for edge in self.backup_edges if edge != winner)
        self.primary_edge = winner
        return store, gap

    def drop_backup(self, edge: int) -> None:
        """Forget a crashed backup's (volatile) standby state."""
        if edge not in self.standby_logs:
            return
        del self.standby_stores[edge]
        del self.standby_logs[edge]
        del self.applied_lsn[edge]
        del self.last_apply_at[edge]
        self.backup_edges = tuple(e for e in self.backup_edges if e != edge)

    def enroll(self, edge: int, wal: WriteAheadLog, now: float) -> None:
        """(Re-)enroll ``edge`` as a warm standby, rebuilt from the log: its
        rows copied under their LSNs and replayed into the standby store."""
        self._init_standby(edge)
        self.standby_logs[edge] = wal.copy_records()
        wal.replay(self.standby_stores[edge])
        self.applied_lsn[edge] = wal.last_lsn
        self.last_apply_at[edge] = now
        self.backup_edges = tuple(self.backup_edges) + (edge,)


class ReplicationManager:
    """All replication groups of a cluster, plus per-run shipping stats.

    Backups of the partition homed on edge ``e`` sit on edges
    ``(e + 1) % n … (e + factor - 1) % n``, so every edge is primary for
    its own partitions and standby for its neighbours'.  Shipping draws
    link latencies from per-edge channels (dedicated seeded RNG streams,
    so replication never perturbs the frame pipeline's draws) and
    schedules each delivery as an engine event.
    """

    def __init__(
        self,
        store: PartitionedStore,
        partition_home: dict[int, int],
        num_edges: int,
        factor: int,
        mode: str,
        channel_for: Callable[[int], Channel],
    ) -> None:
        if factor < 2:
            raise ValueError(f"a ReplicationManager needs replication_factor >= 2, got {factor}")
        if factor > num_edges:
            raise ValueError(
                f"replication_factor {factor} exceeds the {num_edges} edge(s) available"
            )
        self._store = store
        self._channel_for = channel_for
        self.factor = factor
        self.mode = mode
        self._groups: dict[int, ReplicationGroup] = {}
        for partition_id, home in sorted(partition_home.items()):
            backups = tuple((home + offset) % num_edges for offset in range(1, factor))
            self._groups[partition_id] = ReplicationGroup(
                partition_id=partition_id,
                primary_edge=home,
                backup_edges=backups,
                factor=factor,
                mode=mode,
            )
        self._engine = None
        self.records_shipped = 0
        self.appends = 0
        self.shipped_appends = 0
        self.lag_s = 0.0
        self.ack_wait_s = 0.0

    def group(self, partition_id: int) -> ReplicationGroup:
        return self._groups[partition_id]

    def groups(self) -> tuple[ReplicationGroup, ...]:
        return tuple(self._groups[pid] for pid in sorted(self._groups))

    def begin_run(self, engine) -> None:
        """Bind the run's engine and zero the per-run shipping stats."""
        self._engine = engine
        self.records_shipped = 0
        self.appends = 0
        self.shipped_appends = 0
        self.lag_s = 0.0
        self.ack_wait_s = 0.0

    # -- shipping ------------------------------------------------------------
    def ship(self, partition_id: int, record: LogRecord, now: float) -> None:
        """Ship one appended record to the partition's backups.

        Deliveries are scheduled as engine events at their
        (FIFO-monotone) arrival times; without a bound engine they apply
        immediately, which is the zero-latency degenerate case unit
        tests use.
        """
        group = self._groups[partition_id]
        self.appends += 1
        if not group.backup_edges:
            return
        engine = self._engine
        delays: list[float] = []
        for edge in group.backup_edges:
            duration = self._channel_for(edge).send(
                REPLICATION_MESSAGE_BYTES, timestamp=now, description="log-ship"
            )
            if group.mode == "async":
                duration += ASYNC_FLUSH_DELAY_S
            arrive = max(now + duration, group.last_apply_at[edge])
            group.last_apply_at[edge] = arrive
            delays.append(arrive - now)
            if engine is not None and arrive > now:
                engine.schedule(
                    arrive, lambda g=group, e=edge, r=record: g.apply(e, r)
                )
            else:
                group.apply(edge, record)
        self.records_shipped += len(delays)
        self.shipped_appends += 1
        self.lag_s += max(delays)
        self.ack_wait_s += group.ack_delay(delays)

    def election_round_trip(self, winner: int, now: float) -> float:
        """Election + re-route control messages to/from the new primary."""
        channel = self._channel_for(winner)
        claim = channel.send(ELECTION_MESSAGE_BYTES, timestamp=now, description="election")
        ack = channel.send(ELECTION_MESSAGE_BYTES, timestamp=now + claim, description="re-route")
        return claim + ack

    @staticmethod
    def catchup_time(gap_records: int) -> float:
        """Simulated cost of replaying the promotion gap."""
        return gap_records * REPLAY_SECONDS_PER_RECORD

    # -- failover ------------------------------------------------------------
    def drop_edge(self, edge: int) -> None:
        """A crashed edge loses every standby it was holding."""
        for partition_id in sorted(self._groups):
            self._groups[partition_id].drop_backup(edge)

    def reenroll(self, edge: int, now: float) -> None:
        """A restarted edge rejoins as a warm standby where there is room.

        Every group whose membership dropped below its configured factor
        (because this edge crashed as a backup, or because its primary
        seat moved during a promotion) takes the edge back as a standby,
        bootstrapped from the partition's durable log.
        """
        for partition_id in sorted(self._groups):
            group = self._groups[partition_id]
            if group.primary_edge == edge or edge in group.backup_edges:
                continue
            if 1 + len(group.backup_edges) >= group.factor:
                continue
            group.enroll(edge, self._store.partition(partition_id).wal, now)

    # -- reporting -----------------------------------------------------------
    @property
    def mean_lag_s(self) -> float:
        """Mean per-append delivery lag to the slowest backup."""
        return self.lag_s / self.shipped_appends if self.shipped_appends else 0.0

    @property
    def mean_ack_wait_s(self) -> float:
        """Mean per-append ack wait the shipping mode imposed."""
        return self.ack_wait_s / self.shipped_appends if self.shipped_appends else 0.0

    def summary(self, promotions: Iterable[PromotionRecord]) -> dict[str, Any]:
        """The run's ``replication`` report block: shipping stats plus one
        event per warm failover in ``promotions``."""
        return {
            "factor": self.factor,
            "mode": self.mode,
            "log_records_shipped": self.records_shipped,
            "replication_lag_ms": self.mean_lag_s * 1000.0,
            "replication_ack_wait_ms": self.mean_ack_wait_s * 1000.0,
            "promotion_events": [
                {
                    "partition": record.partition_id,
                    "from_edge": record.from_edge,
                    "to_edge": record.to_edge,
                    "failed_at_s": record.failed_at,
                    "promoted_at_s": record.promoted_at,
                    "downtime_ms": (record.promoted_at - record.failed_at) * 1000.0,
                    "applied_lsn": record.applied_lsn,
                    "records_caught_up": record.records_caught_up,
                }
                for record in promotions
            ],
        }

    @staticmethod
    def summary_text(replication: dict[str, Any]) -> list[str]:
        """The ``replication`` block as the cluster command's text lines."""
        lines = [
            f"replication: factor {replication['factor']} ({replication['mode']}) — "
            f"{replication['log_records_shipped']} log records shipped, "
            f"mean lag {replication['replication_lag_ms']:.2f} ms, "
            f"mean ack wait {replication['replication_ack_wait_ms']:.2f} ms"
        ]
        for event in replication["promotion_events"]:
            lines.append(
                f"  t={event['failed_at_s']:6.2f}s  partition {event['partition']} "
                f"promoted: edge {event['from_edge']} -> edge {event['to_edge']} "
                f"in {event['downtime_ms']:.1f} ms "
                f"({event['records_caught_up']} records caught up at LSN "
                f"{event['applied_lsn']})"
            )
        return lines
