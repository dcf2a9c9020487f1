"""The pluggable transaction-policy API.

The two-stage consistency layer used to be hard-wired code paths — the
single-node MS-SR / MS-IA controllers and the distributed 2PC
controllers — each invoked ad hoc by whichever system needed it.  A
:class:`TransactionPolicy` is the one seam over them: the two section
calls the frame body makes (``admit`` on a drafted transaction —
``process_initial`` on a built one — and ``process_final``) plus an
end-of-run ``commit``, all driven by the discrete-event engine
(every call receives the engine's ``now``), with adapters wrapping the
existing controllers so both deployments select a policy *by name*
instead of branching on controller classes.

Three commit policies are registered (:data:`TXN_POLICIES`):

``immediate-2pc``
    The legacy behaviour and the default: every section commit runs its
    atomic-commitment round synchronously and the coordinator's
    messaging costs nothing in simulated time.  Seeded runs through this
    policy are bit-for-bit identical to the pre-policy code paths.
``batched-2pc``
    The coordinator accumulates cross-partition commits per time window
    and flushes them as one batch: a single prepare round trip and a
    single commit round trip to each *distinct* remote participant cover
    the whole batch, amortising the per-transaction messaging.  The
    flush's round-trip durations are drawn from a coordinator
    :class:`~repro.network.channel.Channel` and charged to the frame
    whose hook triggered the flush.
``async-2pc``
    The prepare phase of a transaction's final commit is issued the
    moment its initial section commits — the write keys are declared up
    front in the read/write sets — so the prepare round trip overlaps
    the frame's cloud-validation wait.  At final commit only the
    *unhidden* remainder of the prepare plus the commit round trip is
    charged; the hidden portion is reported as overlap savings in the
    latency breakdown.

Simulation state (locks, stores, votes) always evolves through the
wrapped controller exactly as before; the batched and async policies
model the coordinator's *messaging schedule* on top — which is why every
policy produces identical detection output and store state for one seed,
differing only in latency and round-trip accounting.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace
from typing import Any, Callable

from repro.network.channel import Channel
from repro.storage.partition import PartitionedStore
from repro.transactions.model import MultiStageTransaction
from repro.transactions.ms_sr import ControllerStats

#: The registered commit-policy names, selectable by ``ScenarioSpec``,
#: the CLI's ``--txn-policy`` and both systems' configurations.
TXN_POLICIES = ("immediate-2pc", "batched-2pc", "async-2pc")

#: Default accumulation window (seconds) of the batched coordinator.
DEFAULT_BATCH_WINDOW = 0.05

#: Nominal coordinator message sizes (bytes): prepare request / vote,
#: commit decision / acknowledgement.
PREPARE_MESSAGE_BYTES = 512
VOTE_MESSAGE_BYTES = 128
COMMIT_MESSAGE_BYTES = 256
ACK_MESSAGE_BYTES = 128

#: Called when a batched coordinator flushes: ``(transactions_flushed, duration)``.
FlushListener = Callable[[int, float], None]

#: Observes one commit round, ``(transaction_id, participants)``, and
#: returns the synchronous latency (seconds) it adds to the frame in flight.
CommitRoundListener = Callable[[str, frozenset[int]], float]


#: Resolves a partition id to the channel of the replica hosting it, so a
#: prepare phase can draw the participant-side voting latency from the
#: *participant's* link rather than modelling votes as instantaneous.
#: ``None`` (or a resolver returning ``None``) keeps votes free.
VoteChannelResolver = Callable[[int], "Channel | None"]


def _coordinator_phase(
    channel: Channel,
    now: float,
    remote: frozenset[int],
    up_bytes: int,
    down_bytes: int,
    label: str,
    vote_channel_for: VoteChannelResolver | None = None,
) -> tuple[float, float]:
    """Duration of one commit-protocol phase over the coordinator channel.

    The coordinator fans out to every remote participant in parallel, so
    the phase lasts as long as its slowest participant's round trip.
    For prepare phases a :data:`VoteChannelResolver` adds each
    participant's *voting* latency — the time the participant spends
    forming and sending its vote, drawn from that participant's own
    channel — between the request and the reply legs.  Participants are
    visited in sorted order so every channel's jitter draws are
    deterministic per seed.

    Returns ``(phase duration, total participant voting time)``.
    """
    durations: list[float] = []
    vote_total = 0.0
    for partition in sorted(remote):
        uplink, downlink = channel.round_trip(
            up_bytes,
            down_bytes,
            timestamp=now,
            up_description=f"{label}-p{partition}",
            down_description=f"{label}-ack-p{partition}",
        )
        vote = 0.0
        if vote_channel_for is not None:
            participant = vote_channel_for(partition)
            if participant is not None:
                vote = participant.send(
                    VOTE_MESSAGE_BYTES,
                    timestamp=now,
                    description=f"{label}-vote-p{partition}",
                )
        durations.append(uplink + vote + downlink)
        vote_total += vote
    return max(durations, default=0.0), vote_total


@dataclass
class PolicyStats:
    """Coordinator-level accounting of one policy.

    ``coordinator_round_trips`` counts modelled round trips to remote
    participants (one per phase per remote partition);
    ``cross_partition_commits`` counts atomic-commitment rounds that
    involved at least one remote partition — together they give the mean
    round trips per cross-partition commit that the batched policy
    drives down.  ``coordinator_time_s`` is the total modelled messaging
    time and ``overlap_saved_s`` the prepare time the async policy hid
    under cloud validation.
    """

    coordinator_round_trips: int = 0
    cross_partition_commits: int = 0
    commit_batches: int = 0
    coordinator_time_s: float = 0.0
    overlap_saved_s: float = 0.0
    prepare_vote_time_s: float = 0.0
    #: Write-ahead-log appends observed on this policy's local path, and
    #: the fsync-equivalent flushes that covered them.  Without a
    #: group-commit window every append is its own flush; with one, all
    #: appends inside a window share a single flush (mirroring what
    #: ``batched-2pc`` does for coordinator round trips).
    log_appends: int = 0
    log_flushes: int = 0

    @property
    def round_trips_per_cross_partition_commit(self) -> float:
        if not self.cross_partition_commits:
            return 0.0
        return self.coordinator_round_trips / self.cross_partition_commits

    def snapshot(self) -> "PolicyStats":
        """Frozen copy, for before/after deltas across runs."""
        return replace(self)

    def since(self, earlier: "PolicyStats") -> "PolicyStats":
        """Stats accumulated after ``earlier`` was snapshotted."""
        return PolicyStats(
            coordinator_round_trips=self.coordinator_round_trips
            - earlier.coordinator_round_trips,
            cross_partition_commits=self.cross_partition_commits
            - earlier.cross_partition_commits,
            commit_batches=self.commit_batches - earlier.commit_batches,
            coordinator_time_s=self.coordinator_time_s - earlier.coordinator_time_s,
            overlap_saved_s=self.overlap_saved_s - earlier.overlap_saved_s,
            prepare_vote_time_s=self.prepare_vote_time_s - earlier.prepare_vote_time_s,
            log_appends=self.log_appends - earlier.log_appends,
            log_flushes=self.log_flushes - earlier.log_flushes,
        )

    def accumulate(self, other: "PolicyStats") -> None:
        """Accumulate ``other`` into this instance (cluster-wide totals)."""
        self.coordinator_round_trips += other.coordinator_round_trips
        self.cross_partition_commits += other.cross_partition_commits
        self.commit_batches += other.commit_batches
        self.coordinator_time_s += other.coordinator_time_s
        self.overlap_saved_s += other.overlap_saved_s
        self.prepare_vote_time_s += other.prepare_vote_time_s
        self.log_appends += other.log_appends
        self.log_flushes += other.log_flushes


class TransactionPolicy:
    """Base adapter: the section/commit calls over one controller.

    Subclasses override the ``_before_stage`` / ``_after_initial`` /
    ``_after_final`` hooks (all called with the engine's current time)
    and :meth:`commit`.  The base class is itself a complete adapter
    that delegates sections straight to the wrapped controller, so any
    object with the ``admit`` / ``process_initial`` / ``process_final``
    interface — the single-node MS-SR / MS-IA controllers or the
    distributed 2PC controllers — plugs in unchanged.

    Attribute access falls through to the wrapped controller
    (``commit_records``, ``pending_finals``, ``lock_manager``, ...), so
    a policy can stand wherever a bare controller used to.
    """

    name = "policy"

    def __init__(self, controller: Any, owned_partitions: frozenset[int] | None = None) -> None:
        self._controller = controller
        self._owned = owned_partitions
        #: participants -> the remote ones, per set (see :meth:`_remote`).
        self._remote_sets: dict[frozenset[int], frozenset[int]] = {}
        self.policy_stats = PolicyStats()
        self._frame_charge = 0.0
        self._frame_saving = 0.0
        self._wal_window: float | None = None
        self._wal_deadline: float | None = None
        #: Optional flush callback (wired by the cluster to its run's flush records).
        self.on_flush: FlushListener | None = None
        #: Optional per-run commit-round observer (wired by the cluster to
        #: its geo tier); what it returns is billed to the frame in flight.
        self.on_commit_round: CommitRoundListener | None = None
        if hasattr(controller, "commit_listener"):
            # The policy holds its controller; the controller reaches the
            # policy through a weak reference, so the pair is no cycle.
            policy = weakref.ref(self)
            controller.commit_listener = lambda transaction_id, participants: (
                policy()._commit_round(transaction_id, participants)
            )

    # -- the protocol --------------------------------------------------------
    def commit(self, now: float = 0.0) -> int:
        """Flush any deferred coordinator work; returns commits flushed.

        Immediate policies have nothing pending; the batched policy
        flushes its open window here (the systems call this once at the
        end of a run so no acknowledgement is left hanging).
        """
        return 0

    # -- controller-compatible facade ---------------------------------------
    def admit(
        self, draft: Any, labels: Any = None, now: float = 0.0
    ) -> MultiStageTransaction | None:
        """Admit a draft and run its initial section (the frame body's path).

        Returns the initial-committed transaction, or ``None`` when the
        controller's admission was denied: the abort is counted, and nothing
        is built or raised.  Only a granted draft is materialised.
        """
        self._before_stage(now)
        transaction = self._controller.admit(draft, labels, now)
        if transaction is not None:
            self._after_initial(transaction, now)
        return transaction

    def process_initial(
        self, transaction: MultiStageTransaction, labels: Any = None, now: float = 0.0
    ) -> Any:
        self._before_stage(now)
        result = self._controller.process_initial(transaction, labels=labels, now=now)
        self._after_initial(transaction, now)
        return result

    def process_final(
        self, transaction: MultiStageTransaction, labels: Any = None, now: float = 0.0
    ) -> Any:
        self._before_stage(now)
        result = self._controller.process_final(transaction, labels=labels, now=now)
        self._after_final(transaction, now)
        return result

    def reset(self) -> None:
        """Discard in-flight coordinator state (frame charges, open
        batches, issued prepares) without touching the cumulative stats.

        Called between runs so work left hanging by an interrupted run
        can never flush into — and be billed to — the next one.
        """
        self._frame_charge = 0.0
        self._frame_saving = 0.0
        self._wal_deadline = None

    def on_edge_failure(self, now: float = 0.0) -> tuple[str, ...]:
        """Resolve in-flight transactions when this policy's edge crashes.

        The default (immediate/batched 2PC) resolution aborts every
        prepared-but-uncommitted final through the wrapped controller —
        the coordinator died, so participants presume abort — and drops
        any open coordinator state (unbilled charges, open batches).
        Returns the aborted transaction ids; :class:`AsyncTwoPhasePolicy`
        overrides this with the await-the-coordinator resolution.
        """
        self.reset()
        abort = getattr(self._controller, "abort_pending", None)
        if abort is None:
            return ()
        return tuple(abort(now))

    def update_owned(self, owned_partitions: frozenset[int]) -> None:
        """Re-point the local/remote partition split (runtime re-shard)."""
        self._owned = frozenset(owned_partitions)
        self._remote_sets.clear()

    # -- group-commit log accounting -----------------------------------------
    def configure_group_commit(self, window_s: float | None) -> None:
        """Amortise local log appends into one flush per ``window_s``.

        ``None`` (the default) flushes every append individually — the
        fsync-per-commit discipline the durability scenarios have always
        modelled.  A positive window groups every append whose
        :meth:`observe_wal_append` lands inside it under a single flush,
        which is the log-layer mirror of ``batched-2pc``'s round-trip
        batching.
        """
        if window_s is not None and window_s <= 0:
            raise ValueError(f"group-commit window must be positive, got {window_s}")
        self._wal_window = window_s

    def observe_wal_append(self, now: float) -> None:
        """Account one local write-ahead-log append at engine time ``now``."""
        self.policy_stats.log_appends += 1
        if self._wal_window is None:
            self.policy_stats.log_flushes += 1
            return
        if self._wal_deadline is None or now >= self._wal_deadline:
            self.policy_stats.log_flushes += 1
            self._wal_deadline = now + self._wal_window

    # -- frame accounting ----------------------------------------------------
    def drain_frame_costs(self) -> tuple[float, float]:
        """``(commit-protocol charge, overlap saved)`` since the last drain.

        The systems drain after each frame stage and fold the charge
        into the stage's service time (and both numbers into the frame's
        :class:`~repro.core.results.LatencyBreakdown`).  Always
        ``(0.0, 0.0)`` under the immediate policy.
        """
        charge, saving = self._frame_charge, self._frame_saving
        self._frame_charge = 0.0
        self._frame_saving = 0.0
        return charge, saving

    # -- shared internals ----------------------------------------------------
    def _remote(self, participants: frozenset[int]) -> frozenset[int]:
        """The partitions of ``participants`` this node does not own, kept
        per set: a round's participants are interned by the coordinator, so
        a commit round builds no set here."""
        remote = self._remote_sets.get(participants)
        if remote is None:
            owned = self._owned
            remote = frozenset() if owned is None else participants - owned
            self._remote_sets[participants] = remote
        return remote

    def _commit_round(self, transaction_id: str, participants: frozenset[int]) -> None:
        """The wrapped controller's commit listener: this policy's own
        accounting first, then the run's observer, whose synchronous
        charge (the geo tier's WAN commit latency) joins the frame bill
        that :meth:`drain_frame_costs` hands to the frame pipeline."""
        self._on_commit_round(transaction_id, participants)
        if self.on_commit_round is not None:
            self._frame_charge += self.on_commit_round(transaction_id, participants)

    def _on_commit_round(self, transaction_id: str, participants: frozenset[int]) -> None:
        """Observe one atomic-commitment round of the wrapped controller."""
        remote = self._remote(participants)
        if not remote:
            return
        self.policy_stats.cross_partition_commits += 1
        self.policy_stats.coordinator_round_trips += 2 * len(remote)

    def _before_stage(self, now: float) -> None:
        """Hook before any section runs (batched flush deadlines)."""

    def _after_initial(self, transaction: MultiStageTransaction, now: float) -> None:
        """Hook after a committed initial section (async prepare issue)."""

    def _after_final(self, transaction: MultiStageTransaction, now: float) -> None:
        """Hook after a committed final section (async commit charge)."""

    # -- passthrough ---------------------------------------------------------
    @property
    def controller(self) -> Any:
        """The wrapped concurrency controller."""
        return self._controller

    @property
    def stats(self) -> ControllerStats:
        """The wrapped controller's commit/abort counters."""
        return self._controller.stats

    def __getattr__(self, item: str) -> Any:
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._controller, item)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self._controller!r})"


class ImmediatePolicy(TransactionPolicy):
    """The legacy behaviour: commit rounds run synchronously and free.

    This is the default policy of both deployments; it only *counts*
    coordinator round trips (two per remote participant per round), it
    never charges latency or draws randomness, so seeded runs are
    bit-for-bit what the pre-policy code paths produced.
    """

    name = "immediate-2pc"


class BatchedTwoPhasePolicy(TransactionPolicy):
    """Batched 2PC: one prepare/commit message pair covers a whole window.

    Cross-partition commit rounds still *decide* synchronously through
    the wrapped distributed controller (votes are taken and writes
    applied under the same locks as ever), but the coordinator's
    round-trip messaging to remote participants is accumulated per
    window and flushed as one batch: two round trips (prepare phase,
    commit phase) to each distinct remote participant, however many
    transactions the batch holds.  Flush durations are drawn from the
    coordinator channel and charged to the frame whose hook triggered
    the flush; the end-of-run flush (:meth:`commit`) lands in the stats
    only.
    """

    name = "batched-2pc"

    def __init__(
        self,
        controller: Any,
        owned_partitions: frozenset[int] | None,
        channel: Channel,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        vote_channel_for: VoteChannelResolver | None = None,
    ) -> None:
        if not hasattr(controller, "commit_listener"):
            raise TypeError(
                "batched-2pc needs a distributed controller with commit hooks, "
                f"got {type(controller).__name__}"
            )
        if batch_window <= 0:
            raise ValueError(f"batch_window must be positive, got {batch_window}")
        super().__init__(controller, owned_partitions)
        self._channel = channel
        self._batch_window = batch_window
        self._vote_channel_for = vote_channel_for
        self._pending_remote: set[int] = set()
        self._pending_commits = 0
        self._deadline: float | None = None
        self._stage_now = 0.0

    def _on_commit_round(self, transaction_id: str, participants: frozenset[int]) -> None:
        remote = self._remote(participants)
        if not remote:
            return
        self.policy_stats.cross_partition_commits += 1
        self._pending_remote |= remote
        self._pending_commits += 1
        if self._deadline is None:
            self._deadline = self._stage_now + self._batch_window

    def _before_stage(self, now: float) -> None:
        self._stage_now = now
        if self._deadline is not None and now >= self._deadline:
            self._frame_charge += self._flush(now)

    def commit(self, now: float = 0.0) -> int:
        flushed = self._pending_commits
        self._flush(now)
        return flushed

    def reset(self) -> None:
        super().reset()
        self._pending_remote.clear()
        self._pending_commits = 0
        self._deadline = None
        self._stage_now = 0.0

    def _flush(self, now: float) -> float:
        if not self._pending_commits:
            return 0.0
        remote = frozenset(self._pending_remote)
        prepare, vote_time = _coordinator_phase(
            self._channel,
            now,
            remote,
            PREPARE_MESSAGE_BYTES,
            VOTE_MESSAGE_BYTES,
            "prepare",
            vote_channel_for=self._vote_channel_for,
        )
        decide, _ = _coordinator_phase(
            self._channel, now, remote, COMMIT_MESSAGE_BYTES, ACK_MESSAGE_BYTES, "commit"
        )
        duration = prepare + decide
        self.policy_stats.coordinator_round_trips += 2 * len(remote)
        self.policy_stats.commit_batches += 1
        self.policy_stats.coordinator_time_s += duration
        self.policy_stats.prepare_vote_time_s += vote_time
        flushed = self._pending_commits
        self._pending_remote.clear()
        self._pending_commits = 0
        self._deadline = None
        if self.on_flush is not None:
            self.on_flush(flushed, duration)
        return duration


class AsyncTwoPhasePolicy(TransactionPolicy):
    """Async 2PC: the final commit's prepare overlaps cloud validation.

    A multi-stage transaction declares its write sets up front, so the
    moment its initial section commits the coordinator already knows
    which remote partitions the final commit will touch — it issues the
    prepare round trip immediately, while the frame is away at the cloud
    for validation.  When the final section commits, only the *unhidden*
    remainder of the prepare (zero, whenever the cloud wait was longer)
    plus the commit-phase round trip is charged; the hidden portion is
    reported as ``commit_overlap_saved`` in the latency breakdown.
    Round-trip *counts* match the immediate policy — async hides
    latency, it does not remove messages.
    """

    name = "async-2pc"

    def __init__(
        self,
        controller: Any,
        owned_partitions: frozenset[int] | None,
        channel: Channel,
        vote_channel_for: VoteChannelResolver | None = None,
    ) -> None:
        if not hasattr(controller, "commit_listener"):
            raise TypeError(
                "async-2pc needs a distributed controller with commit hooks, "
                f"got {type(controller).__name__}"
            )
        super().__init__(controller, owned_partitions)
        self._channel = channel
        self._vote_channel_for = vote_channel_for
        #: txn id -> (prepare issue time, prepare duration, remote participants)
        self._prepared: dict[str, tuple[float, float, frozenset[int]]] = {}

    def _final_commit_remote(self, transaction: MultiStageTransaction) -> frozenset[int]:
        """Remote partitions the transaction's final commit will write."""
        store = self._controller.store
        if not isinstance(store, PartitionedStore):  # pragma: no cover - guarded by __init__
            return frozenset()
        # MS-SR's single round at the end covers both sections' buffered
        # writes; MS-IA's final round covers the final section only.
        if getattr(self._controller, "name", "") == "distributed-MS-SR":
            writes = transaction.combined_rwset().writes
        else:
            writes = transaction.final.rwset.writes
        if not writes:
            return frozenset()
        return self._remote(store.partitions_touched(writes))

    def _after_initial(self, transaction: MultiStageTransaction, now: float) -> None:
        remote = self._final_commit_remote(transaction)
        if not remote:
            return
        prepare, vote_time = _coordinator_phase(
            self._channel,
            now,
            remote,
            PREPARE_MESSAGE_BYTES,
            VOTE_MESSAGE_BYTES,
            "prepare",
            vote_channel_for=self._vote_channel_for,
        )
        self.policy_stats.prepare_vote_time_s += vote_time
        self._prepared[transaction.transaction_id] = (now, prepare, remote)

    def _after_final(self, transaction: MultiStageTransaction, now: float) -> None:
        entry = self._prepared.pop(transaction.transaction_id, None)
        if entry is None:
            return
        issued_at, prepare, remote = entry
        hidden = min(prepare, max(0.0, now - issued_at))
        decide, _ = _coordinator_phase(
            self._channel, now, remote, COMMIT_MESSAGE_BYTES, ACK_MESSAGE_BYTES, "commit"
        )
        self.policy_stats.coordinator_time_s += prepare + decide
        self.policy_stats.overlap_saved_s += hidden
        self._frame_charge += (prepare - hidden) + decide
        self._frame_saving += hidden

    def on_edge_failure(self, now: float = 0.0) -> tuple[str, ...]:
        """Async 2PC's resolution: prepared participants *await* the
        coordinator.

        Prepares were issued (and durably logged by the participants)
        the moment the initial sections committed, so a crashed
        coordinator's in-flight finals are not aborted — participants
        hold their votes until the replica recovers and drives the
        decision.  Only unbilled frame charges are dropped; issued
        prepares stay issued so post-recovery finals still report their
        overlap.
        """
        self._frame_charge = 0.0
        self._frame_saving = 0.0
        return ()

    def reset(self) -> None:
        super().reset()
        self._prepared.clear()


def make_policy(
    name: str,
    controller: Any,
    owned_partitions: frozenset[int] | None = None,
    channel: Channel | None = None,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    vote_channel_for: VoteChannelResolver | None = None,
) -> TransactionPolicy:
    """Build a registered commit policy over ``controller``.

    ``owned_partitions`` are the partitions local to the policy's node
    (``None`` means everything is local — a single-node store);
    ``channel`` models the coordinator↔participant link and is required
    by the batched and async policies, which draw their round-trip
    durations from it.  ``vote_channel_for`` optionally resolves a
    partition id to its hosting replica's channel so prepare phases can
    charge the participant-side voting latency.
    """
    if name == "immediate-2pc":
        return ImmediatePolicy(controller, owned_partitions)
    if name == "batched-2pc":
        if channel is None:
            raise ValueError("batched-2pc needs a coordinator channel")
        return BatchedTwoPhasePolicy(
            controller,
            owned_partitions,
            channel,
            batch_window=batch_window,
            vote_channel_for=vote_channel_for,
        )
    if name == "async-2pc":
        if channel is None:
            raise ValueError("async-2pc needs a coordinator channel")
        return AsyncTwoPhasePolicy(
            controller, owned_partitions, channel, vote_channel_for=vote_channel_for
        )
    known = ", ".join(TXN_POLICIES)
    raise ValueError(f"unknown transaction policy {name!r}; known policies: {known}")
