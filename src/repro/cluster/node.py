"""One member of an edge cluster.

An :class:`EdgeReplica` is an :class:`~repro.core.edge.EdgeNode` whose
transaction processing runs against the cluster's shared
:class:`~repro.storage.partition.PartitionedStore` instead of a private
single-node store.  The replica owns a contiguous slice of the
partitions; transactions it runs that touch keys hashed to another
replica's partitions send their lock requests to the owning partition
and commit through 2PC (paper Section 4.5), which is exactly what the
distributed controllers of :mod:`repro.transactions.distributed`
implement.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.edge import EdgeNode
from repro.detection.profiles import ModelProfile
from repro.network.channel import Channel
from repro.network.topology import MachineProfile
from repro.sim.engine import Server
from repro.storage.partition import PartitionedStore
from repro.transactions.bank import TransactionBank
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.ms_sr import ControllerStats
from repro.transactions.policy import TransactionPolicy, make_policy


class EdgeReplica:
    """An edge node plus its owned slice of the cluster's partitions.

    Parameters
    ----------
    edge_id:
        Index of this replica in the cluster.
    profile, machine:
        The edge model and the machine it runs on (replicas may run on
        heterogeneous machines).
    bank:
        This replica's transactions bank.  Each replica needs its own
        bank so transaction ids — which double as lock-holder ids in the
        shared partitions — never collide across replicas.
    rng:
        Detection-noise stream for this replica's edge model.
    store:
        The cluster-wide partitioned store.
    owned_partitions:
        Partition ids this replica hosts.  Keys hashing elsewhere are
        remote: their locks and writes route to the owning replica.
    consistency:
        ``"ms-sr"`` or ``"ms-ia"``; selects the distributed controller.
    transaction_policy:
        Commit policy wrapped around the controller (see
        :data:`repro.transactions.policy.TXN_POLICIES`).  The batched
        and async policies need ``coordinator_channel`` to draw their
        round-trip durations from.
    server_factory:
        Builds this replica's :class:`~repro.sim.engine.Server` (and the
        fresh one of every :meth:`reset_run_state`): the cluster's one
        choice of admission discipline, wait-statistics retention and
        engine implementation.
    """

    def __init__(
        self,
        edge_id: int,
        profile: ModelProfile,
        machine: MachineProfile,
        bank: TransactionBank,
        rng: np.random.Generator,
        store: PartitionedStore,
        owned_partitions: frozenset[int],
        consistency: str = "ms-ia",
        min_confidence: float = 0.05,
        match_overlap: float = 0.10,
        transaction_policy: str = "immediate-2pc",
        coordinator_channel: Channel | None = None,
        vote_channel_for=None,
        *,
        server_factory: Callable[[], Server],
    ) -> None:
        self.edge_id = edge_id
        self.owned_partitions = frozenset(owned_partitions)
        self._store = store
        self._server_factory = server_factory
        #: Finite-capacity server modelling this edge's processor: every
        #: frame stage is admitted here and served for its measured cost.
        self.server = self._server_factory()
        self.streams: list[str] = []

        # The replica's consistency stack: a distributed controller over
        # the shared store — same process_initial / process_final
        # interface as the node's private controller, but lock requests
        # route to the owning partitions and commits run 2PC — wrapped in
        # the selected transaction policy.  The node delegates every
        # section through the policy seam.
        if consistency == "ms-sr":
            controller: DistributedMSIAController = DistributedTwoStage2PL(store)
        else:
            controller = DistributedMSIAController(store)
        self.policy: TransactionPolicy = make_policy(
            transaction_policy,
            controller,
            owned_partitions=self.owned_partitions,
            channel=coordinator_channel,
            vote_channel_for=vote_channel_for,
        )
        self.node = EdgeNode(
            profile=profile,
            machine=machine,
            bank=bank,
            rng=rng,
            min_confidence=min_confidence,
            match_overlap=match_overlap,
            consistency=consistency,
            policy=self.policy,
        )

    @property
    def machine(self) -> MachineProfile:
        """Machine profile this replica runs on."""
        return self.node.machine

    @property
    def controller(self) -> DistributedMSIAController:
        """The raw distributed controller behind the policy."""
        return self.policy.controller

    @property
    def stats(self) -> ControllerStats:
        """Commit/abort counters of this replica's controller."""
        return self.policy.stats

    def assign_stream(self, stream_name: str) -> None:
        """Record that a stream was placed on this replica."""
        self.streams.append(stream_name)

    def reset_run_state(self) -> None:
        """Fresh server and stream assignments for a new cluster run."""
        self.server = self._server_factory()
        self.streams = []
        # Discard frame charges, open batches, and issued prepares left
        # over from an interrupted run; the new run must not be billed
        # for them.
        self.policy.reset()

    def remove_stream(self, stream_name: str) -> None:
        """Forget a stream that migrated away from this replica."""
        if stream_name in self.streams:
            self.streams.remove(stream_name)

    # -- failure/recovery ---------------------------------------------------
    def fail(self, now: float = 0.0) -> tuple[str, ...]:
        """Crash this replica: resolve in-flight work, lose volatile state.

        In-flight transactions resolve through the policy seam
        (prepared-but-uncommitted participants abort or await the
        coordinator per policy) and every owned partition loses its
        in-memory store — only the write-ahead logs survive.  Returns the
        ids of the transactions the failure aborted.
        """
        aborted = self.policy.on_edge_failure(now=now)
        for partition_id in self.owned_partitions:
            self._store.partition(partition_id).crash()
        return aborted

    def recover(self) -> tuple[int, int, int]:
        """Rebuild every owned partition from checkpoint + log replay.

        Returns ``(keys_restored, records_replayed, transactions_replayed)``
        summed over the owned partitions; the caller turns those volumes
        into the replay duration the replica is down for.
        """
        keys = records = transactions = 0
        for partition_id in sorted(self.owned_partitions):
            outcome = self._store.partition(partition_id).recover()
            keys += outcome.keys_restored
            records += outcome.records_replayed
            transactions += outcome.transactions_replayed
        return keys, records, transactions

    # -- re-sharding --------------------------------------------------------
    def release_partition(self, partition_id: int) -> None:
        """Hand a partition to another replica (re-sharding)."""
        if partition_id not in self.owned_partitions:
            raise ValueError(f"edge {self.edge_id} does not own partition {partition_id}")
        self.owned_partitions = self.owned_partitions - {partition_id}
        self.policy.update_owned(self.owned_partitions)

    def adopt_partition(self, partition_id: int) -> None:
        """Take ownership of a partition moved to this replica."""
        self.owned_partitions = self.owned_partitions | {partition_id}
        self.policy.update_owned(self.owned_partitions)

    def transaction_partition_counts(
        self, exclude: frozenset[str] = frozenset()
    ) -> tuple[int, int, int]:
        """Partition-span accounting over this replica's transactions.

        Returns ``(total, cross_edge, multi_partition)`` where
        ``cross_edge`` counts transactions that touched at least one
        partition owned by another replica and ``multi_partition`` those
        whose 2PC rounds spanned more than one partition.  Transaction
        ids in ``exclude`` (e.g. from an earlier run) are skipped.
        """
        total = cross_edge = multi_partition = 0
        owned = self.owned_partitions
        for txn_id, touched in self.controller.partitions_touched().items():
            if txn_id in exclude:
                continue
            total += 1
            if not touched <= owned:
                cross_edge += 1
            if len(touched) > 1:
                multi_partition += 1
        return total, cross_edge, multi_partition
