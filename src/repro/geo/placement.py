"""Dominant-region partition placement.

A :class:`PlacementTracker` counts, per partition, which region's
transactions touch it.  Under the ``dominant-region`` mode the cluster
runs a periodic engine process that asks the run's
:class:`~repro.geo.system.GeoTier` where each partition should live and
re-homes any partition whose accesses are dominated by another region,
reusing the same checkpoint-copy + log-tail transfer
(:meth:`~repro.storage.partition.PartitionedStore.transfer_partition`)
the re-sharding machinery ships partitions with.
"""

from __future__ import annotations

#: Simulated seconds between two dominant-region placement passes.
PLACEMENT_INTERVAL_S = 0.5

#: A partition is only re-homed once its dominant region has issued at
#: least this many accesses since the last move...
PLACEMENT_MIN_ACCESSES = 8

#: ...and dominates the current home region by at least this factor
#: (hysteresis against ping-ponging a genuinely shared partition).
PLACEMENT_DOMINANCE = 1.5


class PlacementTracker:
    """Per-partition access counts, broken down by accessing region."""

    def __init__(self, num_partitions: int, regions: int) -> None:
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if regions < 1:
            raise ValueError("need at least one region")
        self.regions = regions
        self._counts = [[0] * regions for _ in range(num_partitions)]

    def observe(self, partition_id: int, region: int) -> None:
        """Count one access to ``partition_id`` by a region's transaction."""
        self._counts[partition_id][region] += 1

    def counts(self, partition_id: int) -> tuple[int, ...]:
        """Access counts of one partition, indexed by region."""
        return tuple(self._counts[partition_id])

    def dominant_region(self, partition_id: int, home_region: int) -> int | None:
        """Region that should host ``partition_id``, or ``None`` to stay.

        Returns the region with the most accesses — ties broken toward
        the current home, then the lowest id — but only when it has seen
        at least :data:`PLACEMENT_MIN_ACCESSES` and leads the home
        region's count by :data:`PLACEMENT_DOMINANCE`.
        """
        counts = self._counts[partition_id]
        best = max(
            range(self.regions),
            key=lambda region: (counts[region], region == home_region, -region),
        )
        if best == home_region:
            return None
        if counts[best] < PLACEMENT_MIN_ACCESSES:
            return None
        if counts[best] < PLACEMENT_DOMINANCE * max(1, counts[home_region]):
            return None
        return best

    def forget(self, partition_id: int) -> None:
        """Reset one partition's counts (it just moved; demand must re-prove)."""
        self._counts[partition_id] = [0] * self.regions
