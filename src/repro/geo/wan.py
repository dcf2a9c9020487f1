"""WAN fabric: the seeded channel mesh between geo regions.

Regions talk to each other over multi-hop
:class:`~repro.network.topology.NetworkPath` routes selected by name
from :data:`~repro.network.topology.WAN_LINKS`.  The fabric materialises
one :class:`~repro.network.channel.Channel` per ordered region pair,
each with its own named RNG stream (``wan-<src>-<dst>``), so WAN jitter
draws never perturb the frame pipeline's seeded streams — the same
isolation discipline every other subsystem follows.
"""

from __future__ import annotations

from repro.network.channel import Channel
from repro.network.topology import WAN_LINKS, NetworkPath
from repro.sim.rng import RngRegistry

#: Cross-region commit variants selectable via ``ScenarioSpec``:
#:
#: ``global-2pc``
#:     The origin region's coordinator drives prepare and commit phases
#:     over WAN round trips to every remote participant partition.
#: ``migrated-2pc``
#:     Coordination hands off (one WAN round trip) to the region owning
#:     the majority of the participant partitions, which then runs the
#:     phases against the — now fewer — partitions left outside it.
#: ``async-reconcile``
#:     The commit completes region-locally; write-sets ship one-way to
#:     the remote regions and a last-writer-wins reconciler resolves
#:     conflicting concurrent writes, apologising for the losers.
CROSS_REGION_POLICIES = ("global-2pc", "migrated-2pc", "async-reconcile")

#: Partition-placement modes: ``static`` keeps the initial contiguous
#: homes; ``dominant-region`` re-homes partitions toward the region
#: issuing most of their accesses at runtime.
PLACEMENTS = ("static", "dominant-region")

#: Nominal size of one asynchronously shipped write-set (bytes).
WRITE_SET_MESSAGE_BYTES = 768

#: Nominal size of a coordinator-migration handoff and its result.
HANDOFF_MESSAGE_BYTES = 512
HANDOFF_RESULT_BYTES = 256


class WanFabric:
    """A full mesh of seeded WAN channels between ``regions`` regions."""

    def __init__(
        self,
        regions: int,
        wan_link: str,
        rngs: RngRegistry,
        record_transfers: bool = True,
    ) -> None:
        if regions < 2:
            raise ValueError(f"a WAN fabric needs at least two regions, got {regions}")
        if wan_link not in WAN_LINKS:
            known = ", ".join(sorted(WAN_LINKS))
            raise ValueError(f"unknown wan_link {wan_link!r}; known links: {known}")
        self.num_regions = regions
        self.path: NetworkPath = WAN_LINKS[wan_link]
        profile = self.path.to_profile()
        self._channels: dict[tuple[int, int], Channel] = {
            (src, dst): Channel(
                profile,
                rngs.stream(f"wan-{src}-{dst}"),
                record_transfers=record_transfers,
            )
            for src in range(regions)
            for dst in range(regions)
            if src != dst
        }

    def channel(self, src: int, dst: int) -> Channel:
        """The directed channel carrying ``src``-coordinated traffic to ``dst``."""
        return self._channels[(src, dst)]

    @property
    def total_bytes(self) -> int:
        """Bytes moved over every WAN channel so far."""
        return sum(channel.total_bytes for channel in self._channels.values())

    @property
    def transfer_count(self) -> int:
        """Transfers recorded over every WAN channel so far."""
        return sum(channel.transfer_count for channel in self._channels.values())
