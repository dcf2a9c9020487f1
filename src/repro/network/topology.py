"""Machines, the edge-cloud topology, and multi-hop WAN paths.

The evaluation uses two machine types (t3a.small and t3a.xlarge) and two
placements (edge and cloud in the same region or across the country).
A :class:`MachineProfile` scales model-inference and transaction
latencies; an :class:`EdgeCloudTopology` bundles the machine choices with
the link profiles to describe one experimental setup (Figure 4 runs the
same workload over four of these).

Routes between geo regions are longer than one link: traffic leaves
through the origin region's fabric, crosses a long-haul backbone, and
arrives through the destination's fabric.  A :class:`NetworkPath` models
such a route as an ordered sequence of links and composes them into a
single equivalent :class:`~repro.network.latency.LinkProfile` that a
:class:`~repro.network.channel.Channel` can consume unchanged; the named
routes live in :data:`WAN_LINKS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.network.latency import CLIENT_TO_EDGE, CROSS_COUNTRY, SAME_REGION, LinkProfile


@dataclass(frozen=True)
class MachineProfile:
    """Compute capability of a machine.

    ``compute_scale`` multiplies model-inference latency; ``txn_overhead``
    is the fixed per-operation transaction-processing cost in seconds.
    """

    name: str
    vcpus: int
    memory_gib: float
    compute_scale: float
    txn_overhead: float = 0.00002

    def __post_init__(self) -> None:
        if self.vcpus <= 0:
            raise ValueError("vcpus must be positive")
        if self.compute_scale <= 0:
            raise ValueError("compute_scale must be positive")


#: t3a.small: 2 vCPUs, 2 GiB — the "limited resources" edge machine.
EDGE_SMALL = MachineProfile(name="t3a.small", vcpus=2, memory_gib=2.0, compute_scale=2.1)

#: t3a.xlarge: 4 vCPUs, 16 GiB — the default edge machine.
EDGE_REGULAR = MachineProfile(name="t3a.xlarge", vcpus=4, memory_gib=16.0, compute_scale=1.0)

#: The cloud machine is always a t3a.xlarge in the paper's experiments.
CLOUD_XLARGE = MachineProfile(name="t3a.xlarge", vcpus=4, memory_gib=16.0, compute_scale=1.0)


@dataclass(frozen=True)
class EdgeCloudTopology:
    """One experimental deployment: machines plus links."""

    name: str
    edge_machine: MachineProfile
    cloud_machine: MachineProfile
    client_edge_link: LinkProfile
    edge_cloud_link: LinkProfile

    @classmethod
    def default(cls) -> "EdgeCloudTopology":
        """The paper's default: regular edge in CA, cloud in VA."""
        return cls.regular_edge_different_location()

    @classmethod
    def small_edge_different_location(cls) -> "EdgeCloudTopology":
        """Figure 4 setup (a): t3a.small edge, CA ↔ VA."""
        return cls(
            name="small-edge/different-location",
            edge_machine=EDGE_SMALL,
            cloud_machine=CLOUD_XLARGE,
            client_edge_link=CLIENT_TO_EDGE,
            edge_cloud_link=CROSS_COUNTRY,
        )

    @classmethod
    def small_edge_same_location(cls) -> "EdgeCloudTopology":
        """Figure 4 setup (b): t3a.small edge, co-located with the cloud."""
        return cls(
            name="small-edge/same-location",
            edge_machine=EDGE_SMALL,
            cloud_machine=CLOUD_XLARGE,
            client_edge_link=CLIENT_TO_EDGE,
            edge_cloud_link=SAME_REGION,
        )

    @classmethod
    def regular_edge_different_location(cls) -> "EdgeCloudTopology":
        """Figure 4 setup (c): t3a.xlarge edge, CA ↔ VA (the default)."""
        return cls(
            name="regular-edge/different-location",
            edge_machine=EDGE_REGULAR,
            cloud_machine=CLOUD_XLARGE,
            client_edge_link=CLIENT_TO_EDGE,
            edge_cloud_link=CROSS_COUNTRY,
        )

    @classmethod
    def regular_edge_same_location(cls) -> "EdgeCloudTopology":
        """Figure 4 setup (d): t3a.xlarge edge, co-located with the cloud."""
        return cls(
            name="regular-edge/same-location",
            edge_machine=EDGE_REGULAR,
            cloud_machine=CLOUD_XLARGE,
            client_edge_link=CLIENT_TO_EDGE,
            edge_cloud_link=SAME_REGION,
        )


@dataclass(frozen=True)
class NetworkPath:
    """A multi-hop route: an ordered sequence of link profiles.

    The path composes its hops into one equivalent
    :class:`~repro.network.latency.LinkProfile` under store-and-forward
    semantics — the payload is serialised onto every hop in turn:

    * propagation delay is the sum of the hop delays;
    * effective bandwidth is the harmonic composition
      ``1 / sum(1 / hop_bandwidth)``;
    * jitter composes in quadrature (hop noise is independent).

    Jitter aside, ``path.to_profile().transfer_time(n)`` therefore equals
    ``sum(hop.transfer_time(n) for hop in path.hops)`` exactly.
    """

    name: str
    hops: tuple[LinkProfile, ...]

    def __post_init__(self) -> None:
        if not self.hops:
            raise ValueError("a network path needs at least one hop")

    @property
    def propagation_delay(self) -> float:
        """One-way base delay of the whole route, in seconds."""
        return sum(hop.propagation_delay for hop in self.hops)

    @property
    def bandwidth_bytes_per_sec(self) -> float:
        """Effective end-to-end bandwidth under per-hop serialisation."""
        return 1.0 / sum(1.0 / hop.bandwidth_bytes_per_sec for hop in self.hops)

    @property
    def jitter(self) -> float:
        """Standard deviation of the composed delay noise, in seconds."""
        return math.sqrt(sum(hop.jitter**2 for hop in self.hops))

    def to_profile(self) -> LinkProfile:
        """The single-link equivalent of traversing every hop in order."""
        return LinkProfile(
            name=self.name,
            propagation_delay=self.propagation_delay,
            bandwidth_bytes_per_sec=self.bandwidth_bytes_per_sec,
            jitter=self.jitter,
        )


#: Long-haul backbone between continents (~150 ms RTT, constrained).
TRANSOCEANIC = LinkProfile(
    name="transoceanic",
    propagation_delay=0.075,
    bandwidth_bytes_per_sec=15e6,
    jitter=0.008,
)


#: Named WAN routes between geo regions, keyed by ``ScenarioSpec.wan_link``.
#: Every multi-hop route leaves through the origin region's fabric and
#: arrives through the destination's, with the backbone in between.
WAN_LINKS: dict[str, NetworkPath] = {
    "same-region": NetworkPath("same-region", (SAME_REGION,)),
    "cross-country": NetworkPath(
        "cross-country", (SAME_REGION, CROSS_COUNTRY, SAME_REGION)
    ),
    "intercontinental": NetworkPath(
        "intercontinental", (SAME_REGION, CROSS_COUNTRY, TRANSOCEANIC, SAME_REGION)
    ),
}
