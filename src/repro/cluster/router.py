"""Stream-to-edge placement policies.

A cluster run assigns every camera stream to one edge replica before any
frame flows.  The policies below cover the scenarios the scale-out
evaluation needs:

* **round-robin** — uniform placement, the baseline;
* **consistent-hash** — stable placement by camera id, so adding streams
  does not reshuffle existing ones;
* **least-loaded** — load-aware placement that accounts for heterogeneous
  edge machines (a slower machine absorbs fewer streams);
* **hotspot** — deliberately skewed placement that concentrates a
  configurable fraction of the streams on one hot edge, producing the
  overload scenarios the queueing model is meant to expose;
* **geo** — region-first striping, what a multi-region cluster places
  streams with (clients are near *their* region).

All policies are deterministic given their construction arguments (the
hotspot policy draws from a seeded generator), so a seeded cluster run is
bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class RoutingError(ValueError):
    """Raised for malformed routing configurations."""


def _fnv1a(text: str) -> int:
    """FNV-1a hash of ``text`` as a non-negative 32-bit integer.

    Python's builtin ``hash`` is salted per process; routing must be
    stable across processes for reproducible placements.
    """
    value = 2166136261
    for byte in text.encode("utf-8"):
        value ^= byte
        value = (value * 16777619) & 0xFFFFFFFF
    return value


class StreamRouter:
    """Base class for placement policies.

    Subclasses implement :meth:`place`; :meth:`assign` maps a whole batch
    of streams in order.
    """

    name = "base"

    def __init__(self, num_edges: int) -> None:
        if num_edges < 1:
            raise RoutingError("need at least one edge")
        self.num_edges = num_edges

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        raise NotImplementedError

    def assign(self, stream_names: Sequence[str]) -> list[int]:
        """Place every stream, in order; returns one edge index each."""
        return [self.place(name) for name in stream_names]


class RoundRobinRouter(StreamRouter):
    """Cycle through the edges in placement order."""

    name = "round-robin"

    def __init__(self, num_edges: int) -> None:
        super().__init__(num_edges)
        self._next = 0

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        edge = self._next % self.num_edges
        self._next += 1
        return edge


class ConsistentHashRouter(StreamRouter):
    """Hash-ring placement keyed by the camera/stream id.

    Each edge owns ``virtual_nodes`` points on a 32-bit ring; a stream
    lands on the first point clockwise from its own hash.  Placement only
    depends on the stream name, so re-running with more streams never
    moves an existing one.
    """

    name = "consistent-hash"

    def __init__(self, num_edges: int, virtual_nodes: int = 16) -> None:
        super().__init__(num_edges)
        if virtual_nodes < 1:
            raise RoutingError("need at least one virtual node per edge")
        points: list[tuple[int, int]] = []
        for edge in range(num_edges):
            for replica in range(virtual_nodes):
                points.append((_fnv1a(f"edge-{edge}#vn-{replica}"), edge))
        self._ring = sorted(points)

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        point = _fnv1a(stream_name)
        for ring_point, edge in self._ring:
            if ring_point >= point:
                return edge
        return self._ring[0][1]


class LeastLoadedRouter(StreamRouter):
    """Greedy load-aware placement over possibly heterogeneous edges.

    Each stream costs its edge's ``compute_scale`` (a slow machine pays
    more per stream); every placement goes to the edge whose load after
    accepting the stream would be smallest, ties broken by edge index.
    """

    name = "least-loaded"

    def __init__(self, num_edges: int, compute_scales: Sequence[float] | None = None) -> None:
        super().__init__(num_edges)
        if compute_scales is None:
            compute_scales = [1.0] * num_edges
        if len(compute_scales) != num_edges:
            raise RoutingError("need one compute scale per edge")
        if any(scale <= 0 for scale in compute_scales):
            raise RoutingError("compute scales must be positive")
        self._scales = [float(scale) for scale in compute_scales]
        self._load = [0.0] * num_edges

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        edge = min(
            range(self.num_edges),
            key=lambda e: (self._load[e] + self._scales[e], e),
        )
        self._load[edge] += self._scales[edge]
        return edge


class HotspotRouter(StreamRouter):
    """Skewed placement: a fraction of the streams pile onto one edge.

    With probability ``hot_fraction`` a stream is placed on ``hot_edge``;
    otherwise it is placed uniformly over the remaining edges.  Used to
    create the overload/contention scenarios of the scale-out benchmark.
    """

    name = "hotspot"

    def __init__(
        self,
        num_edges: int,
        rng: np.random.Generator,
        hot_fraction: float = 0.75,
        hot_edge: int = 0,
    ) -> None:
        super().__init__(num_edges)
        if not 0.0 <= hot_fraction <= 1.0:
            raise RoutingError("hot_fraction must be in [0, 1]")
        if not 0 <= hot_edge < num_edges:
            raise RoutingError(f"hot_edge {hot_edge} out of range for {num_edges} edges")
        self._rng = rng
        self._hot_fraction = hot_fraction
        self._hot_edge = hot_edge

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        if self.num_edges == 1 or float(self._rng.random()) < self._hot_fraction:
            return self._hot_edge
        others = [edge for edge in range(self.num_edges) if edge != self._hot_edge]
        return others[int(self._rng.integers(0, len(others)))]


class GeoRouter(StreamRouter):
    """Region-striped placement: stream *i* lands in region ``i % regions``.

    Inside the chosen region, streams cycle round-robin over that
    region's edges.  Deterministic, draws nothing from any RNG stream.
    """

    name = "geo"

    def __init__(self, regions: int, edges_per_region: int) -> None:
        super().__init__(regions * edges_per_region)
        self.regions = regions
        self.edges_per_region = edges_per_region
        self._next = 0

    def place(self, stream_name: str) -> int:
        """Edge index that should host ``stream_name``."""
        index = self._next
        self._next += 1
        region = index % self.regions
        within = (index // self.regions) % self.edges_per_region
        return region * self.edges_per_region + within


class MigrationTrigger:
    """Hysteresis gate for runtime stream migration off one edge.

    The trigger fires when the observed utilization crosses ``high``
    while armed; it then disarms until utilization falls back to
    ``low``.  Without the hysteresis band an overloaded edge — whose
    utilization decays slowly after streams leave — would shed a stream
    on every subsequent arrival, thrashing placements.
    """

    def __init__(self, high: float, low: float) -> None:
        if not 0.0 < low <= high:
            raise RoutingError(
                f"need 0 < low <= high for the hysteresis band, got ({low}, {high})"
            )
        self.high = high
        self.low = low
        self._armed = True

    @property
    def armed(self) -> bool:
        return self._armed

    def observe(self, utilization: float) -> bool:
        """Feed one utilization sample; returns True when migration may fire.

        Observing does not consume the trigger: call :meth:`disarm` once
        a stream actually migrates.  A saturated edge with nowhere to
        send its streams therefore keeps asking, and starts shedding the
        moment another edge drains.
        """
        if not self._armed and utilization <= self.low:
            self._armed = True
        return self._armed and utilization >= self.high

    def disarm(self) -> None:
        """Consume the trigger after a migration; re-arms below ``low``."""
        self._armed = False


class MigratingRouter(LeastLoadedRouter):
    """Load-aware placement plus runtime stream migration.

    Initial placement is the least-loaded greedy; at runtime the cluster
    feeds the router the edges' *observed* utilizations (measured by the
    engine's servers) on every frame arrival, and :meth:`decide` names a
    new home for the arriving stream when its edge saturates.  This is
    what placement-time policies cannot do: they commit before knowing
    how long streams run or how expensive their frames turn out to be.
    """

    name = "migrating"

    def __init__(
        self,
        num_edges: int,
        compute_scales: Sequence[float] | None = None,
        high: float = 0.85,
        low: float = 0.5,
    ) -> None:
        super().__init__(num_edges, compute_scales=compute_scales)
        self._triggers = [MigrationTrigger(high, low) for _ in range(num_edges)]
        self.low = low

    def trigger(self, edge_id: int) -> MigrationTrigger:
        """The hysteresis trigger guarding ``edge_id``."""
        return self._triggers[edge_id]

    def decide(self, edge_id: int, loads: Sequence[float]) -> int | None:
        """Target edge for a stream arriving on a saturated ``edge_id``.

        ``loads`` are the observed per-edge utilizations at the decision
        instant.  Returns ``None`` when the edge is below its trigger
        threshold, the trigger is in its hysteresis cooldown, or no
        other edge has real headroom (observed load at most ``low``).
        """
        if len(loads) != self.num_edges:
            raise RoutingError("need one load sample per edge")
        if not self._triggers[edge_id].observe(loads[edge_id]):
            return None
        target = min(range(self.num_edges), key=lambda e: (loads[e], e))
        if target == edge_id or loads[target] > self.low:
            return None
        self._triggers[edge_id].disarm()
        return target


#: Policy names accepted by :func:`make_router` (and the CLI).
ROUTER_POLICIES = ("round-robin", "consistent-hash", "least-loaded", "hotspot", "migrating")


def make_router(
    policy: str,
    num_edges: int,
    rng: np.random.Generator | None = None,
    compute_scales: Sequence[float] | None = None,
    hot_fraction: float = 0.75,
    migration_high: float = 0.85,
    migration_low: float = 0.5,
    regions: int = 1,
) -> StreamRouter:
    """Build a router by policy name.

    ``rng`` is only required by the hotspot policy; ``compute_scales``
    only informs the least-loaded and migrating policies, and the
    ``migration_*`` thresholds only the migrating policy.  With
    ``regions > 1`` streams are placed region-first by a
    :class:`GeoRouter` (the cluster config admits only ``round-robin``
    there).
    """
    if regions > 1:
        return GeoRouter(regions, num_edges // regions)
    if policy == "round-robin":
        return RoundRobinRouter(num_edges)
    if policy == "consistent-hash":
        return ConsistentHashRouter(num_edges)
    if policy == "least-loaded":
        return LeastLoadedRouter(num_edges, compute_scales=compute_scales)
    if policy == "hotspot":
        if rng is None:
            raise RoutingError("the hotspot policy needs a seeded generator")
        return HotspotRouter(num_edges, rng=rng, hot_fraction=hot_fraction)
    if policy == "migrating":
        return MigratingRouter(
            num_edges, compute_scales=compute_scales, high=migration_high, low=migration_low
        )
    known = ", ".join(ROUTER_POLICIES)
    raise RoutingError(f"unknown routing policy {policy!r}; known policies: {known}")
