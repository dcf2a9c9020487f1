"""Multi-edge cluster deployment: sharded scale-out of the Croesus
pipeline with stream routing, per-edge queueing, and cross-edge 2PC
transactions (paper Section 4.5).

* :mod:`repro.cluster.node` — an edge replica owning a slice of the
  shared partitioned store;
* :mod:`repro.cluster.router` — stream-to-edge placement policies;
* :mod:`repro.cluster.scheduler` — frame arrival timing (queueing is
  modelled by :mod:`repro.sim.engine` servers);
* :mod:`repro.cluster.config` — :class:`ClusterConfig`, the validated
  description of one deployment;
* :mod:`repro.cluster.system` — the :class:`ClusterSystem` deployment
  mirroring :class:`~repro.core.system.CroesusSystem`'s run API over
  the same frame pipeline (:mod:`repro.core.pipeline`): one lazy
  arrival driver per stream, a sink for what is retained;
* :mod:`repro.cluster.results` — :class:`ClusterRunResult` and the
  per-edge / per-frame records it aggregates;
* :mod:`repro.cluster.failure` — scheduled replica failure/recovery and
  runtime partition re-sharding, executed as engine events over the
  write-ahead-log durability seam of :mod:`repro.storage`.

With ``ClusterConfig.geo.regions > 1`` the same system plugs in the geo
tier of :mod:`repro.geo` (WAN-linked regions, cross-region commit
variants, dominant-region placement).
"""

from repro.cluster.config import ClusterConfig
from repro.cluster.failure import (
    FailureRecord,
    FailureSpec,
    ReshardRecord,
    ReshardSpec,
)
from repro.cluster.node import EdgeReplica
from repro.cluster.results import ClusterRunResult, EdgeMetrics, MigrationRecord
from repro.cluster.router import (
    ROUTER_POLICIES,
    ConsistentHashRouter,
    GeoRouter,
    HotspotRouter,
    LeastLoadedRouter,
    MigratingRouter,
    MigrationTrigger,
    RoundRobinRouter,
    RoutingError,
    StreamRouter,
    make_router,
)
from repro.cluster.scheduler import FrameScheduler
from repro.cluster.system import ClusterSystem, empty_bank_factory, hotspot_bank_factory

__all__ = [
    "ClusterConfig",
    "ClusterRunResult",
    "ClusterSystem",
    "EdgeMetrics",
    "EdgeReplica",
    "FrameScheduler",
    "ROUTER_POLICIES",
    "StreamRouter",
    "RoundRobinRouter",
    "ConsistentHashRouter",
    "LeastLoadedRouter",
    "HotspotRouter",
    "GeoRouter",
    "MigratingRouter",
    "MigrationTrigger",
    "MigrationRecord",
    "RoutingError",
    "make_router",
    "empty_bank_factory",
    "hotspot_bank_factory",
    "FailureSpec",
    "FailureRecord",
    "ReshardSpec",
    "ReshardRecord",
]
