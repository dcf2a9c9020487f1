"""Geo-hierarchical deployment: one cluster's edges split into regions.

This package is the geo tier that :mod:`repro.cluster` plugs in when
``ClusterConfig.geo.regions > 1`` (it imports nothing from
:mod:`repro.cluster`): the cluster groups its edges into regions under
one discrete-event engine, connects them with the seeded WAN channel mesh
of :class:`~repro.geo.wan.WanFabric` (multi-hop
:class:`~repro.network.topology.NetworkPath` routes), and builds one
:class:`GeoTier` per run, which models the cross-region commit variants
of :data:`~repro.geo.wan.CROSS_REGION_POLICIES` and decides
dominant-region partition placement.
"""

from repro.geo.placement import PlacementTracker
from repro.geo.reconcile import Reconciler, ShipStamp, WriteShip
from repro.geo.system import GeoConfig, GeoTier
from repro.geo.wan import (
    CROSS_REGION_POLICIES,
    PLACEMENTS,
    WRITE_SET_MESSAGE_BYTES,
    WanFabric,
)

__all__ = [
    "CROSS_REGION_POLICIES",
    "PLACEMENTS",
    "WRITE_SET_MESSAGE_BYTES",
    "GeoConfig",
    "GeoTier",
    "PlacementTracker",
    "Reconciler",
    "ShipStamp",
    "WanFabric",
    "WriteShip",
]
