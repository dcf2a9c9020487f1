"""Every registered cluster scenario's recorded report, pinned by digest.

A run's report is assembled from what the run kept — migration,
failure, re-sharding and flush records, the sink's frame aggregate —
and a change to how that is kept or reduced must leave every recorded
report byte-identical.  Each registered cluster scenario runs here with
``record_frames=True`` (the ``scale-stress*`` cells at the smoke cell's
size) and its ``RunReport.to_dict()`` is hashed the way ``bench/``
hashes a report: sha256 over the sorted-keys JSON.  The pins were
captured on the commit whose runner still re-reduced the event log
(e3ee530); the geo sweep cells on the commit whose geo tier was still a
``ClusterSystem`` subclass (19e335c).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import get_scenario, get_sweep, run
from repro.experiments.registry import list_scenarios

#: The smoke cell's size, applied to every ``scale-stress*`` scenario.
SMOKE_SIZE = dict(offered_rate=11.0, duration_s=40.0, num_edges=20)

PINS = {
    "adaptive-thresholds": "e43a227cfa2593ca085825fa5de5389b502d848cd7aa68d43fb956621b481b41",
    "cluster-batched-2pc": "0678e07d27f9253a2a2bf4a34e20786fbb18a9068c1d58d241c7c4532b645632",
    "cluster-finite-cloud": "e5d93a07f361fdb474ab0009f6ebe65a721a47e1e931d3899d18ce78f57a2d1a",
    "cluster-hotspot": "2acc50379fc4ab1cadf1fc17292165bdb7dfa7d64387472b372d7acd5c10b2d6",
    "cluster-migration": "02ca18413762711918c7a130160ec76db05a6d4ff440505fba634cd52113ac51",
    "cluster-priority": "417c123f73b8be15310153f89cd5fa420d830e624c7b5a44acb85daa0d67338d",
    "cluster-small": "0eb5f922dc0b2702054c81fd113be0221112c2d7aeacb61ba2bcd77b95db9763",
    "cluster-uniform": "54f330de53b729e5714a58d031b9592daaeb232323558b946fad56244221b3a5",
    "diurnal": "8c0e8a982d77febc31ea104b215a6f31a20c6806c614488165939bb9eee37ada",
    "failure-recovery": "4df7fd5f63202581786b0bd8f8f614c5fe7beaeec3b78f0ca0a56686b198215d",
    "flash-crowd": "d12347c5ea31ebd3e07d9fc9236eafff68689123f4a41ff8619c86bad57c9ceb",
    "geo-baseline": "30f9279102365de917034c17e4116d3a0d0ffa3cf450faf199600d6a8b4b131e",
    "replicated-failover": "2d32be570d8e0e9fab16d7caa4b1a39bf4f3a6eb67e999d8c7663885e387896b",
    "resharding": "0b25da60fb6519319201823ce56e4ad54b1e9d206e024b682cea019ea5ae79ee",
    "scale-stress": "759b137b0019591241ebd6531a8cb7d65e36c54a82a60356c2721a2de5ab16b7",
    "scale-stress-reference": "88a2112bcdb433358280e8a72c0eb6f923966d6c21f4aa563b7524913d001335",
    "scale-stress-smoke": "759b137b0019591241ebd6531a8cb7d65e36c54a82a60356c2721a2de5ab16b7",
    "sustained-overload": "3e80dd0aed2d7b6613d91cc545028c7ba8d30f9af7fde56b6ca8d283f756db1d",
}


def _recorded_spec(name: str):
    spec = get_scenario(name)
    if name.startswith("scale-stress"):
        spec = spec.with_(**SMOKE_SIZE)
    return spec.with_(record_frames=True)


def test_every_registered_cluster_scenario_is_pinned():
    cluster = {
        entry.name
        for entry in list_scenarios()
        if get_scenario(entry.name).deployment == "cluster"
    }
    assert cluster == set(PINS)


#: Registered sweep cells on paths no scenario above reaches: coordinator
#: handoffs, reconciliation apologies, four single-edge regions and
#: dominant-region partition moves.
SWEEP_PINS = {
    ("geo-commit-policies", "migrated-2pc"): (
        "f70f6badae946499e045aa6226b70a4f8fd3af4a47f3c48c8b1b55a721ba2ab1"
    ),
    ("geo-commit-policies", "async-reconcile"): (
        "bf4b20da0f42dc56ce6b537c479919bb20827120205f960c541748179a14eaa4"
    ),
    ("geo-placement", "static"): (
        "bf53956dc3fbcf1ec83b9f9665ea3bd944b6cbfe2dcfe86258e37a4308e69659"
    ),
    ("geo-placement", "dominant-region"): (
        "a5772a8ac53820f5435aeb34bb6fab543e1319a54bdaf5b52ca2c7070ee0d1b0"
    ),
}


def _digest(spec) -> str:
    report = run(spec).to_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_recorded_report_digest_is_pinned(name):
    assert _digest(_recorded_spec(name)) == PINS[name]


@pytest.mark.parametrize("sweep, value", sorted(SWEEP_PINS))
def test_recorded_sweep_cell_digest_is_pinned(sweep, value):
    grid = get_sweep(sweep)
    (axis,) = grid.axes
    assert value in axis.values
    spec = grid.base.with_(**{axis.field: value}, record_frames=True)
    assert _digest(spec) == SWEEP_PINS[sweep, value]
