"""Every registered cluster scenario and sweep cell, pinned by report digest.

A run's report is assembled from what the run kept — migration,
failure, re-sharding and flush records, the sink's frame aggregate —
and a change to how that is kept or reduced must leave every recorded
report byte-identical.  Each registered cluster scenario, each point of
each registered cluster sweep and the open-loop cells the overload
benchmark builds by override run here with ``record_frames=True`` (the
``scale-stress*`` cells at the smoke cell's size), and the
``RunReport.to_dict()`` is hashed the way ``bench/`` hashes a report:
sha256 over the sorted-keys JSON.  This is the one gate on the simulated
metrics of the cluster sweeps; a new registered scenario or sweep cell
without a pin fails a completeness test.  The scenario pins were
captured on the commit whose runner still re-reduced the event log
(e3ee530); the geo sweep cells on the commit whose geo tier was still a
``ClusterSystem`` subclass (19e335c).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments import get_scenario, get_sweep, run
from repro.experiments.registry import list_scenarios, list_sweeps

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


#: Every point of every registered cluster sweep, keyed by sweep name and
#: assignment: the axis value, or the tuple of values when the sweep
#: crosses several axes.  Seeded runs always give the same report, so an
#: exact digest gates every metric of these cells: throughput, queueing,
#: recovery, downtime, replication lag, WAN round trips, F-score, tuner
#: rescores, goodput, shed rate.  Captured at e359a38.
SWEEP_PINS = {
    "cloud-contention": {
        1: "4255a55ea5dee4e3359b700546e36a370a7296f3e6845305f10de340551eb917",
        2: "e5d93a07f361fdb474ab0009f6ebe65a721a47e1e931d3899d18ce78f57a2d1a",
        4: "8c2b1afdc50ab19b026c8e5ff69401ae36101d9453e8be83debf19863ce86e27",
        None: "54f330de53b729e5714a58d031b9592daaeb232323558b946fad56244221b3a5",
    },
    "cluster-scaleout": {
        (1, "round-robin"): "5d3d824365881a664ecd642fbe33d342f0f4204aaad3b355e4f869009ece67d0",
        (1, "hotspot"): "ea6372dd4190d99e85b9609bce0646ab9d1ebbcf760b34c5e84f3cca494722ee",
        (2, "round-robin"): "5f353e5041204b0c0a905106c1d1fa1a373eb850250433eeb7c4b6fea1ebfad0",
        (2, "hotspot"): "3efe51e399e92b7230f4d4c964c69252e0ac5237890fcbf7e75160d7908a567e",
        (4, "round-robin"): "54f330de53b729e5714a58d031b9592daaeb232323558b946fad56244221b3a5",
        (4, "hotspot"): "2acc50379fc4ab1cadf1fc17292165bdb7dfa7d64387472b372d7acd5c10b2d6",
        (8, "round-robin"): "4cbdb8d87176bfd1adb34cae4e5be1586fa8b5215f0aa30822c49cf65297e937",
        (8, "hotspot"): "94e058fedd951b7bdeaed6c48ffd0e9b7823effe3c47896edcd1db975e9b5617",
    },
    "failure-recovery": {
        0.5: "044fbf2eadc6769b6d1249659985c17e598600834770ffe7aa839c31b5d217bd",
        1.0: "4df7fd5f63202581786b0bd8f8f614c5fe7beaeec3b78f0ca0a56686b198215d",
        2.0: "0b4574178f0d6c59e2d755a351a626c7068dcd5349eb790bdd3a4d8a2c727a2a",
        None: "80efb07038b2a24ea72c927acfa7e79b9317893f65751fc671701b5dd4133507",
    },
    "geo-commit-policies": {
        "global-2pc": "30f9279102365de917034c17e4116d3a0d0ffa3cf450faf199600d6a8b4b131e",
        "migrated-2pc": "f70f6badae946499e045aa6226b70a4f8fd3af4a47f3c48c8b1b55a721ba2ab1",
        "async-reconcile": "bf4b20da0f42dc56ce6b537c479919bb20827120205f960c541748179a14eaa4",
    },
    "geo-placement": {
        "static": "bf53956dc3fbcf1ec83b9f9665ea3bd944b6cbfe2dcfe86258e37a4308e69659",
        "dominant-region": "a5772a8ac53820f5435aeb34bb6fab543e1319a54bdaf5b52ca2c7070ee0d1b0",
    },
    "migration-policies": {
        "least-loaded": "184047cf96f86ae6bf2b2df7a16ab0ad7055afae42ac89c261428ac5b17c8b96",
        "migrating": "02ca18413762711918c7a130160ec76db05a6d4ff440505fba634cd52113ac51",
    },
    "overload-control": {
        ("none", None): "486feab85af53e76a1aff307dde0ddd5e6a408d3c62fcf249f15ed6b38907957",
        ("none", 2.0): "1ba56cb7d5457f61b1c3adde30638dad9ef3e63ea68b7aa805421e041c1223b0",
        ("token-bucket", None): "a00bbc6030529b237a194b5143d580ac6ee45fc006259b37c573bcb893d39b50",
        ("token-bucket", 2.0): "76012fc4031dec0506570c762fd6f94f84e4047808385c54c7b62a29c7c88d86",
        ("queue-threshold", None): "c88d85e1e7b5b380c4f4f35145123be8cf8fce02018872ff022a54fa8fc7cd29",
        ("queue-threshold", 2.0): "3e80dd0aed2d7b6613d91cc545028c7ba8d30f9af7fde56b6ca8d283f756db1d",
    },
    "replication-availability": {
        1: "315884c441be7ce2cc1ee516d1c2b4f4ac43033a4f598645e76b596bed29771d",
        2: "c2038b1dfdb23bd9c1eb6851a01661ccfebfaba79dfb3b1b5a780f91f4c4638a",
        3: "01add217865f36b1403db136187734ca333f721dd48c16a878e480aaf4d0a353",
    },
    "replication-modes": {
        "sync": "c2038b1dfdb23bd9c1eb6851a01661ccfebfaba79dfb3b1b5a780f91f4c4638a",
        "quorum": "a40f994186d83ec76abc369e5ae0737fbc4d832689eaee844b5e2a479b9a7d58",
        "async": "e49cb3b0bbe916aafdcd80a1ce81bfa7f0327c145f03b7f12e31481e89a4b3e4",
    },
    "resharding": {
        (): "7164ab917df42fb6b720c13734e942cf085f30ab5997737932286bae2ecaf2af",
        ((2.0, 0, 1),): "0b25da60fb6519319201823ce56e4ad54b1e9d206e024b682cea019ea5ae79ee",
        ((2.0, 0, 1), (3.0, 2, 3)): "093158a77ee904a41f5742c97c09a139c62090f14dc0b1bf72ee42294a03eddb",
    },
    "static-vs-adaptive": {
        None: "a506bb71831fd34f5a07cc8d7cfc2bad896b22ba8a7167dec8d5e7da3f8a2b91",
        "feedback": "d4cf967f167f03e6c5700d122d3678b6ae243b8d136bd4ec0374cd3029c66243",
        "retune": "e43a227cfa2593ca085825fa5de5389b502d848cd7aa68d43fb956621b481b41",
    },
    "sustained-overload": {
        0.5: "442bf79b5a3abbc60ad0b7a7f52e626497dea413b489af271bd397cb818c07d4",
        0.9: "088ceeb303841b11c0b0989dbf5ec5e5b7f8620efdc2958547d7656619f9196d",
        1.5: "2b35bad439a42809b6917622c8be7ceb3b9ec79970d6014c701190169402f297",
        2.2: "3e80dd0aed2d7b6613d91cc545028c7ba8d30f9af7fde56b6ca8d283f756db1d",
    },
    "txn-policies": {
        "immediate-2pc": "54f330de53b729e5714a58d031b9592daaeb232323558b946fad56244221b3a5",
        "batched-2pc": "0678e07d27f9253a2a2bf4a34e20786fbb18a9068c1d58d241c7c4532b645632",
        "async-2pc": "6dc7cff41d14e4c51361c347e86470a21514dfd786374ad8adfff5f87363b7dc",
    },
}
_SWEEP_CELLS = [(sweep, key) for sweep, keys in SWEEP_PINS.items() for key in keys]

#: The open-loop cells the overload benchmark builds by override rather
#: than by sweep: the controlled scenario and the no-control baseline at
#: twice the scenario's horizon.  The baseline at the scenario's own
#: horizon is the ``overload-control`` cell ``("none", None)`` above.
#: Captured at e359a38.
OVERRIDE_PINS = (
    (
        "sustained-overload",
        dict(duration_s=32.0),
        "05d54af6c088db268b22fcdd93fcd580c40a095ab72d790bb7dbd8c976ab1410",
    ),
    (
        "sustained-overload",
        dict(admission="none", apology_budget=None, duration_s=32.0),
        "d28a64f9b19e2132f8756a584faf87f2d79e0ffabf877127a998c5352135cef8",
    ),
)


def _point_key(point: dict):
    """A sweep cell's key in :data:`SWEEP_PINS`."""
    values = tuple(point.values())
    return values if len(values) > 1 else values[0]


def test_every_registered_cluster_sweep_cell_is_pinned():
    cells = set()
    for entry in list_sweeps():
        grid = get_sweep(entry.name)
        if grid.base.deployment == "cluster":
            cells.update((entry.name, _point_key(point)) for point in grid.points())
    assert cells == set(_SWEEP_CELLS)


def _digest(spec) -> str:
    report = run(spec).to_dict()
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(PINS))
def test_recorded_report_digest_is_pinned(name):
    assert _digest(_recorded_spec(name)) == PINS[name]


@pytest.mark.parametrize(
    "sweep, key", _SWEEP_CELLS, ids=[f"{sweep}-{key}" for sweep, key in _SWEEP_CELLS]
)
def test_recorded_sweep_cell_digest_is_pinned(sweep, key):
    grid = get_sweep(sweep)
    (point,) = [candidate for candidate in grid.points() if _point_key(candidate) == key]
    spec = grid.base.with_(**point, record_frames=True)
    assert _digest(spec) == SWEEP_PINS[sweep][key]


@pytest.mark.parametrize(
    "name, overrides, pin",
    OVERRIDE_PINS,
    ids=[f"{name}-{overrides}" for name, overrides, _ in OVERRIDE_PINS],
)
def test_recorded_override_cell_digest_is_pinned(name, overrides, pin):
    assert _digest(get_scenario(name).with_(**overrides, record_frames=True)) == pin
