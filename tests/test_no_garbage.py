"""A run makes no cyclic garbage, which is what licenses suspending the
cycle collector while the engine drains (``core/pipeline.py::drain``).

Every workload shape of the host-time benchmark (``bench/workloads.json``
at smoke size), a content-free ``scale-stress`` cell, a single-edge run
with the feedback loop on and a run with a failure and a promotion are
each swept with ``gc.DEBUG_SAVEALL`` at the instant their engine has
drained, collector still off: nothing unreachable may turn up.  A cycle
that does turn up is to be broken at its source (as
``ClusterSystem._finish_run`` drops ``state.frame_body``), not exempted
here.

The same runs — plus the cluster, geo and single-edge scenarios that
wire every construction-time callback (flush hooks, WAL observers,
commit listeners, server factories) — are swept again once the
deployment itself has been dropped: a system whose callbacks held it
would be cyclic garbage that only a full collection frees.  Callbacks
take what they need, or reach back through a weak reference.

Last, the hand-back: no young pass follows a drain (what the run kept
goes to the oldest generation before the collector is back on), and 40
back-to-back runs in one process peak where one run does.
"""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.pipeline import _gc_suspended, drain
from repro.core.system import CroesusSystem
from repro.experiments import ScenarioSpec, get_scenario, run
from repro.experiments.spec import build_single_config
from repro.sim.engine import Engine
from repro.video.library import make_video

BENCH_WORKLOADS = json.loads(
    (Path(__file__).resolve().parent.parent / "bench" / "workloads.json").read_text()
)["workloads"]
#: ``bench/workloads.py::SMOKE_DIVISOR``.
SMOKE_DIVISOR = 10


def _bench_spec(name: str) -> ScenarioSpec:
    entry = BENCH_WORKLOADS[name]
    spec, size_field = dict(entry["spec"]), entry["size_field"]
    size = spec[size_field] / SMOKE_DIVISOR
    spec[size_field] = max(2, int(size)) if isinstance(spec[size_field], int) else size
    return ScenarioSpec.from_dict(spec)


def _feedback_run():
    spec = get_scenario("fig4-ms-ia").with_(frames=40, seed=11)
    config = build_single_config(spec).with_feedback(True)
    video = make_video(spec.video, num_frames=spec.frames, seed=config.seed)
    return CroesusSystem(config).run(video)


RUNS = {
    **{name: (lambda name=name: run(_bench_spec(name))) for name in BENCH_WORKLOADS},
    "scale-stress": lambda: run(get_scenario("scale-stress-smoke").with_(duration_s=10.0)),
    "enable-feedback": _feedback_run,
    "failure-and-promotion": lambda: run(get_scenario("replicated-failover")),
}


def test_the_bench_workload_set_is_the_one_this_file_was_written_for():
    assert sorted(BENCH_WORKLOADS) == [
        "adaptive-retune",
        "engine-stress",
        "geo-wan",
        "open-loop-overload",
        "single-edge",
        "txn-contention",
    ]


@pytest.fixture
def swept_drains(monkeypatch):
    """Sweep with ``DEBUG_SAVEALL`` the moment an engine has drained.

    That is the moment ``drain`` turns the collector back on: what is
    unreachable then is what the suspension kept the collector from
    freeing.  Yields one ``Counter`` of garbage types per drain.
    """
    swept: list[Counter] = []
    drain_engine = Engine.run

    def run_then_sweep(engine, until=None):
        makespan = drain_engine(engine, until)
        assert not gc.isenabled()  # both deployments drain through ``drain``
        flags = gc.get_debug()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            swept.append(Counter(type(item).__name__ for item in gc.garbage))
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        return makespan

    monkeypatch.setattr(Engine, "run", run_then_sweep)
    was_enabled = gc.isenabled()
    gc.enable()
    gc.collect()  # whatever earlier tests left behind is not this run's
    yield swept
    if not was_enabled:
        gc.disable()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_run_leaves_nothing_for_the_cycle_collector(name, swept_drains):
    result = RUNS[name]()
    assert result is not None
    assert len(swept_drains) == 1
    assert not swept_drains[0], swept_drains[0].most_common(12)
    assert gc.isenabled()
    if name == "failure-and-promotion":
        assert result.promotions >= 1 and result.failure_events


#: Runs whose deployment is swept after it is dropped: every drained run
#: above, and the shapes that wire the remaining construction callbacks.
DROPPED = {
    **RUNS,
    "cluster-small": lambda: run(get_scenario("cluster-small")),
    "cluster-batched-2pc": lambda: run(get_scenario("cluster-batched-2pc")),
    "geo-baseline": lambda: run(get_scenario("geo-baseline")),
    "geo-async-dominant-region": lambda: run(
        get_scenario("geo-baseline").with_(
            frames=10, cross_region_policy="async-reconcile", placement="dominant-region"
        )
    ),
    "failback-group-commit": lambda: run(
        get_scenario("failure-recovery").with_(failback=True, wal_group_commit_window_ms=5.0)
    ),
}


@pytest.mark.parametrize("name", sorted(DROPPED))
def test_a_dropped_system_leaves_nothing_for_the_cycle_collector(name):
    DROPPED[name]()  # first use of a code path may import (and leave cycles)
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()  # nothing may be collected before the sweep sees it
    flags = gc.get_debug()
    try:
        assert DROPPED[name]() is not None  # the system is built, run and dropped
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        garbage = Counter(type(item).__name__ for item in gc.garbage)
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert not garbage, garbage.most_common(12)


def test_the_sweep_sees_a_cycle_made_while_draining(swept_drains):
    def make_cycle():
        loop = []
        loop.append(loop)

    engine = Engine()
    engine.schedule(1.0, make_cycle)
    drain(engine)
    assert swept_drains == [Counter({"list": 1})]


# -- the suspension itself -------------------------------------------------------------
@pytest.fixture
def collector_on():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    (gc.enable if was_enabled else gc.disable)()


def test_the_collector_is_off_while_the_engine_drains_and_back_on_after(collector_on):
    engine, seen = Engine(), []
    engine.schedule(1.0, lambda: seen.append(gc.isenabled()))
    assert drain(engine) == 1.0
    assert seen == [False]
    assert gc.isenabled()


def test_suspension_is_reentrant(collector_on):
    with _gc_suspended():
        with _gc_suspended():
            assert not gc.isenabled()
        assert not gc.isenabled()  # the inner exit leaves the outer suspension in force
    assert gc.isenabled()


def test_suspension_ends_when_the_run_raises(collector_on):
    engine = Engine()

    def boom():
        raise RuntimeError("boom")

    engine.schedule(1.0, boom)
    with pytest.raises(RuntimeError):
        drain(engine)
    assert gc.isenabled()


@pytest.fixture
def passes_after_drain(monkeypatch, collector_on):
    """Count collector passes, in all and from the moment an engine drained."""
    counts = {"all": 0, "after_drain": 0}
    drained = [False]
    drain_engine = Engine.run

    def run_then_mark(engine, until=None):
        makespan = drain_engine(engine, until)
        drained[0] = True
        return makespan

    def count(phase, info):
        if phase == "start":
            counts["all"] += 1
            counts["after_drain"] += drained[0]

    monkeypatch.setattr(Engine, "run", run_then_mark)
    gc.callbacks.append(count)
    yield counts, drained
    gc.callbacks.remove(count)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_no_young_pass_follows_the_drain(name, passes_after_drain):
    """The suspension hands what a run kept to the oldest generation before
    the collector is back on, so the first allocation after the drain
    starts no young pass over it (it found nothing, see above)."""
    counts, drained = passes_after_drain
    RUNS[name]()  # warm-up: a code path's first use may import modules
    gc.collect()
    counts.update(all=0, after_drain=0)
    drained[0] = False
    assert RUNS[name]() is not None
    assert drained[0]
    assert counts["after_drain"] == 0
    if name == "single-edge":  # a timed recording run collects nothing at all
        assert counts["all"] == 0


#: 40 back-to-back ``replicated-failover`` runs in one fresh interpreter:
#: peak RSS after the first run and after the last, in MiB.
_BACK_TO_BACK = """
import resource
from repro.experiments import get_scenario, run
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
run(get_scenario("replicated-failover"))
first = peak()
for _ in range(39):
    run(get_scenario("replicated-failover"))
print(first, peak())
"""


def test_back_to_back_runs_do_not_grow_the_peak():
    """What a run leaves is freed by reference counting, not by a collector
    pass that the oldest generation might wait for: 40 runs in one process
    peak within a few MiB of one run (45 MiB against 44 on CPython 3.11,
    Linux x86-64; a system kept alive by a cycle until a full pass reached
    83-89 MiB)."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    output = subprocess.run(
        [sys.executable, "-c", _BACK_TO_BACK], env=env, capture_output=True, text=True, check=True
    ).stdout
    first, last = map(float, output.split())
    assert last - first < 6.0, (first, last)


def test_a_collector_the_caller_turned_off_stays_off(collector_on):
    gc.disable()
    engine = Engine()
    engine.schedule(1.0, lambda: None)
    drain(engine)
    assert not gc.isenabled()
    with pytest.raises(RuntimeError), _gc_suspended():
        raise RuntimeError("boom")
    assert not gc.isenabled()
