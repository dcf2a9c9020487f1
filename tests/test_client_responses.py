"""What the client saw, kept once.

The client displays each frame's initial and final responses (§3.3.1).
A run renders them only to a :class:`~repro.core.client.Client` its
caller passed (``CroesusSystem.run(video, client=...)``); without one
nothing could read them, so none is built.  This file holds that to:

* **no client, no response** — a single-edge run and a recorded cluster
  run (open loop, with shed frames) construct no ``ClientResponse`` and
  no ``Client``;
* **pin** — the responses a supplied client receives on the five pinned
  single-edge runs of ``tests/test_single_pipeline.py``: a sha256 over
  every ``(frame_id, stage, payload, apologies, timestamp)``, captured
  while every run still built a client of its own;
* **shed** — ``TraceSink.shed`` renders the shed apology to a supplied
  client, and nothing without one;
* **peak** — a ceiling on the tracemalloc peak of a recorded
  ``fig4-ms-sr`` run per frame (responses built for no reader, and a
  third packed copy of each validated view, used to set it).

CI runs this file under two ``PYTHONHASHSEED`` values: a response's
payload holds the dicts its transactions returned.
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc

import pytest
from test_single_pipeline import RUNS, _drive

from helpers import count_constructions
from repro.core.client import Client, ClientResponse
from repro.core.pipeline import TraceSink
from repro.core.system import CroesusSystem
from repro.experiments import get_scenario, run
from repro.experiments.spec import build_single_config
from repro.traffic.shedding import SHED_APOLOGY
from repro.video.library import make_video


# -- no client, no response ------------------------------------------------------
@pytest.mark.parametrize(
    "spec",
    [
        get_scenario("fig4-ms-sr"),
        get_scenario("sustained-overload").with_(duration_s=4.0, record_frames=True),
    ],
    ids=["single-edge", "recorded-open-loop-cluster"],
)
def test_a_run_without_a_client_builds_no_response(spec, monkeypatch):
    built = count_constructions(monkeypatch, ClientResponse, Client)
    report = run(spec).to_dict()
    assert built == {"ClientResponse": 0, "Client": 0}
    assert report["frames"] > 0
    if spec.deployment == "cluster":
        assert report["traffic"]["shed_frames"] > 0  # the shed path ran too


# -- what a supplied client receives ---------------------------------------------
#: name -> sha256 of every response the run's client received, captured
#: at the commit before responses were rendered only to a supplied client.
RESPONSE_PINS = {
    "async-2pc-ms-sr": "94eed1b254b419e6f6fcaa799990ad4c4bf072b0dc2077ec7106a57e7cbb67db",
    "batched-2pc": "fec6ccdadaad9d2da9378eed4f3eddacf40cb5b468aad66c4888b0b80837168a",
    "enable-feedback": "de3de01b17d1d22de9c6b65b8be536c3782d8afeb5ef57e5d3595de94220247c",
    "fig4-ms-ia": "6e616252a8255bb8fd745d37c3e36f3529f11ebbf6298856b085fa0cdcc2b95e",
    "fig4-ms-sr": "6e616252a8255bb8fd745d37c3e36f3529f11ebbf6298856b085fa0cdcc2b95e",
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_a_supplied_client_receives_the_pinned_responses(name):
    spec, feedback = RUNS[name]
    _, client, result = _drive(spec, feedback)
    responses = client.responses
    assert len(responses) == 2 * result.num_frames
    assert any(response.payload for response in responses)
    assert any(response.apologies for response in responses)
    digest = hashlib.sha256(
        repr(
            [
                (r.frame_id, r.stage, r.payload, r.apologies, r.timestamp)
                for r in responses
            ]
        ).encode()
    ).hexdigest()
    assert digest == RESPONSE_PINS[name]


def test_a_shed_frame_renders_its_apology_only_to_a_supplied_client(monkeypatch):
    sink = TraceSink("croesus-cluster")
    video = make_video("v1", num_frames=3, seed=1)
    client = Client(video)
    sink.open(video, client)
    sink.shed(video.name, 2, 1.25)
    assert client.responses == (
        ClientResponse(2, "final", None, apologies=(SHED_APOLOGY,), timestamp=1.25),
    )

    built = count_constructions(monkeypatch, ClientResponse)
    unobserved = make_video("v2", num_frames=3, seed=1)
    sink.open(unobserved)
    sink.shed(unobserved.name, 0, 0.5)
    assert built == {"ClientResponse": 0}
    assert len(client.responses) == 1


# -- what a recorded run peaks at ------------------------------------------------
#: Traced peak of a recorded ``fig4-ms-sr`` run per frame, in bytes, with
#: the system and result kept (tracemalloc): 10,544 when every run built
#: two responses per frame for a client nothing read and packed each
#: validated view as a third label row, 6,400 with responses only for a
#: supplied client and the view kept as picks into ``Le`` / ``Lc``.  The
#: ceiling keeps the retained-bytes-per-operation guard's headroom ratio
#: (330 / 253.2).
PEAK_BYTES_PER_FRAME_CEILING = 8340


def _run_single(spec):
    config = build_single_config(spec)
    system = CroesusSystem(config)
    return system, system.run(make_video(spec.video, num_frames=spec.frames, seed=config.seed))


def test_a_recorded_run_peaks_low_per_frame():
    spec = get_scenario("fig4-ms-sr")
    _run_single(spec)  # first use: imports, memo tables, payloads
    gc.collect()
    started = not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        system, result = _run_single(spec)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert result.num_frames == spec.frames == 80
    assert peak / spec.frames < PEAK_BYTES_PER_FRAME_CEILING
