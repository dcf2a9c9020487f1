"""The traffic source: an engine process minting streams at runtime.

:class:`TrafficSource` ties the pieces of the subsystem together: an
arrival process (:mod:`repro.traffic.arrivals`) decides *when* streams
arrive, a stream-length distribution decides *how much* work each one
carries, and the video library decides *what* the frames look like.  The
source runs as one process on the discrete-event engine and hands each
arriving stream to a sink callback — the deployment (single-edge or
cluster) owns admission, placement and frame execution.

Determinism: arrivals and lengths draw from dedicated named RNG streams
(``"traffic-arrivals"``, ``"traffic-lengths"``) and every minted video
from its own per-index stream, so open-loop runs are bit-for-bit
reproducible and — because the names are new — adding the subsystem
never perturbs the seeded draws of existing closed-loop runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.sim.rng import RngRegistry
from repro.traffic.admission import ADMISSION_POLICIES
from repro.traffic.arrivals import (
    ARRIVAL_PROCESSES,
    STREAM_LENGTHS,
    ArrivalProcess,
    make_rate_curve,
    sample_stream_length,
)
from repro.video.library import VIDEO_LIBRARY, make_video
from repro.video.synthetic import SyntheticVideo

#: Video presets cycled over arriving streams, like make_camera_streams.
DEFAULT_VIDEO_KEYS = ("v1", "v2", "v3", "v4", "v5")


@dataclass(frozen=True)
class TrafficConfig:
    """Everything that defines one open-loop traffic run.

    Attributes
    ----------
    process:
        Arrival process (see :data:`~repro.traffic.arrivals.ARRIVAL_PROCESSES`).
    offered_rate:
        Time-averaged stream arrivals per second over the horizon.
    duration_s:
        Source horizon: no new stream arrives at or after this instant
        (stop-at-time); streams admitted earlier run to completion.
    peak_factor:
        Peak-to-mean ratio of the shaped curves (diurnal, flash-crowd).
    stream_length:
        Stream-length distribution (see
        :data:`~repro.traffic.arrivals.STREAM_LENGTHS`).
    mean_frames:
        Mean frames per arriving stream.
    frame_interval:
        Seconds between consecutive frames of one stream.
    admission:
        Admission-control policy applied per arriving stream.
    admission_rate:
        Token refill rate (streams/second) of the token-bucket policy.
    shed_threshold:
        Edge load at or above which frames become shed candidates.
    apology_budget:
        Apologies per second the shedder may spend; ``None`` disables
        shedding entirely (the no-control baseline).
    video_keys:
        Video presets cycled over arriving streams.
    """

    process: str = "poisson"
    offered_rate: float = 1.0
    duration_s: float = 8.0
    peak_factor: float = 4.0
    stream_length: str = "fixed"
    mean_frames: int = 10
    frame_interval: float = 1.0 / 30.0
    admission: str = "none"
    admission_rate: float = 1.0
    shed_threshold: float = 0.9
    apology_budget: float | None = None
    video_keys: Sequence[str] = DEFAULT_VIDEO_KEYS

    def __post_init__(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            known = ", ".join(ARRIVAL_PROCESSES)
            raise ValueError(f"unknown traffic process {self.process!r}; known processes: {known}")
        if not self.offered_rate > 0:  # NaN included
            raise ValueError(f"offered_rate must be positive, got {self.offered_rate}")
        if not 0 < self.duration_s < math.inf:
            raise ValueError(f"duration_s must be positive and finite, got {self.duration_s}")
        if not self.peak_factor >= 1.0:
            raise ValueError(f"peak_factor must be >= 1, got {self.peak_factor}")
        if self.stream_length not in STREAM_LENGTHS:
            known = ", ".join(STREAM_LENGTHS)
            raise ValueError(
                f"unknown stream_length {self.stream_length!r}; known: {known}"
            )
        if self.mean_frames < 1:
            raise ValueError(f"mean_frames must be at least 1, got {self.mean_frames}")
        if not self.frame_interval > 0:
            raise ValueError("frame_interval must be positive")
        if self.admission not in ADMISSION_POLICIES:
            known = ", ".join(ADMISSION_POLICIES)
            raise ValueError(
                f"unknown admission policy {self.admission!r}; known policies: {known}"
            )
        if not self.admission_rate > 0:
            raise ValueError(f"admission_rate must be positive, got {self.admission_rate}")
        if not 0.0 < self.shed_threshold <= 1.0:
            raise ValueError(
                f"shed_threshold must be in (0, 1], got {self.shed_threshold}"
            )
        if self.apology_budget is not None and not self.apology_budget > 0:
            raise ValueError(
                f"apology_budget must be positive (or None), got {self.apology_budget}"
            )
        if not self.video_keys:
            raise ValueError("need at least one video key")


@dataclass
class TrafficStats:
    """Offered/admitted/shed accounting of one open-loop run.

    ``offered`` counts everything the arrival process produced,
    ``admitted`` what passed admission control, ``shed`` the admitted
    frames degraded to an apology, and ``completed`` the frames that ran
    the full two-stage flow — the goodput numerator.
    """

    offered_streams: int = 0
    admitted_streams: int = 0
    rejected_streams: int = 0
    offered_frames: int = 0
    admitted_frames: int = 0
    shed_frames: int = 0
    completed_frames: int = 0
    apologies_spent: int = 0

    @property
    def shed_rate(self) -> float:
        """Fraction of admitted frames shed instead of served."""
        if not self.admitted_frames:
            return 0.0
        return self.shed_frames / self.admitted_frames

    @property
    def rejection_rate(self) -> float:
        """Fraction of offered streams turned away at admission."""
        if not self.offered_streams:
            return 0.0
        return self.rejected_streams / self.offered_streams


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of ``values``."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


#: Handed to every static (content-free) video in place of a per-stream
#: RNG mint; such videos never draw, so one shared generator is safe.
_NEVER_DRAWN_RNG = np.random.default_rng(0)


class TrafficSource:
    """Mints camera streams according to a :class:`TrafficConfig`.

    One source instance describes one run; :meth:`drive` is the engine
    process that delivers each stream to the deployment's sink at its
    arrival instant.
    """

    def __init__(self, config: TrafficConfig, rngs: RngRegistry) -> None:
        self.config = config
        self._rngs = rngs
        self.curve = make_rate_curve(
            config.process, config.offered_rate, config.peak_factor, config.duration_s
        )
        self._arrivals = ArrivalProcess(self.curve, rngs.stream("traffic-arrivals"))
        self._length_rng = rngs.stream("traffic-lengths")

    def streams(self) -> Iterator[tuple[float, SyntheticVideo]]:
        """Lazy ``(arrival_time, video)`` pairs over the horizon.

        Stream ``index`` plays preset ``video_keys[index % len(keys)]``
        from its own RNG stream (``"traffic-video-{index}"``) and is
        named ``"open{index}-{key}"``, mirroring the closed-loop camera
        naming so per-stream results read the same way.
        """
        keys = self.config.video_keys
        # A static preset never draws from its video RNG, so every such
        # stream shares one never-drawn generator instead of minting its
        # own stream — at ~10⁵ streams per scale-stress run the
        # SeedSequence spawns would otherwise dominate stream setup.
        # Stream RNG names are derived independently per name, so
        # skipping a mint leaves every other stream's draws untouched.
        static_key = {key: VIDEO_LIBRARY[key].is_static for key in keys}
        num_keys = len(keys)
        for index, arrival_time in enumerate(self._arrivals.arrivals(self.config.duration_s)):
            frames = sample_stream_length(
                self.config.stream_length, self.config.mean_frames, self._length_rng
            )
            key = keys[index % num_keys]
            video = make_video(
                key,
                num_frames=frames,
                rng=_NEVER_DRAWN_RNG
                if static_key[key]
                else self._rngs.stream(f"traffic-video-{index}"),
            )
            video.name = f"open{index}-{key}"
            yield arrival_time, video

    def drive(self, engine, deliver: Callable[[SyntheticVideo], None]):
        """Engine process: deliver each arriving stream at its instant.

        ``deliver`` owns everything past the arrival itself — admission,
        placement, and spawning the stream's frame processes.
        """
        for arrival_time, video in self.streams():
            yield engine.at(arrival_time)
            deliver(video)
