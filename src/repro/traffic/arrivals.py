"""Arrival processes: open-loop stream arrivals with shaped rate curves.

The closed-loop experiments hand the cluster a finite list of streams and
wait for it to drain.  Open-loop traffic inverts that: an arrival process
keeps minting new camera streams at a rate that does not care whether the
system keeps up — the "heavy traffic from millions of users" regime the
paper's motivation describes.  This module provides the *time* side of
that: seeded Poisson arrivals, optionally modulated by a deterministic
rate curve (diurnal wave, flash-crowd spike, piecewise trace).

Non-homogeneous processes are sampled by thinning: candidate arrivals are
drawn from a homogeneous Poisson process at the curve's peak rate and
each candidate at time ``t`` is kept with probability ``rate(t)/peak``.
Thinning is exact and — because both the candidate gaps and the accept
draws come from one seeded generator — fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

#: Arrival-process names accepted by the spec/CLI layer.
ARRIVAL_PROCESSES = ("poisson", "diurnal", "flash-crowd", "trace")

#: Stream-length distribution names (heterogeneous stream lengths).
STREAM_LENGTHS = ("fixed", "geometric", "uniform")


@dataclass(frozen=True)
class ConstantRate:
    """Homogeneous rate: a plain Poisson process."""

    value: float

    def __post_init__(self) -> None:
        if self.value <= 0:
            raise ValueError(f"rate must be positive, got {self.value}")

    @property
    def peak(self) -> float:
        return self.value

    def rate(self, t: float) -> float:
        return self.value


@dataclass(frozen=True)
class DiurnalRate:
    """A day-shaped sinusoid between ``base`` and ``peak_rate``.

    ``rate(t) = base + (peak - base) * (1 - cos(2*pi*t/period)) / 2``:
    the curve starts the "day" at its quietest, peaks at ``period/2``
    and returns to base — the classic diurnal wave, compressed to a
    simulable period.
    """

    base: float
    peak_rate: float
    period_s: float

    def __post_init__(self) -> None:
        if self.base <= 0 or self.peak_rate < self.base:
            raise ValueError(
                f"need 0 < base <= peak_rate, got ({self.base}, {self.peak_rate})"
            )
        if self.period_s <= 0:
            raise ValueError("period_s must be positive")

    @property
    def peak(self) -> float:
        return self.peak_rate

    def rate(self, t: float) -> float:
        swing = (self.peak_rate - self.base) / 2.0
        return self.base + swing * (1.0 - math.cos(2.0 * math.pi * t / self.period_s))


@dataclass(frozen=True)
class FlashCrowdRate:
    """A baseline rate with one spike: ramp up, hold, ramp down.

    Models a flash crowd (a stadium emptying, a viral event): the rate
    climbs linearly from ``base`` to ``peak_rate`` over ``ramp_s``
    starting at ``spike_at``, holds the peak for ``hold_s``, then ramps
    back down over another ``ramp_s``.
    """

    base: float
    peak_rate: float
    spike_at: float
    ramp_s: float
    hold_s: float

    def __post_init__(self) -> None:
        if self.base <= 0 or self.peak_rate < self.base:
            raise ValueError(
                f"need 0 < base <= peak_rate, got ({self.base}, {self.peak_rate})"
            )
        if self.spike_at < 0 or self.ramp_s <= 0 or self.hold_s < 0:
            raise ValueError("spike_at/hold_s must be >= 0 and ramp_s > 0")

    @property
    def peak(self) -> float:
        return self.peak_rate

    def rate(self, t: float) -> float:
        rise_end = self.spike_at + self.ramp_s
        hold_end = rise_end + self.hold_s
        fall_end = hold_end + self.ramp_s
        if t < self.spike_at or t >= fall_end:
            return self.base
        if t < rise_end:
            fraction = (t - self.spike_at) / self.ramp_s
        elif t < hold_end:
            fraction = 1.0
        else:
            fraction = (fall_end - t) / self.ramp_s
        return self.base + (self.peak_rate - self.base) * fraction


@dataclass(frozen=True)
class TraceRate:
    """Piecewise-linear rate interpolated over ``(time, rate)`` points.

    Replays a measured load trace (or any hand-drawn shape): between two
    points the rate interpolates linearly; before the first and after the
    last point it holds flat.
    """

    points: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a trace needs at least two (time, rate) points")
        times = [time for time, _ in self.points]
        if times != sorted(times):
            raise ValueError("trace points must be sorted by time")
        if any(rate <= 0 for _, rate in self.points):
            raise ValueError("trace rates must be positive")

    @property
    def peak(self) -> float:
        return max(rate for _, rate in self.points)

    def rate(self, t: float) -> float:
        if t <= self.points[0][0]:
            return self.points[0][1]
        if t >= self.points[-1][0]:
            return self.points[-1][1]
        for (t0, r0), (t1, r1) in zip(self.points, self.points[1:]):
            if t0 <= t <= t1:
                if t1 == t0:
                    return r1
                return r0 + (r1 - r0) * (t - t0) / (t1 - t0)
        return self.points[-1][1]  # pragma: no cover - unreachable


#: Normalised day-like shape replayed by the ``"trace"`` process: times
#: are fractions of the horizon, rates are multiples of the offered rate.
TRACE_SHAPE: tuple[tuple[float, float], ...] = (
    (0.0, 0.4),
    (0.25, 1.3),
    (0.5, 0.7),
    (0.75, 1.6),
    (1.0, 0.5),
)


def make_rate_curve(
    process: str,
    offered_rate: float,
    peak_factor: float,
    duration_s: float,
):
    """Build the rate curve behind one of the named arrival processes.

    Every curve is scaled so its *time-averaged* rate over the horizon is
    approximately ``offered_rate`` — sweeping the offered load moves the
    whole curve, while ``peak_factor`` controls how spiky it is.
    """
    if process not in ARRIVAL_PROCESSES:
        known = ", ".join(ARRIVAL_PROCESSES)
        raise ValueError(f"unknown arrival process {process!r}; known: {known}")
    if offered_rate <= 0:
        raise ValueError(f"offered_rate must be positive, got {offered_rate}")
    if peak_factor < 1.0:
        raise ValueError(f"peak_factor must be >= 1, got {peak_factor}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")

    if process == "poisson":
        return ConstantRate(offered_rate)
    if process == "diurnal":
        # Mean of the sinusoid is (base + peak) / 2 == offered_rate.
        base = 2.0 * offered_rate / (1.0 + peak_factor)
        return DiurnalRate(base=base, peak_rate=base * peak_factor, period_s=duration_s)
    if process == "flash-crowd":
        # The spike (two ramps averaging peak/2 plus the hold) adds
        # (peak - base) * (ramp + hold) of extra area; with ramp = d/12
        # and hold = d/6 that is (peak - base) * d/4, so scaling base to
        # 4*offered / (3 + peak_factor) makes the time average exactly
        # ``offered_rate``.
        base = 4.0 * offered_rate / (3.0 + peak_factor)
        return FlashCrowdRate(
            base=base,
            peak_rate=base * peak_factor,
            spike_at=duration_s / 3.0,
            ramp_s=duration_s / 12.0,
            hold_s=duration_s / 6.0,
        )
    # "trace": replay the normalised shape scaled to this run.
    points = tuple(
        (fraction * duration_s, multiple * offered_rate)
        for fraction, multiple in TRACE_SHAPE
    )
    return TraceRate(points)


class ArrivalProcess:
    """Seeded (possibly non-homogeneous) Poisson arrivals by thinning."""

    def __init__(self, curve, rng: np.random.Generator) -> None:
        self.curve = curve
        self._rng = rng

    def arrivals(self, horizon: float) -> Iterator[float]:
        """Arrival instants in ``[0, horizon)``, drawn lazily in order."""
        if horizon <= 0:
            return
        peak = self.curve.peak
        t = 0.0
        while True:
            t += float(self._rng.exponential(1.0 / peak))
            if t >= horizon:
                return
            if float(self._rng.random()) * peak <= self.curve.rate(t):
                yield t


def sample_stream_length(
    distribution: str, mean_frames: int, rng: np.random.Generator
) -> int:
    """Frames of one arriving stream (heterogeneous stream lengths).

    ``"fixed"`` always returns ``mean_frames``; ``"geometric"`` draws a
    memoryless length with that mean (many short streams, a heavy tail of
    long ones); ``"uniform"`` draws uniformly on ``[1, 2*mean - 1]``.
    Every distribution returns at least one frame.
    """
    if distribution not in STREAM_LENGTHS:
        known = ", ".join(STREAM_LENGTHS)
        raise ValueError(f"unknown stream_length {distribution!r}; known: {known}")
    if mean_frames < 1:
        raise ValueError(f"mean_frames must be at least 1, got {mean_frames}")
    if distribution == "fixed":
        return mean_frames
    if distribution == "geometric":
        return max(1, int(rng.geometric(1.0 / mean_frames)))
    return int(rng.integers(1, 2 * mean_frames))

