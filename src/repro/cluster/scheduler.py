"""Frame arrival timing: when each stream's frames reach the cluster.

Many camera streams feed one cluster concurrently; each captures a frame
every ``frame_interval`` seconds.  The scheduler is the single owner of
that arithmetic: where a closed-loop stream starts (phase-shifted so
streams do not tick in lockstep) and when each of its frames arrives.
Each stream's arrival driver asks :meth:`FrameScheduler.arrival_time`
for one frame at a time and starts one engine process per frame at its
arrival instant; merging all streams into one global timeline is the
event heap's job, and the per-edge queueing is modelled by the engine's
finite-capacity :class:`~repro.sim.engine.Server` resources.
"""

from __future__ import annotations


class FrameScheduler:
    """Arrival instants of every stream's frames."""

    def __init__(self, frame_interval: float = 1.0 / 30.0) -> None:
        if frame_interval <= 0:
            raise ValueError("frame_interval must be positive")
        self.frame_interval = float(frame_interval)

    def phase_offsets(self, num_streams: int) -> list[float]:
        """Start instants of ``num_streams`` closed-loop streams.

        Stream ``i`` starts at ``i * frame_interval / num_streams``; the
        phase offset staggers the streams so arrivals alternate instead
        of colliding on the same instant.  Open-loop streams need none —
        they start at their own admission instant, and the arrival
        process already staggers them in time.
        """
        return [index * self.frame_interval / num_streams for index in range(num_streams)]

    def arrival_time(self, start: float, frame_id: int) -> float:
        """Instant frame ``frame_id`` of a stream that began at ``start`` arrives."""
        return start + frame_id * self.frame_interval
