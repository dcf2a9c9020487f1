"""Channels: links plus bandwidth accounting.

A :class:`Channel` wraps a :class:`~repro.network.latency.LinkProfile`
and records every transfer so that experiments can report edge-cloud
bandwidth utilisation (BU) and total bytes moved — the monetary-cost
proxy the paper discusses in §3.4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.network.latency import LinkProfile


@dataclass(frozen=True)
class TransferRecord:
    """One completed transfer over a channel."""

    timestamp: float
    size_bytes: int
    duration: float
    description: str


class Channel:
    """A unidirectional link with transfer accounting.

    ``record_transfers=False`` keeps only the scalar totals
    (:attr:`total_bytes`, :attr:`transfer_count`) and skips the per-call
    rows — the fast-path configuration, where a million frames would
    otherwise accrete a million rows per link.  The totals stay exact
    either way.

    A recorded transfer is four slots of one flat list — ``timestamp,
    size_bytes, duration, description`` — so :meth:`send` builds no
    object; :attr:`transfers` renders each as a :class:`TransferRecord`.
    """

    def __init__(
        self,
        profile: LinkProfile,
        rng: np.random.Generator | None = None,
        record_transfers: bool = True,
    ) -> None:
        self._profile = profile
        self._rng = rng
        self._transfers: list | None = [] if record_transfers else None
        self._total_bytes = 0
        self._count = 0

    @property
    def profile(self) -> LinkProfile:
        return self._profile

    def send(self, size_bytes: int, timestamp: float = 0.0, description: str = "") -> float:
        """Record a transfer and return its duration in seconds."""
        duration = self._profile.transfer_time(size_bytes, rng=self._rng)
        self._total_bytes += size_bytes
        self._count += 1
        if self._transfers is not None:
            self._transfers += (timestamp, size_bytes, duration, description)
        return duration

    def round_trip(
        self,
        up_bytes: int,
        down_bytes: int,
        timestamp: float = 0.0,
        up_description: str = "",
        down_description: str = "",
    ) -> tuple[float, float]:
        """Record a request/response pair; returns ``(uplink, downlink)`` durations.

        The two transfers draw from the channel's generator in uplink,
        downlink order — the same order the edge-cloud validation path
        has always used, so seeded runs are unaffected by going through
        this helper.
        """
        uplink = self.send(up_bytes, timestamp=timestamp, description=up_description)
        downlink = self.send(down_bytes, timestamp=timestamp, description=down_description)
        return uplink, downlink

    @property
    def transfers(self) -> tuple[TransferRecord, ...]:
        """Retained per-transfer records, rendered (empty when recording is off)."""
        rows = self._transfers or ()
        return tuple(map(TransferRecord, rows[0::4], rows[1::4], rows[2::4], rows[3::4]))

    @property
    def total_bytes(self) -> int:
        """Total bytes moved over this channel so far."""
        return self._total_bytes

    @property
    def transfer_count(self) -> int:
        return self._count

    def reset(self) -> None:
        """Forget recorded transfers (new experiment run)."""
        if self._transfers is not None:
            self._transfers.clear()
        self._total_bytes = 0
        self._count = 0
