"""Streaming accumulators for bounded-memory result aggregation.

The default cluster result path accretes one ``FrameTrace`` (plus client
responses and event-log entries) per frame and aggregates everything at
the end of the run — exact, convenient, and memory-prohibitive at 10⁶+
frames.  The fast path (``record_frames=False``) replaces those
per-frame objects with plain counters and the accumulators below:

* :class:`QuantileAccumulator` — exact nearest-rank percentiles up to a
  configurable buffer size, then a deterministic log-spaced histogram
  with a bounded relative error.  Memory stays O(buffer + buckets)
  however many samples arrive.

It is deterministic: identical sample sequences produce identical
state, so seeded fast-path runs remain reproducible.
"""

from __future__ import annotations

import math
from array import array


class QuantileAccumulator:
    """Bounded-memory percentile estimation over a sample stream.

    Up to ``exact_limit`` samples are buffered and percentiles are the
    exact nearest-rank values (matching
    :func:`repro.traffic.source.percentile`, so moderate fast-path runs
    report bit-identical tails to the list-based path).  Beyond the
    limit the buffer is folded into a log-spaced histogram — bucket ``i``
    covers one multiplicative step of ``1 + relative_error`` — and every
    later sample costs O(1) time and no memory beyond the bucket table.
    Histogram percentiles carry a bounded relative error of
    ``relative_error`` (non-positive samples are tracked exactly in a
    dedicated bucket).
    """

    __slots__ = (
        "exact_limit",
        "relative_error",
        "_exact",
        "_buckets",
        "_low_count",
        "_low_max",
        "_count",
        "_min",
        "_max",
        "_log_step",
    )

    def __init__(self, exact_limit: int = 4096, relative_error: float = 0.01) -> None:
        if exact_limit < 1:
            raise ValueError(f"exact_limit must be at least 1, got {exact_limit}")
        if not 0.0 < relative_error < 1.0:
            raise ValueError(
                f"relative_error must be in (0, 1), got {relative_error}"
            )
        self.exact_limit = exact_limit
        self.relative_error = relative_error
        self._exact: array | None = array("d")
        self._buckets: dict[int, int] = {}
        self._low_count = 0  # samples <= 0, kept out of the log buckets
        self._low_max = -math.inf
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._log_step = math.log1p(relative_error)

    def __len__(self) -> int:
        return self._count

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._exact is not None:
            self._exact.append(value)
            if len(self._exact) > self.exact_limit:
                self._spill()
            return
        # _bucket_add inlined: in spilled mode this runs once per sample
        # for the life of the run, and the call frame is measurable there.
        if value <= 0.0:
            self._low_count += 1
            if value > self._low_max:
                self._low_max = value
            return
        index = int(math.floor(math.log(value) / self._log_step))
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1

    def _spill(self) -> None:
        """Fold the exact buffer into the histogram; switch to O(1) mode."""
        exact, self._exact = self._exact, None
        for value in exact:
            self._bucket_add(value)

    def _bucket_add(self, value: float) -> None:
        if value <= 0.0:
            self._low_count += 1
            if value > self._low_max:
                self._low_max = value
            return
        index = int(math.floor(math.log(value) / self._log_step))
        self._buckets[index] = self._buckets.get(index, 0) + 1

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"q must be in [0, 100], got {q}")
        if not self._count:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self._count))
        if self._exact is not None:
            ordered = sorted(self._exact)
            return ordered[min(rank, len(ordered)) - 1]
        if rank <= self._low_count:
            # All non-positive samples sort first; report their maximum
            # (the nearest-rank value is one of them, and they are all
            # within [min, 0]).
            return self._low_max if self._low_count else 0.0
        remaining = rank - self._low_count
        for index in sorted(self._buckets):
            remaining -= self._buckets[index]
            if remaining <= 0:
                # Upper edge of the bucket, clamped to the exact extremes.
                value = math.exp((index + 1) * self._log_step)
                return min(max(value, self._min), self._max)
        return self._max
