"""Event records for simulation traces.

The event log is an append-only timeline used by the analysis layer to
produce latency breakdowns (Figure 2 / Figure 4 in the paper) without the
system components having to know which breakdown a benchmark wants.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import starmap
from typing import Any, Iterator


@dataclass(frozen=True, slots=True)
class Event:
    """A single timestamped event.

    Attributes
    ----------
    timestamp:
        Simulated time (seconds) at which the event occurred.
    kind:
        Machine-readable category, e.g. ``"edge_detection_done"``.
    payload:
        Free-form extra data (frame id, latency components, ...).
    """

    timestamp: float
    kind: str
    payload: dict[str, Any] = field(default_factory=dict)


class EventLog:
    """Append-only, time-ordered log of :class:`Event` records.

    Unbounded by default: a per-kind index is maintained on the side, so
    :meth:`of_kind` is a dictionary lookup instead of a scan over the
    whole timeline — the analysis and benchmark layers call it once per
    kind per report, and cluster runs log thousands of events.

    With a ``capacity``, the log keeps only the most recent ``capacity``
    events (a ring buffer) while per-kind *counts* stay exact for the
    whole run — the fast-path configuration for million-frame runs,
    where per-frame event objects would otherwise dominate memory.
    :meth:`of_kind` then returns only the retained window (in order).
    ``capacity=0`` goes one step further and counts without keeping
    anything — two per-frame records on a hot path become two dictionary
    increments.

    A retained event is a ``(timestamp, kind, payload)`` tuple, in the
    timeline and in the per-kind index alike, so :meth:`record` builds no
    :class:`Event`; iteration and :meth:`of_kind` render them.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be non-negative (or None), got {capacity}")
        self.capacity = capacity
        self._events: Any = [] if capacity is None else deque(maxlen=capacity)
        self._by_kind: dict[str, list[tuple]] | None = {} if capacity is None else None
        self._counts: dict[str, int] = {}
        self._total = 0

    def record(self, timestamp: float, kind: str, **payload: Any) -> None:
        """Append an event (count it only, in count-only mode)."""
        self._total += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1
        if self.capacity == 0:
            return
        row = (timestamp, kind, payload)
        self._events.append(row)
        if self._by_kind is not None:
            self._by_kind.setdefault(kind, []).append(row)

    def bump(self, kind: str) -> None:
        """Count one event of ``kind`` without building a record.

        The hot-path entry for ``capacity=0`` logs, where :meth:`record`
        would discard everything but the count anyway: callers that know
        the log is count-only skip assembling the timestamp and payload
        entirely.  Counts and totals stay exactly as :meth:`record`
        would have left them.
        """
        self._total += 1
        self._counts[kind] = self._counts.get(kind, 0) + 1

    def of_kind(self, kind: str) -> list[Event]:
        """All *retained* events of ``kind``, in insertion order.

        The full history for an unbounded log; for a bounded log, the
        events of that kind still inside the retained window (use
        :meth:`count_of_kind` for the exact whole-run count).
        """
        if self._by_kind is not None:
            rows = self._by_kind.get(kind, ())
        else:
            rows = [row for row in self._events if row[1] == kind]
        return list(starmap(Event, rows))

    def count_of_kind(self, kind: str) -> int:
        """Exact number of events of ``kind`` recorded over the whole run."""
        return self._counts.get(kind, 0)

    def kinds(self) -> set[str]:
        """Return the set of event kinds seen so far."""
        return set(self._counts)

    @property
    def total_recorded(self) -> int:
        """Events recorded over the whole run (>= ``len(self)`` when bounded)."""
        return self._total

    def __iter__(self) -> Iterator[Event]:
        return starmap(Event, self._events)

    def __len__(self) -> int:
        """Number of *retained* events."""
        return len(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
        if self._by_kind is not None:
            self._by_kind.clear()
        self._counts.clear()
        self._total = 0
