"""Event records for simulation traces.

The event log is an append-only timeline used by the analysis layer to
produce latency breakdowns (Figure 2 / Figure 4 in the paper) without the
system components having to know which breakdown a benchmark wants.
"""

from __future__ import annotations

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


class EventsNotRetained(LookupError):
    """Raised when a count-only :class:`EventLog` is asked for its events."""


class EventLog:
    """Append-only, time-ordered log of :class:`Event` records.

    By default the log keeps every event, with a per-kind index on the
    side so :meth:`of_kind` is a dictionary lookup instead of a scan over
    the whole timeline.

    ``capacity=0`` keeps counts only — the configuration of a
    ``record_frames=False`` run, where per-frame event objects would
    otherwise dominate memory: per-kind counts stay exact for the whole
    run, two per-frame records on a hot path become two dictionary
    increments, and asking such a log for its events raises
    :class:`EventsNotRetained` instead of answering with an empty list.

    A retained event is a ``(timestamp, kind, payload)`` tuple, in the
    timeline and in the per-kind index alike, so :meth:`record` builds no
    :class:`Event`; iteration and :meth:`of_kind` render them.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity not in (None, 0):
            raise ValueError(
                f"capacity must be None (keep every event) or 0 (counts only), got {capacity}"
            )
        self.capacity = capacity
        self._events: list[tuple] = []
        self._by_kind: dict[str, list[tuple]] = {}
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
        """All events of ``kind``, in insertion order.

        Raises :class:`EventsNotRetained` on a count-only log, which has
        the exact count (:meth:`count_of_kind`) but no events to return.
        """
        if self.capacity == 0:
            raise EventsNotRetained(
                f"this EventLog keeps counts only; use count_of_kind({kind!r})"
            )
        return list(starmap(Event, self._by_kind.get(kind, ())))

    def count_of_kind(self, kind: str) -> int:
        """Exact number of events of ``kind`` recorded over the whole run."""
        return self._counts.get(kind, 0)

    def kinds(self) -> set[str]:
        """Return the set of event kinds seen so far."""
        return set(self._counts)

    @property
    def total_recorded(self) -> int:
        """Events recorded over the whole run (``len(self)`` unless count-only)."""
        return self._total

    def __iter__(self) -> Iterator[Event]:
        return starmap(Event, self._events)

    def __len__(self) -> int:
        """Number of *retained* events."""
        return len(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events.clear()
        self._by_kind.clear()
        self._counts.clear()
        self._total = 0
