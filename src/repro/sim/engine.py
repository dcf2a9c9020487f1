"""A discrete-event simulation engine.

The first reproduction iterations advanced a bare :class:`~repro.sim.clock.SimClock`
through hand-rolled loops: the single-edge pipeline marched one frame at
a time and the cluster kept a side-channel ``busy_until`` per edge.  That
model cannot express the paper's queueing story — a finite-capacity
cloud, overlap between an edge's frames and in-flight cloud round trips,
or runtime re-routing decisions — so both systems now execute on the
engine below.

Three primitives:

* :class:`Engine` — a priority-queue event loop.  Events are
  ``(time, priority, sequence)``-ordered callbacks; ties at the same
  timestamp fire in schedule order, with ``priority`` available to jump
  the line.
* :class:`Process` — a generator driven by the engine.  A process yields
  a delay in seconds (``yield 0.25``), an absolute resume time
  (``yield engine.at(t)``) or another process (``yield other`` waits for
  it to finish); its ``return`` value becomes :attr:`Process.value`.
* :class:`Server` — a finite-capacity resource.  A job takes the
  earliest free slot with ``acquire`` when it arrives and gives it back
  with ``finish`` once its measured service time is known, so service
  times can depend on work done after admission, exactly like
  detection + transaction processing on an edge replica.  The
  waiting-time and busy-time statistics feed the utilization and
  queue-delay metrics of cluster runs.

Admission follows the *request order* (the order ``acquire`` is called
in, i.e. the order jobs arrive at the system), not the order of their
ready times: a job that arrives first but needs a network hop before it
is ready still holds its place in the queue.  This matches the
arrival-ordered service discipline of the original cluster model, which
keeps seeded runs bit-for-bit reproducible across the refactor.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right, insort
from statistics import mean
from typing import Any, Callable, Generator, Iterable


class SimulationError(RuntimeError):
    """Raised on malformed simulation programs (bad delays, starved servers)."""


class At:
    """Yield target for a process: resume at an absolute simulated time.

    ``priority`` orders events that fire at the same timestamp (lower
    runs first, like :meth:`Engine.schedule`); a process that yields a
    high-``priority`` resume politely steps aside for same-instant
    default-priority events — how final stages let initial stages
    overtake under priority serving.

    A plain slots class rather than a dataclass: one is built per
    process suspension — two per simulated frame on the cluster fast
    path — and the generated dataclass ``__init__`` costs several times
    a pair of slot stores.
    """

    __slots__ = ("time", "priority")

    def __init__(self, time: float, priority: int = 0) -> None:
        self.time = time
        self.priority = priority

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"At(time={self.time}, priority={self.priority})"


class Process:
    """A generator running on an :class:`Engine`.

    Created through :meth:`Engine.spawn`; do not instantiate directly.
    """

    __slots__ = ("_engine", "_generator", "name", "done", "value", "_waiters")

    def __init__(self, engine: "Engine", generator: Generator[Any, Any, Any], name: str) -> None:
        self._engine = engine
        self._generator = generator
        self.name = name
        self.done = False
        #: The generator's ``return`` value once :attr:`done` is True.
        self.value: Any = None
        #: Processes blocked on this one; allocated by the first waiter
        #: (almost every process — one per simulated frame — has none).
        self._waiters: list[Process] | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "done" if self.done else "running"
        return f"Process({self.name!r}, {state})"

    # -- engine internals ---------------------------------------------------
    def _step(self) -> None:
        """Advance the generator by one yield and schedule the next resume."""
        engine = self._engine
        try:
            target = self._generator.send(None)
        except StopIteration as stop:
            self.done = True
            self.value = stop.value
            if self._waiters:
                for waiter in self._waiters:
                    engine.schedule(engine.now, waiter._step)
                self._waiters = None
            return

        if isinstance(target, At):
            # Inlined Engine.schedule: this branch fires at least twice
            # per simulated frame on the cluster (the arrival, then the
            # frame's resume), so it pays one guard and one heap push
            # instead of a method call that re-checks both.
            when = target.time
            now = engine._now
            if when < now - 1e-12:
                raise SimulationError(
                    f"process {self.name!r} yielded a resume time in the past "
                    f"({when} < {now})"
                )
            heapq.heappush(
                engine._heap,
                (when if when > now else now, target.priority, engine._sequence, self._step),
            )
            engine._sequence += 1
        elif isinstance(target, Process):
            if target.done:
                engine.schedule(engine.now, self._step)
            elif target._waiters is None:
                target._waiters = [self]
            else:
                target._waiters.append(self)
        elif isinstance(target, (int, float)):
            if target < 0:
                raise SimulationError(
                    f"process {self.name!r} yielded a negative delay ({target})"
                )
            engine.schedule(engine.now + float(target), self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; expected a delay, "
                "an At(...) target or another Process"
            )


class Engine:
    """A priority-queue discrete-event loop.

    Events are callbacks ordered by ``(time, priority, sequence)``:
    earlier timestamps first, then lower ``priority`` values, then
    schedule order.  :meth:`run` drains the queue and returns the
    timestamp of the last event processed (the makespan).
    """

    __slots__ = ("_now", "_heap", "_sequence")

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError("engine cannot start at a negative time")
        self._now = float(start)
        self._heap: list[tuple[float, int, int, Callable[[], None]]] = []
        self._sequence = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def at(self, time: float, priority: int = 0) -> At:
        """Yield target resuming a process at the absolute time ``time``."""
        return At(float(time), priority)

    def schedule(self, when: float, callback: Callable[[], None], priority: int = 0) -> None:
        """Run ``callback`` at simulated time ``when``."""
        if when < self._now - 1e-12:
            raise SimulationError(
                f"cannot schedule an event in the past ({when} < {self._now})"
            )
        heapq.heappush(self._heap, (max(when, self._now), priority, self._sequence, callback))
        self._sequence += 1

    def spawn(
        self,
        generator: Generator[Any, Any, Any],
        at: float | None = None,
        name: str = "process",
        priority: int = 0,
    ) -> Process:
        """Create a :class:`Process` whose first step runs at ``at`` (default: now)."""
        process = Process(self, generator, name)
        self.schedule(self._now if at is None else at, process._step, priority=priority)
        return process

    def start(self, generator: Generator[Any, Any, Any], name: str = "process") -> Process:
        """Create a :class:`Process` and run its first step *now*.

        The synchronous form of :meth:`spawn` for a caller that is
        itself running at the instant the process should begin: no heap
        event, so nothing else scheduled for this instant can slip in
        between the caller and the new process's first step.
        """
        process = Process(self, generator, name)
        process._step()
        return process

    def step(self) -> bool:
        """Process the next event; returns False when the queue is empty."""
        if not self._heap:
            return False
        when, _, _, callback = heapq.heappop(self._heap)
        self._now = when
        callback()
        return True

    def run(self, until: float | None = None) -> float:
        """Drain the event queue (or stop once ``until`` is reached).

        Returns the final simulated time — with no ``until``, the
        timestamp of the last processed event (the run's makespan).
        """
        # The no-horizon loop is the hot path (two events per simulated
        # frame): pop inline rather than through step() so each event
        # pays one heap pop and one callback, nothing else.
        heap = self._heap
        pop = heapq.heappop
        if until is None:
            while heap:
                when, _, _, callback = pop(heap)
                self._now = when
                callback()
            return self._now
        while heap:
            if heap[0][0] > until:
                self._now = float(until)
                break
            when, _, _, callback = pop(heap)
            self._now = when
            callback()
        return self._now


class Server:
    """A finite-capacity resource serving jobs in request order.

    A job takes a slot with :meth:`acquire` the moment it arrives — its
    ``ready`` time may lie ahead (a network hop still to land), but its
    place in the queue is fixed by the order of the calls — and gives
    the slot back with :meth:`finish` once its measured service time is
    known, so service times can depend on work done after admission,
    exactly like detection + transaction processing on an edge replica.
    The waiting-time and busy-time statistics feed the utilization and
    queue-delay metrics of cluster runs.

    Parameters
    ----------
    capacity:
        Number of jobs the server can run concurrently; ``None`` means
        unbounded (an infinite server — jobs never wait).  Zero or
        negative capacities are rejected: a server that can never serve
        is a configuration error, not a queue.
    discipline:
        ``"fifo"`` or ``"priority"``.  Every job takes the earliest free
        slot either way; under ``"priority"`` the frame pipeline keeps
        final stages from reserving ahead — they wait on
        :meth:`next_free` so that initial stages arriving meanwhile go
        first (:attr:`priority_serving`).
    record_jobs:
        True (the default) keeps every job's wait and every completed
        service interval, exactly as analyses and tests expect.  False
        switches the wait statistics to O(1) streaming accumulators
        (count / sum / max) and trims the interval record back to
        :attr:`INTERVAL_RETENTION` entries whenever it doubles, folding
        the busy time of trimmed intervals into a scalar so whole-run :meth:`load`
        queries stay exact — a million-frame run does not accrete a
        million floats per server.  Windowed queries reaching further
        back than the retained tail undercount (they see only the
        retained intervals).
    """

    DISCIPLINES = ("fifo", "priority")

    #: Completed intervals a ``record_jobs=False`` server retains; it far
    #: exceeds the number of jobs any load window spans.
    INTERVAL_RETENTION = 4096

    __slots__ = (
        "capacity",
        "discipline",
        "priority_serving",
        "name",
        "record_jobs",
        "_free",
        "_waits",
        "_wait_count",
        "_wait_sum",
        "_wait_max",
        "busy_time",
        "track_intervals",
        "_intervals",
        "_trimmed_busy",
    )

    def __init__(
        self,
        capacity: int | None = 1,
        discipline: str = "fifo",
        name: str = "server",
        record_jobs: bool = True,
    ) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(
                f"capacity must be at least 1 (or None for unbounded), got {capacity}"
            )
        if discipline not in self.DISCIPLINES:
            raise ValueError(
                f"unknown discipline {discipline!r}; expected one of {self.DISCIPLINES}"
            )
        self.capacity = capacity
        self.discipline = discipline
        #: Precomputed discipline check — hot paths branch on this every
        #: frame and a bool attribute beats a string comparison.
        self.priority_serving = discipline == "priority"
        self.name = name
        self.record_jobs = record_jobs
        #: Instants each capacity slot frees up, as a heap.
        self._free: list[float] = [0.0] * (capacity or 0)
        self._waits: list[float] | None = [] if record_jobs else None
        self._wait_count = 0
        self._wait_sum = 0.0
        self._wait_max = 0.0
        self.busy_time = 0.0
        #: Whether completed service intervals are retained for windowed
        #: :meth:`load` queries.  On by default; a run with no load
        #: consumer (no shedding, migration or failover) may switch it
        #: off — :meth:`load` then reports zero, which such runs never
        #: ask for, and every other metric (``busy_time``, waits,
        #: utilisation) is unaffected.
        self.track_intervals = True
        #: Completed service intervals as ``(end, start)``, kept sorted by
        #: end time so windowed :meth:`load` queries touch only the tail.
        self._intervals: list[tuple[float, float]] = []
        self._trimmed_busy = 0.0

    # -- admission ----------------------------------------------------------
    def acquire(self, ready: float) -> tuple[float, float]:
        """Admit a job ready for service at ``ready``; returns ``(start, wait)``.

        The job takes the earliest free slot and holds it until
        :meth:`finish` is called with its start and measured service
        time.
        """
        ready = float(ready)
        if self.capacity is None:
            start = ready
        else:
            free = self._free
            if not free:
                raise SimulationError(
                    f"server {self.name!r} is saturated: all {self.capacity} "
                    "slot(s) are held by jobs that never finished"
                )
            slot_free = heapq.heappop(free)
            start = ready if ready >= slot_free else slot_free
        self._record_wait(start - ready)
        return start, start - ready

    def finish(self, start: float, service_time: float) -> float:
        """Complete a job that began service at ``start``; returns the end time.

        Gives the job's slot back and books its busy time and service
        interval.
        """
        if service_time < 0:
            raise ValueError("service_time must be non-negative")
        end = start + service_time
        if self.capacity is not None:
            heapq.heappush(self._free, end)
        self.busy_time += service_time
        if not self.track_intervals:
            return end
        # Service ends are near-monotonic per server, so the common case
        # is an append; insort still covers out-of-order completions.
        intervals = self._intervals
        item = (end, start)
        if not intervals or item >= intervals[-1]:
            intervals.append(item)
        else:
            insort(intervals, item)
        # Trim in blocks once the record doubles: deleting the list head
        # shifts every element, so a per-completion trim would pay O(n)
        # per job — amortised over a block it is O(1).  Windowed load()
        # queries only ever see *more* history than the cap promises.
        if not self.record_jobs and len(intervals) > 2 * self.INTERVAL_RETENTION:
            excess = len(intervals) - self.INTERVAL_RETENTION
            for index in range(excess):
                old_end, old_start = intervals[index]
                self._trimmed_busy += old_end - old_start
            del intervals[:excess]
        return end

    def _record_wait(self, wait: float) -> None:
        self._wait_count += 1
        if self._waits is not None:
            self._waits.append(wait)
        else:
            self._wait_sum += wait
            if wait > self._wait_max:
                self._wait_max = wait

    def next_free(self) -> float:
        """Earliest instant a capacity slot is (or was) free.

        The runtime signal deferred admissions poll: a job that should
        *not* reserve ahead of time — a final stage yielding to initial
        stages under priority serving — sleeps until this instant and
        contends again, instead of holding a future slot while
        higher-priority work arrives.  Always 0.0 for unbounded servers.
        """
        if self.capacity is None:
            return 0.0
        return self._free[0]

    def backlog(self, now: float) -> float:
        """Seconds of queued work ahead of a job arriving at ``now``.

        The admission-control signal: how long a new arrival would wait
        before its service could start, given everything already
        admitted.  0.0 for unbounded or idle servers; infinite while
        every slot is held by a job that has not finished (the server
        cannot currently promise a start time at all).
        """
        if self.capacity is None:
            return 0.0
        if not self._free:
            return float("inf")
        return max(0.0, self._free[0] - now)

    # -- statistics ---------------------------------------------------------
    @property
    def jobs(self) -> int:
        """Number of jobs admitted."""
        return self._wait_count

    @property
    def mean_wait(self) -> float:
        """Mean waiting time over all admitted jobs."""
        if self._waits is not None:
            return mean(self._waits) if self._waits else 0.0
        return self._wait_sum / self._wait_count if self._wait_count else 0.0

    @property
    def max_wait(self) -> float:
        """Longest waiting time any job experienced."""
        if self._waits is not None:
            return max(self._waits) if self._waits else 0.0
        return self._wait_max

    def utilization(self, makespan: float) -> float:
        """Fraction of ``makespan`` spent serving, per capacity slot."""
        if makespan <= 0:
            return 0.0
        slots = self.capacity or 1
        return self.busy_time / (makespan * slots)

    def load(self, now: float, window: float | None = None) -> float:
        """Observed utilization over ``[now - window, now]`` (whole run if None).

        This is the runtime signal the migrating router watches: unlike
        :meth:`utilization` it can be queried mid-run, and a finite
        ``window`` makes it responsive to recent overload rather than
        averaging over the entire history.  The interval record is
        sorted by end time, so a windowed query only walks the
        intervals that can actually overlap the window instead of the
        server's whole service history (migration queries every edge on
        every frame arrival — a full scan there is quadratic in frames).
        """
        if now <= 0:
            return 0.0
        lo = 0.0 if window is None else max(0.0, now - window)
        span = now - lo
        if span <= 0:
            return 0.0
        # Intervals ending at or before the window start contribute nothing.
        # This is the hot path of every migration query, so the overlap is
        # accumulated in a direct loop over the sorted tail — no slice
        # copy, no generator (interval_overlap stays the public analysis
        # helper).  Summing only the positive segments is value-identical
        # to summing max(0.0, ...) over all of them.
        intervals = self._intervals
        busy = 0.0
        for index in range(bisect_right(intervals, (lo, float("inf"))), len(intervals)):
            end, start = intervals[index]
            segment = (end if end < now else now) - (start if start > lo else lo)
            if segment > 0.0:
                busy += segment
        if lo == 0.0:
            # Whole-run queries still see the busy time of any intervals
            # trimmed from a ``record_jobs=False`` record.
            busy += self._trimmed_busy
        slots = self.capacity or 1
        return busy / (span * slots)


def interval_overlap(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Total overlap of ``intervals`` with ``[lo, hi]`` (helper for analyses)."""
    return sum(max(0.0, min(end, hi) - max(start, lo)) for start, end in intervals)


class Admission:
    """One job queued on a :class:`ReferenceServer`, holding a capacity slot.

    ``start`` resolves lazily: reading it places every job queued ahead
    of this one (in discipline order) and then this one.
    """

    __slots__ = ("server", "ready", "priority", "sequence", "_start")

    def __init__(self, server: "ReferenceServer", ready: float, priority: int, sequence: int) -> None:
        self.server = server
        self.ready = ready
        self.priority = priority
        self.sequence = sequence
        self._start: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"Admission(server={self.server.name!r}, ready={self.ready}, "
            f"priority={self.priority}, sequence={self.sequence})"
        )

    @property
    def start(self) -> float:
        """Instant the job begins service (resolves the admission)."""
        if self._start is None:
            self.server._resolve(self)
        assert self._start is not None
        return self._start


class ReferenceServer(Server):
    """The pre-fast-path :class:`Server`, preserved as a benchmark yardstick.

    Jobs are admitted in two phases: :meth:`admit` queues an
    :class:`Admission` in a plain list, and reading its ``start``
    resolves the queue — the priority discipline re-scanning the whole
    pending batch with ``min()`` over ``(-priority, request order)`` on
    every resolution.  :meth:`acquire` always takes that path, and
    ``load`` feeds a fresh generator over a list slice to
    :func:`interval_overlap` — exactly the implementation the fast path
    replaced.  It keeps every job's wait and every interval.  The
    ``scale-stress`` benchmark runs its reduced reference cell on this
    class so the measured frames/sec speedup is against the real pre-PR
    engine rather than a guess.  Identical results to :class:`Server`
    are pinned by the engine test suite; only the constant factors (and
    asymptotics) differ.
    """

    __slots__ = ("_pending", "_sequence")

    def __init__(
        self, capacity: int | None = 1, discipline: str = "fifo", name: str = "server"
    ) -> None:
        super().__init__(capacity, discipline, name)
        self._pending: list[Admission] = []
        self._sequence = 0

    def admit(self, ready: float, priority: int = 0) -> Admission:
        """Queue a job ready for service at ``ready``; its start resolves lazily."""
        admission = Admission(self, float(ready), priority, self._sequence)
        self._sequence += 1
        self._pending.append(admission)
        return admission

    def acquire(self, ready: float) -> tuple[float, float]:
        admission = self.admit(ready)
        start = admission.start
        return start, start - admission.ready

    def _resolve(self, admission: Admission) -> None:
        while self._pending:
            if self.discipline == "priority":
                index = min(
                    range(len(self._pending)),
                    key=lambda i: (-self._pending[i].priority, self._pending[i].sequence),
                )
            else:
                index = 0
            job = self._pending.pop(index)
            if self.capacity is None:
                job._start = job.ready
            else:
                if not self._free:
                    raise SimulationError(
                        f"server {self.name!r} is saturated: all {self.capacity} "
                        "slot(s) are held by admissions that never completed"
                    )
                slot_free = heapq.heappop(self._free)
                job._start = max(job.ready, slot_free)
            self._record_wait(job._start - job.ready)
            if job is admission:
                return
        raise SimulationError("admission was already resolved or never queued")

    def load(self, now: float, window: float | None = None) -> float:
        if now <= 0:
            return 0.0
        lo = 0.0 if window is None else max(0.0, now - window)
        span = now - lo
        if span <= 0:
            return 0.0
        first = bisect_right(self._intervals, (lo, float("inf")))
        busy = interval_overlap(
            ((start, end) for end, start in self._intervals[first:]), lo, now
        )
        slots = self.capacity or 1
        return busy / (span * slots)
