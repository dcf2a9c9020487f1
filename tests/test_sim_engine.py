"""Tests for the discrete-event engine primitives."""

import pytest

from repro.sim.engine import At, Engine, Server, SimulationError


class TestEngineOrdering:
    def test_events_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.schedule(2.0, lambda: order.append("b"))
        engine.schedule(1.0, lambda: order.append("a"))
        engine.schedule(3.0, lambda: order.append("c"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_same_time_ties_fire_in_schedule_order(self):
        engine = Engine()
        order = []
        for tag in ("first", "second", "third"):
            engine.schedule(1.0, lambda tag=tag: order.append(tag))
        engine.run()
        assert order == ["first", "second", "third"]

    def test_priority_jumps_same_time_ties(self):
        engine = Engine()
        order = []
        engine.schedule(1.0, lambda: order.append("late"), priority=1)
        engine.schedule(1.0, lambda: order.append("early"), priority=0)
        engine.schedule(1.0, lambda: order.append("urgent"), priority=-1)
        engine.run()
        assert order == ["urgent", "early", "late"]

    def test_run_returns_makespan(self):
        engine = Engine()
        engine.schedule(4.5, lambda: None)
        engine.schedule(1.0, lambda: None)
        assert engine.run() == pytest.approx(4.5)

    def test_run_until_stops_the_clock(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        assert engine.run(until=5.0) == pytest.approx(5.0)
        assert fired == [1]

    def test_rejects_scheduling_in_the_past(self):
        engine = Engine(start=5.0)
        with pytest.raises(SimulationError):
            engine.schedule(1.0, lambda: None)


class TestProcess:
    def test_process_yields_delays(self):
        engine = Engine()
        seen = []

        def worker():
            seen.append(engine.now)
            yield 1.5
            seen.append(engine.now)
            yield 0.5
            seen.append(engine.now)

        engine.spawn(worker())
        engine.run()
        assert seen == pytest.approx([0.0, 1.5, 2.0])

    def test_process_yields_absolute_times(self):
        engine = Engine()
        seen = []

        def worker():
            yield engine.at(3.0)
            seen.append(engine.now)

        engine.spawn(worker(), at=1.0)
        engine.run()
        assert seen == [3.0]

    def test_process_return_value_and_join(self):
        engine = Engine()
        seen = []

        def producer():
            yield 2.0
            return "payload"

        def consumer(proc):
            yield proc
            seen.append((engine.now, proc.value))

        proc = engine.spawn(producer())
        engine.spawn(consumer(proc))
        engine.run()
        assert seen == [(2.0, "payload")]

    def test_negative_delay_is_an_error(self):
        engine = Engine()

        def worker():
            yield -1.0

        engine.spawn(worker())
        with pytest.raises(SimulationError):
            engine.run()

    def test_bogus_yield_is_an_error(self):
        engine = Engine()

        def worker():
            yield "soon"

        engine.spawn(worker())
        with pytest.raises(SimulationError):
            engine.run()


def serve(server: Server, ready: float, service: float) -> tuple[float, float]:
    """One job through ``acquire`` / ``finish``; returns ``(start, wait)``."""
    start, wait = server.acquire(ready)
    server.finish(start, service)
    return start, wait


class TestServer:
    def test_zero_capacity_is_rejected(self):
        with pytest.raises(ValueError):
            Server(capacity=0)
        with pytest.raises(ValueError):
            Server(capacity=-1)

    def test_unknown_discipline_is_rejected(self):
        with pytest.raises(ValueError):
            Server(discipline="lifo")

    def test_unbounded_server_never_queues(self):
        server = Server(capacity=None)
        for ready in (0.0, 0.1, 0.2):
            start, wait = serve(server, ready, 10.0)
            assert start == ready
            assert wait == 0.0

    def test_saturated_server_queues_jobs(self):
        server = Server(capacity=1)
        assert serve(server, 0.0, 10.0) == (0.0, 0.0)
        start, wait = serve(server, 1.0, 2.0)
        assert (start, wait) == (10.0, 9.0)
        start, wait = serve(server, 1.5, 1.0)
        assert (start, wait) == (12.0, 10.5)

    def test_multiple_slots_serve_concurrently(self):
        server = Server(capacity=2)
        assert serve(server, 0.0, 5.0) == (0.0, 0.0)
        assert serve(server, 1.0, 5.0) == (1.0, 0.0)
        # both slots busy: third job waits for the earliest slot (t=5)
        assert serve(server, 2.0, 1.0) == (5.0, 3.0)

    def test_priority_discipline_overtakes_pending_jobs(self):
        """Under priority serving a final stage does not reserve ahead:
        it sleeps until :meth:`Server.next_free` and contends again, so
        an initial stage requested meanwhile takes the slot first."""
        server = Server(capacity=1, discipline="priority")
        assert server.priority_serving
        serve(server, 0.0, 10.0)  # occupy the slot over [0, 10]
        low_ready = 1.0
        assert server.next_free() == 10.0  # the final defers to t=10
        high_start, _ = server.acquire(2.0)  # an initial arrives and reserves
        assert high_start == 10.0
        server.finish(high_start, 10.0)
        assert server.next_free() == 20.0  # the final wakes at 10, defers again
        assert server.acquire(low_ready) == (20.0, 19.0)

    def test_fifo_discipline_keeps_request_order(self):
        """Under FIFO a final stage reserves as soon as it is ready, so
        the earlier request starts first."""
        server = Server(capacity=1, discipline="fifo")
        assert not server.priority_serving
        serve(server, 0.0, 10.0)
        assert serve(server, 1.0, 5.0) == (10.0, 9.0)
        assert serve(server, 2.0, 1.0) == (15.0, 13.0)

    def test_request_order_not_ready_order(self):
        """A job requested first keeps its place even if it is ready later."""
        server = Server(capacity=1)
        assert serve(server, 5.0, 2.0) == (5.0, 0.0)  # busy over [5, 7]
        assert serve(server, 1.0, 1.0) == (7.0, 6.0)

    def test_disciplines_share_one_admission_path(self):
        """Priority serving changes only when the pipeline asks for a
        slot (finals wait on ``next_free``), never what ``acquire`` gives."""
        outcomes = []
        for discipline in Server.DISCIPLINES:
            server = Server(capacity=1, discipline=discipline)
            assert server.priority_serving == (discipline == "priority")
            outcomes.append([serve(server, ready, 1.0) for ready in (0.0, 0.5, 0.7, 4.0)])
            assert server.next_free() == 5.0
        assert outcomes[0] == outcomes[1]

    def test_saturated_by_open_admissions_raises(self):
        """Jobs holding every slot without a declared service time starve the queue."""
        server = Server(capacity=1)
        assert server.acquire(0.0) == (0.0, 0.0)
        with pytest.raises(SimulationError):
            server.acquire(1.0)
        assert server.backlog(1.0) == float("inf")

    def test_negative_service_time_is_rejected(self):
        server = Server(capacity=1)
        start, _ = server.acquire(0.0)
        with pytest.raises(ValueError):
            server.finish(start, -1.0)

    def test_windowed_load_observes_recent_busy_time(self):
        server = Server(capacity=1)
        serve(server, 0.0, 1.0)  # busy over [0, 1]
        assert server.load(2.0) == pytest.approx(0.5)  # whole history
        assert server.load(2.0, window=1.0) == pytest.approx(0.0)  # idle lately
        serve(server, 2.0, 4.0)  # busy over [2, 6]
        assert server.load(3.0, window=1.0) == pytest.approx(1.0)
        # future-scheduled service does not count before it happens
        assert server.load(2.0, window=1.0) == pytest.approx(0.0)

    def test_utilization_accounts_for_all_slots(self):
        server = Server(capacity=2)
        serve(server, 0.0, 4.0)
        assert server.utilization(4.0) == pytest.approx(0.5)

    def test_backlog_measures_wait_for_next_free_slot(self):
        server = Server(capacity=1)
        assert server.backlog(0.0) == 0.0  # idle
        serve(server, 0.0, 4.0)  # busy until t=4
        assert server.backlog(1.0) == pytest.approx(3.0)
        assert server.backlog(5.0) == 0.0  # already free

    def test_backlog_uses_earliest_slot(self):
        server = Server(capacity=2)
        serve(server, 0.0, 4.0)
        serve(server, 0.0, 2.0)
        assert server.backlog(1.0) == pytest.approx(1.0)

    def test_backlog_of_unbounded_server_is_zero(self):
        server = Server(capacity=None)
        serve(server, 0.0, 100.0)
        assert server.backlog(1.0) == 0.0
