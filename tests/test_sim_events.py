"""Tests for the event log."""

from repro.sim.events import Event, EventLog


class TestEventLog:
    def test_record_returns_event(self):
        log = EventLog()
        assert log.record(1.0, "detected", frame_id=3) is None
        (event,) = log  # the write keeps a row; reading it back renders the Event
        assert isinstance(event, Event)
        assert event.timestamp == 1.0
        assert event.kind == "detected"
        assert event.payload == {"frame_id": 3}

    def test_events_preserve_order(self):
        log = EventLog()
        log.record(1.0, "a")
        log.record(0.5, "b")
        kinds = [event.kind for event in log]
        assert kinds == ["a", "b"]

    def test_of_kind_filters(self):
        log = EventLog()
        log.record(0.0, "commit", txn="t1")
        log.record(1.0, "abort", txn="t2")
        log.record(2.0, "commit", txn="t3")
        commits = log.of_kind("commit")
        assert len(commits) == 2
        assert {event.payload["txn"] for event in commits} == {"t1", "t3"}

    def test_kinds_returns_distinct(self):
        log = EventLog()
        log.record(0.0, "x")
        log.record(0.0, "x")
        log.record(0.0, "y")
        assert log.kinds() == {"x", "y"}

    def test_len_and_clear(self):
        log = EventLog()
        log.record(0.0, "x")
        log.record(0.0, "y")
        assert len(log) == 2
        log.clear()
        assert len(log) == 0
