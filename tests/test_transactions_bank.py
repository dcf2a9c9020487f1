"""Tests for the transactions bank."""

import pytest

from repro.transactions.bank import ANY_LABEL, TransactionBank
from repro.transactions.model import MultiStageTransaction, SectionSpec

from helpers import make_detection


def _factory(detection, txn_id) -> MultiStageTransaction:
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec.noop(),
        final=SectionSpec.noop(),
        trigger=detection.name if detection is not None else "input",
    )


class TestTransactionBank:
    def test_label_class_rule_fires_per_matching_detection(self):
        bank = TransactionBank()
        bank.register("buildings", {"Engineering", "Library"}, _factory)
        detections = [
            make_detection("Engineering"),
            make_detection("University Shuttle 42"),
            make_detection("Library"),
        ]
        triggered = bank.transactions_for(detections)
        assert len(triggered) == 2
        assert {txn.trigger for txn, _ in triggered} == {"Engineering", "Library"}

    def test_wildcard_rule_fires_for_every_detection(self):
        bank = TransactionBank()
        bank.register("any", ANY_LABEL, _factory)
        detections = [make_detection("a"), make_detection("b")]
        assert len(bank.transactions_for(detections)) == 2

    def test_wildcard_rule_does_not_fire_without_detections(self):
        bank = TransactionBank()
        bank.register("any", ANY_LABEL, _factory)
        assert bank.transactions_for([]) == []

    def test_auxiliary_input_required(self):
        bank = TransactionBank()
        bank.register("reserve", {"Engineering"}, _factory, requires_auxiliary_input=True)
        detections = [make_detection("Engineering")]
        assert bank.transactions_for(detections, auxiliary_input=False) == []
        assert len(bank.transactions_for(detections, auxiliary_input=True)) == 1

    def test_pure_input_rule_fires_once_per_frame(self):
        bank = TransactionBank()
        bank.register("menu", (), _factory, requires_auxiliary_input=True)
        triggered = bank.transactions_for([make_detection("a")], auxiliary_input=True)
        assert len(triggered) == 1
        assert triggered[0][1] is None  # no triggering detection

    def test_transaction_ids_are_unique(self):
        bank = TransactionBank()
        bank.register("any", ANY_LABEL, _factory)
        triggered = bank.transactions_for([make_detection("a"), make_detection("b")])
        ids = [txn.transaction_id for txn, _ in triggered]
        assert len(set(ids)) == len(ids)

    def test_multiple_rules_can_fire_for_one_detection(self):
        bank = TransactionBank()
        bank.register("info", {"Engineering"}, _factory)
        bank.register("audit", {"Engineering"}, _factory)
        triggered = bank.transactions_for([make_detection("Engineering")])
        assert len(triggered) == 2

    def test_rules_accessor(self):
        bank = TransactionBank()
        rule = bank.register("r", {"x"}, _factory)
        assert bank.rules == (rule,)

    def test_a_frame_factory_is_called_once_per_frame_with_every_match(self):
        bank = TransactionBank()
        calls = []

        def frame_factory(detections, transaction_ids):
            calls.append((list(detections), list(transaction_ids)))
            return [_factory(*trigger) for trigger in zip(detections, transaction_ids)]

        bank.register("buildings", {"Engineering", "Library"}, frame_factory=frame_factory)
        detections = [make_detection(name) for name in ("Engineering", "car", "Library")]
        triggered = bank.transactions_for(detections)
        assert calls == [([detections[0], detections[2]], ["buildings-1", "buildings-2"])]
        assert [(txn.transaction_id, det) for txn, det in triggered] == [
            ("buildings-1", detections[0]),
            ("buildings-2", detections[2]),
        ]
        # A frame that fires nothing does not call the factory at all.
        assert bank.transactions_for([make_detection("car")]) == []
        assert len(calls) == 1

    def test_a_per_detection_factory_is_stored_in_the_per_frame_form(self):
        bank = TransactionBank()
        rule = bank.register("any", ANY_LABEL, _factory)
        detections = [make_detection("a"), make_detection("b")]
        built = rule.factory(detections, ["x1", "x2"])
        assert [(txn.transaction_id, txn.trigger) for txn in built] == [("x1", "a"), ("x2", "b")]

    def test_register_takes_exactly_one_factory_form(self):
        bank = TransactionBank()
        with pytest.raises(ValueError):
            bank.register("none", ANY_LABEL)
        with pytest.raises(ValueError):
            bank.register("both", ANY_LABEL, _factory, frame_factory=lambda ds, ids: [])
        assert bank.rules == ()

    def test_ids_are_allocated_rule_by_rule_in_detection_order(self):
        bank = TransactionBank()
        bank.register("info", ANY_LABEL, _factory)
        bank.register("menu", (), _factory, requires_auxiliary_input=True)
        bank.register("audit", {"b"}, _factory)
        detections = [make_detection("a"), make_detection("b")]
        ids = [txn.transaction_id for txn, _ in bank.transactions_for(detections, True)]
        assert ids == ["info-1", "info-2", "menu-3", "audit-4"]

    def test_ids_are_sized_and_formatted_when_iterated(self):
        """A factory that names its own transactions reads only ``len()``;
        the ids it skipped are still spent, so later ids do not move."""
        bank = TransactionBank()
        seen = []

        def self_naming(detections, transaction_ids):
            seen.append(transaction_ids)
            count = len(transaction_ids)
            return [_factory(d, f"own-{n}") for n, d in enumerate(detections[:count])]

        bank.register("hot", ANY_LABEL, frame_factory=self_naming)
        bank.register("info", ANY_LABEL, _factory)
        detections = [make_detection("a"), make_detection("b")]
        ids = [txn.transaction_id for txn, _ in bank.transactions_for(detections)]
        assert ids == ["own-0", "own-1", "info-3", "info-4"]
        (hot_ids,) = seen
        assert not isinstance(hot_ids, list) and len(hot_ids) == 2
        assert list(hot_ids) == list(hot_ids) == ["hot-1", "hot-2"]
