"""The transactions bank (paper §3.3.2, "Initialization and Setup").

The bank is "a data structure that maintains the application transactions
and what triggers each transaction": each row maps a *class of labels*
(e.g. "Buildings") — and optionally an auxiliary-input requirement — to a
factory that builds the transaction to run for a matching detection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.detection.labels import Detection
from repro.transactions.model import MultiStageTransaction


#: A factory receives the triggering detection (or ``None`` for pure
#: auxiliary-input triggers) and a fresh transaction id.
TransactionFactory = Callable[[Detection | None, str], MultiStageTransaction]


#: Pass as ``label_class`` to make a rule fire for *every* detected label,
#: whatever its class (used by the default YCSB workload bank).
ANY_LABEL = None


@dataclass(frozen=True)
class TriggerRule:
    """One row of the transactions bank.

    Attributes
    ----------
    name:
        Row identifier (e.g. ``"buildings"``).
    label_class:
        Set of label names that belong to this class.  ``None``
        (:data:`ANY_LABEL`) means the rule fires for every detection;
        an empty set means the rule does not require a label at all
        (pure auxiliary-input trigger).
    factory:
        Builds the transaction when the rule fires.
    requires_auxiliary_input:
        When True, the rule only fires on frames where the auxiliary
        device was clicked (Task 2 in the example application).
    """

    name: str
    label_class: frozenset[str] | None
    factory: TransactionFactory
    requires_auxiliary_input: bool = False

    def matches(self, detection: Detection | None, auxiliary_input: bool) -> bool:
        """Does this rule fire for the given detection / input combination?"""
        if self.requires_auxiliary_input and not auxiliary_input:
            return False
        if self.label_class is None:
            # Wildcard rule: fires for any detection.
            return detection is not None
        if not self.label_class:
            # Pure input-triggered rule (e.g. "menu button shows the menu").
            return True
        if detection is None:
            return False
        return detection.name in self.label_class


class TransactionBank:
    """Registry of trigger rules and transaction id allocation."""

    def __init__(self) -> None:
        self._rules: list[TriggerRule] = []
        self._next_id = 0

    def register(
        self,
        name: str,
        label_class: Iterable[str] | None,
        factory: TransactionFactory,
        requires_auxiliary_input: bool = False,
    ) -> TriggerRule:
        """Add a row to the bank and return it.

        Pass ``label_class=ANY_LABEL`` (``None``) for a rule that fires for
        every detection, or an empty iterable for a rule that only needs
        the auxiliary input.
        """
        rule = TriggerRule(
            name=name,
            label_class=None if label_class is None else frozenset(label_class),
            factory=factory,
            requires_auxiliary_input=requires_auxiliary_input,
        )
        self._rules.append(rule)
        return rule

    @property
    def rules(self) -> tuple[TriggerRule, ...]:
        return tuple(self._rules)

    def next_transaction_id(self, prefix: str = "t") -> str:
        """Allocate a fresh transaction id."""
        self._next_id += 1
        return f"{prefix}{self._next_id}"

    def transactions_for(
        self,
        detections: Iterable[Detection],
        auxiliary_input: bool = False,
    ) -> list[tuple[MultiStageTransaction, Detection | None]]:
        """Build the transactions triggered by a frame's detections.

        Returns ``(transaction, triggering_detection)`` pairs; a pure
        auxiliary-input rule fires at most once per frame with
        ``triggering_detection=None`` when no label of its class is
        present.
        """
        triggered: list[tuple[MultiStageTransaction, Detection | None]] = []
        if not self._rules:
            return triggered
        detections = list(detections)

        for rule in self._rules:
            prefix, matches, factory = f"{rule.name}-", rule.matches, rule.factory
            # A rule with an empty label class is a pure input trigger.
            candidates = detections if rule.label_class is None or rule.label_class else (None,)
            for detection in candidates:
                if matches(detection, auxiliary_input):
                    transaction = factory(detection, self.next_transaction_id(prefix))
                    triggered.append((transaction, detection))
        return triggered
