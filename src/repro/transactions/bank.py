"""The transactions bank (paper §3.3.2, "Initialization and Setup").

The bank is "a data structure that maintains the application transactions
and what triggers each transaction": each row maps a *class of labels*
(e.g. "Buildings") — and optionally an auxiliary-input requirement — to a
factory.  A rule's factory is called once per frame with every detection
that fired it (the workload generators draw a frame's keys in one call
that way); an application that thinks one detection at a time registers a
per-detection ``factory`` and ``register`` wraps it into the per-frame
form, so :meth:`TransactionBank.transactions_for` has one path.

A factory returns drafts (:class:`~repro.transactions.model.TransactionDraft`,
or a built transaction, its own draft).  Its ids are formatted only when
read: the hotspot workload names its own and reads just ``len()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Collection, Iterable, Iterator, Sequence

from repro.detection.labels import Detection
from repro.transactions.model import MultiStageTransaction


#: A per-detection factory receives the triggering detection (or ``None``
#: for pure auxiliary-input triggers) and a fresh transaction id.
TransactionFactory = Callable[[Detection | None, str], MultiStageTransaction]

#: The per-frame form: the detections that fired the rule on one frame and
#: as many fresh ids (sized, iterable) in; one draft per detection, in
#: order, out.
FrameFactory = Callable[[Sequence[Detection | None], Collection[str]], Sequence[Any]]


class _TransactionIds:
    """A rule's fresh ids for one frame, ``<prefix><n>`` for ``n`` in
    ``numbers``, each formatted as it is iterated (``len()`` formats none)."""

    __slots__ = ("_prefix", "_numbers")

    def __init__(self, prefix: str, numbers: range) -> None:
        self._prefix = prefix
        self._numbers = numbers

    def __len__(self) -> int:
        return len(self._numbers)

    def __iter__(self) -> Iterator[str]:
        prefix = self._prefix
        return (f"{prefix}{number}" for number in self._numbers)

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
        Builds a frame's transactions when the rule fires (per-frame form).
    requires_auxiliary_input:
        When True, the rule only fires on frames where the auxiliary
        device was clicked (Task 2 in the example application).
    """

    name: str
    label_class: frozenset[str] | None
    factory: FrameFactory
    requires_auxiliary_input: bool = False

    def fired_by(self, detections: Sequence[Detection], auxiliary_input: bool) -> Sequence:
        """The detections of one frame this rule fires for, in order."""
        if self.requires_auxiliary_input and not auxiliary_input:
            return ()
        if self.label_class is None:
            return detections
        if not self.label_class:
            # Pure input-triggered rule (e.g. "menu button shows the menu").
            return (None,)
        return [d for d in detections if d.name in self.label_class]


class TransactionBank:
    """Registry of trigger rules and transaction id allocation."""

    def __init__(self) -> None:
        self._rules: list[TriggerRule] = []
        self._next_id = 0

    def register(
        self,
        name: str,
        label_class: Iterable[str] | None,
        factory: TransactionFactory | None = None,
        requires_auxiliary_input: bool = False,
        *,
        frame_factory: FrameFactory | None = None,
    ) -> TriggerRule:
        """Add a row to the bank and return it.

        Pass ``label_class=ANY_LABEL`` (``None``) for a rule that fires for
        every detection, or an empty iterable for a rule that only needs
        the auxiliary input.  Give exactly one of ``factory`` (called per
        detection) and ``frame_factory`` (called once per frame with all
        the rule's detections and their ids); the rule stores the
        per-frame form either way.
        """
        if (factory is None) == (frame_factory is None):
            raise ValueError("register needs exactly one of factory and frame_factory")
        if frame_factory is None:

            def frame_factory(detections, transaction_ids):
                return [factory(*trigger) for trigger in zip(detections, transaction_ids)]

        rule = TriggerRule(
            name=name,
            label_class=None if label_class is None else frozenset(label_class),
            factory=frame_factory,
            requires_auxiliary_input=requires_auxiliary_input,
        )
        self._rules.append(rule)
        return rule

    @property
    def rules(self) -> tuple[TriggerRule, ...]:
        return tuple(self._rules)

    def transactions_for(
        self,
        detections: Iterable[Detection],
        auxiliary_input: bool = False,
    ) -> list[tuple[Any, Detection | None]]:
        """Draft the transactions triggered by a frame's detections.

        Each rule's factory is called at most once, with all the
        detections that fired it and as many fresh ids (``<rule>-<n>``,
        ``n`` counting every id the bank has handed out).  Returns
        ``(draft, triggering_detection)`` pairs; a pure auxiliary-input
        rule fires at most once per frame with ``triggering_detection=None``.
        """
        triggered: list[tuple[Any, Detection | None]] = []
        if not self._rules:
            return triggered
        detections = list(detections)
        for rule in self._rules:
            fired = rule.fired_by(detections, auxiliary_input)
            if fired:
                first = self._next_id + 1
                self._next_id += len(fired)
                ids = _TransactionIds(f"{rule.name}-", range(first, self._next_id + 1))
                triggered.extend(zip(rule.factory(fired, ids), fired))
        return triggered
