"""The edge node: input processing and transaction processing (§3.3.2).

The edge node hosts the small model ``Me``, the partition's data store,
the transactions bank and the concurrency controller.  Its two
components are modelled as two groups of methods:

* **input processing** — run the edge model, drop low-confidence labels,
  look up triggered transactions in the bank;
* **transaction processing (TPC)** — run initial sections when a frame
  arrives and final sections when the corrected labels come back from
  the cloud, matching edge labels to cloud labels by bounding-box
  overlap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.detection.feedback import CorrectionMemory, TemporalSmoother
from repro.detection.labels import Detection, LabelSet
from repro.detection.matching import FrameOverlaps
from repro.detection.models import SimulatedDetector
from repro.detection.profiles import ModelProfile
from repro.network.topology import MachineProfile
from repro.storage.kvstore import KeyValueStore
from repro.storage.locks import LockManager
from repro.transactions.bank import TransactionBank
from repro.transactions.exceptions import TransactionAborted
from repro.transactions.history import History
from repro.transactions.model import MultiStageTransaction
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.policy import ImmediatePolicy, TransactionPolicy
from repro.video.frames import Frame


@dataclass(slots=True)
class TriggeredTransaction:
    """A transaction the TPC initial-committed for a frame, with its trigger
    (``aborted`` is set when a failure aborts it before its final section)."""

    transaction: MultiStageTransaction
    trigger_detection: Detection | None
    aborted: bool = False


@dataclass(slots=True)
class InitialStageOutcome:
    """What the edge produced for one frame before any cloud involvement.

    ``triggered`` holds the transactions whose initial section committed;
    ``denied`` counts the frame's other attempts (a denied admission, or
    an abort before the initial commit), which left no object behind.
    """

    frame_id: int
    raw_labels: LabelSet
    labels: LabelSet  # after the low-confidence filter
    detection_latency: float
    triggered: list[TriggeredTransaction] = field(default_factory=list)
    denied: int = 0
    txn_latency: float = 0.0

    @property
    def attempts(self) -> int:
        """Transactions the frame triggered: committed entries plus denials."""
        return len(self.triggered) + self.denied

    @property
    def committed(self) -> list[TriggeredTransaction]:
        return [item for item in self.triggered if not item.aborted]


@dataclass(slots=True)
class FinalStageOutcome:
    """Result of running the final sections for one frame."""

    frame_id: int
    #: The frame's edge-vs-cloud geometry (``None`` when it was not validated).
    overlaps: FrameOverlaps | None = None
    txn_latency: float = 0.0
    apologies: tuple[str, ...] = ()
    corrections: int = 0
    new_transactions: int = 0
    #: Missed-label attempts that did not initial-commit (as ``InitialStageOutcome.denied``).
    denied: int = 0


class EdgeNode:
    """The edge node: ``Me``, the data store and the TPC.

    Both stages admit the bank's drafts through the policy; an attempt
    whose admission is denied is counted in the stage outcome's
    ``denied`` and still charged its processing cost in the initial stage.
    """

    def __init__(
        self,
        profile: ModelProfile,
        machine: MachineProfile,
        bank: TransactionBank,
        rng: np.random.Generator,
        min_confidence: float = 0.05,
        match_overlap: float = 0.10,
        consistency: str = "ms-ia",
        history: History | None = None,
        enable_feedback: bool = False,
        policy: TransactionPolicy | None = None,
    ) -> None:
        self._machine = machine
        self._detector = SimulatedDetector(profile, rng, latency_scale=machine.compute_scale)
        self._bank = bank
        self._min_confidence = min_confidence
        self._match_overlap = match_overlap
        self.feedback = CorrectionMemory() if enable_feedback else None
        self.smoother = TemporalSmoother() if enable_feedback else None
        self.store = KeyValueStore()
        self.locks = LockManager()
        # All transaction processing goes through the policy seam: when no
        # policy is given, the node builds the consistency level's plain
        # controller behind the default immediate policy — bit-for-bit the
        # legacy behaviour.  A caller-supplied policy (a distributed
        # controller behind batched/async 2PC, say) replaces the whole
        # stack; the node keeps delegating blindly either way.
        if policy is None:
            if consistency == "ms-sr":
                controller: TwoStage2PL | MSIAController = TwoStage2PL(
                    self.store, self.locks, history=history
                )
            else:
                controller = MSIAController(self.store, self.locks, history=history)
            policy = ImmediatePolicy(controller)
        self.policy = policy
        self.controller = policy.controller

    @property
    def model_name(self) -> str:
        return self._detector.name

    @property
    def machine(self) -> MachineProfile:
        return self._machine

    @property
    def bank(self) -> TransactionBank:
        return self._bank

    # -- input processing --------------------------------------------------
    def detect(self, frame: Frame) -> tuple[LabelSet, float]:
        """Run ``Me`` on a frame; returns (raw labels, detection latency)."""
        return self._detector.detect(frame)

    def filter_labels(self, labels: LabelSet) -> LabelSet:
        """Drop low-confidence detections and apply edge-model feedback.

        When feedback is enabled (footnote 1 of the paper), the labels are
        first smoothed over recent frames and their confidences/names are
        adjusted using the correction statistics learned from the cloud.
        """
        filtered = labels.filter_confidence(self._min_confidence)
        if self.smoother is not None:
            filtered = self.smoother.smooth(filtered)
        if self.feedback is not None:
            filtered = self.feedback.adjust(filtered)
        return filtered

    # -- initial stage -----------------------------------------------------
    def process_initial_stage(
        self,
        frame: Frame,
        labels: LabelSet,
        now: float = 0.0,
        detection_latency: float = 0.0,
    ) -> InitialStageOutcome:
        """Trigger and run the initial sections for a frame's labels."""
        filtered = self.filter_labels(labels)
        outcome = InitialStageOutcome(
            frame_id=frame.frame_id,
            raw_labels=labels,
            labels=filtered,
            detection_latency=detection_latency,
        )

        drafts = self._bank.transactions_for(
            filtered.detections, auxiliary_input=frame.auxiliary_input
        )
        admit = self.policy.admit
        for draft, detection in drafts:
            try:
                transaction = admit(draft, detection, now)
            except TransactionAborted:
                transaction = None
            if transaction is None:
                outcome.denied += 1
            else:
                outcome.triggered.append(TriggeredTransaction(transaction, detection))
            outcome.txn_latency += self._transaction_cost(draft)
        return outcome

    # -- final stage -------------------------------------------------------
    def process_final_stage(
        self,
        initial: InitialStageOutcome,
        cloud_labels: LabelSet | None,
        now: float = 0.0,
    ) -> FinalStageOutcome:
        """Run the final sections for a frame.

        When ``cloud_labels`` is ``None`` the frame was not validated: the
        final sections run with the original edge labels (no correction).
        Otherwise edge labels are matched to cloud labels and each final
        section receives the corrected label; unmatched cloud labels
        trigger fresh transactions whose initial and final sections both
        run now (§3.3.2, last paragraph).
        """
        outcome = FinalStageOutcome(frame_id=initial.frame_id)

        if cloud_labels is None:
            # Iterate triggered directly: the `committed` property builds a
            # fresh list per call, and this path runs once per frame.
            for entry in initial.triggered:
                if not entry.aborted:
                    self._finalize(entry, entry.trigger_detection, outcome, now)
            return outcome

        detections = initial.labels.detections
        overlaps = FrameOverlaps(detections, cloud_labels.detections, self._match_overlap)
        outcome.overlaps = overlaps
        if self.feedback is not None:
            self.feedback.observe(overlaps.match_report())
        outcome.corrections = overlaps.confirmed.count(False)

        # Triggers are the label set's own detection objects (the bank
        # hands back what it was given), so identity finds their row.
        row_of = {id(detection): row for row, detection in enumerate(detections)}
        for entry in initial.triggered:
            if entry.aborted:
                continue
            trigger = entry.trigger_detection
            row = row_of.get(id(trigger))
            corrected = trigger if row is None else overlaps.corrected(row)
            self._finalize(entry, corrected, outcome, now)

        # Cloud labels no edge label claimed: they should have triggered
        # transactions but their labels were missing from Le.
        missed = self._bank.transactions_for(overlaps.unmatched_cloud(), auxiliary_input=False)
        for draft, detection in missed:
            try:
                transaction = self.policy.admit(draft, labels=detection, now=now)
            except TransactionAborted:
                transaction = None
            if transaction is None:
                outcome.denied += 1
                continue
            try:
                self.policy.process_final(transaction, labels=detection, now=now)
            except TransactionAborted:
                continue
            outcome.new_transactions += 1
            outcome.txn_latency += self._transaction_cost(draft)
        return outcome

    def _finalize(
        self,
        entry: TriggeredTransaction,
        corrected: Detection | None,
        outcome: FinalStageOutcome,
        now: float,
    ) -> None:
        try:
            self.policy.process_final(entry.transaction, labels=corrected, now=now)
        except TransactionAborted:
            return
        outcome.apologies = outcome.apologies + entry.transaction.apologies
        outcome.txn_latency += self._transaction_cost(entry.transaction)

    def _transaction_cost(self, draft: Any) -> float:
        """Simulated processing cost of one section batch of operations
        (a draft or a built transaction: the keys both sections declare)."""
        return max(draft.key_count, 1) * self._machine.txn_overhead
