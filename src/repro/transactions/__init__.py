"""Multi-stage transactions — the paper's core contribution.

A multi-stage transaction has an *initial section* triggered by edge
labels and a *final section* triggered by the corrected cloud labels.
This package provides:

* the transaction model and programming interface
  (:class:`MultiStageTransaction`, :class:`SectionSpec`,
  :class:`SectionContext`),
* the transaction bank that maps label classes to triggered transactions,
* two concurrency controllers implementing the paper's two safety
  levels — :class:`TwoStage2PL` for MS-SR (Algorithm 1) and
  :class:`MSIAController` for MS-IA (Algorithm 2),
* an execution history that checks the MS-SR / MS-IA ordering
  conditions as each section commits (an online fold),
* a single-threaded batch :class:`Sequencer` (the paper's abort-free
  MS-IA configuration),
* the pluggable commit-policy layer (:mod:`repro.transactions.policy`):
  one :class:`TransactionPolicy` protocol over every controller, with
  immediate, batched, and async 2PC policies selectable by name.
"""

from repro.transactions.bank import ANY_LABEL, TransactionBank, TriggerRule
from repro.transactions.checker import check_ms_ia, check_ms_sr
from repro.transactions.distributed import (
    DistributedMSIAController,
    DistributedTwoStage2PL,
)
from repro.transactions.exceptions import (
    CommitOutOfOrder,
    InvariantViolation,
    SectionOrderError,
    TransactionAborted,
)
from repro.transactions.history import History, SectionRecord
from repro.transactions.model import (
    MultiStageTransaction,
    SectionContext,
    SectionKind,
    SectionSpec,
    TransactionStatus,
)
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ms_sr import TwoStage2PL
from repro.transactions.ops import Operation, OperationKind
from repro.transactions.policy import (
    TXN_POLICIES,
    AsyncTwoPhasePolicy,
    BatchedTwoPhasePolicy,
    ImmediatePolicy,
    PolicyStats,
    TransactionPolicy,
    make_policy,
)
from repro.transactions.sequencer import Sequencer

__all__ = [
    "MultiStageTransaction",
    "SectionSpec",
    "SectionContext",
    "SectionKind",
    "TransactionStatus",
    "Operation",
    "OperationKind",
    "TransactionBank",
    "TriggerRule",
    "ANY_LABEL",
    "History",
    "SectionRecord",
    "check_ms_sr",
    "check_ms_ia",
    "TwoStage2PL",
    "MSIAController",
    "Sequencer",
    "DistributedMSIAController",
    "DistributedTwoStage2PL",
    "TransactionPolicy",
    "ImmediatePolicy",
    "BatchedTwoPhasePolicy",
    "AsyncTwoPhasePolicy",
    "PolicyStats",
    "make_policy",
    "TXN_POLICIES",
    "TransactionAborted",
    "InvariantViolation",
    "SectionOrderError",
    "CommitOutOfOrder",
]
