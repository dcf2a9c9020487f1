"""YCSB-Workload-A-like transaction generator.

"Each detection acquired for each frame triggers a transaction that has 6
operations, half of these mutate the state of the database by inserting
data items, and the other half read from previously added items. This
mimics a write-heavy workload of YCSB (Workload A)." — paper §5.1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.detection.labels import Detection
from repro.transactions.model import MultiStageTransaction, SectionContext, SectionSpec
from repro.transactions.ops import ReadWriteSet


@dataclass
class YCSBWorkload:
    """Builds detection-triggered transactions with a YCSB-A operation mix.

    Parameters
    ----------
    rng:
        Generator used to pick keys.
    operations_per_transaction:
        Total read+write operations per transaction (6 in the paper).
    key_space:
        Number of distinct keys new inserts are spread over.
    final_write_fraction:
        Fraction of the writes deferred to the final section; the initial
        section performs the rest.  The paper's transactions do their
        visible work in the initial section and corrections in the final
        one, so the default keeps one write for the final section.
    """

    rng: np.random.Generator
    operations_per_transaction: int = 6
    key_space: int = 100_000
    final_write_fraction: float = 0.34

    _inserted: int = 0

    def __post_init__(self) -> None:
        if self.operations_per_transaction < 2:
            raise ValueError("need at least one read and one write per transaction")
        if not 0.0 <= self.final_write_fraction <= 1.0:
            raise ValueError("final_write_fraction must be in [0, 1]")
        # The operation mix is fixed per workload instance.
        self._num_writes = self.operations_per_transaction // 2
        self._num_reads = self.operations_per_transaction - self._num_writes
        num_final_writes = max(1, int(round(self._num_writes * self.final_write_fraction)))
        self._num_initial_writes = max(0, self._num_writes - num_final_writes)

    def build_transaction(
        self,
        transaction_id: str,
        detection: Detection | None = None,
    ) -> MultiStageTransaction:
        """Create one YCSB-A transaction triggered by ``detection``."""
        write_keys = [self._fresh_key() for _ in range(self._num_writes)]
        read_keys = [self._existing_key() for _ in range(self._num_reads)]
        initial_writes = write_keys[: self._num_initial_writes]
        final_writes = write_keys[self._num_initial_writes :]
        label_name = detection.name if detection is not None else "none"

        def initial_body(ctx: SectionContext) -> dict:
            values = {key: ctx.read(key, default=0) for key in read_keys}
            for key in initial_writes:
                ctx.write(key, {"label": label_name, "stage": "initial"})
            ctx.put_handoff("observed", values)
            ctx.put_handoff("label", label_name)
            return {"read": values, "label": label_name}

        def final_body(ctx: SectionContext) -> dict:
            corrected = getattr(ctx.labels, "name", None) if ctx.labels is not None else None
            original = ctx.get_handoff("label")
            if corrected is not None and corrected != original:
                ctx.apologize(f"label corrected from {original!r} to {corrected!r}")
            for key in final_writes:
                ctx.write(key, {"label": corrected or original, "stage": "final"})
            return {"corrected": corrected, "original": original}

        return MultiStageTransaction(
            transaction_id=transaction_id,
            initial=SectionSpec(
                body=initial_body,
                rwset=ReadWriteSet(reads=frozenset(read_keys), writes=frozenset(initial_writes)),
            ),
            final=SectionSpec(
                body=final_body,
                rwset=ReadWriteSet(writes=frozenset(final_writes)),
            ),
            trigger=f"ycsb:{label_name}",
        )

    # -- key selection -----------------------------------------------------
    def _fresh_key(self) -> str:
        """Key for an insert; spread over the key space."""
        self._inserted += 1
        return f"item-{int(self.rng.integers(0, self.key_space))}-{self._inserted}"

    def _existing_key(self) -> str:
        """Key for a read of a previously added item (or a cold key early on)."""
        if self._inserted == 0:
            return f"item-{int(self.rng.integers(0, self.key_space))}-0"
        pick = int(self.rng.integers(1, self._inserted + 1))
        return f"item-{int(self.rng.integers(0, self.key_space))}-{pick}"
