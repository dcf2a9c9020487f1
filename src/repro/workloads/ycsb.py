"""YCSB-Workload-A-like transaction generator.

"Each detection acquired for each frame triggers a transaction that has 6
operations, half of these mutate the state of the database by inserting
data items, and the other half read from previously added items. This
mimics a write-heavy workload of YCSB (Workload A)." — paper §5.1.

A transaction is one row — its label, its insert keys, its read keys —
and its sections are spans of that row
(:class:`~repro.transactions.model.RowSection`).  A frame's transactions
draw all their keys in one ``rng.integers`` call with per-element
bounds: exactly the draws one scalar call per key makes, bit for bit and
generator state included (``tests/test_workloads.py`` pins that NumPy
fact), so keys do not depend on how transactions are grouped into frames.
The frame body admits :meth:`YCSBWorkload.draft_transactions`' drafts
(id, row and both sections' lock requests, sorted while the keys are
sliced); only a granted one is built into sections, which take the
draft's requests as their own.

An insert stores the payload ``{"label": label, "stage": stage}``, built
once per ``(label, stage)`` and shared by every write with that label and
stage, so the label vocabulary bounds the number of payloads and a
recorded write costs its slots, not a new dict.  Like ``BoundingBox`` or
``SceneObject``, a payload is immutable by convention: nothing assigns
into a stored value, and the store, the WAL, checkpoints, backups and the
``History`` all alias the object they were handed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Sequence

import numpy as np

from repro.detection.labels import Detection
from repro.transactions.model import (
    MultiStageTransaction,
    RowSection,
    SectionContext,
    TransactionDraft,
)

#: ``(label, stage)`` -> the payload every such insert stores.  Shared by
#: every workload in the process: a payload is a function of its key and
#: never mutated, so which workload built it first cannot be observed.
_PAYLOADS: dict[tuple[str, str], dict] = {}


def _payload(label: str, stage: str) -> dict:
    """The one ``{"label": label, "stage": stage}`` every such insert stores."""
    payload = _PAYLOADS.get((label, stage))
    if payload is None:
        payload = _PAYLOADS[label, stage] = {"label": label, "stage": stage}
    return payload


class _InsertAndRead(RowSection):
    """Initial section: read the existing items, insert the new ones."""

    __slots__ = ()

    def body(self, ctx: SectionContext) -> dict:
        row = self.row
        label = row[0]
        values = {key: ctx.read(key, 0) for key in row[self._read_keys]}
        payload = _payload(label, "initial")
        for key in row[self._write_keys]:
            ctx.write(key, payload)
        ctx.put_handoff("observed", values)
        ctx.put_handoff("label", label)
        return {"read": values, "label": label}


class _InsertCorrected(RowSection):
    """Final section: insert the deferred items under the corrected label."""

    __slots__ = ()

    def body(self, ctx: SectionContext) -> dict:
        corrected = getattr(ctx.labels, "name", None) if ctx.labels is not None else None
        original = ctx.get_handoff("label")
        if corrected is not None and corrected != original:
            ctx.apologize(f"label corrected from {original!r} to {corrected!r}")
        payload = _payload(corrected or original, "final")
        for key in self.row[self._write_keys]:
            ctx.write(key, payload)
        return {"corrected": corrected, "original": original}


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
        Fraction of the writes deferred to the final section, rounded,
        with a floor of one: the final section always inserts at least
        one item (``0.0`` still defers one) and the initial section
        performs the rest.  The paper's transactions do their visible
        work in the initial section and corrections in the final one, so
        the default keeps one write for the final section.
    """

    rng: np.random.Generator
    operations_per_transaction: int = 6
    key_space: int = 100_000
    final_write_fraction: float = 0.34

    _inserted: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.operations_per_transaction < 2:
            raise ValueError("need at least one read and one write per transaction")
        if not 0.0 <= self.final_write_fraction <= 1.0:
            raise ValueError("final_write_fraction must be in [0, 1]")
        # The operation mix is fixed per workload instance.
        writes = self._num_writes = self.operations_per_transaction // 2
        reads = self._num_reads = self.operations_per_transaction - writes
        final_writes = max(1, int(round(writes * self.final_write_fraction)))
        split = 1 + max(0, writes - final_writes)
        self._initial_inserts = split - 1
        # A row is (label, insert keys..., read keys...); its spans:
        self._spans = (
            slice(0, 0),  # nothing (the final section reads no item)
            slice(1 + writes, None),  # the items read
            slice(1, split),  # the items the initial section inserts
            slice(split, 1 + writes),  # the items the final section inserts
            slice(1, 1 + writes),  # every item inserted
        )
        # Lower bounds of one transaction's draws, in draw order: a bucket
        # in [0, key_space) per insert, then per read an insert number in
        # [1, inserted] and a bucket.
        self._lows = np.array([0] * writes + [1, 0] * reads, dtype=np.int64)
        #: Transactions in a frame -> the frame's tiled lower bounds, its upper
        #: bounds before the items inserted by earlier frames go in, and the
        #: mask of its insert-number draws (frames repeat sizes).
        self._bounds: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def build_transaction(
        self,
        transaction_id: str,
        detection: Detection | None = None,
    ) -> MultiStageTransaction:
        """Create one YCSB-A transaction triggered by ``detection``."""
        return self.build_transactions([detection], [transaction_id])[0]

    def build_transactions(
        self,
        detections: Sequence[Detection | None],
        transaction_ids: Collection[str],
    ) -> list[MultiStageTransaction]:
        """Create one transaction per detection (a frame's worth) from one
        key draw."""
        return [
            draft.materialise() for draft in self.draft_transactions(detections, transaction_ids)
        ]

    def draft_transactions(
        self,
        detections: Sequence[Detection | None],
        transaction_ids: Collection[str],
    ) -> list[TransactionDraft]:
        """Draft one transaction per detection (a frame's worth) from one key
        draw: ids, rows and each section's lock requests, as
        :meth:`build_transactions` would build them.  The signature is the
        bank's per-frame factory."""
        count = len(transaction_ids)
        if len(detections) != count:
            raise ValueError(
                f"{len(detections)} detections for {count} transaction ids: "
                "a frame drafts one transaction per detection"
            )
        if count == 0:
            return []
        writes = self._num_writes
        per_transaction = len(self._lows)
        # Transaction t reads among the items inserted up to and including
        # its own: an insert number's upper bound is the frame's picks mask
        # times the items inserted before the frame, plus the frame's own.
        bounds = self._bounds.get(count)
        if bounds is None:
            highs = np.full((count, per_transaction), self.key_space, dtype=np.int64)
            highs[:, writes::2] = writes * np.arange(1, count + 1)[:, None] + 1
            picks = np.zeros((count, per_transaction), dtype=np.int64)
            picks[:, writes::2] = 1
            bounds = self._bounds[count] = np.tile(self._lows, count), highs.ravel(), picks.ravel()
        lows, highs, picks = bounds
        upper = picks * self._inserted
        upper += highs
        grid = self.rng.integers(lows, upper).reshape(count, per_transaction)

        # The frame's keys, formatted in two passes: one over its insert draws
        # (insert ``i`` of transaction ``t`` is item number ``first + t *
        # writes + i``, so the numbers run in the inserts' order) and one over
        # its (insert number, bucket) read draws.  A row is two slices.
        first = self._inserted + 1
        self._inserted += writes * count
        inserts = [
            f"item-{bucket}-{number}"
            for bucket, number in zip(
                grid[:, :writes].ravel().tolist(), range(first, self._inserted + 1)
            )
        ]
        draws = iter(grid[:, writes:].ravel().tolist())
        reads = [f"item-{bucket}-{number}" for number, bucket in zip(draws, draws)]
        per_read, initial_inserts = self._num_reads, self._initial_inserts
        read_span, write_span = self._spans[1], self._spans[4]
        # Each draft carries both sections' lock requests, sorted from the
        # keys it slices for its row.  Insert keys carry distinct item
        # numbers, so only the reads need de-duplicating; the final section
        # reads nothing.
        drafts = []
        for transaction_id, detection, insert_at, read_at in zip(
            transaction_ids,
            detections,
            range(0, len(inserts), writes),
            range(0, len(reads), per_read),
        ):
            split = insert_at + initial_inserts
            initial = inserts[insert_at:split]
            final = inserts[split : insert_at + writes]
            read = reads[read_at : read_at + per_read]
            row = ("none" if detection is None else detection.name, *initial, *final, *read)
            initial.sort()
            final.sort()
            only_read = set(read)
            only_read.difference_update(initial)
            key_count = writes + len(only_read)
            for key in final:
                if key in only_read:  # a final insert read back: one key
                    key_count -= 1
            drafts.append(
                TransactionDraft(
                    transaction_id,
                    row,
                    read_span,
                    write_span,
                    self,
                    key_count,
                    None,  # the union's requests, built on first ask
                    None,
                    tuple(initial),
                    tuple(sorted(only_read)),
                    tuple(final),
                    (),
                )
            )
        return drafts

    def materialise(self, draft: TransactionDraft) -> MultiStageTransaction:
        """Build a granted draft's transaction; the draft stays its union."""
        no_span, read_span, initial_write_span, final_write_span, _ = self._spans
        row = draft.row
        return MultiStageTransaction(
            transaction_id=draft.transaction_id,
            initial=_InsertAndRead(
                read_span, initial_write_span, row, draft.initial_exclusive, draft.initial_shared
            ),
            final=_InsertCorrected(
                no_span, final_write_span, row, draft.final_exclusive, draft.final_shared
            ),
            trigger=f"ycsb:{row[0]}",
            combined=draft,
        )
