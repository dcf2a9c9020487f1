"""Hotspot contention workload (Figure 6b).

"transactions are executed in batches of 50 transactions per batch where
each transaction has 5 update operations" over a hot spot whose key range
is varied from tens of keys to 100K keys — small ranges produce heavy
lock conflicts under MS-SR.

A transaction is one row of drawn keys, its two sections spans of that
row sharing one body (:class:`_Increment`).  A frame's transactions draw
all their keys in one ``rng.integers`` call — exactly the keys, in the
order one-at-a-time draws produce them, so the generator's state does not
depend on how transactions are grouped (``tests/test_workload_pins.py``).
The frame body admits :meth:`HotspotWorkload.draft_transactions`' drafts
(id, row and the union's lock requests, the row's sorted distinct keys,
built once as the draft is); only a granted one is built into sections.
A draft builds its initial section's requests on the first ask.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.transactions.model import (
    MultiStageTransaction,
    RowSection,
    SectionContext,
    TransactionDraft,
)


class _Increment(RowSection):
    """Read-increment-write each of the section's keys, in draw order."""

    __slots__ = ()

    def body(self, ctx: SectionContext) -> int:
        keys = self.row[self._write_keys]
        for key in keys:
            current = ctx.read(key, default=0) or 0
            ctx.write(key, current + 1)
        return len(keys)


class _HotKeys(dict):
    """``draw -> "<prefix>-<draw>"``, each string built once, on its first draw."""

    __slots__ = ("prefix",)

    def __init__(self, prefix: str) -> None:
        super().__init__()
        self.prefix = prefix

    def __missing__(self, draw: int) -> str:
        key = self[draw] = f"{self.prefix}-{draw}"
        return key


@dataclass
class HotspotWorkload:
    """Builds batches of update transactions over a hot key range.

    Parameters
    ----------
    rng:
        Generator used to pick hot keys.
    key_range:
        Size of the hot spot (number of distinct keys).
    updates_per_transaction:
        Update operations per transaction (5 in the paper).
    batch_size:
        Transactions per batch (50 in the paper).
    final_updates:
        How many of the updates run in the final section; the rest run in
        the initial section.
    key_prefix:
        Prefix of the hot keys.  Workload instances sharing a prefix
        contend for the same hot range (e.g. many camera streams hammering
        one counter table across a cluster); distinct prefixes keep their
        hot spots disjoint.
    txn_prefix:
        Prefix of generated transaction ids; defaults to ``key_prefix``.
        Give each workload instance its own ``txn_prefix`` when several
        instances share a ``key_prefix``, so lock holders stay distinct.
    """

    rng: np.random.Generator
    key_range: int
    updates_per_transaction: int = 5
    batch_size: int = 50
    final_updates: int = 1
    key_prefix: str = "hot"
    txn_prefix: str = ""
    _counter: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.key_range < 1:
            raise ValueError("key_range must be at least 1")
        if not 0 <= self.final_updates <= self.updates_per_transaction:
            raise ValueError("final_updates must be within updates_per_transaction")
        # Fixed per workload instance: the id prefix and the spans of a
        # transaction's row that its initial / final section / both update.
        self._id_prefix = f"{self.txn_prefix or self.key_prefix}-"
        split = self.updates_per_transaction - self.final_updates
        self._spans = slice(0, split), slice(split, None), slice(None)
        #: What the initial section reads and writes (a draft's admission).
        self.initial_spans = self._spans[0], self._spans[0]
        # One string per hot key, built on its first draw: every update of
        # a key shares it (the range itself may be far wider than the draws).
        self._keys = _HotKeys(self.key_prefix)

    def build_batch(self) -> list[MultiStageTransaction]:
        """Create one batch of hotspot transactions."""
        return self.build_transactions(self.batch_size)

    def build_transactions(self, count: int) -> list[MultiStageTransaction]:
        """Create ``count`` transactions (a frame's worth) from one key draw."""
        return [draft.materialise() for draft in self.draft_transactions(count)]

    def draft_transactions(self, count: int) -> list[TransactionDraft]:
        """Draft ``count`` transactions (a frame's worth) from one key draw:
        ids and rows only, as :meth:`build_transactions` would build them."""
        if count <= 0:
            return []
        updates = self.updates_per_transaction
        draws = self.rng.integers(0, self.key_range, size=count * updates).tolist()
        keys = list(map(self._keys.__getitem__, draws))
        id_prefix, first, span = self._id_prefix, self._counter + 1, self._spans[2]
        self._counter += count
        drafts = []
        for index, at in enumerate(range(0, count * updates, updates)):
            row = tuple(keys[at : at + updates])
            # Every key is updated: the union's requests are the sorted keys, all X.
            union = tuple(sorted(set(row)))
            draft_id = f"{id_prefix}{first + index}"
            drafts.append(TransactionDraft(draft_id, row, span, span, self, len(union), union, ()))
        return drafts

    def materialise(self, draft: TransactionDraft) -> MultiStageTransaction:
        """Build a granted draft's transaction; the draft stays its union."""
        initial_span, final_span, _ = self._spans
        row = draft.row
        return MultiStageTransaction(
            transaction_id=draft.transaction_id,
            initial=_Increment(
                initial_span, initial_span, row, draft.initial_exclusive, draft.initial_shared
            ),
            final=_Increment(final_span, final_span, row),
            trigger="hotspot",
            combined=draft,
        )
