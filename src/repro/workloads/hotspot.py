"""Hotspot contention workload (Figure 6b).

"transactions are executed in batches of 50 transactions per batch where
each transaction has 5 update operations" over a hot spot whose key range
is varied from tens of keys to 100K keys — small ranges produce heavy
lock conflicts under MS-SR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.transactions.model import MultiStageTransaction, SectionContext, SectionSpec
from repro.transactions.ops import ReadWriteSet


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
    _counter: int = 0

    def __post_init__(self) -> None:
        if self.key_range < 1:
            raise ValueError("key_range must be at least 1")
        if not 0 <= self.final_updates <= self.updates_per_transaction:
            raise ValueError("final_updates must be within updates_per_transaction")
        # Fixed per workload instance.
        self._id_prefix = f"{self.txn_prefix or self.key_prefix}-"
        self._initial_updates = self.updates_per_transaction - self.final_updates

    def build_batch(self) -> list[MultiStageTransaction]:
        """Create one batch of hotspot transactions."""
        return [self.build_transaction() for _ in range(self.batch_size)]

    def build_transaction(self) -> MultiStageTransaction:
        """Create one transaction updating random keys in the hot spot."""
        self._counter += 1
        transaction_id = f"{self._id_prefix}{self._counter}"
        keys = [self._hot_key() for _ in range(self.updates_per_transaction)]
        initial_keys = keys[: self._initial_updates]
        final_keys = keys[self._initial_updates :]

        def initial_body(ctx: SectionContext) -> int:
            for key in initial_keys:
                current = ctx.read(key, default=0) or 0
                ctx.write(key, current + 1)
            return len(initial_keys)

        def final_body(ctx: SectionContext) -> int:
            for key in final_keys:
                current = ctx.read(key, default=0) or 0
                ctx.write(key, current + 1)
            return len(final_keys)

        return MultiStageTransaction(
            transaction_id=transaction_id,
            initial=SectionSpec(
                body=initial_body,
                rwset=ReadWriteSet(reads=frozenset(initial_keys), writes=frozenset(initial_keys)),
            ),
            final=SectionSpec(
                body=final_body,
                rwset=ReadWriteSet(reads=frozenset(final_keys), writes=frozenset(final_keys)),
            ),
            trigger="hotspot",
        )

    def _hot_key(self) -> str:
        return f"{self.key_prefix}-{int(self.rng.integers(0, self.key_range))}"
