"""Tests for the batch sequencer."""

import numpy as np

from repro.transactions.exceptions import TransactionAborted
from repro.transactions.model import MultiStageTransaction, SectionSpec
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ops import ReadWriteSet
from repro.transactions.sequencer import Sequencer
from repro.workloads.hotspot import HotspotWorkload

from helpers import noop_section


def _txn(txn_id: str, keys: set[str]) -> MultiStageTransaction:
    rwset = ReadWriteSet(reads=frozenset(keys), writes=frozenset(keys))
    return MultiStageTransaction(
        transaction_id=txn_id,
        initial=SectionSpec(body=lambda ctx: None, rwset=rwset),
        final=noop_section(),
    )


class TestSequencer:
    def test_non_conflicting_transactions_share_a_wave(self):
        waves = Sequencer().schedule([_txn("a", {"x"}), _txn("b", {"y"}), _txn("c", {"z"})])
        assert len(waves) == 1
        assert len(waves[0]) == 3

    def test_conflicting_transactions_are_separated(self):
        waves = Sequencer().schedule([_txn("a", {"x"}), _txn("b", {"x"})])
        assert len(waves) == 2

    def test_no_wave_contains_conflicting_transactions(self):
        rng = np.random.default_rng(0)
        workload = HotspotWorkload(rng=rng, key_range=10, batch_size=50)
        waves = Sequencer().schedule(workload.build_batch())
        for wave in waves:
            for i, left in enumerate(wave):
                for right in wave[i + 1:]:
                    assert not left.conflicts_with(right)

    def test_all_transactions_scheduled_exactly_once(self):
        rng = np.random.default_rng(1)
        workload = HotspotWorkload(rng=rng, key_range=100, batch_size=30)
        batch = workload.build_batch()
        waves = Sequencer().schedule(batch)
        scheduled = [txn.transaction_id for wave in waves for txn in wave]
        assert sorted(scheduled) == sorted(txn.transaction_id for txn in batch)

    def test_conflicting_transactions_keep_submission_order(self):
        first = _txn("first", {"x"})
        second = _txn("second", {"x"})
        third = _txn("third", {"x"})
        waves = Sequencer().schedule([first, second, third])
        order = [wave[0].transaction_id for wave in waves]
        assert order == ["first", "second", "third"]

    def test_issued_counter(self):
        sequencer = Sequencer()
        sequencer.schedule([_txn("a", {"x"}), _txn("b", {"y"})])
        assert sequencer.issued == 2

    def test_sequenced_waves_never_abort_under_ms_ia(self, store):
        """The paper's 0%-abort configuration: waves are conflict-free, so the
        MS-IA controller never denies a lock."""
        rng = np.random.default_rng(2)
        workload = HotspotWorkload(rng=rng, key_range=5, batch_size=40)
        batch = workload.build_batch()
        controller = MSIAController(store)
        for wave in Sequencer().schedule(batch):
            for txn in wave:
                controller.process_initial(txn)
            for txn in wave:
                controller.process_final(txn)
        assert controller.stats.aborts == 0
        assert controller.stats.final_commits == 40
