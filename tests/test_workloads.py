"""Tests for the YCSB-A and hotspot workload generators."""

import gc

import numpy as np
import pytest

from repro.storage.kvstore import KeyValueStore
from repro.transactions.ms_ia import MSIAController
from repro.transactions.ops import ReadWriteSet
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.ycsb import YCSBWorkload

from helpers import hotspot_transaction, make_detection, ycsb_transaction


class _CountingRng:
    """Records how many integers each ``integers`` call drew."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.draws: list[int] = []

    def integers(self, *args, **kwargs):
        drawn = self._rng.integers(*args, **kwargs)
        self.draws.append(np.size(drawn))
        return drawn


class TestYCSBWorkload:
    def _workload(self, seed: int = 0, **kwargs) -> YCSBWorkload:
        return YCSBWorkload(rng=np.random.default_rng(seed), **kwargs)

    def test_operation_count_matches_paper(self):
        """6 operations per transaction, half reads and half writes."""
        txn = ycsb_transaction(self._workload(), "t1", make_detection("person"))
        reads = len(txn.initial.rwset.reads)
        writes = len(txn.initial.rwset.writes) + len(txn.final.rwset.writes)
        assert reads == 3
        assert writes == 3

    def test_final_section_has_at_least_one_write(self):
        txn = ycsb_transaction(self._workload(), "t1", make_detection("person"))
        assert len(txn.final.rwset.writes) >= 1

    def test_transaction_runs_through_controller(self):
        store = KeyValueStore()
        controller = MSIAController(store)
        workload = self._workload()
        txn = ycsb_transaction(workload, "t1", make_detection("dog"))
        controller.process_initial(txn, labels=make_detection("dog"))
        controller.process_final(txn, labels=make_detection("dog"))
        assert txn.is_committed
        assert len(store) > 0

    def test_corrected_label_triggers_apology(self):
        store = KeyValueStore()
        controller = MSIAController(store)
        txn = ycsb_transaction(self._workload(), "t1", make_detection("dog"))
        controller.process_initial(txn, labels=make_detection("dog"))
        controller.process_final(txn, labels=make_detection("cat"))
        assert txn.apologies

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            self._workload(operations_per_transaction=1)
        with pytest.raises(ValueError):
            self._workload(final_write_fraction=2.0)

    def test_custom_operation_count(self):
        txn = ycsb_transaction(
            self._workload(operations_per_transaction=10), "t1", make_detection("x")
        )
        total_ops = (
            len(txn.initial.rwset.reads)
            + len(txn.initial.rwset.writes)
            + len(txn.final.rwset.writes)
        )
        assert total_ops == 10

    def test_handles_missing_detection(self):
        txn = ycsb_transaction(self._workload(), "t1", None)
        assert txn.trigger == "ycsb:none"

    @pytest.mark.parametrize("fraction, final_writes", [(0.0, 1), (0.34, 1), (0.5, 2), (1.0, 3)])
    def test_final_write_fraction_keeps_a_floor_of_one_final_write(self, fraction, final_writes):
        """The fraction is rounded, and ``0.0`` still defers one insert."""
        txn = ycsb_transaction(self._workload(final_write_fraction=fraction), "t1", None)
        assert len(txn.final.rwset.writes) == final_writes
        assert len(txn.initial.rwset.writes) == 3 - final_writes

    def test_the_insert_counter_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            YCSBWorkload(np.random.default_rng(0), _inserted=7)
        assert "_inserted" not in repr(self._workload())

    def test_a_frame_is_one_draw_of_exactly_its_keys(self):
        rng = _CountingRng(np.random.default_rng(0))
        workload = YCSBWorkload(rng=rng)
        detections = [make_detection("person")] * 7
        assert len(workload.build_transactions(detections, [f"t{i}" for i in range(7)])) == 7
        assert workload.build_transactions([], []) == []
        # Per transaction: a bucket per insert, an insert number and a bucket per read.
        assert rng.draws == [7 * (3 + 2 * 3)]

    @pytest.mark.parametrize("detections, ids", [(1, 3), (3, 1), (0, 2)])
    def test_mismatched_draft_lengths_are_refused(self, detections, ids):
        """One transaction per detection: a frame with more or fewer ids than
        detections is refused, naming both lengths, before anything is
        drawn or counted."""
        rng = _CountingRng(np.random.default_rng(0))
        workload = YCSBWorkload(rng=rng)
        with pytest.raises(ValueError, match=f"{detections} detections for {ids} transaction ids"):
            workload.draft_transactions([None] * detections, [f"t{i}" for i in range(ids)])
        assert rng.draws == []
        assert workload._inserted == 0

    def test_writes_with_the_same_label_and_stage_store_one_object(self):
        """An insert stores ``{"label": l, "stage": s}``, and every insert
        with that label and stage stores the same object."""
        store = KeyValueStore()
        controller = MSIAController(store)
        edge = ["dog", "cat", "dog", "dog", "cat"]
        cloud = ["dog", "dog", "cat", "dog", "cat"]
        transactions = self._workload().build_transactions(
            [make_detection(label) for label in edge], [f"t{i}" for i in range(len(edge))]
        )
        stored: dict[tuple[str, str], list] = {}
        for txn, edge_label, cloud_label in zip(transactions, edge, cloud):
            controller.process_initial(txn, labels=make_detection(edge_label))
            controller.process_final(txn, labels=make_detection(cloud_label))
            for keys, label, stage in (
                (txn.initial.rwset.write_keys, edge_label, "initial"),
                (txn.final.rwset.write_keys, cloud_label, "final"),
            ):
                for key in keys:
                    value = store.read(key)
                    assert value == {"label": label, "stage": stage}
                    stored.setdefault((label, stage), []).append(value)

        assert sorted(stored) == [
            ("cat", "final"),
            ("cat", "initial"),
            ("dog", "final"),
            ("dog", "initial"),
        ]
        assert sum(map(len, stored.values())) == 3 * len(transactions)
        for values in stored.values():
            assert len({id(value) for value in values}) == 1
        assert len({id(values[0]) for values in stored.values()}) == len(stored)


class TestHotspotWorkload:
    def _workload(self, key_range: int = 10, **kwargs) -> HotspotWorkload:
        return HotspotWorkload(rng=np.random.default_rng(0), key_range=key_range, **kwargs)

    def test_batch_size(self):
        batch = self._workload(batch_size=50).build_batch()
        assert len(batch) == 50

    def test_updates_per_transaction(self):
        txn = hotspot_transaction(self._workload(updates_per_transaction=5))
        total_keys = len(txn.initial.rwset.writes) + len(txn.final.rwset.writes)
        # Random key collisions within a transaction can reduce the count,
        # but it can never exceed the requested number of updates.
        assert 1 <= total_keys <= 5

    def test_keys_restricted_to_hot_range(self):
        workload = self._workload(key_range=3)
        txn = hotspot_transaction(workload)
        for key in txn.combined_rwset().keys:
            index = int(key.split("-")[1])
            assert 0 <= index < 3

    def test_small_key_range_produces_conflicts(self):
        workload = self._workload(key_range=2, batch_size=20)
        batch = workload.build_batch()
        conflicts = sum(
            1
            for i, left in enumerate(batch)
            for right in batch[i + 1:]
            if left.conflicts_with(right)
        )
        assert conflicts > 0

    def test_large_key_range_has_fewer_conflicts(self):
        small = self._workload(key_range=10, batch_size=30).build_batch()
        large = HotspotWorkload(
            rng=np.random.default_rng(0), key_range=100_000, batch_size=30
        ).build_batch()

        def count_conflicts(batch):
            return sum(
                1
                for i, left in enumerate(batch)
                for right in batch[i + 1:]
                if left.conflicts_with(right)
            )

        assert count_conflicts(large) < count_conflicts(small)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            self._workload(key_range=0)
        with pytest.raises(ValueError):
            HotspotWorkload(
                rng=np.random.default_rng(0),
                key_range=5,
                updates_per_transaction=3,
                final_updates=4,
            )

    def test_transaction_ids_unique_across_batches(self):
        workload = self._workload()
        ids = [txn.transaction_id for txn in workload.build_batch() + workload.build_batch()]
        assert len(set(ids)) == len(ids)

    def test_a_frame_is_one_draw_of_exactly_its_keys(self):
        rng = _CountingRng(np.random.default_rng(0))
        workload = HotspotWorkload(rng=rng, key_range=10, batch_size=50)
        assert len(workload.build_transactions(7)) == 7
        assert workload.build_transactions(0) == []
        assert len(workload.build_batch()) == 50
        assert rng.draws == [7 * 5, 50 * 5]

    def test_the_id_counter_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            HotspotWorkload(np.random.default_rng(0), 10, _counter=5)
        assert "_counter" not in repr(self._workload())

    def test_one_string_per_hot_key(self):
        """Equal hot keys are one string object, across transactions and frames."""
        workload = self._workload(key_range=3, batch_size=40)
        keys = [key for txn in workload.build_batch() + workload.build_batch() for key in txn.initial.row]
        first_seen: dict[str, str] = {}
        assert all(first_seen.setdefault(key, key) is key for key in keys)
        assert sorted(first_seen) == ["hot-0", "hot-1", "hot-2"] and len(keys) == 400

    def test_a_section_updates_a_key_once_per_draw(self):
        """A key drawn twice is incremented twice but locked and declared once."""
        txn = hotspot_transaction(self._workload(key_range=1, final_updates=2))
        store = KeyValueStore()
        controller = MSIAController(store)
        controller.process_initial(txn)
        assert txn.initial_result == 3 and store.read("hot-0") == 3
        controller.process_final(txn)
        assert txn.final_result == 2 and store.read("hot-0") == 5
        assert txn.initial.rwset.lock_requests() == (("hot-0",), ())
        assert len(txn.combined_rwset().keys) == 1


# -- lock requests built with the draft ---------------------------------------------
@pytest.mark.parametrize(
    "operations, final_write_fraction, key_space",
    [(6, 0.34, 100_000), (6, 0.34, 2), (8, 0.5, 3), (4, 0.0, 1), (5, 1.0, 2), (12, 0.2, 4)],
)
def test_drafted_requests_are_the_declared_requests(operations, final_write_fraction, key_space):
    """A YCSB draft's section requests, built while its keys are formatted,
    are what each section's declaration builds (sorted written keys, then
    sorted keys only read) — tiny key spaces make reads hit the
    transaction's own inserts and repeat — its ``key_count`` is its
    distinct keys, and the built sections hand back the draft's tuples."""
    workload = YCSBWorkload(
        rng=np.random.default_rng(7),
        operations_per_transaction=operations,
        key_space=key_space,
        final_write_fraction=final_write_fraction,
    )
    for frame in range(6):
        count = frame % 4 + 1
        ids = [f"t{frame}-{index}" for index in range(count)]
        for draft in workload.draft_transactions([None] * count, ids):
            transaction = draft.materialise()
            for section, drafted in (
                (transaction.initial, draft.initial_lock_requests()),
                (transaction.final, (draft.final_exclusive, draft.final_shared)),
            ):
                declared = ReadWriteSet(
                    reads=frozenset(section.read_keys), writes=frozenset(section.write_keys)
                )
                assert drafted == declared.lock_requests()
                assert all(a is b for a, b in zip(section.lock_requests(), drafted))
            assert draft.key_count == len(draft.keys)


def test_a_hotspot_draft_builds_the_requests_it_is_asked_for_once():
    """A hotspot draft builds no section requests up front: its initial
    section's are built on the first ask and handed to the built section,
    and the final section's are built by that section when asked."""
    workload = HotspotWorkload(rng=np.random.default_rng(3), key_range=6, final_updates=2)
    for draft in workload.draft_transactions(20):
        assert draft.initial_exclusive is draft.final_exclusive is None
        requests = draft.initial_lock_requests()
        assert all(a is b for a, b in zip(draft.initial_lock_requests(), requests))
        transaction = draft.materialise()
        assert all(a is b for a, b in zip(transaction.initial.lock_requests(), requests))
        assert requests == (tuple(sorted(set(draft.row[:3]))), ())
        assert transaction.final.lock_requests() == (tuple(sorted(set(draft.row[3:]))), ())
        assert draft.key_count == len(set(draft.row))


# -- the NumPy fact the per-frame draws rest on ---------------------------------------
def _same_state(left: np.random.Generator, right: np.random.Generator) -> bool:
    return left.bit_generator.state == right.bit_generator.state


#: Bounds on both sides of 2**32: NumPy switches from 32-bit to 64-bit draws there.
BOUNDS = [(0, 200), (0, 100_000), (1, 8), (0, 2**32 - 1), (0, 2**32), (0, 2**32 + 1), (5, 2**40)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("low, high", BOUNDS)
def test_numpy_sized_integers_are_the_scalar_draws(seed, low, high):
    """``integers(lo, hi, size=k)`` is k ``integers(lo, hi)`` calls, bit for
    bit, and leaves the generator where they leave it.  ``HotspotWorkload``
    draws a frame's keys in one call on the strength of this; a NumPy that
    breaks it must fail here, not as a moved digest somewhere else."""
    for count in (0, 1, 5, 50):
        batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
        # One odd draw first, so half of a 64-bit word is still buffered.
        assert batched.integers(0, 10) == scalar.integers(0, 10)
        drawn = batched.integers(low, high, size=count).tolist()
        assert drawn == [int(scalar.integers(low, high)) for _ in range(count)]
        assert _same_state(batched, scalar)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("key_space", [100_000, 2**32 - 1, 2**33])
def test_numpy_per_element_bounds_are_the_scalar_draws(seed, key_space):
    """The same for ``integers(lows, highs)`` with YCSB's alternating
    bounds: a bucket in ``[0, key_space)`` per insert, then per read an
    insert number in ``[1, inserted]`` followed by a bucket."""
    lows, highs, inserted = [], [], 0
    for _ in range(12):
        inserted += 3
        lows += [0, 0, 0] + [1, 0] * 3
        highs += [key_space] * 3 + [inserted + 1, key_space] * 3
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    drawn = batched.integers(np.array(lows), np.array(highs)).tolist()
    assert drawn == [int(scalar.integers(low, high)) for low, high in zip(lows, highs)]
    assert _same_state(batched, scalar)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("loc", [0.0, 1.0, 0.62])
def test_numpy_four_standard_normals_are_the_scalar_normal_draws(seed, loc):
    """``standard_normal(4)`` followed by ``loc + scale * z`` is four
    ``normal(loc, scale)`` calls, bit for bit, and leaves the generator
    where they leave it.  ``SimulatedDetector`` draws a detection's box
    jitter and confidence in one call on the strength of this."""
    batched, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    assert isinstance(batched.bit_generator, np.random.PCG64)
    for round_ in range(50):
        # The detector's two uniform gates sit between one object's normals and the next's.
        assert batched.random() == scalar.random()
        scales = [0.03 * (round_ + 1), 7.5, 0.05, 0.12]
        drawn = [loc + scale * z for scale, z in zip(scales, batched.standard_normal(4).tolist())]
        assert drawn == [scalar.normal(loc, scale) for scale in scales]
        assert all(type(value) is float for value in drawn)
        assert _same_state(batched, scalar)
    # One scalar standard_normal() (the box_noise = 0 profiles) is one normal() too.
    assert 0.62 + 0.12 * batched.standard_normal() == scalar.normal(0.62, 0.12)
    assert _same_state(batched, scalar)


# -- the allocation budget ------------------------------------------------------------
def _containers_per_transaction(build) -> tuple[float, float]:
    """GC-tracked containers one transaction keeps alive once built, and
    once its merged declaration and both sections' lock requests exist."""
    count = 500
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()  # nothing may reset the young-generation counter while we read it
    try:
        before = gc.get_count()[0]
        transactions = build(count)
        built = gc.get_count()[0] - before
        for txn in transactions:
            txn.combined_rwset()
            txn.initial.rwset.lock_requests()
            txn.final.rwset.lock_requests()
        locked = gc.get_count()[0] - before
    finally:
        if was_enabled:
            gc.enable()
    return built / count, locked / count


def test_a_ycsb_transaction_stays_within_its_allocation_budget():
    """Two closures with four cells, three key lists, two ``SectionSpec``,
    three ``ReadWriteSet`` and six frozensets made a YCSB transaction 20
    containers built and 31 with its lock requests and merged set (commit
    57dd2cf); the bound is half of that."""
    workload = YCSBWorkload(rng=np.random.default_rng(0))
    built, locked = _containers_per_transaction(
        lambda count: workload.build_transactions([None] * count, [f"t{i}" for i in range(count)])
    )
    assert built <= 20 / 2
    assert locked <= 31 / 2


def test_a_hotspot_transaction_stays_within_its_allocation_budget():
    """18 built and 28 locked at commit 57dd2cf (five distinct keys: the
    range is wide so that no draw repeats); the bound is half of that."""
    workload = HotspotWorkload(rng=np.random.default_rng(0), key_range=10**9)
    built, locked = _containers_per_transaction(workload.build_transactions)
    assert built <= 18 / 2
    assert locked <= 28 / 2
