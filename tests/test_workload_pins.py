"""The workload generators, pinned against their one-key-at-a-time form.

``YCSBWorkload`` and ``HotspotWorkload`` build a whole frame's
transactions from one ``rng.integers`` call and hand the controllers
sections that are data (a module-level function applied to the
transaction's key row) rather than closures.  Neither may change *which*
transactions exist: the digests below were captured from the builders
that drew one scalar per key and closed two functions over each
transaction (commit 57dd2cf), and cover the first 200 transactions'
ids, declared read/write sets and triggers, the generator's state after
them, and what executing both sections against a store records and
returns.  The frame sizes the 200 are split into must not matter, and
neither may ``PYTHONHASHSEED`` (CI runs this file under two).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.kvstore import KeyValueStore
from repro.transactions.model import SectionContext, SectionKind
from repro.workloads.hotspot import HotspotWorkload
from repro.workloads.ycsb import YCSBWorkload

from helpers import hotspot_transaction, make_detection, ycsb_transaction

TRANSACTIONS = 200
LABELS = ("person", "car", "dog")


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def declared_digest(transactions, rng) -> str:
    """Ids, declared sets and triggers of ``transactions``, then the generator state."""
    rows = [
        (
            txn.transaction_id,
            sorted(txn.initial.rwset.reads),
            sorted(txn.initial.rwset.writes),
            sorted(txn.final.rwset.reads),
            sorted(txn.final.rwset.writes),
            txn.trigger,
        )
        for txn in transactions
    ]
    state = rng.bit_generator.state
    return _digest((rows, sorted(state["state"].items()), state["has_uint32"], state["uinteger"]))


def executed_digest(transactions) -> str:
    """Run both sections of every transaction against one store.

    Every third final section sees a corrected label, so the YCSB
    apology path is part of the pin.
    """
    store = KeyValueStore()
    rows = []
    for index, txn in enumerate(transactions):
        holder = txn.transaction_id
        initial = SectionContext(holder, SectionKind.INITIAL, store)
        initial_result = txn.initial.body(initial)
        corrected = make_detection("bus") if index % 3 == 0 else None
        final = SectionContext(
            holder, SectionKind.FINAL, store, labels=corrected, handoff=initial.handoff
        )
        final_result = txn.final.body(final)
        rows.append(
            (
                [(op.kind.value, op.key, op.value) for op in initial.operations],
                initial_result,
                sorted(initial.handoff.items()),
                [(op.kind.value, op.key, op.value) for op in final.operations],
                final_result,
                final.apologies,
            )
        )
    return _digest((rows, sorted(store.snapshot().items())))


def _detections(with_detection: bool):
    if not with_detection:
        return [None] * TRANSACTIONS
    return [make_detection(LABELS[index % len(LABELS)]) for index in range(TRANSACTIONS)]


def _frames(sizes):
    """Cut ``range(TRANSACTIONS)`` into frames of ``sizes``, then one frame of what is left."""
    start = 0
    for size in sizes:
        stop = min(start + size, TRANSACTIONS)
        yield range(start, stop)
        start = stop
    yield range(start, TRANSACTIONS)


#: (seed, with a detection) -> (declared, executed)
YCSB_PINS = {
    (0, False): (
        "97fbecba41d0031eaafaacb33d64e9e5a2077ec2d1a54cdbdf3f7cfea6520618",
        "4f313ee3a2d101f5f3dc8e7dd17afa7cd40da8b64e45fa0fb5f1384f4f8f3442",
    ),
    (0, True): (
        "c3d0df48ab4324f3a751bb2efdb1bc9eeceff00d6d8a6bbb8cf3bf3ad3ad3249",
        "bb1668bf8ade300cb1929597dc24d5184c58722e7bb566e2a62e9f6d05847cd8",
    ),
    (3, False): (
        "842071ed54806f96c78b58aff54b5c51c02095ff240be38a98daf7a48c75924e",
        "883e7a39fbbe815a848f506770e6ad8d911c149dea77a5265a45a95dbd587149",
    ),
    (3, True): (
        "1b14702972b1b8b5f73d54f4cc9fab19899b40c102e538f4c9ca1ca0f8869b79",
        "3d10cf833e4cdcb58ef02fbda80d1eb450ee8f23453eddad37ee6c701d6fe939",
    ),
}

#: (key_range, final_updates) -> (declared, executed)
HOTSPOT_PINS = {
    (5, 0): (
        "f1878f42285dff930c408ad82f240a1a3f652d442b0fa22a7e3afbb6e04b66e4",
        "7090d7cb1c6c2e16411b3bebf898ac839d009eb5ce9db72680ee628e97d4ad4a",
    ),
    (5, 1): (
        "1da277cc269bd80e194fccafdef16b3d904f6550d9ee6d2cd9511575604c311f",
        "c21093bc53ffb8694d73d8df11e4e90fe3e72cc9b936f5519440579b4804f546",
    ),
    (5, 5): (
        "ebc24d204114d9f02d3bc02fb760b4b2942bd171a45178cfa859ad09e4051dc0",
        "ffa5e5e9082637b99e3aac36d93ae42acc7cf6e800ea30c6bf61a8e7a6a63a58",
    ),
    (200, 0): (
        "688d188a9a3a189ea4bc14b197be7214f8c4703a7e8ec55f9134a3ff1829d866",
        "1b99cfadbff0447dbdc5dca97c0e3286d0f03d33251413100d43f8e7ec971fd9",
    ),
    (200, 1): (
        "a42bd701cb247d7649cb4499270f77d9e58505c87f3841525bbda69b539bd9e0",
        "620b3362c410cad71933f3e84c20a0e790bdfd630358f1253e9a949ea2debc7f",
    ),
    (200, 5): (
        "ce6ef0a1a2586e7e4aca8697f00f8f5418817b513ff1aa68d3c40607ae33797f",
        "b616124e45bf947afba2056009dca2a397a098c528fdecc879154e1c5d344237",
    ),
}

#: Frames of 0 and 1 transactions included; a frame is ~10 transactions in the cluster runs.
frame_sizes = st.lists(st.integers(min_value=0, max_value=40), max_size=12)


def _ycsb(seed: int, with_detection: bool, sizes) -> tuple[list, np.random.Generator]:
    rng = np.random.default_rng(seed)
    workload = YCSBWorkload(rng=rng)
    detections = _detections(with_detection)
    transactions = []
    for frame in _frames(sizes):
        transactions += workload.build_transactions(
            [detections[index] for index in frame], [f"t{index + 1}" for index in frame]
        )
    return transactions, rng


def _hotspot(key_range: int, final_updates: int, sizes) -> tuple[list, np.random.Generator]:
    rng = np.random.default_rng(key_range)
    workload = HotspotWorkload(
        rng=rng, key_range=key_range, final_updates=final_updates, txn_prefix="e0-hot"
    )
    transactions = []
    for frame in _frames(sizes):
        transactions += workload.build_transactions(len(frame))
    return transactions, rng


@pytest.mark.parametrize("pin", sorted(YCSB_PINS))
@settings(max_examples=12, deadline=None)
@given(sizes=frame_sizes)
def test_ycsb_frames_reproduce_the_scalar_builder(pin, sizes):
    transactions, rng = _ycsb(*pin, sizes)
    declared, executed = YCSB_PINS[pin]
    assert len(transactions) == TRANSACTIONS
    assert declared_digest(transactions, rng) == declared
    assert executed_digest(transactions) == executed


@pytest.mark.parametrize("pin", sorted(HOTSPOT_PINS))
@settings(max_examples=12, deadline=None)
@given(sizes=frame_sizes)
def test_hotspot_frames_reproduce_the_scalar_builder(pin, sizes):
    transactions, rng = _hotspot(*pin, sizes)
    declared, executed = HOTSPOT_PINS[pin]
    assert len(transactions) == TRANSACTIONS
    assert declared_digest(transactions, rng) == declared
    assert executed_digest(transactions) == executed


@pytest.mark.parametrize("pin", sorted(YCSB_PINS))
def test_ycsb_one_at_a_time_is_the_same_stream(pin):
    seed, with_detection = pin
    rng = np.random.default_rng(seed)
    workload = YCSBWorkload(rng=rng)
    transactions = [
        ycsb_transaction(workload, f"t{index + 1}", detection)
        for index, detection in enumerate(_detections(with_detection))
    ]
    assert declared_digest(transactions, rng) == YCSB_PINS[pin][0]
    assert executed_digest(transactions) == YCSB_PINS[pin][1]


@pytest.mark.parametrize("pin", sorted(HOTSPOT_PINS))
def test_hotspot_batches_and_single_builds_are_the_same_stream(pin):
    key_range, final_updates = pin

    def workload():
        rng = np.random.default_rng(key_range)
        return rng, HotspotWorkload(
            rng=rng,
            key_range=key_range,
            final_updates=final_updates,
            txn_prefix="e0-hot",
            batch_size=50,
        )

    rng, batched = workload()
    batches = [txn for _ in range(TRANSACTIONS // 50) for txn in batched.build_batch()]
    assert declared_digest(batches, rng) == HOTSPOT_PINS[pin][0]
    rng, single = workload()
    singles = [hotspot_transaction(single) for _ in range(TRANSACTIONS)]
    assert declared_digest(singles, rng) == HOTSPOT_PINS[pin][0]
    assert executed_digest(singles) == HOTSPOT_PINS[pin][1]
