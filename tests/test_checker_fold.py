"""The online MS-SR / MS-IA check against the pairwise definition.

``check_ms_sr`` / ``check_ms_ia`` read :class:`OrderFold`, which checks each
committed section as it arrives in ``<h`` order.  Its oracle is the
pairwise definition of §4.3 / §4.4 kept in ``tests/helpers.py``
(``reference_check_ms_sr`` / ``reference_check_ms_ia``).  This file holds:

* **agreement** — on random histories and on mutated ones (two commits
  swapped, an initial dropped, two finals reordered, a final moved before
  its initial, commit times tied), the fold's verdict and sorted
  violations equal the oracle's, both for a history keeping rows
  (re-folded in ``<h`` order whatever the append order) and for one fed
  in ``<h`` order without rows.  The fold walks each key's sharers, so
  CI runs this file under two hash seeds;
* **bounded state** — on a ``fig4-ms-sr`` run the fold keeps exactly the
  in-flight window (the oldest in-flight transaction and every one whose
  initial committed after it) and ends with none; on a random history
  whose transactions all complete it ends with no transaction and no
  index entry;
* **a repeated section** is refused where the fold can see it (a live
  transaction's, or any in a history keeping rows);
* **no rows** — a run's ``History`` answers ``len``, its operation count
  and both checks, refuses iteration and ``transaction_ids`` with
  ``RowsNotKept``, and refuses an out-of-order append with
  ``CommitOutOfOrder``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.system import CroesusSystem
from repro.experiments import get_scenario
from repro.experiments.registry import list_scenarios
from repro.experiments.spec import build_single_config
from repro.storage.kvstore import RowsNotKept
from repro.transactions.checker import OrderFold, check_ms_ia, check_ms_sr
from repro.transactions.exceptions import CommitOutOfOrder, SectionOrderError
from repro.transactions.history import History
from repro.transactions.model import SectionKind
from repro.transactions.ops import OperationKind
from repro.video.library import make_video

from helpers import keeping_rows, reference_check_ms_ia, reference_check_ms_sr

INITIAL, FINAL = SectionKind.INITIAL, SectionKind.FINAL

_operations = st.lists(
    st.tuples(st.sampled_from(list(OperationKind)), st.sampled_from(["x", "y", "z", "w"])),
    max_size=3,
)
#: One transaction: its initial's and its final's operations, either absent.
_transactions = st.lists(
    st.tuples(st.one_of(st.none(), _operations), st.one_of(st.none(), _operations)),
    min_size=1,
    max_size=7,
)
_MUTATIONS = ("none", "swap commits", "drop an initial", "reorder finals", "final first", "tie")


@st.composite
def _histories(draw):
    """``(transaction_id, section, commit_time, rows)`` in append order:
    sections in a random interleaving (each transaction's initial before
    its final), then one mutation."""
    sections = []
    for number, (initial, final) in enumerate(draw(_transactions)):
        for kind, operations in ((INITIAL, initial), (FINAL, final)):
            if operations is not None:
                rows = [slot for kind_, key in operations for slot in (kind_, key, number)]
                sections.append([f"t{number}", kind, rows])
    interleaved = [sections[at] for at in draw(st.permutations(range(len(sections))))]
    # Each transaction's initial before its final: swap the two where the
    # draw put the final first.
    where = {(s[0], s[1]): at for at, s in enumerate(interleaved)}
    for (transaction_id, kind), final_at in where.items():
        initial_at = where.get((transaction_id, INITIAL))
        if kind is FINAL and initial_at is not None and final_at < initial_at:
            interleaved[initial_at], interleaved[final_at] = (
                interleaved[final_at], interleaved[initial_at]
            )

    mutation = draw(st.sampled_from(_MUTATIONS))
    count = len(interleaved)
    finals = [at for at, s in enumerate(interleaved) if s[1] is FINAL]
    initials = [at for at, s in enumerate(interleaved) if s[1] is INITIAL]
    if mutation == "swap commits" and count > 1:
        i, j = draw(st.lists(st.integers(0, count - 1), min_size=2, max_size=2, unique=True))
        interleaved[i], interleaved[j] = interleaved[j], interleaved[i]
    elif mutation == "drop an initial" and initials:
        del interleaved[draw(st.sampled_from(initials))]
    elif mutation == "reorder finals" and len(finals) > 1:
        i, j = draw(st.lists(st.sampled_from(finals), min_size=2, max_size=2, unique=True))
        interleaved[i], interleaved[j] = interleaved[j], interleaved[i]
    elif mutation == "final first" and finals:
        at = draw(st.sampled_from(finals))
        transaction_id = interleaved[at][0]
        for initial_at, s in enumerate(interleaved):
            if s[0] == transaction_id and s[1] is INITIAL:
                interleaved.insert(initial_at, interleaved.pop(at))
                break

    times = sorted(draw(st.lists(st.integers(0, 6), min_size=count, max_size=count)))
    if mutation == "tie" and count > 1:
        at = draw(st.integers(0, count - 2))
        times[at + 1] = times[at]
    history = [(s[0], s[1], float(t), s[2]) for s, t in zip(interleaved, times)]
    if draw(st.booleans()):  # a history keeping rows may be appended in any order
        history = draw(st.permutations(history))
    return history


def _in_commit_order(history):
    """The sections sorted by ``<h``: commit time, then append order."""
    return [section for _, section in sorted(enumerate(history), key=lambda s: (s[1][2], s[0]))]


def _verdict(result):
    return result.ok, sorted(result.violations)


@settings(max_examples=600, deadline=None)
@given(_histories())
def test_the_fold_agrees_with_the_pairwise_definition(sections):
    with keeping_rows():
        kept = History()
    for transaction_id, kind, commit_time, rows in sections:
        kept.record_rows(transaction_id, kind, commit_time, list(rows))
    live = History()
    for transaction_id, kind, commit_time, rows in _in_commit_order(sections):
        live.record_rows(transaction_id, kind, commit_time, list(rows))

    pairs = ((check_ms_sr, reference_check_ms_sr), (check_ms_ia, reference_check_ms_ia))
    for check, reference in pairs:
        expected = _verdict(reference(kept))
        assert _verdict(check(kept)) == expected
        assert _verdict(check(live)) == expected
        assert list(check(live).violations) == expected[1]  # reported sorted
    assert len(live) == len(kept) == len(sections)
    assert live.operation_count == kept.operation_count
    # With every transaction complete, everything has retired.
    complete = {t for t, kind, _, _ in sections if kind is FINAL} == {t for t, *_ in sections}
    complete = complete and all(
        (t, INITIAL) in {(u, k) for u, k, _, _ in sections} for t, *_ in sections
    )
    if complete:
        assert not live.fold()._live and not live.fold()._index


def test_each_mutation_is_caught():
    """The named mutations of a valid history each give the oracle's
    violation, and the fold reports it."""
    def verdicts(sections):
        with keeping_rows():
            history = History()
        for transaction_id, kind, commit_time, rows in sections:
            history.record_rows(transaction_id, kind, commit_time, rows)
        fold = _verdict(check_ms_sr(history))
        assert fold == _verdict(reference_check_ms_sr(history))
        return fold

    write_x = [OperationKind.WRITE, "x", 1]
    valid = [
        ("t1", INITIAL, 1.0, write_x),
        ("t1", FINAL, 2.0, write_x),
        ("t2", INITIAL, 3.0, write_x),
        ("t2", FINAL, 4.0, write_x),
    ]
    assert verdicts(valid) == (True, [])
    late_final = "MS-SR(3) violated: s^f_t1 conflicts with s^i_t2 but commits after it"

    def timed(*order):  # the sections of ``valid`` in this commit order
        return [(*valid[at][:2], float(time), write_x) for time, at in enumerate(order)]

    assert verdicts(timed(0, 2, 1, 3)) == (False, [late_final])  # two commits swapped
    assert verdicts(valid[1:]) == (
        False, ["t1: final section committed without an initial section"]
    )
    assert verdicts(timed(0, 2, 3, 1)) == (  # two finals reordered
        False, ["MS-SR(2) violated: s^f_t1 must commit before s^f_t2", late_final]
    )
    assert verdicts(timed(1, 0, 2, 3)) == (
        False, ["t1: final section committed before its initial section"]
    )
    tied = [(t, kind, 1.0, rows) for t, kind, _, rows in timed(0, 2, 1, 3)]
    assert verdicts(tied) == (False, [late_final])  # append order breaks the tie


def test_a_repeated_section_is_refused_where_the_fold_can_see_it():
    """A controller never commits a section twice (SectionOrderError), and
    a history fed one anyway is outside the check.  A running fold refuses
    a repeat while its transaction is live (here t0, still in flight, keeps
    t1 from retiring) and changes nothing; a history keeping rows refuses
    any repeat when it is checked, retired or not."""
    write_x = [OperationKind.WRITE, "x", 1]
    history = History()
    history.record_rows("t0", INITIAL, 1.0, [OperationKind.READ, "y", 0])
    history.record_rows("t1", INITIAL, 1.0, write_x)
    history.record_rows("t1", FINAL, 1.0, write_x)
    for kind in (INITIAL, FINAL):
        with pytest.raises(SectionOrderError, match=f"t1's {kind.value} section is recorded twice"):
            history.record_rows("t1", kind, 1.0, write_x)
    assert len(history) == 3 and history.operation_count == 3
    assert check_ms_sr(history) and check_ms_ia(history)

    with keeping_rows():
        kept = History()
    for kind in (INITIAL, FINAL, FINAL):  # t1 has retired when the repeat folds in
        kept.record_rows("t1", kind, 1.0, write_x)
    assert len(kept) == 3
    for check in (check_ms_sr, check_ms_ia):
        with pytest.raises(SectionOrderError, match="recorded twice"):
            check(kept)


# -- what the fold keeps ---------------------------------------------------------
def _run(spec) -> CroesusSystem:
    config = build_single_config(spec)
    system = CroesusSystem(config)
    system.run(make_video(spec.video, num_frames=spec.frames, seed=config.seed))
    return system


def _run_fig4(frames: int | None = None) -> CroesusSystem:
    spec = get_scenario("fig4-ms-sr")
    if frames is not None:
        spec = spec.with_(frames=frames)
    return _run(spec)


def _watch_windows(monkeypatch) -> tuple[list[str], list[tuple[int, int, int]]]:
    """Record, after every section the fold takes, how many transactions it
    keeps, how many are in flight from the oldest in-flight one on, and how
    many completed ones among those wait for it (the retirement slack)."""
    initials: list[str] = []  # in initial commit order
    completed: set[str] = set()
    windows: list[tuple[int, int, int]] = []
    add = OrderFold.add

    def watched(fold, transaction_id, section, commit_time, rows):
        add(fold, transaction_id, section, commit_time, rows)
        if section is INITIAL:
            initials.append(transaction_id)
        else:
            completed.add(transaction_id)
        oldest = next((at for at, t in enumerate(initials) if t not in completed), len(initials))
        in_flight = sum(t not in completed for t in initials[oldest:])
        slack = len(initials) - oldest - in_flight
        windows.append((len(fold._live), in_flight, slack))

    monkeypatch.setattr(OrderFold, "add", watched)
    return initials, windows


def test_the_fold_keeps_only_the_in_flight_window(monkeypatch):
    """After every commit of a ``fig4-ms-sr`` run the fold keeps exactly the
    oldest in-flight transaction and those whose initial committed after
    it — the in-flight ones plus the completed ones retirement waits on —
    and, with every final committed, nothing."""
    initials, windows = _watch_windows(monkeypatch)
    system = _run_fig4()
    assert len(windows) == len(system.history) > 1000
    assert all(live == in_flight + slack for live, in_flight, slack in windows)
    assert windows[-1] == (0, 0, 0)
    # A window, not the run: at most a few frames' transactions.
    assert max(live for live, _, _ in windows) < len(initials) / 20
    assert not system.history.fold()._live
    assert check_ms_sr(system.history)


_SINGLE_EDGE = [entry.name for entry in list_scenarios() if entry.build().deployment != "cluster"]


@pytest.mark.parametrize("policy", ["immediate-2pc", "batched-2pc", "async-2pc"])
@pytest.mark.parametrize("consistency", ["ms-sr", "ms-ia"])
@pytest.mark.parametrize("name", _SINGLE_EDGE)
def test_every_single_edge_run_commits_a_final_for_each_initial(
    monkeypatch, name, consistency, policy
):
    """The window is bounded only if every initial gets its final: one that
    never does holds back every transaction whose initial came after it.
    Every registered single-edge scenario, under each transaction policy
    and consistency level, meets that — the fold keeps the in-flight
    window after every commit and ends empty."""
    initials, windows = _watch_windows(monkeypatch)
    spec = get_scenario(name)
    spec = spec.with_(consistency=consistency, transaction_policy=policy, frames=min(spec.frames, 40))
    history = _run(spec).history
    assert len(windows) == len(history) == 2 * len(initials) > 0
    assert all(live == in_flight + slack for live, in_flight, slack in windows)
    fold = history.fold()
    assert windows[-1] == (0, 0, 0) and not fold._index and not fold._waiting


def test_a_history_without_rows_answers_counts_and_checks():
    assert History.keep_rows is False
    system = _run_fig4(frames=20)
    history = system.history
    with keeping_rows():
        kept = _run_fig4(frames=20).history
    assert len(history) == len(kept) > 0
    assert history.operation_count == kept.operation_count == sum(
        len(record.operations) for record in kept
    )
    assert check_ms_sr(history) == check_ms_sr(kept) == reference_check_ms_sr(kept)
    assert check_ms_ia(history) == check_ms_ia(kept) == reference_check_ms_ia(kept)
    with pytest.raises(RowsNotKept, match="keep_rows"):
        iter(history)
    with pytest.raises(RowsNotKept, match="keep_rows"):
        history.transaction_ids()

    empty = History()
    assert len(empty) == empty.operation_count == 0 and check_ms_sr(empty)


def test_an_out_of_order_append_without_rows_is_refused():
    history = History()
    history.record_rows("t1", INITIAL, 2.0, [OperationKind.WRITE, "x", 1])
    history.record_rows("t2", INITIAL, 2.0, [OperationKind.READ, "x", 1])  # a tie is in order
    with pytest.raises(CommitOutOfOrder, match="t1's final section commits at 1.0"):
        history.record_rows("t1", FINAL, 1.0, [OperationKind.WRITE, "x", 2])
    # Refused, not half-recorded: the verdict is the one before the append.
    assert len(history) == 2 and history.operation_count == 2
    assert check_ms_sr(history) and check_ms_ia(history)

    with keeping_rows():
        kept = History()
    kept.record_rows("t1", INITIAL, 2.0, [])
    kept.record_rows("t1", FINAL, 1.0, [])  # a history keeping rows sorts them
    assert check_ms_ia(kept).violations == (
        "t1: final section committed before its initial section",
    )
