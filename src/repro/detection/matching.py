"""Edge-to-cloud label matching (paper Section 3.3.2, "Final Transaction Section").

When the cloud labels ``Lc`` arrive, each edge label ``Le[i]`` is matched
to the cloud label with the largest bounding-box overlap (subject to a
minimum overlap fraction).  Three outcomes are possible:

* ``MISSING``   — no overlapping cloud label: the edge detection was
  spurious; the final section runs with an empty label.
* ``CONFIRMED`` — overlapping cloud label with the **same** name: the edge
  detection was correct.
* ``CORRECTED`` — overlapping cloud label with a **different** name: the
  edge detection was mislabelled; the final section runs with the cloud
  label.

Cloud labels that match no edge label are *unmatched* and trigger fresh
initial+final sections (step 4 of the execution pattern).

One table per frame
-------------------
A frame compares the same two box sets for everything it does after the
cloud answers: the final sections' corrections, the view the client ends
up observing, the F-score of that view, and — for profiled frames — the
threshold tuner's hypothetical views.  :class:`FrameOverlaps` does that
geometry **once** per ``(Le, Lc, min_overlap)``:

* the one box-pair rule of the repository lives in :func:`_overlap_pass`:
  two boxes *hit* when their overlap (relative to the smaller box, the
  same float operations in the same order as the scalar reference
  :func:`repro.detection.geometry.overlap_ratio`) is positive **and**
  ``>= min_overlap``.  Disjoint boxes therefore never hit, not even at
  ``min_overlap = 0``;
* an edge row's match is its largest hit; of several equal overlaps the
  first cloud label (lowest index) wins;
* an edge row never looks at another edge row, so matching or scoring any
  subset of ``Le`` (the labels that survive a confidence cutoff) is a
  *row selection* on the table — no box is compared again.  The
  cloud-against-cloud table the corrected view needs is built on first
  use, with the rule written out term for term (a property test holds
  each row to :func:`_overlap_pass`'s): the rule is symmetric, so each
  pair is compared once, and a pair with two names not at all.  That is
  why it does not call the pass once per cloud label (~29 against ~46 µs
  per validated ``geo-wan`` frame).

The pass is plain Python on purpose: at the sizes frames have (|Le| ≈ 8,
|Lc| ≈ 13; 2.5 × 3.2 under overload) an inlined pass costs ~14 µs while
the NumPy broadcast costs ~38 µs, most of it building the arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from repro.detection.labels import Detection, LabelSet


class MatchOutcome(Enum):
    """Result of matching one edge label against the cloud labels."""

    CONFIRMED = "confirmed"
    CORRECTED = "corrected"
    MISSING = "missing"


@dataclass(frozen=True)
class LabelMatch:
    """Pairing of one edge detection with its cloud counterpart (if any)."""

    edge: Detection
    cloud: Detection | None
    outcome: MatchOutcome
    overlap: float

    @property
    def was_correct(self) -> bool:
        """True when the edge label needed no correction."""
        return self.outcome is MatchOutcome.CONFIRMED

    @property
    def corrected_label(self) -> Detection | None:
        """The label the final section should use (None when spurious)."""
        if self.outcome is MatchOutcome.MISSING:
            return None
        if self.outcome is MatchOutcome.CONFIRMED:
            return self.edge
        return self.cloud


@dataclass(frozen=True)
class MatchReport:
    """Full result of matching a frame's edge labels with its cloud labels."""

    matches: tuple[LabelMatch, ...]
    unmatched_cloud: tuple[Detection, ...]

    @property
    def corrections_needed(self) -> int:
        """Number of edge labels that turned out wrong (corrected or missing)."""
        return sum(1 for match in self.matches if not match.was_correct)


def _box_rows(detections: Sequence[Detection]) -> list[tuple]:
    """Unpack detections into ``(x_min, y_min, x_max, y_max, area, name)`` rows."""
    rows = []
    for detection in detections:
        box = detection.box
        x_min, y_min, x_max, y_max = box.x_min, box.y_min, box.x_max, box.y_max
        rows.append((x_min, y_min, x_max, y_max, (x_max - x_min) * (y_max - y_min), detection.name))
    return rows


def _overlap_pass(
    rows: list[tuple], others: list[tuple], min_overlap: float
) -> tuple[list[int], list[float], list[bool], list[list[int]]]:
    """Compare every row with every other row: the box-pair rule, inlined.

    Per row: the index in ``others`` of its largest hit (-1 without one;
    the first of equal overlaps wins), that overlap, whether that hit
    carries the row's own name, and the ascending indices of all hits
    that do.
    """
    best: list[int] = []
    best_overlaps: list[float] = []
    confirmed: list[bool] = []
    same_name_hits: list[list[int]] = []
    for x_min, y_min, x_max, y_max, area, name in rows:
        best_index = -1
        best_overlap = 0.0
        hits: list[int] = []
        for index, (
            other_x_min, other_y_min, other_x_max, other_y_max, other_area, other_name
        ) in enumerate(others):
            # Most pairs are apart; a comparison or two settles those.
            if (
                other_x_min >= x_max
                or other_x_max <= x_min
                or other_y_min >= y_max
                or other_y_max <= y_min
            ):
                continue
            # overlap_ratio(), term for term; min()/max() spelled as the
            # comparisons they perform.
            x_overlap = (other_x_max if other_x_max < x_max else x_max) - (
                other_x_min if other_x_min > x_min else x_min
            )
            y_overlap = (other_y_max if other_y_max < y_max else y_max) - (
                other_y_min if other_y_min > y_min else y_min
            )
            if x_overlap <= 0 or y_overlap <= 0:
                continue
            smaller = other_area if other_area < area else area
            if smaller <= 0.0:
                continue
            overlap = x_overlap * y_overlap / smaller
            if overlap >= min_overlap and overlap > 0.0:
                if overlap > best_overlap:
                    best_overlap = overlap
                    best_index = index
                if other_name == name:
                    hits.append(index)
        best.append(best_index)
        best_overlaps.append(best_overlap)
        confirmed.append(best_index >= 0 and others[best_index][5] == name)
        same_name_hits.append(hits)
    return best, best_overlaps, confirmed, same_name_hits


class FrameOverlaps:
    """The box geometry of one frame's ``(Le, Lc)`` pair, computed once.

    ``best[row]`` is the index of the cloud label edge row ``row``
    matches (-1 when it matches none), ``overlaps[row]`` that overlap and
    ``confirmed[row]`` whether the two carry the same name; ``hits[row]``
    lists, ascending, the same-name cloud labels the row hits — the truth
    labels the row may claim when the client's view is scored.
    """

    __slots__ = (
        "edge",
        "cloud",
        "min_overlap",
        "best",
        "overlaps",
        "confirmed",
        "hits",
        "_cloud_rows",
        "_cloud_hits",
    )

    def __init__(
        self,
        edge_detections: Sequence[Detection],
        cloud_detections: Sequence[Detection],
        min_overlap: float,
    ) -> None:
        if not 0.0 <= min_overlap <= 1.0:
            raise ValueError("min_overlap must be in [0, 1]")
        self.edge = edge_detections
        self.cloud = cloud_detections
        self.min_overlap = min_overlap
        self._cloud_rows = _box_rows(cloud_detections)
        self._cloud_hits: list[list[int]] | None = None
        self.best, self.overlaps, self.confirmed, self.hits = _overlap_pass(
            _box_rows(edge_detections), self._cloud_rows, min_overlap
        )

    def unlabelled(self) -> FrameOverlaps:
        """This table with each label replaced by its index.

        Its :meth:`client_view` scores every view exactly as this table
        does, and it keeps no ``Detection`` alive: the retune tuner keeps
        one per validated frame for the rest of a run, while the frame's
        recorded trace already holds its labels packed.  It shares this
        table's cloud-against-cloud table (building it now, if no view
        has yet), so it keeps no box either.
        """
        table = object.__new__(FrameOverlaps)
        table.edge = range(len(self.edge))
        table.cloud = range(len(self.cloud))
        table.min_overlap = self.min_overlap
        table.best, table.overlaps, table.confirmed, table.hits = (
            self.best, self.overlaps, self.confirmed, self.hits
        )
        table._cloud_rows = None
        table._cloud_hits = self._cloud_table()
        return table

    def corrected(self, row: int) -> Detection | None:
        """The label edge row ``row``'s final section runs with.

        ``None`` when the row is spurious (``MISSING``), the edge label
        itself when the cloud confirmed it, else the cloud's label.
        """
        if self.confirmed[row]:
            return self.edge[row]
        index = self.best[row]
        return None if index < 0 else self.cloud[index]

    def unmatched_cloud(self) -> tuple[Detection, ...]:
        """Cloud labels no edge row matched, in cloud order."""
        claimed = set(self.best)
        return tuple(
            detection for index, detection in enumerate(self.cloud) if index not in claimed
        )

    def match_report(self) -> MatchReport:
        """The table rendered as per-label :class:`LabelMatch` records."""
        matches = []
        for edge, index, overlap, confirmed in zip(
            self.edge, self.best, self.overlaps, self.confirmed
        ):
            if index < 0:
                matches.append(LabelMatch(edge, None, MatchOutcome.MISSING, 0.0))
            else:
                outcome = MatchOutcome.CONFIRMED if confirmed else MatchOutcome.CORRECTED
                matches.append(LabelMatch(edge, self.cloud[index], outcome, overlap))
        return MatchReport(matches=tuple(matches), unmatched_cloud=self.unmatched_cloud())

    def _cloud_table(self) -> list[list[int]]:
        """Per cloud label, the same-name cloud labels it hits, itself
        included, ascending — :func:`_overlap_pass`'s ``hits`` of every
        cloud row against all of them.

        A validated view shows cloud labels too.  The table is built when
        a view first needs it, then kept.  The box-pair rule is symmetric,
        so each pair ``i <= j`` is compared once and, on a hit, listed in
        both rows; a pair with two names is skipped before any geometry.
        """
        table = self._cloud_hits
        if table is not None:
            return table
        rows = self._cloud_rows
        min_overlap = self.min_overlap
        table = self._cloud_hits = [[] for _ in rows]
        for index, (x_min, y_min, x_max, y_max, area, name) in enumerate(rows):
            row_hits = table[index]
            for other in range(index, len(rows)):
                other_x_min, other_y_min, other_x_max, other_y_max, other_area, other_name = (
                    rows[other]
                )
                if other_name != name:
                    continue
                # _overlap_pass's rule, term for term.
                if (
                    other_x_min >= x_max
                    or other_x_max <= x_min
                    or other_y_min >= y_max
                    or other_y_max <= y_min
                ):
                    continue
                x_overlap = (other_x_max if other_x_max < x_max else x_max) - (
                    other_x_min if other_x_min > x_min else x_min
                )
                y_overlap = (other_y_max if other_y_max < y_max else y_max) - (
                    other_y_min if other_y_min > y_min else y_min
                )
                if x_overlap <= 0 or y_overlap <= 0:
                    continue
                smaller = other_area if other_area < area else area
                if smaller <= 0.0:
                    continue
                overlap = x_overlap * y_overlap / smaller
                if overlap >= min_overlap and overlap > 0.0:
                    # Rows below ``index`` listed their hits on this row
                    # before it, so every row stays ascending.
                    row_hits.append(other)
                    if other != index:
                        table[other].append(index)
        return table

    def client_view(
        self, rows: Sequence[int], sent: bool
    ) -> tuple[Sequence[int], tuple[int, int, int]]:
        """What the client sees of the edge rows ``rows``, and its score.

        ``rows`` are the edge labels that survived thresholding, in
        order.  An unvalidated frame (``sent`` false) shows them as they
        are.  A validated frame shows the corrected view — confirmed edge
        labels, the cloud's label for corrected ones, spurious ones
        dropped, then every cloud label none of ``rows`` matched —
        exactly what the final sections render.  The view comes back as
        *picks*: ``i >= 0`` is edge label ``i``, ``~j`` cloud label ``j``
        (:class:`~repro.detection.labels.ViewRow` keeps them; an
        unvalidated view's picks are ``rows`` themselves).  The score is
        the view's ``(true positives, false positives, false negatives)``
        against the cloud labels: each shown label claims the first still
        unclaimed same-name cloud label it hits.
        """
        hits = self.hits
        if not sent:
            picks: Sequence[int] = rows
            candidates = [hits[row] for row in rows]
        else:
            best, confirmed = self.best, self.confirmed
            cloud_hits = self._cloud_table()
            picks = []
            candidates = []
            matched = set()
            for row in rows:
                index = best[row]
                if index < 0:
                    continue
                matched.add(index)
                if confirmed[row]:
                    picks.append(row)
                    candidates.append(hits[row])
                else:
                    picks.append(~index)
                    candidates.append(cloud_hits[index])
            for index, index_hits in enumerate(cloud_hits):
                if index not in matched:
                    picks.append(~index)
                    candidates.append(index_hits)
        claimed: set[int] = set()
        for row_hits in candidates:
            for index in row_hits:
                if index not in claimed:
                    claimed.add(index)
                    break
        true_positives = len(claimed)
        false_positives = len(picks) - true_positives
        return picks, (true_positives, false_positives, len(self.cloud) - true_positives)


def match_labels(
    edge_labels: LabelSet,
    cloud_labels: LabelSet,
    min_overlap: float = 0.10,
) -> MatchReport:
    """Match edge labels against cloud labels by bounding-box overlap.

    Parameters
    ----------
    edge_labels:
        Labels produced by the edge model (``Le``).
    cloud_labels:
        Labels produced by the cloud model (``Lc``), treated as truth.
    min_overlap:
        Minimum overlap fraction for two boxes to be considered the same
        object (the paper's X%, default 10%).

    Returns
    -------
    MatchReport
        Per-edge-label matches plus the cloud labels no edge label claimed.
    """
    return FrameOverlaps(edge_labels.detections, cloud_labels.detections, min_overlap).match_report()
