"""Online per-stream threshold adaptation.

The paper tunes one static ``(θL, θU)`` pair offline and applies it to
every stream.  This module closes the loop at runtime: each stream gets
its own :class:`ThresholdPolicy` that drifts with the stream's observed
detection-feedback signal, driven by a periodic engine process (the
adapter ticks like the cluster's checkpointer, so adaptation cost and
cadence are part of the simulated timeline).

Two controller modes (:data:`ADAPTATION_MODES`):

``"feedback"``
    A cheap proportional controller over the only signal a real edge
    has for free: of the frames it sent for validation, how many came
    back corrected.  A correction rate above the slack the F-score
    target leaves (``1 - target_f``) means the edge's labels cannot be
    trusted, so the validate band widens (more cloud checks); a rate
    comfortably inside the slack means bandwidth is being wasted on
    frames the edge already had right, so the band narrows from the
    top.  Losing the signal entirely (nothing validated in a window)
    also widens — a blind controller must buy feedback before it can
    save bandwidth.

``"retune"``
    The full offline optimiser, cheap enough to run in the loop: every
    validated frame (the only frames whose cloud labels the edge
    actually observes) is appended to a per-stream
    :class:`~repro.core.optimizer.ThresholdEvaluator` — with the overlap
    table its final stage already built — and each adaptation tick calls
    :meth:`~repro.core.optimizer.ThresholdEvaluator.best_of_grid`: the
    exact grid optimum (``brute_force_search``'s, tie-breaks included)
    read off the evaluator's running per-pair table.  A tick
    folds in the frames validated since the previous tick, O(those
    frames), and picks the winner from the table's integer totals in
    one vectorised pass over the grid pairs; what remains O(history) is
    a latency average — one ``sum()`` over the stream's validated
    frames — for each feasible pair tied on the least bandwidth, and
    the winner's initial-latency average.  The tuner work is metered:
    ``tuner_evaluations`` counts grid pairs searched,
    ``tuner_frame_rescores`` counts full-frame label matches actually
    performed (charged at the tick that folds a frame, never at
    ``observe``), and ``tuner_grid_rescores`` is ``evaluations ×
    frames``, what a per-pair re-match of every frame would have paid
    in label matches for the same pairs — the ≥10× reduction the
    benchmark artifact gates.

Everything here is deterministic (no RNG draws), and nothing is built
unless a deployment opts in — static-threshold runs never construct a
manager, so their seeded trajectories stay bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.results import LatencyBreakdown
from repro.core.thresholds import ThresholdPolicy
from repro.detection.matching import FrameOverlaps

#: Supported values of the ``threshold_adaptation`` axis.
ADAPTATION_MODES = ("feedback", "retune")

#: Largest grid value a drifting upper threshold may reach — the top of
#: :func:`repro.core.optimizer.threshold_grid`, kept below the ``θU < 1`` bound.
MAX_THRESHOLD = 0.95


@dataclass(frozen=True)
class AdaptationConfig:
    """How a deployment adapts its per-stream thresholds at runtime.

    Attributes
    ----------
    mode:
        One of :data:`ADAPTATION_MODES`.
    interval_s:
        Seconds of simulated time between adaptation ticks.
    target_f:
        F-score floor the controllers steer towards; its complement is
        the correction-rate slack of the feedback mode and the
        feasibility constraint of the retune mode's search.
    step:
        Grid step: the feedback controller's drift quantum and the
        retune controller's search-grid resolution.
    min_samples:
        Validated frames a stream must accumulate before its first
        retune (the feedback mode adapts from the first window).
    """

    mode: str
    interval_s: float = 1.0
    target_f: float = 0.8
    step: float = 0.05
    min_samples: int = 6

    def __post_init__(self) -> None:
        if self.mode not in ADAPTATION_MODES:
            known = ", ".join(ADAPTATION_MODES)
            raise ValueError(
                f"unknown adaptation mode {self.mode!r}; expected one of {known}"
            )
        if not self.interval_s > 0:  # NaN included
            raise ValueError(f"interval_s must be positive, got {self.interval_s}")
        if not 0.0 < self.target_f <= 1.0:
            raise ValueError(f"target_f must be in (0, 1], got {self.target_f}")
        if not 0.0 < self.step <= 0.5:
            raise ValueError(f"step must be in (0, 0.5], got {self.step}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be at least 1, got {self.min_samples}")


@dataclass(frozen=True)
class ThresholdUpdate:
    """One runtime threshold move of one stream's controller."""

    time: float
    stream: str
    mode: str
    lower: float
    upper: float
    previous_lower: float
    previous_upper: float


class _WindowedController:
    """State shared by both controller modes: policy + window counters."""

    mode = ""

    def __init__(self, stream: str, policy: ThresholdPolicy, config: AdaptationConfig) -> None:
        self.stream = stream
        self.policy = policy
        self.config = config
        self.updates: list[ThresholdUpdate] = []
        self.tuner_evaluations = 0
        self.tuner_frame_rescores = 0
        self.tuner_grid_rescores = 0
        self._window_frames = 0
        self._window_sent = 0
        self._window_corrected = 0

    def observe(
        self,
        sent: bool,
        corrections: int,
        latency: LatencyBreakdown | None = None,
        overlaps: FrameOverlaps | None = None,
    ) -> None:
        """Fold one served frame's outcome into the current window."""
        self._window_frames += 1
        if sent:
            self._window_sent += 1
            if corrections:
                self._window_corrected += 1

    def _drain_window(self) -> tuple[int, int, int]:
        window = (self._window_frames, self._window_sent, self._window_corrected)
        self._window_frames = 0
        self._window_sent = 0
        self._window_corrected = 0
        return window

    def _move_to(self, now: float, lower: float, upper: float) -> ThresholdUpdate | None:
        previous = (self.policy.lower, self.policy.upper)
        if (lower, upper) == previous:
            return None
        self.policy = ThresholdPolicy(lower, upper)
        update = ThresholdUpdate(
            time=now,
            stream=self.stream,
            mode=self.mode,
            lower=lower,
            upper=upper,
            previous_lower=previous[0],
            previous_upper=previous[1],
        )
        self.updates.append(update)
        return update

    def adapt(self, now: float) -> ThresholdUpdate | None:
        raise NotImplementedError


class _FeedbackController(_WindowedController):
    """Drift ``(θL, θU)`` from the cloud-correction rate vs bandwidth."""

    mode = "feedback"

    def adapt(self, now: float) -> ThresholdUpdate | None:
        frames, sent, corrected = self._drain_window()
        if not frames:
            return None
        lower, upper = self.policy.lower, self.policy.upper
        step = self.config.step
        slack = 1.0 - self.config.target_f
        if sent == 0 or corrected / sent > slack:
            # Blind (no validations, no feedback) or the cloud is fixing
            # more frames than the target tolerates: widen the validate
            # band in both directions.
            new_lower = round(max(0.0, lower - step), 6)
            new_upper = round(min(MAX_THRESHOLD, upper + step), 6)
        elif corrected / sent <= 0.5 * slack:
            # Validations overwhelmingly confirm the edge: spend less
            # bandwidth by trimming the band from the top (confident
            # labels stop being double-checked).
            new_lower = lower
            new_upper = round(max(lower, upper - step), 6)
        else:
            return None  # inside the deadband; hold position
        return self._move_to(now, new_lower, new_upper)


class _RetuneController(_WindowedController):
    """Periodic exact-grid retune over the stream's validated history."""

    mode = "retune"

    def __init__(self, stream: str, policy: ThresholdPolicy, config: AdaptationConfig,
                 match_overlap: float) -> None:
        super().__init__(stream, policy, config)
        # Imported lazily: repro.core.system imports this module, and the
        # optimizer imports repro.core.system for its profiling entry point.
        from repro.core.optimizer import ThresholdEvaluator

        self._evaluator = ThresholdEvaluator(match_overlap=match_overlap)
        self._tuned_at_frames = 0

    def observe(
        self,
        sent: bool,
        corrections: int,
        latency: LatencyBreakdown | None = None,
        overlaps: FrameOverlaps | None = None,
    ) -> None:
        super().observe(sent, corrections)
        if sent and overlaps is not None:
            self._evaluator.add_validated_frame(latency, overlaps)

    def adapt(self, now: float) -> ThresholdUpdate | None:
        self._drain_window()
        evaluator = self._evaluator
        num_frames = evaluator.num_frames
        if num_frames < self.config.min_samples or num_frames == self._tuned_at_frames:
            # Too little evidence, or nothing new since the last tune —
            # re-running the search would return the same optimum.
            return None
        self._tuned_at_frames = num_frames
        evaluated, rescored = evaluator.evaluations, evaluator.frame_rescores
        best = evaluator.best_of_grid(self.config.step, self.config.target_f)
        evaluations = evaluator.evaluations - evaluated
        self.tuner_evaluations += evaluations
        self.tuner_frame_rescores += evaluator.frame_rescores - rescored
        # What a per-pair re-match would have cost for the same pairs:
        # one full label-match pass over every frame per pair.
        self.tuner_grid_rescores += evaluations * num_frames
        return self._move_to(now, best.lower, best.upper)


class AdaptationManager:
    """Per-stream threshold controllers of one adaptive run.

    Controllers are created on a stream's first frame (open-loop runs
    mint streams mid-run), seeded from the deployment's static policy,
    and adapted together at every tick in stream-arrival order — fully
    deterministic, no RNG.
    """

    def __init__(
        self,
        config: AdaptationConfig,
        base_policy: ThresholdPolicy,
        match_overlap: float = 0.10,
    ) -> None:
        self.config = config
        self._base = (base_policy.lower, base_policy.upper)
        self._match_overlap = match_overlap
        self._controllers: dict[str, _WindowedController] = {}

    @property
    def wants_validated_frames(self) -> bool:
        """True when :meth:`observe_frame` uses a validated frame's latency
        and overlap table."""
        return self.config.mode == "retune"

    def controller(self, stream: str) -> _WindowedController:
        controller = self._controllers.get(stream)
        if controller is None:
            policy = ThresholdPolicy(*self._base)
            if self.config.mode == "retune":
                controller = _RetuneController(
                    stream, policy, self.config, self._match_overlap
                )
            else:
                controller = _FeedbackController(stream, policy, self.config)
            self._controllers[stream] = controller
        return controller

    def policy_for(self, stream: str) -> ThresholdPolicy:
        """The stream's current thresholds (the static pair until it adapts)."""
        return self.controller(stream).policy

    def observe_frame(
        self,
        stream: str,
        sent: bool,
        corrections: int,
        latency: LatencyBreakdown | None = None,
        overlaps: FrameOverlaps | None = None,
    ) -> None:
        """Record one served frame's feedback for its stream's controller.

        ``latency`` and ``overlaps`` carry a validated frame for the
        retune mode: its latency breakdown and the overlap table of its
        live ``(edge, cloud)`` labels (the one its final stage built), so
        the tuner neither re-reads the frame's labels nor builds the table
        again.  Callers may skip them when :attr:`wants_validated_frames` is False
        or the frame was not validated.
        """
        self.controller(stream).observe(sent, corrections, latency, overlaps)

    def adapt_all(self, now: float) -> list[ThresholdUpdate]:
        """Run one adaptation tick over every stream; return the moves."""
        updates = []
        for controller in self._controllers.values():
            update = controller.adapt(now)
            if update is not None:
                updates.append(update)
        return updates

    # -- run accounting ------------------------------------------------------
    @property
    def threshold_updates(self) -> int:
        return sum(len(c.updates) for c in self._controllers.values())

    @property
    def tuner_evaluations(self) -> int:
        return sum(c.tuner_evaluations for c in self._controllers.values())

    @property
    def tuner_frame_rescores(self) -> int:
        return sum(c.tuner_frame_rescores for c in self._controllers.values())

    @property
    def tuner_grid_rescores(self) -> int:
        """Label-match cost a per-pair re-match of every frame would have paid."""
        return sum(c.tuner_grid_rescores for c in self._controllers.values())

    @property
    def updates(self) -> tuple[ThresholdUpdate, ...]:
        """Every threshold move of the run, in (stream, time) order."""
        return tuple(
            update for c in self._controllers.values() for update in c.updates
        )

    def final_thresholds(self) -> dict[str, tuple[float, float]]:
        """Stream -> its (θL, θU) at the end of the run."""
        return {
            stream: (c.policy.lower, c.policy.upper)
            for stream, c in self._controllers.items()
        }

    def report_fields(self) -> dict[str, Any]:
        """The run's adaptation fields of a report: the three counters and
        the ``adaptation`` block (config, grid-cost baseline, per-stream
        final thresholds as JSON-safe lists)."""
        config = self.config
        return {
            "threshold_updates": self.threshold_updates,
            "tuner_evaluations": self.tuner_evaluations,
            "tuner_frame_rescores": self.tuner_frame_rescores,
            "adaptation": {
                "mode": config.mode,
                "interval_s": config.interval_s,
                "target_f": config.target_f,
                "tuner_grid_rescores": self.tuner_grid_rescores,
                "stream_thresholds": {
                    stream: [lower, upper]
                    for stream, (lower, upper) in sorted(self.final_thresholds().items())
                },
            },
        }

    @staticmethod
    def report_text(
        adaptation: dict[str, Any],
        threshold_updates: int,
        tuner_evaluations: int,
        tuner_frame_rescores: int,
    ) -> list[str]:
        """The fields :meth:`report_fields` builds as the cluster command's
        text lines (``report_text(**report_fields())`` renders a run's)."""
        line = (
            f"threshold adaptation: {adaptation['mode']} "
            f"(every {adaptation['interval_s']:g}s, F floor {adaptation['target_f']:g}) — "
            f"{threshold_updates} updates"
        )
        if tuner_evaluations:
            line += (
                f", {tuner_evaluations} tuner evaluations at "
                f"{tuner_frame_rescores} frame rescores "
                f"(grid would have cost {adaptation['tuner_grid_rescores']})"
            )
        return [line] + [
            f"  {stream}: ({lower:g}, {upper:g})"
            for stream, (lower, upper) in sorted(adaptation["stream_thresholds"].items())
        ]
