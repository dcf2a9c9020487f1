"""Admission control: decide at arrival time whether a stream enters.

Admission is the first line of overload control: a stream turned away at
the door costs one rejection, while a stream admitted into a saturated
cluster costs every one of its frames a growing queue delay.  Controllers
are deliberately tiny state machines — the interesting behaviour comes
from composing them with the arrival processes and the load shedder.

Each controller sees two signals per decision: the current simulated time
(for rate-based policies) and the cluster's best-case *backlog* — the
seconds a new frame would wait at the least-backlogged live edge (see
:meth:`repro.sim.engine.Server.backlog`).
"""

from __future__ import annotations

#: Admission-policy names accepted by the spec/CLI layer.
ADMISSION_POLICIES = ("none", "token-bucket", "queue-threshold")

#: Default backlog bound of the queue-threshold policy, in seconds.
DEFAULT_MAX_BACKLOG_S = 0.5


class AdmissionController:
    """Admit everything (the no-control baseline)."""

    name = "none"

    #: Whether :meth:`admit` reads the ``backlog_s`` signal at all.  The
    #: cluster's backlog probe is a min-scan over every live edge per
    #: arriving stream, skipped for controllers that ignore the signal.
    needs_backlog = False

    def admit(self, now: float, backlog_s: float) -> bool:
        """Whether a stream arriving at ``now`` may enter the cluster."""
        return True


class TokenBucketAdmission(AdmissionController):
    """Admit at most ``rate`` streams per second, with a small burst.

    Tokens accrue at ``rate`` per second up to ``burst``; each admitted
    stream spends one.  An empty bucket rejects regardless of how idle
    the cluster is — the policy bounds the *offered* rate, not the
    observed backlog.
    """

    name = "token-bucket"

    def __init__(self, rate: float, burst: float = 2.0) -> None:
        if rate <= 0:
            raise ValueError(f"token rate must be positive, got {rate}")
        if burst < 1.0:
            raise ValueError(f"burst must be at least 1, got {burst}")
        self._rate = rate
        self._burst = burst
        self._tokens = burst
        self._last = 0.0

    def admit(self, now: float, backlog_s: float) -> bool:
        elapsed = max(0.0, now - self._last)
        self._tokens = min(self._burst, self._tokens + elapsed * self._rate)
        self._last = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


class QueueThresholdAdmission(AdmissionController):
    """Admit while the least-backlogged live edge is under a bound.

    The feedback-driven counterpart of the token bucket: it does not
    care how fast streams arrive, only whether the cluster has already
    fallen behind by more than ``max_backlog_s`` seconds of queued work.
    """

    name = "queue-threshold"
    needs_backlog = True

    def __init__(self, max_backlog_s: float = DEFAULT_MAX_BACKLOG_S) -> None:
        if max_backlog_s <= 0:
            raise ValueError(f"max_backlog_s must be positive, got {max_backlog_s}")
        self._max_backlog_s = max_backlog_s

    def admit(self, now: float, backlog_s: float) -> bool:
        return backlog_s <= self._max_backlog_s


def make_admission(
    policy: str,
    rate: float = 1.0,
    max_backlog_s: float = DEFAULT_MAX_BACKLOG_S,
) -> AdmissionController:
    """Build an admission controller by name."""
    if policy == "none":
        return AdmissionController()
    if policy == "token-bucket":
        return TokenBucketAdmission(rate=rate)
    if policy == "queue-threshold":
        return QueueThresholdAdmission(max_backlog_s=max_backlog_s)
    known = ", ".join(ADMISSION_POLICIES)
    raise ValueError(f"unknown admission policy {policy!r}; known policies: {known}")
