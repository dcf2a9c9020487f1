"""Asynchronous cross-region reconciliation with apologies.

Under the ``async-reconcile`` commit variant a cross-region transaction
commits region-locally and its write-set ships one-way to every remote
participant region.  The :class:`Reconciler` is the convergence engine
on the receiving side: a last-writer-wins register map ordered by a
total :class:`ShipStamp` ``(commit_time, origin_region, seq)``, so the
final state is the same for *any* delivery interleaving — the property
``tests/test_geo.py`` pins with hypothesis.

Concurrent writes from different regions are where eventual consistency
bites: when a ship arrives for a key whose current value was still in
flight when this write committed (its commit time predates the applied
write's arrival), the two writes raced and last-writer-wins drops one.
The loser is an *apology* in the paper's sense, charged against the
existing :class:`~repro.traffic.shedding.ApologyBudget`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.traffic.shedding import ApologyBudget

#: Apology budget of a run's async reconciler (tokens per second).
APOLOGY_BUDGET_PER_S = 100.0


@dataclass(frozen=True, order=True)
class ShipStamp:
    """Total order over shipped writes: commit time, origin, sequence."""

    commit_time: float
    origin_region: int
    seq: int


@dataclass(frozen=True)
class WriteShip:
    """One write-set entry shipped from its origin region."""

    key: Hashable
    value: Any
    stamp: ShipStamp
    #: When the ship lands at the receiving region (commit + WAN delay).
    arrival_time: float = 0.0


@dataclass
class _Applied:
    """Current winner for one key, plus when its ship landed."""

    stamp: ShipStamp
    value: Any
    arrival_time: float


@dataclass
class Reconciler:
    """Last-writer-wins convergence over shipped write-sets.

    :meth:`deliver` is commutative in outcome: whatever order ships
    arrive in, the surviving value per key is the one with the greatest
    :class:`ShipStamp`.  Conflict accounting (and therefore apologies)
    depends on arrival order by design — an apology is owed to whoever
    observed the losing write, which is an artifact of the race itself.
    """

    budget: ApologyBudget | None = None
    conflicts: int = 0
    apologies: int = 0
    stale_drops: int = 0
    applied_ships: int = 0
    _state: dict[Hashable, _Applied] = field(default_factory=dict)

    def deliver(self, ship: WriteShip) -> bool:
        """Apply one arriving ship; returns True when it won its key."""
        current = self._state.get(ship.key)
        if current is not None and current.stamp.origin_region != ship.stamp.origin_region:
            # The writes raced if the later commit happened before the
            # earlier one had landed everywhere (either arrival order).
            earlier, later = sorted(
                (current, _Applied(ship.stamp, ship.value, ship.arrival_time)),
                key=lambda entry: entry.stamp,
            )
            if later.stamp.commit_time < earlier.arrival_time:
                self.conflicts += 1
                if self.budget is None or self.budget.spend(ship.arrival_time):
                    self.apologies += 1
        if current is None or ship.stamp > current.stamp:
            self._state[ship.key] = _Applied(ship.stamp, ship.value, ship.arrival_time)
            self.applied_ships += 1
            return True
        self.stale_drops += 1
        return False

    def snapshot(self) -> dict[Hashable, Any]:
        """Converged key → value view (what 2PC would have left behind)."""
        return {key: entry.value for key, entry in self._state.items()}
