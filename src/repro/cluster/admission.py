"""Global admission: aggregate per-array Table-1 budgets cluster-wide.

One disk admits "68 to 91 users" (paper, Section 6); a fleet of N
arrays admits ~N times that *only if* the controller can route around
full or degraded members.  :class:`GlobalAdmission` composes a
:class:`~repro.cluster.placement.PlacementPolicy` with one
:class:`ArrayBudget` per array:

* the placement policy proposes a preference order for the stream,
* the first array whose advertised budget fits the stream's reserved
  share admits it (``admit`` when it is the first choice, ``spill``
  when a later choice caught it — the spillover that keeps fleet-wide
  acceptance at N x the per-array band while individual arrays run
  hot or rebuild),
* a stream no budget fits is rejected cluster-wide.

Budgets reuse the per-array reservation math
(:meth:`repro.serve.admission.ReservationAdmission.reservation_for`
prices a stream's share from the Table 1 disk model), so the cluster
admits exactly the populations the single-array analysis predicts.
The advertised ceiling is ``target_utilization x capacity_factor``;
the controller degrades ``capacity_factor`` while a hot-spare rebuild
eats a member's bandwidth and restores it afterwards.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from repro.serve.admission import ReservationAdmission
from repro.serve.session import StreamSpec
from repro.util.priority_queue import IndexedPriorityQueue

from .placement import PlacementPolicy

#: Conservative float slack for the O(log N) reject short-circuit:
#: ``route`` refuses without walking only when the stream's share
#: exceeds the best headroom by more than this, so any array within
#: rounding distance of fitting still gets the exact
#: ``reserved + share <= advertised_limit`` test.
_HEADROOM_SLACK = 1e-9


def _check_share(value: float, what: str) -> None:
    """Refuse a NaN, infinite or negative reserved share."""
    if not 0.0 <= value < math.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {value!r}")


class RouteDecision(enum.Enum):
    """Outcome class of one cluster-wide stream-open attempt."""

    #: Admitted on the placement policy's first choice.
    ADMIT = "admit"
    #: Admitted, but only after spilling past full/degraded arrays.
    SPILL = "spill"
    #: No array budget fits the stream.
    REJECT = "reject"


def admit_reason(array_id: int, reserved: float, limit: float,
                 rank: int) -> str:
    """Decision-log detail of an admit/spill: the granting budget's
    reserved share after the grant, over its advertised limit."""
    return (f"array {array_id} reserved {reserved:.3f}/{limit:.3f}"
            + (f" after {rank} spills" if rank else ""))


def reject_reason(tried: int) -> str:
    """Decision-log detail of a fleet-wide reject."""
    return f"no array budget fits (tried {tried} arrays)"


class ClusterDecision(NamedTuple):
    """Decision plus the routing that produced it."""

    decision: RouteDecision
    #: Array granted the stream (-1 when rejected).
    array_id: int
    #: Reserved utilization share on the granted array (0 on reject).
    share: float
    #: Preference rank the stream landed at (0 = first choice); on a
    #: reject, the number of arrays tried.
    rank: int
    #: The placement preference order consulted.
    preferred: tuple[int, ...]
    #: The granting budget's reserved share after the grant, and its
    #: advertised limit (both 0 on reject).
    reserved: float = 0.0
    limit: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision is not RouteDecision.REJECT

    @property
    def reason(self) -> str:
        """Human-readable detail, formatted only when read."""
        if self.decision is RouteDecision.REJECT:
            return reject_reason(self.rank)
        return admit_reason(self.array_id, self.reserved, self.limit,
                            self.rank)


class ArrayBudget:
    """One array's advertised admission budget and its reservations.

    Wraps the single-array :class:`ReservationAdmission` share pricing
    with a mutable ``capacity_factor``: 1.0 while healthy, degraded
    (e.g. 0.6) while the hot-spare rebuild competes for bandwidth.
    """

    def __init__(self, array_id: int, policy: ReservationAdmission,
                 *, capacity_factor: float = 1.0) -> None:
        if not 0.0 < capacity_factor <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        self.array_id = array_id
        self.policy = policy
        self._capacity_factor = capacity_factor
        self._reserved = 0.0
        #: Streams currently reserved here (count only; the controller
        #: owns the stream table).
        self.streams = 0
        #: Change listeners (the admission indexes): fired on every
        #: ``reserved``/``capacity_factor`` write, including direct
        #: attribute assignment, so no mutation path can leave a cached
        #: view stale.
        self._listeners: list[Callable[["ArrayBudget"], None]] = []

    def subscribe(self, listener: Callable[["ArrayBudget"], None]) -> None:
        """Observe every budget mutation (for the admission indexes)."""
        self._listeners.append(listener)

    def _notify(self) -> None:
        for listener in self._listeners:
            listener(self)

    @property
    def reserved(self) -> float:
        """Sum of the placed streams' reserved utilization shares."""
        return self._reserved

    @reserved.setter
    def reserved(self, value: float) -> None:
        _check_share(value, "reserved")
        self._reserved = value
        self._notify()

    @property
    def capacity_factor(self) -> float:
        """1.0 while healthy, degraded during hot-spare rebuild."""
        return self._capacity_factor

    @capacity_factor.setter
    def capacity_factor(self, value: float) -> None:
        if not 0.0 < value <= 1.0:
            raise ValueError("capacity_factor must be in (0, 1]")
        self._capacity_factor = value
        self._notify()

    @property
    def advertised_limit(self) -> float:
        """Budget ceiling after capacity degradation."""
        return self.policy.target_utilization * self._capacity_factor

    @property
    def headroom(self) -> float:
        return self.advertised_limit - self._reserved

    def share_for(self, spec: StreamSpec) -> float:
        """Reserved utilization share ``spec`` would cost here."""
        return self.policy.reservation_for(spec)

    def reserve(self, share: float) -> None:
        _check_share(share, "share")
        self._reserved += share
        self.streams += 1
        self._notify()

    def release(self, share: float) -> None:
        if self.streams == 0:
            raise ValueError(
                f"array {self.array_id} has no stream to release"
            )
        _check_share(share, "share")
        # The clamp absorbs float rounding only: the last release of a
        # sum of shares can land a few ulps below zero.
        self._reserved = max(self._reserved - share, 0.0)
        self.streams -= 1
        self._notify()


@dataclass
class AdmissionCounters:
    """Lifetime tallies of what the global controller decided."""

    admitted: int = 0
    spillovers: int = 0
    rejected: int = 0

    @property
    def attempts(self) -> int:
        return self.admitted + self.spillovers + self.rejected

    @property
    def accepted(self) -> int:
        """Streams granted service anywhere in the fleet."""
        return self.admitted + self.spillovers

    def as_dict(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "spillovers": self.spillovers,
            "rejected": self.rejected,
        }


class GlobalAdmission:
    """Route-or-reject: the fleet-wide admission decision procedure.

    Pure given its inputs: a decision depends only on the placement
    policy, the budgets' reserved shares, and the per-array rebuild
    flags announced through :meth:`set_rebuilding` — never on wall
    clock or iteration order — which is what lets the serial controller
    replay and the parallel serving phase agree byte for byte.

    A stream that fits its placement's first choice
    (:meth:`~repro.cluster.placement.PlacementPolicy.first_choice`) is
    admitted after a peek at the headroom heap's top and that one
    budget test.  Any other decision costs O(log arrays) amortized plus
    the prefix of the preference order it visits, from views that
    budget-change listeners (:meth:`ArrayBudget.subscribe`) keep
    current, including under direct attribute writes:

    * a max-headroom :class:`~repro.util.priority_queue.IndexedPriorityQueue`
      keyed by array id short-circuits fleet-wide rejects.  An entry is
      re-pushed only when its array's headroom grows; a reserve leaves
      it stale on the optimistic side, and the reject check re-pushes
      stale tops until the top entry is live (:meth:`max_headroom`);
    * a load-aware placement, one that overrides
      :meth:`~repro.cluster.placement.PlacementPolicy.update`, is told
      every budget change through it; every placement walks its
      preference order lazily
      (:meth:`~repro.cluster.placement.PlacementPolicy.candidates`),
      so the walk stops at the first budget that fits.

    The preconditions hold by construction or fail loudly: every budget
    must share one pricing policy (one ``share_for`` call prices a
    stream class fleet-wide, and is memoized per class), and the budget
    ids must equal the placement's members.  The full-fleet scan this
    replaced lives in ``tests/legacy_oracle.py`` as the differential
    reference.
    """

    def __init__(self, placement: PlacementPolicy,
                 budgets: dict[int, ArrayBudget]) -> None:
        if len({id(budget.policy) for budget in budgets.values()}) > 1:
            raise ValueError(
                "every array budget must share one ReservationAdmission "
                "(budgets that price streams differently)"
            )
        if set(placement.members) != set(budgets):
            raise ValueError(
                f"budget ids {sorted(budgets)} differ from the "
                f"placement's members {list(placement.members)}"
            )
        self.placement = placement
        self.budgets = budgets
        self.counters = AdmissionCounters()
        #: Arrays currently rebuilding (announced by the controller).
        self.rebuilding: set[int] = set()
        #: Array id -> negated headroom, never below the live value;
        #: :meth:`max_headroom` validates the top lazily.
        self._headroom: IndexedPriorityQueue[int] = IndexedPriorityQueue()
        #: ``(block_bytes, rate_mbps)`` -> reserved share.  Those two
        #: fields are all the shared pricing policy reads, so a stream
        #: class is priced once per fleet, not once per decision.
        self._shares: dict[tuple[int, float], float] = {}
        #: Whether the placement reads load (overrides ``update``);
        #: the base ``update`` is a no-op that is never called.
        self._reads_load = (type(placement).update
                            is not PlacementPolicy.update)
        for array_id, budget in budgets.items():
            self._headroom.push(array_id, -budget.headroom)
            budget.subscribe(self._budget_changed)
            if self._reads_load:
                placement.update(array_id, budget.reserved, False)

    def _budget_changed(self, budget: ArrayBudget) -> None:
        """Refresh the indexed views of one array's budget.

        The headroom entry is re-pushed only when the headroom grew:
        a lower headroom leaves the entry optimistic, which
        :meth:`max_headroom` corrects when it reaches the top.
        """
        array_id = budget.array_id
        neg_headroom = -budget.headroom
        if neg_headroom < self._headroom.priority_of(array_id):
            self._headroom.push(array_id, neg_headroom)
        if self._reads_load:
            self.placement.update(array_id, budget.reserved,
                                  array_id in self.rebuilding)

    def max_headroom(self) -> float:
        """The largest live headroom in the fleet.

        Every entry's headroom is at least its array's live headroom,
        so a top entry that equals its live value is the maximum; a
        stale top is re-pushed at its live value and the next is read.
        """
        headroom = self._headroom
        budgets = self.budgets
        while True:
            array_id, neg_headroom = headroom.peek()
            live = -budgets[array_id].headroom
            if neg_headroom == live:
                return -live
            headroom.push(array_id, live)

    def set_rebuilding(self, array_id: int, flag: bool) -> None:
        """Announce whether ``array_id`` is rebuilding."""
        if flag:
            self.rebuilding.add(array_id)
        else:
            self.rebuilding.discard(array_id)
        if self._reads_load:
            self.placement.update(
                array_id, self.budgets[array_id].reserved, flag)

    # -- the decision procedure -------------------------------------------

    def route(self, stream_key: int, spec: StreamSpec,
              *, exclude: frozenset[int] = frozenset(),
              count: bool = True) -> ClusterDecision:
        """Place ``spec`` on the best array whose budget fits it.

        ``exclude`` removes arrays from consideration entirely (the
        migration path excludes the draining source); ``count=False``
        skips the lifetime counters (used for re-admission probes).

        The returned ``preferred`` tuple is the prefix of the preference
        order actually consulted (empty for a short-circuited reject).

        Without ``exclude`` the heap's top entry is read first: it is
        never below the best live headroom, so a share that exceeds it
        is rejected at once, exactly.  Then the first choice is tested
        before the validated reject check.  That order cannot change a
        decision: a share that fits the first choice is at most its
        headroom, hence at most the best headroom (up to rounding,
        inside ``_HEADROOM_SLACK``), so the check would not have fired
        and the walk would have admitted at rank 0.
        """
        budgets = self.budgets
        stream_class = (spec.block_bytes, spec.rate_mbps)
        share = self._shares.get(stream_class)
        if share is None:
            share = next(iter(budgets.values())).share_for(spec)
            self._shares[stream_class] = share
        if not exclude:
            if share > _HEADROOM_SLACK - self._headroom.peek()[1]:
                # Above even the optimistic top: no budget can fit.
                return self._reject(len(budgets), (), count)
            array_id = self.placement.first_choice(stream_key)
            budget = budgets[array_id]
            limit = budget.advertised_limit
            if budget.reserved + share <= limit:
                budget.reserve(share)
                if count:
                    self.counters.admitted += 1
                return ClusterDecision(RouteDecision.ADMIT, array_id,
                                       share, 0, (array_id,),
                                       budget.reserved, limit)
            if share > self.max_headroom() + _HEADROOM_SLACK:
                # No budget can fit: reject without walking the fleet.
                return self._reject(len(budgets), (), count)
        visited: list[int] = []
        for array_id in self.placement.candidates(stream_key):
            if array_id in exclude:
                continue
            visited.append(array_id)
            budget = budgets[array_id]
            limit = budget.advertised_limit
            if budget.reserved + share <= limit:
                budget.reserve(share)
                rank = len(visited) - 1
                if rank == 0:
                    decision = RouteDecision.ADMIT
                    if count:
                        self.counters.admitted += 1
                else:
                    decision = RouteDecision.SPILL
                    if count:
                        self.counters.spillovers += 1
                return ClusterDecision(decision, array_id, share, rank,
                                       tuple(visited), budget.reserved,
                                       limit)
        return self._reject(len(visited), tuple(visited), count)

    def _reject(self, tried: int, preferred: tuple[int, ...],
                count: bool) -> ClusterDecision:
        if count:
            self.counters.rejected += 1
        return ClusterDecision(RouteDecision.REJECT, -1, 0.0, tried,
                               preferred)

    def release(self, array_id: int, share: float) -> None:
        """Return a departed stream's share to its array budget."""
        self.budgets[array_id].release(share)

    @property
    def fleet_reserved(self) -> float:
        """Summed reserved utilization across the fleet."""
        return sum(b.reserved for b in self.budgets.values())

    @property
    def fleet_advertised(self) -> float:
        """Summed advertised budget across the fleet."""
        return sum(b.advertised_limit for b in self.budgets.values())
