"""Unit tests for the fleet-wide admission controller."""

from __future__ import annotations

import math

import pytest

from repro.cluster import (
    ArrayBudget,
    GlobalAdmission,
    LeastReservedPlacement,
    RouteDecision,
    make_placement,
)
from repro.serve import StreamSpec
from repro.serve.admission import ReservationAdmission

MPEG = StreamSpec(rate_mbps=0.375)


def make_admission(disk, arrays=4, *, target=0.85, placement=None):
    pricing = ReservationAdmission(
        disk, target_utilization=target, downgrade_limit=target,
        priority_levels=8)
    budgets = {i: ArrayBudget(i, pricing) for i in range(arrays)}
    policy = placement or make_placement(
        "ring", list(budgets), seed=7)
    return GlobalAdmission(policy, budgets)


class TestArrayBudget:
    def test_share_matches_single_array_pricing(self, disk):
        admission = ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8)
        budget = ArrayBudget(0, admission)
        assert budget.share_for(MPEG) == admission.reservation_for(MPEG)

    def test_advertised_limit_degrades_with_capacity(self, disk):
        admission = ReservationAdmission(
            disk, target_utilization=0.8, downgrade_limit=0.8,
            priority_levels=8)
        budget = ArrayBudget(0, admission)
        assert budget.advertised_limit == pytest.approx(0.8)
        budget.capacity_factor = 0.5
        assert budget.advertised_limit == pytest.approx(0.4)

    def test_reserve_release_roundtrip(self, disk):
        admission = ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8)
        budget = ArrayBudget(0, admission)
        share = budget.share_for(MPEG)
        budget.reserve(share)
        assert budget.streams == 1
        assert budget.reserved == pytest.approx(share)
        budget.release(share)
        assert budget.streams == 0
        assert budget.reserved == pytest.approx(0.0)

    def test_release_without_a_stream_is_an_error(self, disk):
        """Releasing more streams than were reserved fails loudly and
        leaves the budget untouched."""
        admission = ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8)
        budget = ArrayBudget(0, admission)
        share = budget.share_for(MPEG)
        budget.reserve(share)
        budget.release(share)
        with pytest.raises(ValueError, match="no stream to release"):
            budget.release(share)
        assert budget.streams == 0
        assert budget.reserved == 0.0

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                       -0.5])
    def test_bad_reserved_write_is_an_error(self, disk, value):
        """A NaN, infinite or negative ``reserved`` write fails loudly
        and leaves the budget (and its listeners) untouched."""
        budget = ArrayBudget(0, ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8))
        budget.reserved = 0.25
        seen = []
        budget.subscribe(seen.append)
        with pytest.raises(ValueError, match="finite and >= 0"):
            budget.reserved = value
        assert budget.reserved == 0.25
        assert seen == []

    @pytest.mark.parametrize("share", [math.nan, math.inf, -0.1])
    def test_bad_share_is_an_error(self, disk, share):
        """``reserve``/``release`` refuse a NaN, infinite or negative
        share and leave the budget untouched."""
        budget = ArrayBudget(0, ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8))
        good = budget.share_for(MPEG)
        budget.reserve(good)
        for method in (budget.reserve, budget.release):
            with pytest.raises(ValueError, match="finite and >= 0"):
                method(share)
            assert budget.streams == 1
            assert budget.reserved == good

    def test_release_clamps_float_rounding(self, disk):
        """The last release of a sum of shares lands on exactly zero,
        not a few ulps below it."""
        budget = ArrayBudget(0, ReservationAdmission(
            disk, target_utilization=0.85, downgrade_limit=0.85,
            priority_levels=8))
        shares = [0.3, 0.6, 0.1]
        assert sum(shares) - 0.3 - 0.6 - 0.1 < 0.0
        for share in shares:
            budget.reserve(share)
        for share in shares:
            budget.release(share)
        assert budget.reserved == 0.0


class TestGlobalAdmission:
    def test_first_choice_admit(self, disk):
        fleet = make_admission(disk)
        decision = fleet.route(0, MPEG)
        assert decision.decision is RouteDecision.ADMIT
        assert decision.rank == 0
        assert decision.array_id == decision.preferred[0]
        assert fleet.counters.admitted == 1

    def test_spillover_past_full_arrays(self, disk):
        fleet = make_admission(disk)
        first = fleet.route(0, MPEG)
        # Saturate the first-choice array for stream key 0.
        full = fleet.budgets[first.array_id]
        full.reserved = full.advertised_limit
        decision = fleet.route(0, MPEG)
        assert decision.decision is RouteDecision.SPILL
        assert decision.array_id != first.array_id
        assert decision.rank >= 1
        assert fleet.counters.spillovers == 1

    def test_reject_when_every_budget_is_full(self, disk):
        fleet = make_admission(disk)
        for budget in fleet.budgets.values():
            budget.reserved = budget.advertised_limit
        decision = fleet.route(0, MPEG)
        assert decision.decision is RouteDecision.REJECT
        assert decision.array_id == -1
        assert decision.share == 0.0
        assert fleet.counters.rejected == 1

    def test_exclude_skips_the_draining_source(self, disk):
        fleet = make_admission(disk)
        source = fleet.route(0, MPEG).array_id
        redo = fleet.route(0, MPEG, exclude=frozenset({source}),
                           count=False)
        assert redo.admitted
        assert redo.array_id != source
        # count=False leaves the lifetime counters untouched.
        assert fleet.counters.attempts == 1

    def test_fleet_accepts_n_times_the_single_array_band(self, disk):
        """4 arrays accept ~4x what one budget accepts."""
        fleet = make_admission(disk)
        single = int(0.85 / fleet.budgets[0].share_for(MPEG))
        accepted = 0
        for key in range(5 * 4 * single):
            if fleet.route(key, MPEG).admitted:
                accepted += 1
        assert accepted == 4 * single

    def test_least_reserved_placement_balances_exactly(self, disk):
        fleet = make_admission(
            disk, placement=LeastReservedPlacement(range(4), seed=7))
        for key in range(40):
            assert fleet.route(key, MPEG).admitted
        counts = [b.streams for b in fleet.budgets.values()]
        assert counts == [10, 10, 10, 10]

    def test_rebuilding_flag_reaches_the_policy(self, disk):
        fleet = make_admission(
            disk, placement=LeastReservedPlacement(range(4), seed=7))
        for array_id in (0, 1, 2):
            fleet.set_rebuilding(array_id, True)
        decision = fleet.route(0, MPEG)
        # The only healthy array wins even at equal (zero) load.
        assert decision.preferred[0] == 3
