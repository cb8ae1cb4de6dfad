"""The O(1) first-choice admit and the lazily validated headroom max.

``GlobalAdmission.route`` rejects a stream that exceeds the
max-headroom heap's top entry, then tests the placement's first choice
and admits there after one budget test; only the other decisions
validate the heap, whose entries are re-pushed when an array's headroom
grows and checked against the live headroom when they reach the top.
These tests check that:

* under random mixes of routes, reserves, releases, capacity changes,
  direct ``reserved`` writes and rebuild flags on 1-64 budgets, the
  lazily validated max equals ``max(headroom)``, no heap entry falls
  below its array's live headroom, and every decision equals the scan
  oracle's field for field;
* a rank-0 admit on the default 16-array fleet pushes nothing into the
  heap and calls neither ``placement.candidates`` nor
  ``placement.update``, and a reject of a saturated fleet calls
  neither ``first_choice`` nor ``candidates``;
* whole controller replays at 128 and 1,024 arrays, through a disk
  failure, decide identically to the oracle under both placements.
"""

from __future__ import annotations

from collections import Counter
from contextlib import nullcontext
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ArrayBudget,
    ClusterController,
    GlobalAdmission,
    PlacementPolicy,
    RouteDecision,
    make_placement,
)
from repro.disk.disk import FILE_BLOCK_BYTES, make_xp32150_disk
from repro.experiments.cluster_demo import (
    ClusterSpec,
    cluster_events,
    fault_plans,
    make_config,
)
from repro.serve import StreamSpec
from repro.serve.admission import ReservationAdmission

from .legacy_oracle import scan_admission, scan_decide
from .test_cluster_incremental import decision_fields

SPECS = (StreamSpec(rate_mbps=0.375), StreamSpec(rate_mbps=1.5))

_PRICING = ReservationAdmission(make_xp32150_disk(),
                                target_utilization=0.1,
                                downgrade_limit=0.1, priority_levels=8)


def admission_pair(arrays, placement):
    """Two identical admissions: the shipped route and the oracle's."""
    def build():
        budgets = {i: ArrayBudget(i, _PRICING) for i in range(arrays)}
        policy = make_placement(placement, list(budgets), seed=7,
                                replicas=16)
        return GlobalAdmission(policy, budgets)
    return build(), build()


def assert_heap_never_below_live(admission):
    """Every heap entry's headroom is at least the live headroom."""
    for array_id, neg_headroom in admission._headroom.items():
        assert -neg_headroom >= admission.budgets[array_id].headroom


array_ids = st.integers(0, 63)
operations = st.one_of(
    st.tuples(st.just("route"), st.integers(0, 10**6),
              st.sampled_from(SPECS), st.booleans(),
              st.frozensets(array_ids, max_size=2)),
    st.tuples(st.just("reserve"), array_ids, st.sampled_from(SPECS)),
    st.tuples(st.just("release"), array_ids, st.sampled_from(SPECS)),
    st.tuples(st.just("capacity"), array_ids,
              st.sampled_from([0.3, 0.6, 1.0])),
    st.tuples(st.just("write"), array_ids,
              st.floats(0.0, 0.12, allow_nan=False)),
    st.tuples(st.just("rebuild"), array_ids, st.booleans()),
    st.tuples(st.just("max")),
)


@settings(max_examples=80, deadline=None)
@given(arrays=st.integers(1, 64),
       placement=st.sampled_from(["ring", "least-reserved"]),
       script=st.lists(operations, max_size=60))
def test_lazy_max_and_routes_match_the_oracle(arrays, placement, script):
    """Random budget mutations: the validated max is exact, the heap is
    never pessimistic, and every route equals ``scan_decide``."""
    fast, scan = admission_pair(arrays, placement)
    for step, (kind, *args) in enumerate(script):
        if kind == "route":
            key, spec, count, exclude = args
            exclude = frozenset(a % arrays for a in exclude)
            got = fast.route(key, spec, exclude=exclude, count=count)
            want, reason = scan_decide(scan, key, spec, exclude=exclude,
                                       count=count)
            assert decision_fields(got, got.reason) \
                == decision_fields(want, reason), step
            # The consulted prefix is a prefix of the oracle's order.
            assert got.preferred \
                == want.preferred[:len(got.preferred)], step
        elif kind == "max":
            assert fast.max_headroom() == max(
                budget.headroom for budget in fast.budgets.values())
        else:
            array_id = args[0] % arrays
            for admission in (fast, scan):
                budget = admission.budgets[array_id]
                if kind == "reserve":
                    budget.reserve(budget.share_for(args[1]))
                elif kind == "release":
                    if budget.streams:
                        budget.release(budget.share_for(args[1]))
                elif kind == "capacity":
                    budget.capacity_factor = args[1]
                elif kind == "write":
                    budget.reserved = args[1]
                else:
                    admission.set_rebuilding(array_id, args[1])
        assert_heap_never_below_live(fast)
    assert fast.counters == scan.counters
    for array_id, budget in fast.budgets.items():
        assert budget.reserved == scan.budgets[array_id].reserved
    assert fast.max_headroom() == max(
        budget.headroom for budget in fast.budgets.values())


@pytest.mark.parametrize("grow", ["release", "capacity", "write"])
def test_grown_headroom_reaches_the_reject_check(grow):
    """Two full arrays, the max validated at ~0; then the second choice
    regains headroom (release, capacity restored, or a lower direct
    write).  A stream whose first choice is still full must spill there,
    not be short-circuited by a stale max."""
    fast, _ = admission_pair(2, "ring")
    spec = SPECS[0]
    key = 0
    first = fast.placement.first_choice(key)
    other = fast.budgets[1 - first]
    if grow == "capacity":
        other.capacity_factor = 0.3
    for budget in fast.budgets.values():
        while budget.reserved + budget.share_for(spec) \
                <= budget.advertised_limit:
            budget.reserve(budget.share_for(spec))
    assert fast.route(key, spec).decision is RouteDecision.REJECT
    full = other.reserved
    if grow == "release":
        other.release(other.share_for(spec))
    elif grow == "capacity":
        other.capacity_factor = 1.0
    else:
        other.reserved = full - other.share_for(spec)
    decision = fast.route(key, spec)
    assert decision.decision is RouteDecision.SPILL
    assert decision.array_id == other.array_id


def test_exact_fit_behind_a_full_first_choice_spills():
    """The reject short-circuit errs only on the admitting side: a share
    that exactly fills the best headroom still gets the budget test."""
    fast, _ = admission_pair(2, "ring")
    spec = SPECS[1]
    key = 0
    first = fast.budgets[fast.placement.first_choice(key)]
    other = fast.budgets[1 - first.array_id]
    share = other.share_for(spec)
    first.reserved = first.advertised_limit
    other.reserved = other.advertised_limit - share
    assert other.reserved + share <= other.advertised_limit
    decision = fast.route(key, spec)
    assert decision.decision is RouteDecision.SPILL
    assert decision.array_id == other.array_id


def test_first_choice_admit_touches_no_index():
    """On the default 16-array fleet every rank-0 admit pushes nothing
    into the headroom heap and calls neither ``candidates`` nor
    ``update``; the other decisions do walk, so the spies are live."""
    spec = ClusterSpec()
    assert spec.arrays == 16 and spec.placement == "ring"
    controller = ClusterController(make_config(spec), fault_plans(spec))
    admission = controller.admission
    placement = controller.placement
    calls: Counter[str] = Counter()

    def spy(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return counted

    deltas: Counter[str] = Counter()
    real_route = admission.route

    def route(stream_key, spec, **kwargs):
        before = calls.copy()
        decision = real_route(stream_key, spec, **kwargs)
        kind = ("admit0" if decision.decision is RouteDecision.ADMIT
                and not kwargs.get("exclude") else "other")
        deltas[kind, "decisions"] += 1
        for name in ("push", "candidates", "update"):
            deltas[kind, name] += calls[name] - before[name]
        return decision

    with mock.patch.object(admission._headroom, "push",
                           spy("push", admission._headroom.push)), \
            mock.patch.object(placement, "candidates",
                              spy("candidates", placement.candidates)), \
            mock.patch.object(placement, "update",
                              spy("update", placement.update)), \
            mock.patch.object(admission, "route", route):
        plan = controller.run(cluster_events(spec), spec.until_ms)

    assert deltas["admit0", "decisions"] == plan.counters["admitted"] \
        > 20_000
    assert deltas["admit0", "push"] == 0
    assert deltas["admit0", "candidates"] == 0
    assert deltas["admit0", "update"] == 0
    # The ring reads no load, so nothing calls update at all.
    assert calls["update"] == 0
    assert deltas["other", "candidates"] \
        >= plan.counters["spillovers"] > 0


@pytest.mark.parametrize("placement", ["ring", "least-reserved"])
def test_saturated_fleet_rejects_on_the_heap_top(placement):
    """Once a reject has validated the max, every further reject of a
    saturated 64-array fleet is decided on the heap's top alone: no
    ``first_choice`` and no ``candidates`` call.  Under least-reserved
    either would tie-hash the whole first equal-load group."""
    fast, _ = admission_pair(64, placement)
    spec = SPECS[1]
    key = 0
    while fast.route(key, spec).admitted:
        key += 1
    calls: Counter[str] = Counter()
    policy = fast.placement

    def spy(name, method):
        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return counted

    with mock.patch.object(policy, "candidates",
                           spy("candidates", policy.candidates)), \
            mock.patch.object(policy, "first_choice",
                              spy("first_choice", policy.first_choice)):
        for key in range(key + 1, key + 200):
            decision = fast.route(key, spec)
            assert decision.decision is RouteDecision.REJECT
            assert decision.rank == 64 and decision.preferred == ()
    assert calls == Counter()
    assert fast.counters.rejected == 200


def test_policy_overriding_update_is_told_every_change():
    """A placement that overrides ``update`` hears every budget change:
    the initial loads, reserves, releases, capacity changes, direct
    ``reserved`` writes and rebuild flags."""
    class Recording(PlacementPolicy):
        members = (0, 1)

        def __init__(self):
            self.seen = []

        def candidates(self, stream_key):
            return iter(self.members)

        def update(self, array_id, reserved, rebuilding):
            self.seen.append((array_id, reserved, rebuilding))

    budgets = {i: ArrayBudget(i, _PRICING) for i in range(2)}
    policy = Recording()
    admission = GlobalAdmission(policy, budgets)
    assert policy.seen == [(0, 0.0, False), (1, 0.0, False)]
    decision = admission.route(5, SPECS[0])
    assert decision.array_id == 0
    assert policy.seen[-1] == (0, decision.reserved, False)
    admission.set_rebuilding(1, True)
    assert policy.seen[-1] == (1, 0.0, True)
    budgets[1].capacity_factor = 0.6
    assert policy.seen[-1] == (1, 0.0, True)
    budgets[1].reserved = 0.01
    assert policy.seen[-1] == (1, 0.01, True)
    admission.release(0, decision.share)
    assert policy.seen[-1] == (0, 0.0, False)
    assert len(policy.seen) == 7


def test_base_first_choice_is_the_head_of_candidates():
    """The default ``first_choice`` is the first array ``candidates``
    yields; the ring's bisect names the same array."""
    for name in ("ring", "least-reserved"):
        policy = make_placement(name, range(9), seed=5)
        for key in range(200):
            head = next(iter(policy.candidates(key)))
            assert policy.first_choice(key) == head
            assert PlacementPolicy.first_choice(policy, key) == head


#: ``(arrays, users, target, ring replicas)``: each array holds a few
#: streams, users overflow the fleet, and the failure near the end of
#: the arrivals forces a migration out of array 1.
SCALES = {
    128: (128, 270, 0.025, 128),
    1024: (1024, 1_130, 0.015, 8),
}


def replay(arrays, placement, *, oracle):
    arrays, users, target, replicas = SCALES[arrays]
    interval = 10.0
    spec = replace(
        ClusterSpec(),
        arrays=arrays,
        users=users,
        user_interval_ms=interval,
        tail_ms=4_000.0,
        stream_rate_mbps=1.5,
        block_bytes=FILE_BLOCK_BYTES,
        target_utilization=target,
        placement=placement,
        seed=3,
        failure_array=1,
        failure_start_ms=0.9 * users * interval,
        failure_end_ms=0.9 * users * interval + 2_000.0,
    )
    config = replace(make_config(spec), ring_replicas=replicas)
    with scan_admission() if oracle else nullcontext():
        controller = ClusterController(config, fault_plans(spec))
        return controller.run(cluster_events(spec), spec.until_ms)


@pytest.mark.parametrize("arrays", [
    128, pytest.param(1024, marks=pytest.mark.slow)])
@pytest.mark.parametrize("placement", ["ring", "least-reserved"])
def test_large_fleet_replay_matches_oracle(arrays, placement):
    """128 and 1,024 arrays through a disk failure: decision log,
    counters, reserved and resident tables equal the oracle's."""
    shipped = replay(arrays, placement, oracle=False)
    scan = replay(arrays, placement, oracle=True)
    assert shipped.serialize() == scan.serialize()
    assert shipped.counters == scan.counters
    assert shipped.reserved == scan.reserved
    assert shipped.resident == scan.resident
    assert shipped.counters["rejected"] > 0
    assert shipped.ledger.migrated + shipped.ledger.dropped > 0
    if placement == "ring":
        assert shipped.counters["spillovers"] > 0
