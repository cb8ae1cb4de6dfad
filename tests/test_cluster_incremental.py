"""The shipped cluster decision tier vs the full-fleet scan oracle.

``GlobalAdmission.route`` answers in O(log arrays) from indexed views
(a max-headroom queue, the placement's lazy ``candidates`` walk);
``tests.legacy_oracle.route_scan`` is the O(arrays) full-fleet ranking
it replaced, kept as the differential reference.  These tests require
identical decisions per field, across mixed open/close/rebuild
scripts, through whole controller replays (including the default
16-array fleet under both placements), and against the committed
golden cluster trace on both paths.  The preconditions the shipped
route relies on fail loudly when broken.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ArrayBudget,
    ClusterController,
    ConsistentHashPlacement,
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
from .test_cluster_golden import GOLDEN_DIR, GOLDEN_SPEC


def pricing(disk):
    return ReservationAdmission(disk, target_utilization=0.85,
                                downgrade_limit=0.85, priority_levels=8)


def build_admission(disk, arrays, placement):
    """One GlobalAdmission over ``arrays`` fresh budgets sharing one
    pricing policy (the shape the controller builds)."""
    shared = pricing(disk)
    budgets = {i: ArrayBudget(i, shared) for i in range(arrays)}
    policy = make_placement(placement, list(budgets), seed=7)
    return GlobalAdmission(policy, budgets)


def decision_fields(decision, reason):
    """Everything both paths must agree on.

    ``reason`` is the shipped decision's ``.reason`` (formatted on read
    from its fields) or the string the oracle formatted itself.
    ``preferred`` is deliberately omitted: the shipped route returns
    the prefix of the preference order it actually consulted, the scan
    the full order — the decision log records neither beyond the
    reason.
    """
    return (decision.decision, decision.array_id, decision.share,
            decision.rank, decision.reserved, decision.limit, reason)


def plan_of(spec, *, oracle):
    """``spec``'s decision plan, through the scan oracle if asked."""
    events, plans = cluster_events(spec), fault_plans(spec)
    with scan_admission() if oracle else nullcontext():
        controller = ClusterController(make_config(spec), plans)
        return controller.run(events, spec.until_ms)


def assert_plans_identical(spec):
    """Replay ``spec`` both ways; every plan table must match."""
    shipped = plan_of(spec, oracle=False)
    scan = plan_of(spec, oracle=True)
    assert shipped.serialize() == scan.serialize()
    assert shipped.counters == scan.counters
    assert shipped.reserved == scan.reserved
    assert shipped.resident == scan.resident
    return shipped


@pytest.mark.parametrize("placement", ["ring", "least-reserved"])
def test_mixed_script_decisions_identical(disk, placement):
    """route == route_scan over a mixed open/close/rebuild script."""
    fast = build_admission(disk, 5, placement)
    scan = build_admission(disk, 5, placement)
    rng = Random(11)
    placed: dict[int, tuple[int, float]] = {}
    rebuilding: set[int] = set()
    kinds = set()
    for step in range(400):
        roll = rng.random()
        if roll < 0.55 or not placed:
            key = rng.randrange(100_000)
            spec = StreamSpec(rate_mbps=rng.choice((0.375, 1.5)),
                              priorities=(rng.randrange(4),))
            exclude = (frozenset({rng.randrange(5)})
                       if rng.random() < 0.1 else frozenset())
            got = fast.route(key, spec, exclude=exclude)
            want = scan_decide(scan, key, spec, exclude=exclude)
            assert decision_fields(got, got.reason) \
                == decision_fields(*want), step
            kinds.add(got.decision)
            if got.admitted:
                placed[key] = (got.array_id, got.share)
        elif roll < 0.8:
            key = rng.choice(sorted(placed))
            array_id, share = placed.pop(key)
            fast.release(array_id, share)
            scan.release(array_id, share)
        else:
            array_id = rng.randrange(5)
            flag = array_id not in rebuilding
            (rebuilding.add if flag else rebuilding.discard)(array_id)
            for admission in (fast, scan):
                admission.set_rebuilding(array_id, flag)
                admission.budgets[array_id].capacity_factor = (
                    0.6 if flag else 1.0)
    # Least-reserved placement spills only when its first choice is
    # full but a worse-ranked array still fits -- a window this script
    # does not reliably hit; the ring script must cover all three.
    needed = ({RouteDecision.ADMIT, RouteDecision.SPILL,
               RouteDecision.REJECT} if placement == "ring"
              else {RouteDecision.ADMIT, RouteDecision.REJECT})
    assert needed <= kinds, f"script must hit {needed}"
    assert fast.counters == scan.counters
    for array_id in fast.budgets:
        assert fast.budgets[array_id].reserved \
            == scan.budgets[array_id].reserved


def test_non_uniform_pricing_is_rejected(disk):
    """A fleet with one budget on a different disk model prices streams
    differently; construction refuses it instead of routing it."""
    other = make_xp32150_disk()
    other.reset(0)
    shared = pricing(disk)
    budgets = {i: ArrayBudget(i, shared) for i in range(4)}
    budgets[2] = ArrayBudget(2, pricing(other))
    with pytest.raises(ValueError, match="share one"):
        GlobalAdmission(make_placement("ring", list(budgets), seed=7),
                        budgets)


@pytest.mark.parametrize("members", [(0, 1, 2), (0, 1, 2, 3, 4),
                                     (0, 1, 2, 5)])
def test_budget_ids_must_equal_ring_members(disk, members):
    """Budgets the ring does not place, or ring members without a
    budget, are a construction error."""
    shared = pricing(disk)
    budgets = {i: ArrayBudget(i, shared) for i in range(4)}
    with pytest.raises(ValueError, match="members"):
        GlobalAdmission(ConsistentHashPlacement(members, seed=7), budgets)


def test_placement_without_candidates_is_abstract():
    """A policy must implement the one ordering walk."""
    class MembersOnly(PlacementPolicy):
        members = (0, 1)

    with pytest.raises(TypeError, match="candidates"):
        MembersOnly()


@settings(max_examples=12, deadline=None)
@given(
    arrays=st.integers(min_value=2, max_value=6),
    users=st.integers(min_value=20, max_value=70),
    placement=st.sampled_from(["ring", "least-reserved"]),
    fail_one=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_controller_replay_incremental_matches_scan(
        arrays, users, placement, fail_one, seed):
    """Whole-controller differential: decision log, counters, reserved
    and resident tables byte-identical between the shipped route and
    the scan oracle, including the failure -> rebuild -> migration
    window."""
    spec = replace(
        ClusterSpec(),
        arrays=arrays,
        users=users,
        user_interval_ms=200.0,
        tail_ms=4_000.0,
        stream_rate_mbps=1.5,
        block_bytes=FILE_BLOCK_BYTES,
        target_utilization=0.15,
        placement=placement,
        seed=seed,
        failure_array=1 if fail_one else None,
        failure_start_ms=3_000.0,
        failure_end_ms=6_000.0,
    )
    assert_plans_identical(spec)


@pytest.mark.parametrize("placement", ["ring", "least-reserved"])
def test_default_fleet_replay_matches_oracle(placement):
    """The default 16-array fleet (one disk failure, a migration wave)
    decides identically through the shipped route and the oracle."""
    spec = replace(ClusterSpec(), placement=placement)
    plan = assert_plans_identical(spec)
    assert spec.arrays == 16
    assert plan.ledger.migrated >= 1
    assert plan.counters["rejected"] >= 1


@pytest.mark.parametrize("oracle", [False, True])
def test_both_paths_match_golden_trace(oracle):
    """The committed golden cluster trace replays byte for byte through
    the shipped route and through the scan oracle alike."""
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    plan = plan_of(GOLDEN_SPEC, oracle=oracle)
    assert plan.serialize() == golden.rstrip(b"\n")
