"""The cluster plan's record layout and the decision tier's memos.

The controller keeps its decision log as rows of plain atoms and its
timelines as tuple records, so a 28k-session plan adds no per-decision
dataclass for the garbage collector to walk.  ``DecisionRecord`` views
and the log's detail strings are built only when read.  These tests pin
that layout, check the read-side formatting against the golden trace
and the oracle's own reason strings, and check the two per-decision
shortcuts (one price per stream class, the ring's precomputed hash
prefix) bit for bit against the functions they replace.
"""

from __future__ import annotations

import dataclasses
import gc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ArrayBudget,
    ClusterController,
    ConsistentHashPlacement,
    DecisionRecord,
    GlobalAdmission,
    TimelineEntry,
    build_report,
    make_placement,
    stable_hash,
)
from repro.cluster import controller as controller_module
from repro.disk.disk import FILE_BLOCK_BYTES, make_xp32150_disk
from repro.experiments.cluster_demo import (
    ClusterSpec,
    cluster_events,
    fault_plans,
    make_config,
)
from repro.experiments.history import cluster_trace
from repro.serve import StreamSpec
from repro.serve.admission import ReservationAdmission

from .legacy_oracle import scan_decide
from .test_cluster_golden import GOLDEN_DIR, GOLDEN_SPEC

ARRIVAL_KINDS = ("admit", "spill", "reject")


def run_plan(spec):
    controller = ClusterController(make_config(spec), fault_plans(spec))
    return controller.run(cluster_events(spec), spec.until_ms)


def test_default_fleet_plan_builds_no_records_until_read():
    """``run`` on the default 16-array fleet creates no DecisionRecord;
    reading ``decisions`` creates one per log row.  Log rows hold only
    atoms (so the collector stops tracking them) and timeline entries
    are tuple records."""
    made = []
    real_init = DecisionRecord.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        real_init(self, *args, **kwargs)

    spec = ClusterSpec()
    assert spec.arrays == 16
    with mock.patch.object(DecisionRecord, "__init__", counting_init):
        plan = run_plan(spec)
        assert made == []
        records = plan.decisions
    assert len(made) == len(records) == len(plan.log) > 28_000

    atoms = (int, float, str)
    assert all(type(value) in atoms for row in plan.log for value in row)
    gc.collect()
    assert not any(gc.is_tracked(row) for row in plan.log)

    entries = [entry for timeline in plan.timelines.values()
               for entry in timeline]
    ledger = plan.ledger
    assert len(entries) \
        == plan.accepted + 2 * ledger.migrated + ledger.dropped
    assert all(type(entry) is TimelineEntry for entry in entries)
    assert all(isinstance(entry, tuple) for entry in entries)


def test_decisions_view_and_serialize_match_golden():
    """Both read paths format the golden cluster trace byte for byte."""
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    golden = golden.rstrip(b"\n")
    plan = run_plan(GOLDEN_SPEC)
    assert plan.serialize() == golden
    view = "\n".join(
        f"{d.time_ms!r}|{d.kind}|{d.stream_key}|{d.array_id}|{d.detail}"
        for d in plan.decisions
    ).encode()
    assert view == golden


def test_recorded_run_formats_the_plan_once():
    """Recording a run reads the serialized plan three times (the
    trace, the fingerprint inside it, the report's JSON); the rows are
    formatted once and the bytes are the golden trace's."""
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    golden = golden.rstrip(b"\n")
    plan = run_plan(GOLDEN_SPEC)
    report = build_report(plan, [])
    with mock.patch.object(controller_module, "row_detail",
                           wraps=controller_module.row_detail) as spy:
        trace = cluster_trace(report)
        data = report.as_dict()
    assert spy.call_count == len(plan.log) > 0
    fingerprint = report.fingerprint()
    assert trace == golden + b"\nfingerprint|" + fingerprint.encode()
    assert data["fingerprint"] == fingerprint


def test_replaced_log_is_never_served_stale():
    """The plan's log is an immutable tuple; replacing it re-formats the
    plan, so the report's fingerprint follows the new log."""
    plan = run_plan(GOLDEN_SPEC)
    report = build_report(plan, [])
    full, fingerprint = plan.serialize(), report.fingerprint()
    with pytest.raises(AttributeError):
        plan.log.append(plan.log[0])
    plan.log = plan.log[:-1]
    assert plan.serialize() == full.rsplit(b"\n", 1)[0]
    assert report.fingerprint() != fingerprint
    # A copy of the plan starts with no cached bytes.
    assert report.fingerprint() \
        == build_report(dataclasses.replace(plan), []).fingerprint()
    # A list log is formatted on every read, so appends show up too.
    plan.log = list(plan.log)
    plan.log.append(run_plan(GOLDEN_SPEC).log[-1])
    assert plan.serialize() == full
    assert report.fingerprint() == fingerprint


def test_read_side_details_match_the_oracle_reasons():
    """Each arrival row's detail, formatted on read from its atoms,
    equals the reason string the scan oracle formatted at decision
    time; the whole plan equals the oracle's."""
    reasons: list[str] = []

    def recording_route(admission, stream_key, spec, *,
                        exclude=frozenset(), count=True):
        decision, reason = scan_decide(admission, stream_key, spec,
                                       exclude=exclude, count=count)
        if count:
            reasons.append(reason)
        return decision

    shipped = run_plan(GOLDEN_SPEC)
    with mock.patch.object(GlobalAdmission, "route", recording_route):
        oracle = run_plan(GOLDEN_SPEC)
    details = [d.detail for d in shipped.decisions
               if d.kind in ARRIVAL_KINDS]
    assert details and all(details)
    assert details == reasons
    assert shipped.decisions == oracle.decisions
    assert shipped.serialize() == oracle.serialize()
    assert shipped.timelines == oracle.timelines


stream_classes = st.tuples(
    st.sampled_from([16_384, FILE_BLOCK_BYTES, 65_536, 262_144]),
    st.sampled_from([0.375, 1.5, 4.0, 0.1]),
)
spec_variants = st.builds(
    lambda stream_class, priorities, is_write, start_block, value:
        StreamSpec(rate_mbps=stream_class[1],
                   block_bytes=stream_class[0],
                   priorities=priorities, is_write=is_write,
                   start_block=start_block, value=value),
    stream_classes,
    st.lists(st.integers(0, 7), min_size=1, max_size=3).map(tuple),
    st.booleans(),
    st.integers(0, 10_000),
    st.floats(-1e6, 1e6, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(spec_variants, min_size=1, max_size=12))
def test_memoized_price_equals_policy_price(specs):
    """Routing many specs through one admission charges each the exact
    ``reservation_for`` price, though a stream class is priced once."""
    policy = ReservationAdmission(
        make_xp32150_disk(), target_utilization=1e9,
        downgrade_limit=1e9, priority_levels=8)
    budgets = {i: ArrayBudget(i, policy) for i in range(2)}
    admission = GlobalAdmission(
        make_placement("ring", list(budgets), seed=3), budgets)
    for key, spec in enumerate(specs):
        decision = admission.route(key, spec)
        assert decision.admitted
        assert decision.share.hex() == policy.reservation_for(spec).hex()


big_ints = st.one_of(st.just(0), st.integers(-2**100, 2**100),
                     st.integers(-2**70, -2**64),
                     st.integers(2**64, 2**70))


@settings(max_examples=200, deadline=None)
@given(seed=big_ints, key=big_ints)
def test_ring_stream_point_equals_stable_hash(seed, key):
    """The ring's prefix hash is byte-equal to the general one."""
    ring = ConsistentHashPlacement((0,), seed=seed, replicas=1)
    assert ring.stream_point(key) == stable_hash(seed, "stream", key)

