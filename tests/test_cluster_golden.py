"""Golden cluster trace: the fleet decision sequence is pinned.

A seeded 4-array scenario with one mid-ramp disk failure produces a
fixed admit/spill/reject/migrate decision log
(``tests/golden/cluster_trace.txt``), byte-identical across sessions,
and a fleet fingerprint (decision log + per-array serving-trace
digests) identical between serial and ``--jobs 4`` execution and
between the serving loop and the reference loop in
``tests/legacy_oracle.py``.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import ClusterController, build_report
from repro.experiments.cluster_demo import (
    ClusterSpec,
    _cells,
    cluster_events,
    fault_plans,
    make_config,
)
from repro.parallel import run_cells, run_cluster_cell
from tests.legacy_oracle import legacy_serving

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Small, fixed fleet scenario behind the pinned golden trace.  Do not
#: change without regenerating the golden file (regenerate_golden()).
GOLDEN_SPEC = ClusterSpec(
    arrays=4,
    users=60,
    user_interval_ms=250.0,
    tail_ms=4_000.0,
    stream_rate_mbps=1.5,
    block_bytes=65536,
    target_utilization=0.12,
    rebuild_capacity_factor=0.5,
    rebuild_extra_ms=3_000.0,
    failure_array=1,
    failure_start_ms=6_000.0,
    failure_end_ms=9_000.0,
    seed=77,
    check_band=False,
    min_accepted=0,
    selfcheck=False,
)


def decision_plan(spec: ClusterSpec):
    controller = ClusterController(make_config(spec), fault_plans(spec))
    return controller.run(cluster_events(spec), spec.until_ms)


def test_decision_log_is_deterministic():
    assert decision_plan(GOLDEN_SPEC).serialize() \
        == decision_plan(GOLDEN_SPEC).serialize()


def test_decision_log_differs_across_seeds():
    """The log depends on the seed (no vacuous pinning)."""
    other = replace(GOLDEN_SPEC, seed=78)
    assert decision_plan(GOLDEN_SPEC).serialize() \
        != decision_plan(other).serialize()


def test_scenario_exercises_every_decision_path():
    """The pinned scenario covers admit, spill, reject and migrate."""
    kinds = {d.kind for d in decision_plan(GOLDEN_SPEC).decisions}
    assert {"admit", "spill", "reject", "rebuild_start",
            "rebuild_end", "migrate"} <= kinds


def test_decision_log_matches_golden():
    """The pinned golden cluster trace replays byte for byte."""
    golden = (GOLDEN_DIR / "cluster_trace.txt").read_bytes()
    assert decision_plan(GOLDEN_SPEC).serialize() \
        == golden.rstrip(b"\n")


@pytest.mark.slow
def test_fleet_fingerprint_serial_equals_jobs_4():
    """Serving the plan at --jobs 4 is bit-identical to serial."""
    plan = decision_plan(GOLDEN_SPEC)
    cells = _cells(GOLDEN_SPEC, plan)
    serial = build_report(plan, run_cells(run_cluster_cell, cells,
                                          jobs=1))
    fanned = build_report(plan, run_cells(run_cluster_cell, cells,
                                          jobs=4))
    assert serial.fingerprint() == fanned.fingerprint()
    assert serial.as_dict() == fanned.as_dict()
    # ... and equal to the reference serving loop's.
    with legacy_serving():
        oracle = build_report(plan, run_cells(run_cluster_cell, cells,
                                              jobs=1))
    assert serial.fingerprint() == oracle.fingerprint()
    # The failure really interrupted service on the failed array.
    assert plan.ledger.migrated >= 1
    assert plan.ledger.within_bound()


def regenerate_golden() -> None:
    """Rewrite the golden file after an *intentional* behavior change.

    Run ``python -c "import sys; sys.path.insert(0, 'src');
    sys.path.insert(0, '.'); from tests.test_cluster_golden import
    regenerate_golden; regenerate_golden()"`` from the repo root.
    """
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / "cluster_trace.txt"
    path.write_bytes(decision_plan(GOLDEN_SPEC).serialize() + b"\n")
    print(f"wrote {path}")
