"""Fleet-scale cluster tier: N arrays behind one placement/admission brain.

The per-array stack (:mod:`repro.serve` admission and shedding,
:mod:`repro.faults` failures and hot-spare rebuild,
:mod:`repro.parallel` deterministic workers, :mod:`repro.obs` metrics)
serves one array well; :mod:`repro.cluster` is the coordination layer
the ROADMAP's "millions of users" path needs:

* **Placement** (:mod:`~repro.cluster.placement`) — pluggable stream
  placement behind one interface, a lazy ``candidates`` walk: a seeded
  consistent-hash ring and a load-aware least-reserved policy, both
  with deterministic tie-breaking.
* **Global admission** (:mod:`~repro.cluster.admission`) — per-array
  Table-1 budgets aggregated cluster-wide, with spillover to
  second-choice arrays before any stream is rejected.  One decision
  path, O(log arrays) plus the visited prefix; the full-fleet scan it
  replaced is the differential reference in ``tests/legacy_oracle.py``.
* **Failure-driven migration** (:mod:`~repro.cluster.migration`,
  :mod:`~repro.cluster.controller`) — a disk failure degrades the
  rebuilding array's advertised budget and drains its
  lowest-SFC-priority streams to healthy arrays, each interruption
  window bounded and charged against QoS.
* **Fleet QoS** (:mod:`~repro.cluster.report`) — cluster rollups and
  per-array gauges through :mod:`repro.obs`, plus the determinism
  fingerprint that pins ``--jobs 1`` == ``--jobs N``.

Quick start::

    from repro.cluster import ClusterConfig, ClusterController
    from repro.serve import RampEvent, StreamSpec

    controller = ClusterController(ClusterConfig(arrays=4, seed=7))
    events = [RampEvent(i * 250.0, StreamSpec(rate_mbps=0.375))
              for i in range(200)]
    plan = controller.run(events, until_ms=120_000.0)
    print(plan.counters, plan.ledger.as_dict())

The serving tier that executes a plan array-by-array lives in
:func:`repro.parallel.cells.run_cluster_cell`; the end-to-end demo is
``python -m repro.experiments cluster``.
"""

from .admission import (
    AdmissionCounters,
    ArrayBudget,
    ClusterDecision,
    GlobalAdmission,
    RouteDecision,
)
from .controller import (
    DECISION_KINDS,
    ClusterConfig,
    ClusterController,
    ClusterPlan,
    DecisionRecord,
    TimelineEntry,
)
from .migration import (
    MigrationLedger,
    MigrationRecord,
    PlacedStream,
    resume_spec,
    select_victims,
)
from .placement import (
    PLACEMENTS,
    ConsistentHashPlacement,
    LeastReservedPlacement,
    PlacementPolicy,
    make_placement,
    stable_hash,
)
from .report import ArrayReport, FleetReport, build_report

__all__ = [
    "AdmissionCounters",
    "ArrayBudget",
    "ArrayReport",
    "ClusterConfig",
    "ClusterController",
    "ClusterDecision",
    "ClusterPlan",
    "ConsistentHashPlacement",
    "DECISION_KINDS",
    "DecisionRecord",
    "FleetReport",
    "GlobalAdmission",
    "LeastReservedPlacement",
    "MigrationLedger",
    "MigrationRecord",
    "PLACEMENTS",
    "PlacedStream",
    "PlacementPolicy",
    "RouteDecision",
    "TimelineEntry",
    "build_report",
    "make_placement",
    "resume_spec",
    "select_victims",
    "stable_hash",
]
