"""Cluster-wide QoS rollups: fleet and per-array views of one run.

The serving tier returns one reduced result per array (duck-typed on
the :class:`repro.parallel.cells.ClusterCellResult` fields); this
module folds them together with the controller's :class:`~repro
.cluster.controller.ClusterPlan` into:

* a :class:`FleetReport` — admission, migration, and QoS totals plus
  per-array rows, renderable as text tables and serializable to JSON
  (the CI artifact), and
* a metrics push into a :class:`repro.obs.Registry` so the fleet shows
  up next to the per-array server gauges on the same scrape.

The report also carries the run's **determinism fingerprint**: the
decision-log digest plus every array's serving-trace digest, which is
what the ``--jobs 1`` vs ``--jobs N`` bit-identity checks (demo
self-check, golden trace test) compare.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence

from .controller import ClusterPlan


@dataclass(frozen=True)
class ArrayReport:
    """One array's serving outcome, reduced to its QoS facts."""

    array_id: int
    opened: int
    closed: int
    dispatched: int
    completed: int
    missed: int
    preempted: int
    expired: int
    measured_utilization: float
    reserved_utilization: float
    trace_digest: str

    @property
    def miss_ratio(self) -> float:
        return self.missed / self.completed if self.completed else 0.0


@dataclass
class FleetReport:
    """The whole run: controller decisions + per-array serving QoS."""

    plan: ClusterPlan
    arrays: list[ArrayReport] = field(default_factory=list)

    # -- rollups -----------------------------------------------------------

    @property
    def accepted(self) -> int:
        return self.plan.accepted

    @property
    def completed(self) -> int:
        return sum(a.completed for a in self.arrays)

    @property
    def missed(self) -> int:
        return sum(a.missed for a in self.arrays)

    @property
    def miss_ratio(self) -> float:
        completed = self.completed
        return self.missed / completed if completed else 0.0

    @property
    def mean_measured_utilization(self) -> float:
        if not self.arrays:
            return 0.0
        return sum(a.measured_utilization for a in self.arrays) \
            / len(self.arrays)

    def fingerprint(self) -> str:
        """SHA-256 over the decision log and every array trace digest.

        Two runs of the same scenario — serial or at any ``--jobs N``
        — must produce the same fingerprint; the demo self-check and
        the golden cluster trace pin exactly this.
        """
        digest = self.plan.sha256()
        for report in sorted(self.arrays, key=lambda a: a.array_id):
            digest.update(f"|{report.array_id}:".encode())
            digest.update(report.trace_digest.encode())
        return digest.hexdigest()

    # -- rendering ---------------------------------------------------------

    def summary_rows(self) -> list[tuple[str, object]]:
        ledger = self.plan.ledger
        counters = self.plan.counters
        rows: list[tuple[str, object]] = [
            ("arrays", len(self.arrays)),
            ("placement", self.plan.config.placement),
            ("open attempts",
             counters.get("admitted", 0) + counters.get("spillovers", 0)
             + counters.get("rejected", 0)),
            ("accepted (fleet)", self.accepted),
            ("  first-choice admits", counters.get("admitted", 0)),
            ("  spillover admits", counters.get("spillovers", 0)),
            ("rejected", counters.get("rejected", 0)),
            ("completed blocks", self.completed),
            ("deadline misses", self.missed),
            ("miss ratio", round(self.miss_ratio, 4)),
            ("mean measured utilization",
             round(self.mean_measured_utilization, 4)),
        ]
        if ledger is not None:
            rows += [
                ("migrations", ledger.migrated),
                ("migration drops", ledger.dropped),
                ("max interruption (ms)",
                 round(ledger.max_interruption_ms, 1)),
                ("interruption bound (ms)", round(ledger.bound_ms, 1)),
                ("interruptions bounded",
                 "yes" if ledger.within_bound() else "NO"),
            ]
        return rows

    def as_dict(self) -> dict:
        """JSON-ready form (the ``cluster-smoke`` CI artifact)."""
        ledger = self.plan.ledger
        return {
            "config": {
                "arrays": self.plan.config.arrays,
                "placement": self.plan.config.placement,
                "seed": self.plan.config.seed,
                "target_utilization":
                    self.plan.config.target_utilization,
                "rebuild_capacity_factor":
                    self.plan.config.rebuild_capacity_factor,
                "migration_pause_ms":
                    self.plan.config.migration_pause_ms,
            },
            "admission": dict(self.plan.counters),
            "migration": ledger.as_dict() if ledger else {},
            "fleet": {
                "accepted": self.accepted,
                "completed": self.completed,
                "missed": self.missed,
                "miss_ratio": self.miss_ratio,
                "mean_measured_utilization":
                    self.mean_measured_utilization,
            },
            "arrays": [
                {
                    "array_id": a.array_id,
                    "opened": a.opened,
                    "closed": a.closed,
                    "dispatched": a.dispatched,
                    "completed": a.completed,
                    "missed": a.missed,
                    "miss_ratio": a.miss_ratio,
                    "preempted": a.preempted,
                    "expired": a.expired,
                    "measured_utilization": a.measured_utilization,
                    "reserved_utilization": a.reserved_utilization,
                    "trace_sha256": a.trace_digest,
                }
                for a in sorted(self.arrays, key=lambda a: a.array_id)
            ],
            "fingerprint": self.fingerprint(),
        }

    def write_json(self, path: str) -> str:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    # -- observability -----------------------------------------------------

    def publish(self, registry) -> None:
        """Push fleet + per-array QoS into a metrics registry."""
        counters = self.plan.counters
        ledger = self.plan.ledger
        for name, value, help_text in (
            ("cluster_fleet_accepted_total", self.accepted,
             "streams granted service anywhere in the fleet"),
            ("cluster_fleet_rejected_total",
             counters.get("rejected", 0),
             "streams no array budget could fit"),
            ("cluster_fleet_completed_total", self.completed,
             "blocks completed across the fleet"),
            ("cluster_fleet_missed_total", self.missed,
             "deadline misses across the fleet"),
        ):
            registry.counter(name, help_text).set_total(float(value))
        if ledger is not None:
            registry.counter(
                "cluster_fleet_migrations_total",
                "failure-driven stream migrations").set_total(
                    float(ledger.migrated))
            registry.counter(
                "cluster_fleet_migration_drops_total",
                "streams dropped when no budget fit").set_total(
                    float(ledger.dropped))
            registry.gauge(
                "cluster_fleet_max_interruption_ms",
                "largest migration interruption window").set(
                    ledger.max_interruption_ms)
        registry.gauge(
            "cluster_fleet_miss_ratio",
            "fleet-wide deadline-miss ratio").set(self.miss_ratio)
        registry.gauge(
            "cluster_fleet_mean_utilization",
            "mean measured utilization across arrays").set(
                self.mean_measured_utilization)
        for report in sorted(self.arrays, key=lambda a: a.array_id):
            prefix = f"cluster_array{report.array_id}"
            registry.gauge(
                f"{prefix}_measured_utilization",
                "array measured utilization").set(
                    report.measured_utilization)
            registry.gauge(
                f"{prefix}_miss_ratio",
                "array deadline-miss ratio").set(report.miss_ratio)


def build_report(plan: ClusterPlan, cell_results: Sequence
                 ) -> FleetReport:
    """Fold per-array serving results into one :class:`FleetReport`.

    ``cell_results`` are duck-typed on the
    :class:`repro.parallel.cells.ClusterCellResult` fields, in any
    order; arrays missing a result (an empty timeline, e.g.) get a
    zero row so the fleet view always shows every member.
    """
    by_array = {result.array_id: result for result in cell_results}
    arrays = []
    for array_id in sorted(plan.timelines):
        result = by_array.get(array_id)
        if result is None:
            arrays.append(ArrayReport(
                array_id=array_id, opened=0, closed=0, dispatched=0,
                completed=0, missed=0, preempted=0, expired=0,
                measured_utilization=0.0,
                reserved_utilization=plan.reserved.get(array_id, 0.0),
                trace_digest=hashlib.sha256(b"").hexdigest(),
            ))
            continue
        arrays.append(ArrayReport(
            array_id=array_id,
            opened=result.opened,
            closed=result.closed,
            dispatched=result.dispatched,
            completed=result.completed,
            missed=result.missed,
            preempted=result.preempted,
            expired=result.expired,
            measured_utilization=result.measured_utilization,
            reserved_utilization=plan.reserved.get(array_id, 0.0),
            trace_digest=result.trace_digest,
        ))
    return FleetReport(plan=plan, arrays=arrays)
