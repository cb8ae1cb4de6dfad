"""Cluster demo: a fleet of arrays behind one placement/admission brain.

The fleet-scale analogue of the serve demo: stream-open attempts
arrive fleet-wide, the cluster controller (:mod:`repro.cluster`)
places each on an array, aggregates the per-array Table 1 budgets with
spillover, and — when a disk failure degrades one array — migrates the
overhang to healthy arrays with a bounded interruption window.  The
per-array serving work then runs as parallel cells
(:func:`repro.parallel.cells.run_cluster_cell`) whose merged fleet
report is bit-identical at any ``--jobs N``.

Two scenario sizes:

* ``--quick`` — 4 arrays on the paper's MPEG-1 profile (1.5 Mbps over
  4 data disks), one disk failure mid-ramp; the fleet acceptance must
  land in the Section 6 band scaled by the array count.
* full — 16 arrays on a low-rate profile sized so the fleet sustains
  tens of thousands of concurrent sessions.

Run with::

    python -m repro.experiments cluster [--quick] [--jobs N]
        [--arrays N] [--policy ring|least-reserved] [--out FILE]
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster import ClusterConfig, ClusterController, build_report
from repro.cluster.report import FleetReport
from repro.core.config import CascadedSFCConfig
from repro.disk.disk import FILE_BLOCK_BYTES
from repro.faults import DiskFailure, FaultPlan
from repro.parallel import ClusterCellSpec, run_cells, run_cluster_cell
from repro.parallel.cells import baseline, cascaded
from repro.serve import RampEvent, StreamSpec
from repro.sim.rng import derive
from repro.workloads.multimedia import normal_priority_level

from .common import Table
from .serve_demo import CYLINDERS, LEVELS, PAPER_BAND


@dataclass(frozen=True)
class ClusterSpec:
    """Fleet scenario parameters (defaults: the 16-array full run)."""

    arrays: int = 16
    #: Fleet-wide stream-open attempts.
    users: int = 28_000
    #: Fleet-wide arrival spacing.
    user_interval_ms: float = 3.0
    #: Extra serving time after the last open attempt.
    tail_ms: float = 30_000.0
    #: Stream rate before RAID striping (per-disk = rate / data disks).
    stream_rate_mbps: float = 0.096
    raid_data_disks: int = 4
    block_bytes: int = 4 * FILE_BLOCK_BYTES
    placement: str = "ring"
    scheduler: str = "cascaded-sfc"
    seed: int = 2004
    target_utilization: float = 0.85
    rebuild_capacity_factor: float = 0.6
    rebuild_extra_ms: float = 8_000.0
    migration_pause_ms: float = 500.0
    write_fraction: float = 0.25
    max_queue: int = 64
    #: Which array loses a disk (None disables the failure).
    failure_array: int | None = 1
    failure_start_ms: float = 60_000.0
    failure_end_ms: float = 70_000.0
    jobs: int | None = None
    #: Check fleet acceptance against PAPER_BAND x arrays (the band
    #: only means something on the paper's MPEG-1 profile).
    check_band: bool = False
    #: Fleet acceptance floor (the "tens of thousands" claim).
    min_accepted: int = 20_000
    #: Re-run the serving cells at a second worker count and compare
    #: fleet fingerprints (the --jobs bit-identity proof).
    selfcheck: bool = False

    def quick(self) -> "ClusterSpec":
        """4 arrays, MPEG-1 profile, one failure — the CI scenario."""
        return replace(
            self,
            arrays=4,
            users=440,
            user_interval_ms=62.5,
            tail_ms=5_000.0,
            stream_rate_mbps=1.5,
            block_bytes=FILE_BLOCK_BYTES,
            rebuild_extra_ms=6_000.0,
            failure_start_ms=12_000.0,
            failure_end_ms=16_000.0,
            check_band=True,
            min_accepted=0,
            selfcheck=True,
        )

    @property
    def per_disk_rate_mbps(self) -> float:
        return self.stream_rate_mbps / self.raid_data_disks

    @property
    def until_ms(self) -> float:
        return self.users * self.user_interval_ms + self.tail_ms


@dataclass
class ClusterResult:
    """Everything the demo produced."""

    summary: Table
    arrays_table: Table
    report: FleetReport
    #: (name, ok, detail) acceptance checks.
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def scheduler_ref(name: str) -> tuple:
    """Picklable scheduler reference for the serving cells."""
    if name == "cascaded-sfc":
        return cascaded(CascadedSFCConfig(
            priority_dims=1, priority_levels=LEVELS, sfc1="sweep",
            f=1.0, deadline_horizon_ms=1500.0, r_partitions=3,
        ), cylinders=CYLINDERS)
    return baseline(name, cylinders=CYLINDERS, priority_levels=LEVELS)


def cluster_events(spec: ClusterSpec) -> list[RampEvent]:
    """The scripted fleet-wide stream-open attempts."""
    prio_rng = derive(spec.seed, "cluster-ramp", "prio")
    layout_rng = derive(spec.seed, "cluster-ramp", "layout")
    events = []
    for user in range(spec.users):
        priorities = (normal_priority_level(prio_rng, LEVELS),)
        events.append(RampEvent(
            time_ms=user * spec.user_interval_ms,
            spec=StreamSpec(
                rate_mbps=spec.per_disk_rate_mbps,
                block_bytes=spec.block_bytes,
                priorities=priorities,
                start_block=layout_rng.randrange(30_000),
                blocks=None,  # live streams: play until the end
                is_write=layout_rng.random() < spec.write_fraction,
                value=float(LEVELS - 1 - priorities[0]),
            ),
        ))
    return events


def fault_plans(spec: ClusterSpec) -> dict[int, FaultPlan]:
    """Per-array fault plans: one disk failure on the chosen array."""
    if spec.failure_array is None:
        return {}
    return {
        spec.failure_array: FaultPlan(
            [DiskFailure(disk=0, start_ms=spec.failure_start_ms,
                         end_ms=spec.failure_end_ms)],
            seed=spec.seed,
        ),
    }


def _cells(spec: ClusterSpec, plan) -> list[ClusterCellSpec]:
    plans = fault_plans(spec)
    ref = scheduler_ref(spec.scheduler)
    return [
        ClusterCellSpec(
            label=("cluster", spec.placement, array_id),
            array_id=array_id,
            timeline=tuple(timeline),
            until_ms=spec.until_ms,
            seed=spec.seed,
            scheduler=ref,
            fault_plan=plans.get(array_id),
            max_queue=spec.max_queue,
            priority_levels=LEVELS,
        )
        for array_id, timeline in sorted(plan.timelines.items())
    ]


def make_config(spec: ClusterSpec) -> ClusterConfig:
    """The controller configuration a scenario spec implies."""
    return ClusterConfig(
        arrays=spec.arrays,
        placement=spec.placement,
        seed=spec.seed,
        target_utilization=spec.target_utilization,
        rebuild_capacity_factor=spec.rebuild_capacity_factor,
        rebuild_extra_ms=spec.rebuild_extra_ms,
        migration_pause_ms=spec.migration_pause_ms,
        priority_levels=LEVELS,
    )


def run(spec: ClusterSpec = ClusterSpec(), *,
        observer=None) -> ClusterResult:
    """Decide serially, serve in parallel, fold into a fleet report."""
    controller = ClusterController(make_config(spec), fault_plans(spec))
    if observer is not None:
        observer.watch_cluster(controller)
    plan = controller.run(cluster_events(spec), spec.until_ms)
    cells = _cells(spec, plan)
    results = run_cells(run_cluster_cell, cells, jobs=spec.jobs,
                        observer=observer)
    report = build_report(plan, results)
    if observer is not None:
        report.publish(observer.registry)

    checks: list[tuple[str, bool, str]] = []
    ledger = plan.ledger
    if spec.check_band:
        lo, hi = PAPER_BAND
        lo, hi = lo * spec.arrays, hi * spec.arrays
        checks.append((
            "fleet acceptance in paper band",
            lo <= report.accepted <= hi,
            f"{report.accepted} vs [{lo}, {hi}] "
            f"(Section 6 band x {spec.arrays} arrays)",
        ))
    if spec.min_accepted:
        checks.append((
            "fleet session floor",
            report.accepted >= spec.min_accepted,
            f"{report.accepted} >= {spec.min_accepted}",
        ))
    if spec.failure_array is not None:
        checks.append((
            "migrations counted",
            ledger.migrated >= 1,
            f"{ledger.migrated} migrated, {ledger.dropped} dropped",
        ))
        checks.append((
            "interruptions bounded",
            ledger.within_bound(),
            f"max {ledger.max_interruption_ms:.0f}ms "
            f"<= bound {ledger.bound_ms:.0f}ms",
        ))
    if spec.selfcheck:
        other_jobs = 1 if (spec.jobs or 1) != 1 else 2
        redo = run_cells(run_cluster_cell, cells, jobs=other_jobs)
        other = build_report(plan, redo)
        checks.append((
            "jobs bit-identity",
            other.fingerprint() == report.fingerprint(),
            f"jobs={spec.jobs or 1} vs jobs={other_jobs} "
            f"fingerprint {report.fingerprint()[:16]}",
        ))

    summary = Table(title="Cluster fleet -- summary",
                    headers=("metric", "value"))
    for name, value in report.summary_rows():
        summary.add_row(name, value)
    for name, ok, detail in checks:
        summary.add_row(f"[check] {name}",
                        f"{'ok' if ok else 'FAIL'} ({detail})")

    arrays_table = Table(
        title="Cluster fleet -- per-array QoS",
        headers=("array", "opened", "closed", "completed", "missed",
                 "miss_ratio", "measured_util", "reserved_util"),
    )
    for row in sorted(report.arrays, key=lambda a: a.array_id):
        arrays_table.add_row(
            row.array_id, row.opened, row.closed, row.completed,
            row.missed, round(row.miss_ratio, 4),
            round(row.measured_utilization, 4),
            round(row.reserved_utilization, 4),
        )

    return ClusterResult(summary=summary, arrays_table=arrays_table,
                         report=report, checks=checks)


def main() -> None:
    result = run(ClusterSpec().quick())
    print(result.summary.render())
    print(result.arrays_table.render())


if __name__ == "__main__":
    main()
