"""Picklable units of sweep work: cell specs, cell results, workers.

A *cell* is one point of an experiment grid — one (scheduler x curve x
workload-point) combination — described entirely by values that cross
a process boundary: frozen dataclasses, registry names, and seeds.
Workers never receive live schedulers, disks, or request lists; they
rebuild everything from the spec, which is what makes a cell's result
a pure function of the spec and therefore identical no matter which
process computes it, in what order, at what worker count.

Three cell kinds cover the repository's sweeps:

* :class:`CellSpec` — one ``run_simulation`` replay (the fig5-fig11
  grids).  The workload object is carried by value (the workload
  dataclasses are frozen and picklable) and regenerated from its seed
  inside the worker.
* :class:`ArrayCellSpec` — one ``run_array_simulation`` replay of a
  synthetic logical-request workload against the RAID-5 array,
  optionally under a fault plan.
* :class:`ServeCellSpec` — one online serving ramp
  (:mod:`repro.serve`), returning the canonical serialized trace so
  sweeps over admission policies can be pinned byte-for-byte.

Scheduler references are tagged tuples rather than factories because
closures do not pickle: ``("baseline", name, cylinders, levels)``
resolves through :data:`repro.schedulers.registry.BASELINES`, and
``("cascaded", config, cylinders)`` carries the frozen
:class:`~repro.core.config.CascadedSFCConfig` itself.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.core.config import CascadedSFCConfig
from repro.core.scheduler import CascadedSFCScheduler
from repro.disk.disk import make_xp32150_disk, make_xp32150_geometry
from repro.faults import FaultPlan, RetryPolicy
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import SchedulerContext, make_baseline
from repro.sfc.lut import LUT_STATS
from repro.sim.metrics import MetricsCollector
from repro.sim.rng import derive
from repro.sim.server import run_simulation
from repro.sim.service import DiskService, ServiceModel, constant_service


def cascaded(config: CascadedSFCConfig, cylinders: int = 3832) -> tuple:
    """Scheduler reference for the full cascade."""
    return ("cascaded", config, cylinders)


def baseline(name: str, *, cylinders: int = 3832,
             priority_levels: int = 8,
             default_service_ms: float = 20.0) -> tuple:
    """Scheduler reference for a registry baseline."""
    return ("baseline", name, cylinders, priority_levels,
            default_service_ms)


def make_scheduler(ref: tuple) -> Scheduler:
    """Instantiate a scheduler reference (in the worker process)."""
    kind = ref[0]
    if kind == "cascaded":
        _, config, cylinders = ref
        return CascadedSFCScheduler(config, cylinders=cylinders)
    if kind == "baseline":
        _, name, cylinders, levels, service_ms = ref
        return make_baseline(name, SchedulerContext(
            cylinders=cylinders, priority_levels=levels,
            default_service_ms=service_ms,
        ))
    raise ValueError(f"unknown scheduler reference kind {kind!r}")


def make_service(ref: tuple) -> ServiceModel:
    """Instantiate a service reference: ("constant", ms) or ("disk",)."""
    kind = ref[0]
    if kind == "constant":
        return constant_service(ref[1])
    if kind == "disk":
        disk = make_xp32150_disk()
        disk.reset(0)
        return DiskService(disk)
    raise ValueError(f"unknown service reference kind {kind!r}")


@dataclass(frozen=True)
class WorkerStats:
    """Per-cell execution facts, merged into the parent registry."""

    pid: int
    duration_s: float
    lut_builds: int = 0


def _collect_stats(started: float, builds0: int) -> WorkerStats:
    return WorkerStats(
        pid=os.getpid(),
        duration_s=time.perf_counter() - started,
        lut_builds=LUT_STATS.builds - builds0,
    )


def metrics_fingerprint(metrics: MetricsCollector) -> tuple:
    """Every observable fact of a metrics collector, as a plain tuple.

    :class:`~repro.sim.metrics.RunningStats` has no ``__eq__``, so
    comparing collectors directly degrades to identity; bit-identity
    claims (serial vs parallel) compare these fingerprints instead.
    """
    return (
        metrics.served, metrics.dropped, metrics.missed,
        metrics.seek_ms, metrics.latency_ms, metrics.transfer_ms,
        metrics.makespan_ms,
        tuple(metrics.inversions_by_dim),
        tuple(tuple(row) for row in metrics.requests_by_dim_level),
        tuple(tuple(row) for row in metrics.misses_by_dim_level),
        tuple(sorted(
            (stream, tuple(counts))
            for stream, counts in metrics.stream_counts.items()
        )),
        tuple(sorted(vars(metrics.response_ms).items())),
        tuple(sorted(vars(metrics.queue_length).items())),
    )


# -- simulation cells ------------------------------------------------------

@dataclass(frozen=True)
class CellSpec:
    """One ``run_simulation`` grid cell.

    ``label`` identifies the cell to the merging side (figure, point
    coordinates, scheduler name); the runner returns results keyed by
    it, in submission order.
    """

    label: tuple
    workload: object
    seed: int
    scheduler: tuple
    service: tuple = ("constant", 50.0)
    drop_expired: bool = False
    priority_levels: int = 16


@dataclass(frozen=True)
class CellResult:
    """Reduced, picklable outcome of one cell."""

    label: tuple
    scheduler_name: str
    submitted: int
    unserved: int
    metrics: MetricsCollector
    stats: WorkerStats


def generate_requests(workload: object, seed: int) -> list:
    """Materialize a workload spec inside the worker.

    Stream workloads (:class:`repro.workloads.multimedia
    .VideoServerWorkload`) lay files out on the Table 1 geometry;
    everything else exposes the plain ``generate(seed)`` protocol.
    """
    if hasattr(workload, "generate_streams"):
        return workload.generate_streams(seed, make_xp32150_geometry())
    return workload.generate(seed)


def run_cell(spec: CellSpec) -> CellResult:
    """Worker entry point: rebuild the cell's world and replay it."""
    started = time.perf_counter()
    builds0 = LUT_STATS.builds
    requests = generate_requests(spec.workload, spec.seed)
    result = run_simulation(
        requests,
        make_scheduler(spec.scheduler),
        make_service(spec.service),
        drop_expired=spec.drop_expired,
        priority_levels=spec.priority_levels,
    )
    return CellResult(
        label=spec.label,
        scheduler_name=result.scheduler_name,
        submitted=result.submitted,
        unserved=result.unserved,
        metrics=result.metrics,
        stats=_collect_stats(started, builds0),
    )


# -- array cells -----------------------------------------------------------

@dataclass(frozen=True)
class ArrayWorkload:
    """Synthetic logical-request stream for the RAID-5 array.

    Generation is keyed by :func:`repro.sim.rng.derive`, so two cells
    with equal parameters and seeds see identical request lists in any
    process.
    """

    count: int = 400
    mean_interarrival_ms: float = 5.0
    blocks: int = 20_000
    priority_dims: int = 1
    priority_levels: int = 4
    deadline_range_ms: tuple[float, float] = (400.0, 800.0)
    write_fraction: float = 0.25

    def generate(self, seed: int) -> list:
        from repro.sim.array import LogicalRequest

        rng = derive(seed, "array", "logical")
        now = 0.0
        requests = []
        for i in range(self.count):
            now += rng.expovariate(1.0 / self.mean_interarrival_ms)
            lo, hi = self.deadline_range_ms
            requests.append(LogicalRequest(
                request_id=i,
                arrival_ms=now,
                logical_block=rng.randrange(self.blocks),
                deadline_ms=now + rng.uniform(lo, hi),
                priorities=tuple(
                    rng.randrange(self.priority_levels)
                    for _ in range(self.priority_dims)
                ),
                is_write=rng.random() < self.write_fraction,
            ))
        return requests


@dataclass(frozen=True)
class ArrayCellSpec:
    """One ``run_array_simulation`` point of a parameter sweep."""

    label: tuple
    workload: ArrayWorkload
    seed: int
    scheduler: tuple
    priority_levels: int = 4
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None


@dataclass(frozen=True)
class ArrayCellResult:
    """Array-run outcome, reduced to its comparable facts."""

    label: tuple
    logical_metrics: MetricsCollector
    physical_ops: int
    retries: int
    failed_logical: int
    #: Per-member (completed, seek_ms) fingerprints.
    member_fingerprints: tuple
    stats: WorkerStats


def run_array_cell(spec: ArrayCellSpec) -> ArrayCellResult:
    """Worker entry point for one array sweep point."""
    from repro.sim.array import run_array_simulation

    started = time.perf_counter()
    builds0 = LUT_STATS.builds
    requests = spec.workload.generate(spec.seed)
    result = run_array_simulation(
        requests,
        lambda: make_scheduler(spec.scheduler),
        priority_levels=spec.priority_levels,
        fault_plan=spec.fault_plan,
        retry_policy=spec.retry_policy,
    )
    return ArrayCellResult(
        label=spec.label,
        logical_metrics=result.logical_metrics,
        physical_ops=result.physical_ops,
        retries=result.retries,
        failed_logical=result.failed_logical,
        member_fingerprints=tuple(
            (m.completed, round(m.seek_ms, 9))
            for m in result.disk_metrics
        ),
        stats=_collect_stats(started, builds0),
    )


# -- cluster cells ---------------------------------------------------------

@dataclass(frozen=True)
class ClusterCellSpec:
    """One array's serving timeline within a cluster run.

    The cluster controller (:mod:`repro.cluster.controller`) makes
    every coupled decision serially and emits one closed ``open`` /
    ``close`` script per array; this cell replays that script through
    a real :class:`~repro.serve.server.StreamingServer`, so the
    per-array serving work parallelizes like any other sweep cell —
    the script, the seeds, and the optional fault plan cross the
    process boundary by value.
    """

    label: tuple
    array_id: int
    #: Time-ordered :class:`repro.cluster.TimelineEntry` script.
    timeline: tuple
    until_ms: float
    seed: int
    scheduler: tuple
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    max_queue: int = 64
    priority_levels: int = 8


@dataclass(frozen=True)
class ClusterCellResult:
    """One array's serving outcome, reduced to picklable QoS facts."""

    label: tuple
    array_id: int
    #: Streams opened / explicitly closed by the script.
    opened: int
    closed: int
    dispatched: int
    completed: int
    missed: int
    preempted: int
    expired: int
    faults_injected: int
    measured_utilization: float
    #: SHA-256 over the canonical serving trace (determinism pinning).
    trace_digest: str
    stats: WorkerStats


def _serialize_server_trace(server) -> bytes:
    """Canonical byte form of a server trace (same shape as the
    faults-scenario golden serialization)."""
    lines = [
        f"{time_ms!r}|{kind}|{stream_id}|{request_id}|{detail}"
        for time_ms, kind, stream_id, request_id, detail
        in server.trace.rows()
    ]
    return "\n".join(lines).encode()


def run_cluster_cell(spec: ClusterCellSpec) -> ClusterCellResult:
    """Worker entry point: replay one array's scripted timeline.

    The server runs with ``always`` admission — the cluster tier
    already decided who plays here — on a session manager seeded by
    ``spawn_seed(seed, "cluster", array_id)``, so every array draws
    independent, stable per-stream randomness at any worker count.
    """
    import hashlib

    from repro.faults import FaultInjector
    from repro.serve import (
        ServerConfig,
        SessionManager,
        StreamingServer,
        VirtualClock,
        make_admission,
    )
    from repro.sim.rng import spawn_seed

    started = time.perf_counter()
    builds0 = LUT_STATS.builds
    disk = make_xp32150_disk()
    disk.reset(0)
    faults = None
    if spec.fault_plan is not None:
        faults = FaultInjector(
            spec.fault_plan,
            policy=spec.retry_policy or RetryPolicy(),
        )
    server = StreamingServer(
        make_scheduler(spec.scheduler),
        DiskService(disk),
        SessionManager(disk.geometry,
                       seed=spawn_seed(spec.seed, "cluster",
                                       spec.array_id)),
        make_admission("always"),
        clock=VirtualClock(),
        config=ServerConfig(max_queue=spec.max_queue,
                            priority_levels=spec.priority_levels),
        faults=faults,
    )
    local_ids: dict[int, int] = {}
    opened = closed = 0
    for entry in spec.timeline:
        server.run_until(entry.time_ms)
        if entry.action == "open":
            _result, session = server.open_stream(entry.spec)
            assert session is not None  # always-admit by construction
            local_ids[entry.stream_key] = session.stream_id
            opened += 1
        elif entry.action == "close":
            server.close_stream(local_ids.pop(entry.stream_key))
            closed += 1
        else:
            raise ValueError(
                f"unknown timeline action {entry.action!r}"
            )
    server.run_until(spec.until_ms)
    stats = server.stats()
    return ClusterCellResult(
        label=spec.label,
        array_id=spec.array_id,
        opened=opened,
        closed=closed,
        dispatched=stats.dispatched,
        completed=stats.completed,
        missed=stats.missed,
        preempted=stats.preempted,
        expired=stats.expired,
        faults_injected=stats.faults_injected,
        measured_utilization=stats.measured_utilization,
        trace_digest=hashlib.sha256(
            _serialize_server_trace(server)).hexdigest(),
        stats=_collect_stats(started, builds0),
    )


# -- serve cells -----------------------------------------------------------

@dataclass(frozen=True)
class ServeCellSpec:
    """One online serving ramp (admission-policy / scheduler sweep)."""

    label: tuple
    #: A frozen :class:`repro.experiments.serve_demo.ServeSpec`.
    serve_spec: object


@dataclass(frozen=True)
class ServeCellResult:
    """Ramp outcome plus the canonical trace for byte-level pinning."""

    label: tuple
    accepted_users: int
    achieved_users: int
    completed: int
    missed: int
    trace: bytes
    stats: WorkerStats


def run_serve_cell(spec: ServeCellSpec) -> ServeCellResult:
    """Worker entry point for one serving-ramp cell.

    Imports stay function-local: :mod:`repro.experiments` imports the
    fig modules, which import :mod:`repro.parallel` — a module-level
    import here would close that cycle.
    """
    from repro.experiments.faults_scenario import serialize_trace
    from repro.experiments.serve_demo import build_server, ramp_events
    from repro.serve import run_ramp_online

    started = time.perf_counter()
    builds0 = LUT_STATS.builds
    serve_spec = spec.serve_spec
    server = build_server(serve_spec, sink=lambda line: None)
    run_ramp_online(server, ramp_events(serve_spec), serve_spec.until_ms)
    stats = server.stats()
    return ServeCellResult(
        label=spec.label,
        accepted_users=stats.admitted,
        achieved_users=stats.active_streams,
        completed=stats.completed,
        missed=stats.missed,
        trace=serialize_trace(server),
        stats=_collect_stats(started, builds0),
    )
