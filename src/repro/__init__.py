"""Reproduction of *Scalable Multimedia Disk Scheduling* (ICDE 2004).

The package implements the Cascaded-SFC multimedia disk scheduler of
Mokbel, Aref, Elbassioni and Kamel, together with every substrate the
paper's evaluation depends on: a space-filling curve library, a zoned
disk / RAID-5 model, an event-driven disk-server simulator, the
workload generators, all baseline schedulers, and one experiment module
per figure and table.  On top of the offline substrate,
:mod:`repro.serve` adds the online serving layer: an
admission-controlled, clock-driven streaming server with QoS
observability (the front-end the paper's PanaViss setting presumes),
and :mod:`repro.faults` adds deterministic fault injection (latency
spikes, transient errors, disk failures, thermal slowdown) so the
schedulers can be compared under identical hardware trouble.
:mod:`repro.obs` unifies observability: request-lifecycle spans, a
metrics registry with Prometheus/JSON exporters, and profiling hooks,
all switched on by passing one :class:`~repro.obs.Observer` to any
entry point (the default ``NULL_OBSERVER`` costs nothing).
:mod:`repro.parallel` fans experiment cells out over worker processes
with bit-identical results at any ``--jobs N``, and
:mod:`repro.cluster` scales the serving layer out:
N arrays behind one placement/admission brain with failure-driven
stream migration.

Quick start::

    from repro import CascadedSFCScheduler, CascadedSFCConfig
    from repro.workloads import PoissonWorkload
    from repro.sim import run_simulation, DiskService
    from repro.disk import make_xp32150_disk

    disk = make_xp32150_disk()
    scheduler = CascadedSFCScheduler(CascadedSFCConfig(),
                                     cylinders=disk.geometry.cylinders)
    requests = PoissonWorkload(count=500).generate(seed=7)
    result = run_simulation(requests, scheduler, DiskService(disk))
    print(result.metrics.total_inversions, result.metrics.missed)
"""

import importlib

# Public names and the subpackage that defines each.  Nothing is
# imported until a name is first used (PEP 562), so a run that never
# touches the serving, cluster or store tiers never loads them, nor
# sqlite3 or multiprocessing.
_EXPORTS = {
    ".core": ("CascadedSFCConfig", "CascadedSFCScheduler", "DiskRequest",
              "Encapsulator", "EncodeContext"),
    ".disk": ("DiskModel", "make_xp32150_disk"),
    ".obs": ("NULL_OBSERVER", "Observer"),
    ".schedulers": ("Scheduler", "make_baseline"),
    ".serve": ("AdmissionDecision", "ServerConfig", "ServerStats",
               "SessionManager", "StreamSpec", "StreamingServer",
               "VirtualClock", "make_admission"),
    ".sim": ("DiskService", "SimulationResult", "run_simulation"),
    ".faults": ("DiskFailure", "FaultInjector", "FaultPlan", "LatencySpike",
                "RetryPolicy", "ThermalRamp", "TransientErrors"),
    ".cluster": ("ClusterConfig", "ClusterController", "FleetReport"),
    ".parallel": ("ArrayCellSpec", "CellSpec", "ClusterCellSpec",
                  "ParallelRunner", "ServeCellSpec", "SweepReport",
                  "WorkerStats", "normalize_jobs", "run_cells"),
    ".store": ("RunRecord", "RunStore", "SqliteRunStore", "open_store"),
}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}

__version__ = "1.0.0"

__all__ = [
    "AdmissionDecision",
    "ArrayCellSpec",
    "CascadedSFCConfig",
    "CascadedSFCScheduler",
    "CellSpec",
    "ClusterCellSpec",
    "ClusterConfig",
    "ClusterController",
    "DiskFailure",
    "DiskModel",
    "DiskRequest",
    "DiskService",
    "Encapsulator",
    "EncodeContext",
    "FaultInjector",
    "FaultPlan",
    "FleetReport",
    "LatencySpike",
    "NULL_OBSERVER",
    "Observer",
    "ParallelRunner",
    "RetryPolicy",
    "RunRecord",
    "RunStore",
    "Scheduler",
    "ServeCellSpec",
    "ServerConfig",
    "ServerStats",
    "SessionManager",
    "SimulationResult",
    "SqliteRunStore",
    "StreamSpec",
    "StreamingServer",
    "SweepReport",
    "ThermalRamp",
    "TransientErrors",
    "VirtualClock",
    "WorkerStats",
    "make_admission",
    "make_baseline",
    "make_xp32150_disk",
    "normalize_jobs",
    "open_store",
    "run_cells",
    "run_simulation",
    "__version__",
]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module, __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
