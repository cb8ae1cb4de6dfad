"""Deterministic parallel execution layer.

:class:`~repro.parallel.runner.ParallelRunner` fans experiment grid
cells out over worker processes (``--jobs`` on the experiment CLI)
under one determinism contract: a parallel run's tables, metrics and
traces are bit-identical to the serial run's.
"""

from .cells import (ArrayCellResult, ArrayCellSpec, ArrayWorkload,
                    CellResult, CellSpec, ClusterCellResult,
                    ClusterCellSpec, ServeCellResult, ServeCellSpec,
                    WorkerStats, baseline, cascaded, generate_requests,
                    metrics_fingerprint, run_array_cell, run_cell,
                    run_cluster_cell, run_serve_cell)
from .runner import ParallelRunner, SweepReport, normalize_jobs, run_cells

__all__ = [
    "ArrayCellResult",
    "ArrayCellSpec",
    "ArrayWorkload",
    "CellResult",
    "CellSpec",
    "ClusterCellResult",
    "ClusterCellSpec",
    "ParallelRunner",
    "ServeCellResult",
    "ServeCellSpec",
    "SweepReport",
    "WorkerStats",
    "baseline",
    "cascaded",
    "generate_requests",
    "metrics_fingerprint",
    "normalize_jobs",
    "run_array_cell",
    "run_cell",
    "run_cells",
    "run_cluster_cell",
    "run_serve_cell",
]
