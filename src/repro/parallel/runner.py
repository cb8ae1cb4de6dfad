"""Deterministic fan-out of sweep cells over worker processes.

:class:`ParallelRunner` maps picklable cell specs
(:mod:`repro.parallel.cells`) over a
:class:`concurrent.futures.ProcessPoolExecutor` and merges the results
in **submission order** — ``executor.map`` yields results positionally
regardless of completion order, so the merged list (and any table
assembled from it) is bit-identical to a serial run at any worker
count.  Determinism therefore rests on exactly two facts, both
enforced by construction:

* each cell is a pure function of its spec (workers rebuild workloads
  from seeds via :func:`repro.sim.rng.derive` /
  :func:`~repro.sim.rng.spawn_seed`, never sharing mutable state), and
* the merge is positional, never completion-ordered.

``jobs`` semantics (shared by every ``--jobs`` flag and ``Spec.jobs``
field downstream): ``None``, ``0`` or ``1`` run the cells inline in
the calling process — the exact code path workers run, minus the pool;
``N > 1`` uses ``N`` processes; negative values mean "one per CPU".

Each worker builds the curve tables its cells use in its own process;
a build costs milliseconds (:mod:`repro.sfc.lut`), so nothing is
shared between workers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.obs.observer import Observer, live

from .cells import WorkerStats


def normalize_jobs(jobs: int | None) -> int:
    """Effective worker count: 1 means inline, N > 1 means a pool."""
    if jobs is None or jobs == 0 or jobs == 1:
        return 1
    if jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


@dataclass
class SweepReport:
    """What one ``map`` call did, for observability and benchmarks."""

    cells: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: pid -> (cells run, cell-seconds) — the per-worker span roll-up.
    workers: dict[int, tuple[int, float]] = field(default_factory=dict)
    lut_builds: int = 0

    def note(self, stats: WorkerStats) -> None:
        cells, seconds = self.workers.get(stats.pid, (0, 0.0))
        self.workers[stats.pid] = (cells + 1,
                                   seconds + stats.duration_s)
        self.lut_builds += stats.lut_builds

    def as_dict(self) -> dict:
        return {
            "cells": self.cells,
            "jobs": self.jobs,
            "wall_s": self.wall_s,
            "workers": {
                str(pid): {"cells": cells, "cell_s": seconds}
                for pid, (cells, seconds) in sorted(self.workers.items())
            },
            "lut_builds": self.lut_builds,
        }


class ParallelRunner:
    """Maps cell specs to workers; merges results deterministically.

    Parameters
    ----------
    jobs:
        Worker count (see :func:`normalize_jobs`).
    observer:
        Optional :class:`repro.obs.Observer`; each ``map`` call pushes
        its cell / wall-time / LUT counters into the observer's
        registry under ``parallel_*`` names and samples a per-worker
        utilization gauge.  Default off, like every other hook site.
    """

    def __init__(self, jobs: int | None = None, *,
                 observer: Observer | None = None) -> None:
        self.jobs = normalize_jobs(jobs)
        self.obs = live(observer)
        self.reports: list[SweepReport] = []

    def map(self, worker: Callable, specs: Sequence) -> list:
        """Run ``worker`` over ``specs``; results in submission order.

        ``worker`` must be a module-level function (picklable by
        reference) taking one spec and returning a result carrying a
        ``stats`` :class:`WorkerStats` field.
        """
        specs = list(specs)
        report = SweepReport(cells=len(specs), jobs=self.jobs)
        started = time.perf_counter()
        if self.jobs == 1 or len(specs) <= 1:
            results = [worker(spec) for spec in specs]
        else:
            # Imported here so a serial run never loads the process pool
            # (concurrent.futures, multiprocessing).
            from concurrent.futures import ProcessPoolExecutor

            chunksize = max(1, len(specs) // (self.jobs * 4))
            with ProcessPoolExecutor(
                max_workers=min(self.jobs, len(specs))) as pool:
                results = list(pool.map(worker, specs,
                                        chunksize=chunksize))
        report.wall_s = time.perf_counter() - started
        for result in results:
            stats = getattr(result, "stats", None)
            if isinstance(stats, WorkerStats):
                report.note(stats)
        self.reports.append(report)
        self._publish(report)
        return results

    def map_by_label(self, worker: Callable, specs: Sequence) -> dict:
        """Like :meth:`map`, keyed by each spec's ``label``."""
        results = self.map(worker, specs)
        return {result.label: result for result in results}

    # -- observability -----------------------------------------------------

    def _publish(self, report: SweepReport) -> None:
        obs = self.obs
        if obs is None:
            return
        registry = obs.registry
        registry.counter(
            "parallel_sweeps_total",
            "parallel sweep map() calls").inc()
        registry.counter(
            "parallel_cells_total",
            "sweep cells executed").inc(report.cells)
        registry.counter(
            "parallel_lut_builds_total",
            "LUT enumerations paid by sweep workers").inc(
                report.lut_builds)
        registry.gauge(
            "parallel_jobs", "worker count of the last sweep").set(
                report.jobs)
        registry.gauge(
            "parallel_wall_seconds",
            "wall time of the last sweep").set(report.wall_s)
        busy = sum(seconds for _, seconds in report.workers.values())
        registry.gauge(
            "parallel_cell_seconds",
            "summed worker cell time of the last sweep").set(busy)


def run_cells(worker: Callable, specs: Iterable, *,
              jobs: int | None = None,
              observer: Observer | None = None) -> list:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    runner = ParallelRunner(jobs, observer=observer)
    return runner.map(worker, list(specs))
