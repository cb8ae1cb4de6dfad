"""Differential tests for the parallel execution layer (repro.parallel).

The layer's whole contract is one sentence: *a parallel run is
bit-identical to the serial run*.  These tests pin it at every tier,
on hypothesis-generated inputs:

* **Sweep fan-out**: the same cell grid run inline, with 2 workers and
  with 4 workers must yield identical results in identical order —
  every metric, not just headline counts (``RunningStats`` is
  floating-point-order sensitive, so this catches merge-order drift).
* **Serve cells**: a ramp run through the cell worker must replay the
  pinned golden trace byte for byte.
* **Seeds and jobs normalization**: the spawn-key scheme is stable and
  label-sensitive; ``--jobs`` semantics are total.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CascadedSFCConfig
from repro.faults import (DiskFailure, FaultPlan, LatencySpike,
                          RetryPolicy, ThermalRamp, TransientErrors)
from repro.parallel import (ArrayCellSpec, ArrayWorkload, CellSpec,
                            ParallelRunner, ServeCellSpec, baseline,
                            cascaded, metrics_fingerprint, normalize_jobs,
                            run_array_cell, run_cell, run_cells,
                            run_serve_cell)
from repro.sim.rng import spawn_seed
from repro.workloads.poisson import PoissonWorkload

GOLDEN_TRACE = Path(__file__).parent / "golden" / "serve_trace.txt"


def cell_fingerprint(result) -> tuple:
    return (result.label, result.scheduler_name, result.submitted,
            result.unserved, metrics_fingerprint(result.metrics))


def grid(seed: int, count: int, curve: str) -> list[CellSpec]:
    """A small fig-shaped (scheduler x fraction) grid."""
    workload = PoissonWorkload(
        count=count,
        mean_interarrival_ms=12.0,
        priority_dims=2,
        priority_levels=4,
        deadline_range_ms=(200.0, 600.0),
    )
    cells = [CellSpec(label=("fifo",), workload=workload, seed=seed,
                      scheduler=baseline("fcfs", priority_levels=4),
                      service=("constant", 9.0), priority_levels=4)]
    for fraction in (0.05, 0.25):
        config = CascadedSFCConfig(
            priority_dims=2, priority_levels=4, sfc1=curve,
            dispatcher="conditional", window_fraction=fraction,
        )
        cells.append(CellSpec(
            label=(curve, fraction), workload=workload, seed=seed,
            scheduler=cascaded(config), service=("constant", 9.0),
            priority_levels=4,
        ))
    return cells


# -- tier 1: sweep fan-out -------------------------------------------------

@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(60, 140),
    curve=st.sampled_from(("sweep", "hilbert", "diagonal")),
)
def test_sweep_bit_identical_across_worker_counts(seed, count, curve):
    """Inline == 2 workers == 4 workers, cell for cell, bit for bit."""
    cells = grid(seed, count, curve)
    serial = run_cells(run_cell, cells, jobs=1)
    two = run_cells(run_cell, cells, jobs=2)
    four = run_cells(run_cell, cells, jobs=4)
    expected = [cell_fingerprint(r) for r in serial]
    assert [cell_fingerprint(r) for r in two] == expected
    assert [cell_fingerprint(r) for r in four] == expected


def test_map_by_label_preserves_labels():
    cells = grid(7, 50, "hilbert")
    results = ParallelRunner(2).map_by_label(run_cell, cells)
    assert set(results) == {cell.label for cell in cells}
    for label, result in results.items():
        assert result.label == label


def test_sweep_report_accounts_every_cell():
    cells = grid(3, 40, "sweep")
    runner = ParallelRunner(2)
    runner.map(run_cell, cells)
    (report,) = runner.reports
    assert report.cells == len(cells)
    assert sum(n for n, _ in report.workers.values()) == len(cells)
    assert report.as_dict()["jobs"] == 2


def test_runner_publishes_parallel_metrics():
    """An attached observer sees the sweep's registry counters."""
    from repro.obs import Observer

    observer = Observer()
    cells = grid(5, 30, "sweep")
    ParallelRunner(2, observer=observer).map(run_cell, cells)
    exported = observer.registry.to_json()
    assert exported["parallel_sweeps_total"]["value"] == 1.0
    assert exported["parallel_cells_total"]["value"] == float(len(cells))
    assert exported["parallel_jobs"]["value"] == 2
    assert exported["parallel_wall_seconds"]["value"] > 0.0


# -- array cells -----------------------------------------------------------

def fault_variants(seed: int) -> list[FaultPlan | None]:
    return [
        None,
        FaultPlan([DiskFailure(disk=1, start_ms=100.0, end_ms=350.0)],
                  seed=seed),
        FaultPlan([
            DiskFailure(disk=2, start_ms=200.0, end_ms=500.0),
            TransientErrors(disk=4, start_ms=50.0, end_ms=700.0,
                            probability=0.3),
            LatencySpike(disk=0, start_ms=0.0, end_ms=250.0,
                         extra_ms=6.0),
            ThermalRamp(disk=3, start_ms=100.0, end_ms=600.0,
                        peak_factor=1.8),
        ], seed=seed),
    ]


def test_array_faults_actually_fire():
    """The mixed fault plan exercises retries (no vacuous comparison)."""
    spec = ArrayCellSpec(
        label=("array",),
        workload=ArrayWorkload(count=160),
        seed=11,
        scheduler=baseline("scan", priority_levels=4),
        priority_levels=4,
        fault_plan=fault_variants(11)[2],
        retry_policy=RetryPolicy(),
    )
    assert run_array_cell(spec).retries > 0


# -- serve cells against the golden trace ----------------------------------

@pytest.mark.skipif(not GOLDEN_TRACE.exists(),
                    reason="golden trace not checked out")
def test_serve_cell_matches_golden_trace():
    """The serve-cell worker replays the pinned trace byte for byte,
    inline and through a 2-worker pool."""
    from repro.experiments.serve_demo import ServeSpec

    golden_spec = replace(ServeSpec(), max_users=10,
                          user_interval_ms=400.0, tail_ms=3_000.0,
                          seed=77)
    cells = [ServeCellSpec(label=("serve", jobs), serve_spec=golden_spec)
             for jobs in range(2)]
    golden = GOLDEN_TRACE.read_bytes().rstrip(b"\n")
    for result in run_cells(run_serve_cell, cells, jobs=2):
        assert result.trace == golden


# -- seeds and jobs semantics ----------------------------------------------

def test_normalize_jobs_semantics():
    assert normalize_jobs(None) == 1
    assert normalize_jobs(0) == 1
    assert normalize_jobs(1) == 1
    assert normalize_jobs(6) == 6
    assert normalize_jobs(-1) >= 1


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32), label=st.text(max_size=8))
def test_spawn_seed_is_stable_and_label_sensitive(seed, label):
    assert spawn_seed(seed, label) == spawn_seed(seed, label)
    assert spawn_seed(seed, label, 0) != spawn_seed(seed, label, 1)
    assert 0 <= spawn_seed(seed, label) < 2**64
