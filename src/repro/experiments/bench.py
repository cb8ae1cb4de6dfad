"""Tracked hot-path benchmark baseline (``bench`` subcommand).

Times the hot paths this repository optimizes -- curve batch indexing
(LUT tier), batch characterization (stage-1 memo + vectorized stages)
and bulk queue re-keying -- each against its pre-optimization
equivalent, and *asserts the invariants that make the fast paths
safe*:

* every fast path is bit-identical to its scalar/naive counterpart,
* bulk re-keys rebuild the heap once (``heapify_count``), not per item,
* incremental re-characterization is idempotent (a second pass at the
  same instant re-keys nothing).

The simulation loop itself has no second implementation to race here;
its bit-identity to the reference heap loop is checked by the tier-1
differential tests.

Timings are recorded for tracking but never asserted -- wall clock is
machine-dependent; the operation counts are not.  The full run writes
the next ``BENCH_PR<n>.json`` and compares its speedups against the
*latest* committed baseline (:func:`latest_baseline_path`; a section
regressing by more than 25% is a failure); ``--quick`` runs a CI-sized
instance.

The ``parallel`` section covers :mod:`repro.parallel`: the process
fan-out sweep must be bit-identical to serial at any worker count.  The
multi-worker *speedup* is only gated when the machine actually has
four or more cores -- on smaller hosts it is recorded with the core
count so the number can be read in context.

The ``cluster_scale`` section is the fleet scaling study: the cluster
decision tier swept over 16/32/64/128 arrays (sublinear per-decision
cost).  Its decisions' identity to the full-fleet scan oracle is
checked by the tier-1 differential tests.

The ``serve`` section times the serving loop: a dense always-admit
overload ramp in seconds and requests/s, and the cluster demo
end-to-end (decide + every serving cell, serial) next to the PR 8
fleet number for trend context.  The loop's bit-identity to the
reference loop is checked by the tier-1 differential tests.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import re
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import CascadedSFCConfig
from repro.core.encapsulator import EncodeContext
from repro.core.batch import characterize_batch
from repro.core.scheduler import CascadedSFCScheduler
from repro.obs import NULL_OBSERVER, Observer, live
from repro.sfc import get_curve
from repro.sfc.lut import LUT_STATS, clear_lut_cache, curve_lut
from repro.sfc.vectorized import batch_index
from repro.sim.server import run_simulation
from repro.sim.service import constant_service
from repro.util.priority_queue import IndexedPriorityQueue
from repro.workloads.poisson import PoissonWorkload


@dataclass(frozen=True)
class BenchSpec:
    """Problem sizes for the tracked benchmark."""

    #: Curves exercised by the LUT tier (no analytic vectorized path).
    lut_curves: tuple[str, ...] = ("spiral", "diagonal", "peano")
    lut_dims: int = 4
    lut_levels: int = 16
    lut_points: int = 200_000
    characterize_requests: int = 20_000
    queue_size: int = 20_000
    queue_rekeys: int = 10_000
    sim_requests: int = 4_000
    repeats: int = 3
    seed: int = 2004
    #: Per-cell request count of the parallel-sweep grid.
    sweep_requests: int = 1_500
    #: Worker count of the timed parallel sweep arm.
    sweep_jobs: int = 4
    #: Fleet sizes of the cluster decision-tier scaling sweep.
    cluster_arrays: tuple[int, ...] = (16, 32, 64, 128)
    #: Stream-open attempts per array in the scaling sweep (the fleet
    #: event script grows with the fleet, as it would in production).
    cluster_users_per_array: int = 800
    #: Stream-open attempts of the serving-tier overload ramp (dense
    #: always-admit arrivals: the serving loop, not admission, is the
    #: cost under test).
    serve_users: int = 900
    serve_interval_ms: float = 50.0
    serve_tail_ms: float = 10_000.0

    def quick(self) -> "BenchSpec":
        return BenchSpec(
            lut_dims=3,
            lut_levels=8,
            lut_points=20_000,
            characterize_requests=2_000,
            queue_size=2_000,
            queue_rekeys=1_000,
            sim_requests=600,
            repeats=2,
            sweep_requests=500,
            cluster_arrays=(16, 32),
            cluster_users_per_array=150,
            serve_users=120,
            serve_tail_ms=3_000.0,
        )


@contextmanager
def _quiet_gc():
    """Keep the cyclic GC out of a timed region.

    A collection pass landing inside a tens-of-milliseconds
    measurement shifts it by 50%+ (the recharacterize section was
    visibly bimodal); collecting up front and disabling for the
    region makes best-of times reproducible.  Restores the collector
    state on exit either way.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _best_of(fn, repeats: int) -> tuple[float, object]:
    """Best wall-clock of ``repeats`` runs, plus the last result."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        with _quiet_gc():
            started = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - started)
    return best, result


def bench_curve_batch(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """Scalar ``curve.index`` loop vs LUT-backed ``batch_index``."""
    rng = np.random.default_rng(spec.seed)
    rows: list[dict] = []
    invariants: dict[str, bool] = {}
    for name in spec.lut_curves:
        if name == "peano":
            # Peano is 2-D with a power-of-3 side.
            curve = get_curve(name, 2, 81)
        else:
            curve = get_curve(name, spec.lut_dims, spec.lut_levels)
        side = curve.side
        pts = rng.integers(0, side, size=(spec.lut_points, curve.dims),
                           dtype=np.uint64)
        tuples = [tuple(int(v) for v in row) for row in pts]

        scalar_s, scalar_out = _best_of(
            lambda: [curve.index(t) for t in tuples], spec.repeats
        )
        # Evict only the curve under test: wiping the whole cache here
        # forces every later section to re-enumerate its stage-1 grids,
        # which inflates a quick run by over a second for no benefit.
        clear_lut_cache(curve)
        LUT_STATS.reset()
        build_s, _ = _best_of(lambda: curve_lut(curve), 1)
        lut_s, lut_out = _best_of(
            lambda: batch_index(curve, pts), spec.repeats
        )
        identical = bool(
            np.array_equal(np.asarray(scalar_out, dtype=np.uint64),
                           lut_out)
        )
        invariants[f"curve_batch.{name}.bit_identical"] = identical
        invariants[f"curve_batch.{name}.single_build"] = (
            LUT_STATS.builds == 1
        )
        rows.append({
            "curve": curve.name,
            "cells": int(side) ** curve.dims,
            "points": spec.lut_points,
            "scalar_s": scalar_s,
            "lut_build_s": build_s,
            "lut_batch_s": lut_s,
            "speedup": scalar_s / lut_s if lut_s > 0 else float("inf"),
        })
    return {"rows": rows}, invariants


def _workload(spec: BenchSpec, count: int, dims: int = 3,
              levels: int = 16) -> list:
    return PoissonWorkload(
        count=count,
        mean_interarrival_ms=5.0,
        priority_dims=dims,
        priority_levels=levels,
        deadline_range_ms=(200.0, 1200.0),
    ).generate(spec.seed)


def _scheduler(sfc1: str = "hilbert", dims: int = 3,
               levels: int = 16) -> CascadedSFCScheduler:
    config = CascadedSFCConfig(
        priority_dims=dims, priority_levels=levels, sfc1=sfc1
    )
    return CascadedSFCScheduler(config, cylinders=3832)


def bench_characterize(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """Scalar per-request characterize vs one vectorized batch."""
    requests = _workload(spec, spec.characterize_requests)
    scheduler = _scheduler("spiral")
    encapsulator = scheduler.encapsulator
    # The pre-PR scalar path had no stage-1 memo.
    encapsulator.stage1._memo_cap = 0
    ctx = EncodeContext(now_ms=50.0, head_cylinder=1700)

    scalar_s, scalar_out = _best_of(
        lambda: [encapsulator.characterize(r, ctx) for r in requests],
        spec.repeats,
    )
    # Fresh stage-1 memo per run: time the batch path cold, not the
    # second pass over an already-populated memo.
    def batch_run():
        sched = _scheduler("spiral")
        return characterize_batch(sched.encapsulator, requests, ctx)
    batch_s, batch_out = _best_of(batch_run, spec.repeats)
    identical = bool(np.array_equal(np.asarray(scalar_out), batch_out))
    return (
        {
            "requests": spec.characterize_requests,
            "scalar_s": scalar_s,
            "batch_s": batch_s,
            "speedup": scalar_s / batch_s if batch_s > 0 else float("inf"),
        },
        {"characterize.bit_identical": identical},
    )


def bench_queue(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """n-times remove+push vs one ``rekey_batch`` call."""
    rng = np.random.default_rng(spec.seed)
    keys = rng.random(spec.queue_size)
    picks = rng.integers(0, spec.queue_size, size=spec.queue_rekeys)
    new_keys = rng.random(spec.queue_rekeys)

    def fill() -> IndexedPriorityQueue:
        queue: IndexedPriorityQueue[int] = IndexedPriorityQueue()
        for item, key in enumerate(keys):
            queue.push(item, float(key))
        return queue

    pairs = [(int(item), float(key))
             for item, key in zip(picks, new_keys)]

    # Timing covers re-key *and* drain: the naive idiom leaves dead
    # entries in the heap whose cost lands on later pops.
    def naive():
        queue = fill()
        for item, key in pairs:
            queue.remove(item)
            queue.push(item, key)
        return [queue.pop() for _ in range(len(queue))]

    heapifies = 0

    def bulk():
        nonlocal heapifies
        queue = fill()
        queue.heapify_count = 0
        queue.rekey_batch(pairs)
        heapifies = queue.heapify_count
        return [queue.pop() for _ in range(len(queue))]

    naive_s, naive_order = _best_of(naive, spec.repeats)
    bulk_s, bulk_order = _best_of(bulk, spec.repeats)
    return (
        {
            "size": spec.queue_size,
            "rekeys": spec.queue_rekeys,
            "naive_s": naive_s,
            "bulk_s": bulk_s,
            "speedup": naive_s / bulk_s if bulk_s > 0 else float("inf"),
            "heapifies": heapifies,
        },
        {
            "queue.same_pop_order": naive_order == bulk_order,
            "queue.single_heapify": heapifies == 1,
        },
    )


def bench_recharacterize(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """Incremental queue re-key vs a from-scratch drain-and-resubmit."""
    requests = _workload(spec, spec.characterize_requests)
    now, head = 90_000.0, 2500

    def load() -> CascadedSFCScheduler:
        scheduler = _scheduler("spiral")
        scheduler.submit_batch(requests, 0.0, 0)
        return scheduler

    # Both sides of this ratio are tens of milliseconds, so a single
    # scheduler hiccup swings the quotient by 50%+; best-of extra
    # repeats keeps the recorded number inside the baseline tolerance.
    repeats = max(spec.repeats, 5)
    incremental_s = float("inf")
    for _ in range(repeats):
        inc_sched = load()
        with _quiet_gc():
            started = time.perf_counter()
            inc_sched.recharacterize(now, head)
            incremental_s = min(incremental_s,
                                time.perf_counter() - started)

    scratch_s = float("inf")
    for _ in range(repeats):
        stale = load()
        with _quiet_gc():
            started = time.perf_counter()
            pending = list(stale.pending())
            raw_sched = _scheduler("spiral")
            raw_sched.submit_batch(pending, now, head)
            scratch_s = min(scratch_s,
                            time.perf_counter() - started)
    vc_match = all(
        inc_sched.dispatcher.vc_of(r) == raw_sched.dispatcher.vc_of(r)
        for r in inc_sched.pending()
    )
    idempotent = inc_sched.recharacterize(now, head) == 0
    return (
        {
            "requests": spec.characterize_requests,
            "scratch_s": scratch_s,
            "incremental_s": incremental_s,
            "speedup": (scratch_s / incremental_s
                        if incremental_s > 0 else float("inf")),
        },
        {
            "recharacterize.same_vc": vc_match,
            "recharacterize.idempotent": idempotent,
        },
    )


def bench_observability(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """The observability-overhead gate (see ``repro.obs``).

    Three invariants keep the default-off contract honest:

    * passing :data:`~repro.obs.NULL_OBSERVER` costs under 2% against
      not passing an observer at all (it normalizes to the same
      ``None`` hot path; a small absolute floor absorbs timer noise on
      quick runs),
    * a fully *enabled* observer changes no simulation outcome
      (identical served/missed/inversion tallies), and
    * the pinned golden serve trace replays byte-identically both with
      the default observer and with a live one — observability must
      never perturb a scheduling decision.

    The enabled-mode slowdown is recorded in the report for tracking
    but not gated (recording genuinely costs time).
    """
    requests = _workload(spec, spec.sim_requests)

    def run(observer: Observer | None):
        return run_simulation(requests, _scheduler("spiral"),
                              constant_service(2.0), priority_levels=16,
                              observer=observer)

    # Interleave the three variants inside each repeat: the <2%
    # overhead gate compares ~0.1 s timings, and measuring each
    # variant in its own block lets monotone machine drift (frequency
    # scaling, a noisy neighbour) land entirely on whichever ran
    # last.  Round-robin puts the drift on all three equally.
    repeats = max(spec.repeats, 3)
    disabled_s = null_s = enabled_s = float("inf")
    plain = nulled = observed = None
    for _ in range(repeats):
        s, plain = _best_of(lambda: run(None), 1)
        disabled_s = min(disabled_s, s)
        s, nulled = _best_of(lambda: run(NULL_OBSERVER), 1)
        null_s = min(null_s, s)
        s, observed = _best_of(lambda: run(Observer()), 1)
        enabled_s = min(enabled_s, s)
    disabled_overhead = (null_s / disabled_s - 1.0
                         if disabled_s > 0 else 0.0)
    enabled_overhead = (enabled_s / disabled_s - 1.0
                        if disabled_s > 0 else 0.0)

    def tallies(result):
        return (result.metrics.served, result.metrics.dropped,
                result.metrics.missed, result.inversions)

    invariants = {
        # The zero-overhead claim is structural, not a wall-clock
        # race: ``live`` collapses a disabled observer to None, so the
        # hot loop runs byte-identical code either way.  The timing
        # ratio above is recorded for context only -- on a noisy host
        # two runs of *identical* code can differ by 10%+.
        "obs.disabled_is_free": live(NULL_OBSERVER) is None,
        "obs.enabled_same_metrics": tallies(observed) == tallies(plain),
        "obs.null_same_metrics": tallies(nulled) == tallies(plain),
    }

    # The pinned golden serve trace (skipped when not run from a repo
    # checkout — CI and `make bench` always are).
    golden_path = "tests/golden/serve_trace.txt"
    golden_status = "absent"
    if os.path.exists(golden_path):
        from repro.experiments.faults_scenario import serialize_trace
        from repro.experiments.serve_demo import (
            ServeSpec,
            build_server,
            ramp_events,
        )
        from repro.serve import run_ramp_online

        golden_spec = replace(ServeSpec(), max_users=10,
                              user_interval_ms=400.0, tail_ms=3_000.0,
                              seed=77)

        def serve_trace(observer: Observer | None) -> bytes:
            server = build_server(golden_spec, sink=lambda line: None,
                                  observer=observer)
            run_ramp_online(server, ramp_events(golden_spec),
                            golden_spec.until_ms)
            return serialize_trace(server)

        with open(golden_path, "rb") as fh:
            golden = fh.read().rstrip(b"\n")
        default_identical = serve_trace(None) == golden
        observed_identical = serve_trace(Observer()) == golden
        invariants["obs.golden_trace_default_identical"] = default_identical
        invariants["obs.golden_trace_observed_identical"] = observed_identical
        golden_status = "checked"

    return (
        {
            "requests": spec.sim_requests,
            "disabled_s": disabled_s,
            "null_observer_s": null_s,
            "enabled_s": enabled_s,
            "disabled_overhead": disabled_overhead,
            "enabled_overhead": enabled_overhead,
            "speedup": 1.0 + disabled_overhead,  # tracked, ~1.0 by design
            "golden_trace": golden_status,
        },
        invariants,
    )


def bench_store(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """The run-store recording-overhead gate (see ``repro.store``).

    Same discipline as the NULL_OBSERVER gate in
    :func:`bench_observability`: the structural invariants do the
    guaranteeing (recording happens strictly *after* the simulation,
    the stored trace round-trips byte-identically, and a re-execution
    reproduces it), while the wall-clock check uses an absolute noise
    floor — ``--record`` may add at most 2% or 50 ms, whichever is
    larger, over the identical run without recording.  The recorded
    ratio is excluded from baseline speedup comparisons
    (``speedup_gated: False``): a sqlite fsync on a loaded host is
    scheduler noise, not a regression signal.
    """
    import tempfile

    from repro.store import SqliteRunStore

    from . import history, serve_demo
    from .serve_demo import ServeSpec

    serve_spec = replace(ServeSpec(), max_users=20,
                         user_interval_ms=200.0, tail_ms=2_000.0)

    def run_plain():
        return serve_demo.run(serve_spec, sink=lambda *args: None)

    repeats = max(spec.repeats, 3)
    plain_s = recorded_s = float("inf")
    with tempfile.TemporaryDirectory() as scratch:
        store = SqliteRunStore(os.path.join(scratch, "runs.sqlite"))

        def run_recorded():
            result = run_plain()
            run_id = history.record_serve(store, serve_spec, result,
                                          quick=True)
            return result, run_id

        # Round-robin the two arms per repeat (monotone machine drift
        # lands on both equally), min-of over repeats.
        result = recorded = None
        run_id = -1
        for _ in range(repeats):
            s, result = _best_of(run_plain, 1)
            plain_s = min(plain_s, s)
            s, (recorded, run_id) = _best_of(run_recorded, 1)
            recorded_s = min(recorded_s, s)

        stored = store.get(run_id)
        overhead = recorded_s / plain_s - 1.0 if plain_s > 0 else 0.0
        invariants = {
            # Recording must not perturb the simulation: both arms run
            # identical code up to the post-run record() call.
            "store.recording_same_trace": recorded.trace == result.trace,
            "store.roundtrip_identical": stored.trace == recorded.trace,
            "store.fingerprint_verifies": stored.verify(),
            "store.overhead_within_bound": (
                recorded_s - plain_s <= max(0.02 * plain_s, 0.05)
            ),
        }

    return (
        {
            "users": serve_spec.max_users,
            "plain_s": plain_s,
            "recorded_s": recorded_s,
            "overhead": overhead,
            "trace_bytes": len(stored.trace),
            "speedup": 1.0 + overhead,  # tracked, ~1.0 by design
            "speedup_gated": False,
        },
        invariants,
    )


def bench_parallel(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """``repro.parallel``'s process fan-out against serial.

    A fig5-shaped (scheduler x curve x fraction) grid runs serially and
    with ``spec.sweep_jobs`` worker processes; results must be
    bit-identical (the determinism contract), and the fan-out must
    reach a 2x speedup -- gated only on hosts with >= 4 cores, recorded
    (with the core count) everywhere else.
    """
    from repro.parallel import (CellSpec, baseline, cascaded,
                                metrics_fingerprint, run_cell, run_cells)

    cores = os.cpu_count() or 1
    section: dict = {"cores": cores, "rows": []}
    invariants: dict[str, bool] = {}

    workload = PoissonWorkload(
        count=spec.sweep_requests,
        mean_interarrival_ms=10.0,
        priority_dims=3,
        priority_levels=8,
        deadline_range_ms=(300.0, 900.0),
    )
    cells = [CellSpec(label=("fifo",), workload=workload, seed=spec.seed,
                      scheduler=baseline("fcfs"),
                      service=("constant", 8.0), priority_levels=8)]
    for curve in ("sweep", "hilbert", "diagonal"):
        for fraction in (0.05, 0.2):
            config = CascadedSFCConfig(
                priority_dims=3, priority_levels=8, sfc1=curve,
                dispatcher="conditional", window_fraction=fraction,
            )
            cells.append(CellSpec(
                label=(curve, fraction), workload=workload,
                seed=spec.seed, scheduler=cascaded(config),
                service=("constant", 8.0), priority_levels=8,
            ))

    def cell_fingerprints(results) -> list[tuple]:
        return [(r.label, r.scheduler_name, r.submitted, r.unserved,
                 metrics_fingerprint(r.metrics)) for r in results]

    serial_s, serial = _best_of(
        lambda: run_cells(run_cell, cells, jobs=1), 1)
    fanout_s, fanout = _best_of(
        lambda: run_cells(run_cell, cells, jobs=spec.sweep_jobs), 1)
    sweep_speedup = serial_s / fanout_s if fanout_s > 0 else float("inf")
    invariants["parallel.sweep.bit_identical"] = (
        cell_fingerprints(serial) == cell_fingerprints(fanout)
    )
    invariants["parallel.sweep.speedup_ok"] = (
        sweep_speedup >= 2.0 if cores >= 4 else True
    )
    section["rows"].append({
        "label": "sweep", "cells": len(cells),
        "serial_s": serial_s, "parallel_s": fanout_s,
        "jobs": spec.sweep_jobs, "speedup": sweep_speedup,
        "speedup_gated": cores >= 4,
    })
    return section, invariants


def bench_cluster_scale(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """Fleet decision tier at 16 -> 128 arrays.

    The cluster controller is replayed over a fleet-wide event script
    at each fleet size.  On full runs the per-decision cost must grow
    *sublinearly* in the array count (at most half the size ratio) --
    the honest version of the paper's "scales to thousands of disks"
    claim.
    """
    from repro.cluster import ClusterController
    from repro.experiments.cluster_demo import (
        ClusterSpec,
        cluster_events,
        fault_plans,
        make_config,
    )

    section: dict = {"rows": []}
    invariants: dict[str, bool] = {}
    full_run = spec.repeats >= 3

    # -- decide sweep: one replay per fleet size ---------------------------
    per_decision_us: dict[int, float] = {}
    for arrays in spec.cluster_arrays:
        cspec = replace(ClusterSpec(), arrays=arrays,
                        users=spec.cluster_users_per_array * arrays)
        events = cluster_events(cspec)
        plans = fault_plans(cspec)

        def decide():
            controller = ClusterController(make_config(cspec), plans)
            return controller.run(events, cspec.until_ms)

        decide_s, plan = _best_of(decide, min(spec.repeats, 2))
        decisions = len(plan.log)
        per_decision_us[arrays] = (
            decide_s / decisions * 1e6 if decisions else 0.0
        )
        section["rows"].append({
            "label": f"decide{arrays}",
            "arrays": arrays,
            "events": len(events),
            "decisions": decisions,
            "decide_s": decide_s,
            "per_decision_us": per_decision_us[arrays],
            "events_per_s": (len(events) / decide_s
                             if decide_s > 0 else float("inf")),
        })

    lo, hi = min(spec.cluster_arrays), max(spec.cluster_arrays)
    growth = (per_decision_us[hi] / per_decision_us[lo]
              if per_decision_us[lo] > 0 else float("inf"))
    section["per_decision_growth"] = growth
    section["fleet_size_ratio"] = hi / lo
    # Wall-clock-based, so gated on full runs only (quick sizes are
    # too small for the ratio to mean anything); recorded everywhere.
    invariants["cluster_scale.per_decision_sublinear"] = (
        growth <= (hi / lo) * 0.5 if full_run else True
    )

    return section, invariants


def _pr8_fleet_seconds() -> float | None:
    """The PR 8 fleet demo recording (``cluster_scale`` demo row of
    ``BENCH_PR8.json``), for trend context next to the fresh fleet
    timing; ``None`` outside a repo checkout."""
    for number, path in baseline_history():
        if number != 8:
            continue
        try:
            with open(path, encoding="utf-8") as fh:
                report = json.load(fh)
            for row in report["sections"]["cluster_scale"]["rows"]:
                if row.get("label", "").startswith("demo"):
                    return row.get("current_s")
        except (OSError, json.JSONDecodeError, KeyError):
            return None
    return None


def serve_ramp_spec(spec: BenchSpec):
    """The ``serve`` section's dense always-admit overload ramp."""
    from repro.experiments.serve_demo import ServeSpec
    return replace(
        ServeSpec(), max_users=spec.serve_users,
        user_interval_ms=spec.serve_interval_ms, policy="always",
        tail_ms=spec.serve_tail_ms,
    )


def bench_serve(spec: BenchSpec) -> tuple[dict, dict[str, bool]]:
    """Serving tier: the one serving loop, timed.

    * **ramp** -- a dense always-admit overload ramp (arrivals every
      few milliseconds, every stream admitted, queue bound forcing
      bulk sheds) through the serve demo's own path, in seconds and
      dispatched requests/s.
    * **fleet** -- the cluster demo end-to-end (decide + every serving
      cell, serial), recorded next to the PR 8 fleet recording for
      trend context.

    Nothing here is gated: bit-identity of the loop to the reference
    loop is a tier-1 test (``tests/test_serve_engine_differential.py``
    runs this ramp through both).
    """
    from repro.cluster import ClusterController, build_report
    from repro.experiments.cluster_demo import (
        ClusterSpec,
        _cells,
        cluster_events,
        fault_plans,
        make_config,
    )
    from repro.experiments.serve_demo import build_server, ramp_events
    from repro.parallel import run_cells, run_cluster_cell
    from repro.serve import run_ramp_online

    full_run = spec.repeats >= 3
    section: dict = {"rows": []}

    # -- ramp: dense always-admit overload, the serving-loop stress -------
    ramp_spec = serve_ramp_spec(spec)
    events = ramp_events(ramp_spec)

    def run_ramp():
        server = build_server(ramp_spec, lambda line: None)
        run_ramp_online(server, events, ramp_spec.until_ms)
        return server.stats()

    ramp_s, stats = _best_of(run_ramp, spec.repeats)
    section["rows"].append({
        "label": "ramp",
        "users": ramp_spec.max_users,
        "interval_ms": ramp_spec.user_interval_ms,
        "dispatched": stats.dispatched,
        "seconds": ramp_s,
        "requests_per_s": (stats.dispatched / ramp_s
                           if ramp_s > 0 else float("inf")),
    })

    # -- fleet: the cluster demo end-to-end -------------------------------
    demo_spec = ClusterSpec() if full_run else ClusterSpec().quick()
    controller = ClusterController(make_config(demo_spec),
                                   fault_plans(demo_spec))
    started = time.perf_counter()
    plan = controller.run(cluster_events(demo_spec), demo_spec.until_ms)
    report = build_report(plan, run_cells(
        run_cluster_cell, _cells(demo_spec, plan), jobs=1))
    fleet_s = time.perf_counter() - started
    section["rows"].append({
        "label": f"fleet{demo_spec.arrays}",
        "arrays": demo_spec.arrays,
        "users": demo_spec.users,
        "accepted": report.accepted,
        "seconds": fleet_s,
        "pr8_recorded_s": _pr8_fleet_seconds(),
    })
    return section, {}


SECTIONS = (
    ("curve_batch", bench_curve_batch),
    ("characterize", bench_characterize),
    ("queue", bench_queue),
    ("recharacterize", bench_recharacterize),
    ("observability", bench_observability),
    ("store", bench_store),
    ("parallel", bench_parallel),
    ("cluster_scale", bench_cluster_scale),
    ("serve", bench_serve),
)

#: Committed baselines are ``BENCH_PR<n>.json`` at the repo root; the
#: comparison always targets the highest ``n`` present.
BASELINE_PATTERN = re.compile(r"^BENCH_PR(\d+)\.json$")

#: Fallback when no committed baseline exists (compares as "absent").
BASELINE_PATH = "BENCH_PR3.json"

#: A section may lose up to this fraction of its recorded speedup
#: before the comparison fails (wall-clock noise allowance).
BASELINE_TOLERANCE = 0.25


def baseline_history(directory: str = ".") -> list[tuple[int, str]]:
    """Committed ``BENCH_PR<n>.json`` baselines as sorted (n, path)."""
    try:
        names = os.listdir(directory or ".")
    except OSError:
        return []
    history = []
    for name in names:
        match = BASELINE_PATTERN.match(name)
        if match:
            path = name if directory in ("", ".") \
                else os.path.join(directory, name)
            history.append((int(match.group(1)), path))
    return sorted(history)


def latest_baseline_path(directory: str = ".") -> str:
    """The highest-numbered committed baseline (the comparison target).

    Each PR that re-records the benchmark commits the next
    ``BENCH_PR<n>.json``; comparing against the *latest* one keeps the
    regression gate anchored to the most recent accepted numbers
    without touching this module every PR.
    """
    history = baseline_history(directory)
    if not history:
        return os.path.join(directory, BASELINE_PATH) \
            if directory != "." else BASELINE_PATH
    return history[-1][1]


def next_baseline_path(directory: str = ".") -> str:
    """Where a full run should record its report (latest n + 1)."""
    history = baseline_history(directory)
    number = history[-1][0] + 1 if history else 1
    name = f"BENCH_PR{number}.json"
    return os.path.join(directory, name) if directory != "." else name


def compare_baseline(report: dict,
                     path: str | None = None) -> tuple[dict, dict]:
    """Speedup-regression check against the committed baseline report.

    Only same-kind runs compare (full vs full): quick numbers on a
    different problem size say nothing about the committed full-spec
    baseline.  Absent or mismatched baselines skip the check rather
    than fail it, so the benchmark still runs outside a repo checkout.
    """
    if path is None:
        path = latest_baseline_path()
    comparison: dict = {"path": path, "status": "absent", "speedups": {}}
    invariants: dict[str, bool] = {}
    if not os.path.exists(path):
        return comparison, invariants
    try:
        with open(path, encoding="utf-8") as fh:
            old = json.load(fh)
    except (OSError, json.JSONDecodeError):
        comparison["status"] = "unreadable"
        return comparison, invariants
    if old.get("meta", {}).get("spec") != report["meta"]["spec"]:
        comparison["status"] = "spec-mismatch"
        return comparison, invariants
    comparison["status"] = "compared"
    floor = 1.0 - BASELINE_TOLERANCE
    for name, old_section in old.get("sections", {}).items():
        new_section = report["sections"].get(name)
        if new_section is None:
            continue
        old_rows = old_section.get("rows", [old_section])
        new_rows = new_section.get("rows", [new_section])
        new_by_label = {
            row.get("curve") or row.get("label") or name: row
            for row in new_rows
        }
        for old_row in old_rows:
            label = old_row.get("curve") or old_row.get("label") or name
            new_row = new_by_label.get(label)
            old_speedup = old_row.get("speedup")
            new_speedup = (new_row or {}).get("speedup")
            if not (isinstance(old_speedup, (int, float))
                    and isinstance(new_speedup, (int, float))):
                continue
            if (old_row.get("speedup_gated") is False
                    or (new_row or {}).get("speedup_gated") is False):
                # Either run declared this speedup machine-gated (e.g.
                # a multi-worker sweep on a small box): the number is
                # recorded for context but is pure scheduler noise, so
                # comparing it across reports would only flake.
                continue
            key = name if label == name else f"{name}.{label}"
            comparison["speedups"][key] = {
                "baseline": old_speedup, "current": new_speedup,
            }
            invariants[f"baseline.{key}.no_regression"] = (
                new_speedup >= old_speedup * floor
            )
    return comparison, invariants


def run(spec: BenchSpec = BenchSpec()) -> dict:
    """Run every section; returns the report dict (see module doc)."""
    report: dict = {
        "meta": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "spec": "quick" if spec.repeats < 3 else "full",
        },
        "sections": {},
        "invariants": {},
    }
    for name, fn in SECTIONS:
        section, invariants = fn(spec)
        report["sections"][name] = section
        report["invariants"].update(invariants)
    comparison, invariants = compare_baseline(report)
    report["baseline"] = comparison
    report["invariants"].update(invariants)
    report["ok"] = all(report["invariants"].values())
    return report


def render(report: dict) -> str:
    lines = ["hot-path benchmark (best-of wall clock; invariants asserted)"]
    for name, section in report["sections"].items():
        rows = section.get("rows", [section])
        for row in rows:
            label = row.get("curve") or row.get("label") or name
            if "speedup" not in row and "seconds" in row:
                lines.append(f"  {name:15s} {label:18s} "
                             f"{row['seconds']:8.2f}s")
                continue
            if "per_decision_us" in row:
                lines.append(f"  {name:15s} {label:18s} "
                             f"{row['per_decision_us']:8.1f} us/decision")
                continue
            speedup = row.get("speedup", 0.0)
            lines.append(f"  {name:15s} {label:18s} "
                         f"speedup {speedup:6.1f}x")
    baseline = report.get("baseline", {})
    if baseline:
        lines.append(f"baseline {baseline.get('path')}: "
                     f"{baseline.get('status')}")
    bad = [k for k, v in report["invariants"].items() if not v]
    lines.append(
        "invariants: all ok" if not bad
        else f"invariants FAILED: {', '.join(bad)}"
    )
    return "\n".join(lines)


def write_report(report: dict, path: str) -> str:
    from .common import ensure_parent
    ensure_parent(path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
