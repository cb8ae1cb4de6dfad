"""Differential harness: the shipped sim/array loops vs the reference.

:func:`repro.sim.run_simulation` and
:func:`repro.sim.run_array_simulation` plan their runs over arrival
columns, lane heaps and vectorized epochs, purely for speed; their
correctness contract is one sentence: *for every accepted input, they
reproduce the one-event-per-request heap loops in
``tests/legacy_oracle.py`` bit for bit* -- every metric (including
order-sensitive ``RunningStats`` float accumulations), every timeline
entry, and the unserved count.  These tests pin that contract across
the whole accepted input space:

* workloads: hypothesis-drawn Poisson streams, empty streams,
  simultaneous arrivals, negative arrival clamps;
* schedulers: every cascade preset (priorities-only, +deadline, full),
  the head-tracking ablation, all three dispatcher policies, and the
  EDF / SCAN-EDF baselines (which exercise the non-precomputed tier);
* knobs: ``drop_expired``, ``stop_at_ms`` truncation,
  ``recharacterize_every_ms`` refresh timers, live observers;
* the RAID-5 array path: fault plans (failure windows, transient
  errors, latency spikes, thermal ramps), static degraded mode and
  hot-spare rebuild, exact-instant ties between arrivals, lane
  completions and queued events, and failure windows shorter than one
  service.

A divergence here means the shipped loop changed semantics -- fix the
loop, never the test.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    FULL_CASCADE,
    PRIORITY_DEADLINE,
    PRIORITY_ONLY,
    CascadedSFCConfig,
)
from repro.disk.disk import ServiceRecord, make_xp32150_disk
from repro.faults import (DiskFailure, FaultPlan, LatencySpike,
                          RetryPolicy, ThermalRamp, TransientErrors)
from repro.obs import Observer
from repro.parallel import baseline, cascaded, metrics_fingerprint
from repro.parallel.cells import ArrayWorkload, make_scheduler
from repro.sim import resolve_engine, run_array_simulation, run_simulation
from repro.sim.array import RebuildConfig
from repro.sim.soa import RequestColumns
from repro.sim.service import constant_service, priority_scaled_service
from repro.workloads.poisson import PoissonWorkload
from tests import legacy_oracle

#: The loop under test and its reference, side by side.
SIMULATORS = {"shipped": run_simulation,
              "oracle": legacy_oracle.run_simulation}
ARRAY_SIMULATORS = {"shipped": run_array_simulation,
                    "oracle": legacy_oracle.run_array_simulation}


def workload(seed: int, count: int, dims: int = 3,
             mean_interarrival_ms: float = 3.0) -> list:
    return PoissonWorkload(
        count=count,
        mean_interarrival_ms=mean_interarrival_ms,
        priority_dims=dims,
        priority_levels=8,
        deadline_range_ms=(50.0, 400.0),
    ).generate(seed)


#: Scheduler references covering every submit/dispatch shape the
#: loop discriminates: the precomputed-key fast tier (plain
#: cascades), span characterization (head tracking), all dispatcher
#: policies, and plain baselines with no encapsulator at all.
SCHEDULER_REFS = {
    "full": cascaded(FULL_CASCADE.with_overrides(priority_levels=8)),
    "deadline": cascaded(
        PRIORITY_DEADLINE.with_overrides(priority_levels=8)),
    "priority-only": cascaded(
        PRIORITY_ONLY.with_overrides(priority_levels=8)),
    "track-head": cascaded(CascadedSFCConfig(
        priority_levels=8, seek_track_head=True)),
    "full-dispatcher": cascaded(CascadedSFCConfig(
        priority_levels=8, dispatcher="full")),
    "non-dispatcher": cascaded(CascadedSFCConfig(
        priority_levels=8, dispatcher="non")),
    "diagonal": cascaded(CascadedSFCConfig(
        priority_levels=8, sfc1="diagonal")),
    "edf": baseline("edf", priority_levels=8),
    "scan-edf": baseline("scan-edf", priority_levels=8),
}


def service_for(kind: str):
    if kind == "constant":
        return constant_service(2.5)
    if kind == "scaled":
        return priority_scaled_service(1.0, 0.8)
    from repro.sim.service import DiskService
    disk = make_xp32150_disk()
    disk.reset(0)
    return DiskService(disk)


def fingerprint(result) -> tuple:
    timeline = None if result.timeline is None else tuple(result.timeline)
    return (result.scheduler_name, result.submitted, result.unserved,
            timeline, metrics_fingerprint(result.metrics))


def assert_matches_oracle(requests, scheduler_key: str,
                          service_kind: str = "constant",
                          **kwargs) -> tuple:
    prints = {}
    for name, simulate in SIMULATORS.items():
        scheduler = make_scheduler(SCHEDULER_REFS[scheduler_key])
        result = simulate(requests, scheduler, service_for(service_kind),
                          priority_levels=8, record_timeline=True,
                          **kwargs)
        # Every submitted request is completed or unserved, truncated
        # run or not.
        assert (result.metrics.completed + result.unserved
                == result.submitted)
        prints[name] = fingerprint(result)
    assert prints["shipped"] == prints["oracle"]
    return prints["oracle"]


# -- serving-loop selection plumbing ---------------------------------------

def test_resolve_engine_default_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    assert resolve_engine(None) == "legacy"
    monkeypatch.setenv("REPRO_SIM_ENGINE", "batched")
    assert resolve_engine(None) == "batched"
    # Explicit choice beats the environment.
    assert resolve_engine("legacy") == "legacy"
    with pytest.raises(ValueError):
        resolve_engine("vectorised")
    monkeypatch.setenv("REPRO_SIM_ENGINE", "turbo")
    with pytest.raises(ValueError):
        resolve_engine(None)


# -- quick deterministic lane (always on, CI-sized) ------------------------

@pytest.mark.parametrize("scheduler_key", sorted(SCHEDULER_REFS))
def test_engines_identical_per_scheduler(scheduler_key):
    """Every scheduler shape agrees on a load heavy enough to queue."""
    requests = workload(17, 120, mean_interarrival_ms=1.5)
    assert_matches_oracle(requests, scheduler_key)


def test_engines_identical_on_disk_service():
    """Real seek/rotation service: head state evolves identically."""
    requests = workload(23, 100, mean_interarrival_ms=2.0)
    assert_matches_oracle(requests, "full", service_kind="disk")
    assert_matches_oracle(requests, "track-head", service_kind="disk")


def test_engines_identical_with_drop_and_stop():
    requests = workload(5, 150, mean_interarrival_ms=1.0)
    assert_matches_oracle(requests, "full", drop_expired=True)
    truncated = assert_matches_oracle(requests, "full", stop_at_ms=120.0)
    # The stop must actually truncate, or the case proves nothing.
    assert truncated[2] > 0


def test_engines_identical_with_recharacterize():
    requests = workload(41, 140, mean_interarrival_ms=1.2)
    assert_matches_oracle(requests, "full", recharacterize_every_ms=25.0)
    assert_matches_oracle(requests, "track-head", service_kind="disk",
                          recharacterize_every_ms=40.0)


def test_engines_identical_edge_workloads():
    # Empty stream.
    assert_matches_oracle([], "full")
    # One request.
    assert_matches_oracle(workload(1, 1), "full")
    # Simultaneous arrivals (heap tie-order stress) and negative
    # arrival clamping.
    requests = workload(9, 80, mean_interarrival_ms=1.5)
    clumped = [r.__class__(**{**vars(r), "arrival_ms": -5.0 if i < 4
                              else float(int(r.arrival_ms // 10) * 10)})
               for i, r in enumerate(requests)]
    assert_matches_oracle(clumped, "full")
    assert_matches_oracle(clumped, "edf")


def test_engines_identical_with_sparse_levels():
    """Levels with gaps and huge values key the ledger by their dense
    ranks; the tallies must equal the oracle's scan over raw levels."""
    requests = workload(29, 120, mean_interarrival_ms=1.5)
    sparse = [replace(r, priorities=(r.priorities[0] * 10**9,
                                     r.priorities[1] + 3,
                                     r.priorities[2]))
              for r in requests]
    ranks = RequestColumns.from_requests(sparse, 3).ranks
    assert max(max(row) for row in ranks) < 8
    assert_matches_oracle(sparse, "full")
    assert_matches_oracle(sparse, "edf", drop_expired=True)


def test_engines_identical_with_observer():
    """A live observer forces the per-arrival path; hook order and the
    observed registry must match the reference run exactly."""
    requests = workload(13, 90, mean_interarrival_ms=1.8)
    prints = {}
    exports = {}
    for name, simulate in SIMULATORS.items():
        observer = Observer()
        scheduler = make_scheduler(SCHEDULER_REFS["full"])
        result = simulate(requests, scheduler, constant_service(2.5),
                          priority_levels=8, record_timeline=True,
                          observer=observer)
        prints[name] = fingerprint(result)
        exports[name] = observer.registry.to_prometheus()
    assert prints["shipped"] == prints["oracle"]
    assert exports["shipped"] == exports["oracle"]


# -- hypothesis battery (single disk) --------------------------------------

@pytest.mark.slow
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(10, 180),
    interarrival=st.sampled_from((0.8, 1.6, 3.0, 8.0)),
    scheduler_key=st.sampled_from(sorted(SCHEDULER_REFS)),
    service_kind=st.sampled_from(("constant", "scaled", "disk")),
    drop_expired=st.booleans(),
    recharacterize=st.sampled_from((None, 15.0, 60.0)),
    stop_fraction=st.sampled_from((None, 0.25, 0.75)),
)
def test_engine_differential_battery(seed, count, interarrival,
                                     scheduler_key, service_kind,
                                     drop_expired, recharacterize,
                                     stop_fraction):
    requests = workload(seed, count, mean_interarrival_ms=interarrival)
    stop_at = None
    if stop_fraction is not None and requests:
        last = max(r.arrival_ms for r in requests)
        stop_at = last * stop_fraction
    assert_matches_oracle(requests, scheduler_key,
                          service_kind=service_kind,
                          drop_expired=drop_expired,
                          recharacterize_every_ms=recharacterize,
                          stop_at_ms=stop_at)


# -- RAID-5 array path ------------------------------------------------------

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


def array_fingerprint(result) -> tuple:
    return (
        metrics_fingerprint(result.logical_metrics),
        tuple(metrics_fingerprint(m) for m in result.disk_metrics),
        result.physical_ops, result.retries, result.failed_logical,
        result.rebuild_ops,
    )


def run_array_both(requests, scheduler: str = "scan", **kwargs) -> tuple:
    prints = {}
    for name, simulate in ARRAY_SIMULATORS.items():
        prints[name] = array_fingerprint(simulate(
            requests,
            lambda: make_scheduler(baseline(scheduler, priority_levels=4)),
            priority_levels=4, **kwargs,
        ))
    assert prints["shipped"] == prints["oracle"]
    return prints["oracle"]


def test_array_engines_identical_quick():
    requests = ArrayWorkload(count=120).generate(31)
    run_array_both(requests)
    run_array_both(requests, fault_plan=fault_variants(31)[2],
                   retry_policy=RetryPolicy())


def test_array_engines_identical_degraded_and_rebuild():
    requests = ArrayWorkload(count=100).generate(7)
    run_array_both(requests, failed_disk=2)
    run_array_both(requests,
                   fault_plan=fault_variants(7)[1],
                   retry_policy=RetryPolicy(),
                   rebuild=RebuildConfig(stripes=8, interval_ms=40.0),
                   recharacterize_every_ms=80.0)


@pytest.mark.slow
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(60, 160),
    variant=st.integers(0, 2),
)
def test_array_engine_battery(seed, count, variant):
    """Array runs agree with the reference under every fault variant."""
    requests = ArrayWorkload(count=count).generate(seed)
    run_array_both(requests,
                   fault_plan=fault_variants(seed)[variant],
                   retry_policy=RetryPolicy())


def test_array_engines_identical_double_failure_and_rebuild():
    """Overlapping failure windows: RAID-5 abandons logical requests
    caught with two members down, mid-stripe ops retry, and the
    hot-spare rebuild competes through the member schedulers — the
    lane loop must reproduce every ledger bit-for-bit."""
    requests = ArrayWorkload(count=110).generate(19)
    plan = FaultPlan([
        DiskFailure(disk=1, start_ms=60.0, end_ms=400.0),
        DiskFailure(disk=3, start_ms=120.0, end_ms=350.0),
    ], seed=19)
    prints = run_array_both(requests, fault_plan=plan,
                            retry_policy=RetryPolicy(),
                            rebuild=RebuildConfig(stripes=12,
                                                  interval_ms=30.0))
    _, _, _, retries, failed_logical, rebuild_ops = prints
    # The case must actually exercise what it claims to pin.
    assert retries > 0
    assert failed_logical > 0
    assert rebuild_ops > 0


@pytest.mark.slow
@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**20),
    count=st.integers(50, 140),
    double=st.booleans(),
    stripes=st.sampled_from((4, 8, 16)),
    interval=st.sampled_from((20.0, 45.0)),
    spare=st.booleans(),
    transients=st.booleans(),
)
def test_array_rebuild_battery(seed, count, double, stripes, interval,
                               spare, transients):
    """Hypothesis sweep of the array tier's fault surface:
    failure windows (single and overlapping double — the abandonment
    path), mid-stripe parity retries, transient errors, and hot-spare
    rebuild pacing, asserting ledger/metric bit-identity throughout."""
    faults = [DiskFailure(disk=1, start_ms=80.0, end_ms=420.0)]
    if double:
        faults.append(DiskFailure(disk=3, start_ms=150.0, end_ms=380.0))
    if transients:
        faults.append(TransientErrors(disk=2, start_ms=40.0, end_ms=500.0,
                                      probability=0.25))
    requests = ArrayWorkload(count=count).generate(seed)
    run_array_both(requests,
                   fault_plan=FaultPlan(faults, seed=seed),
                   retry_policy=RetryPolicy(),
                   rebuild=RebuildConfig(stripes=stripes,
                                         interval_ms=interval,
                                         spare=spare))


# -- exact-instant ties and sub-service failure windows ----------------------

def whole_ms_disk():
    """An XP32150 whose every service takes a whole number of ms.

    With integral arrivals, rebuild intervals, retry backoffs and
    failure edges, completions then land *exactly* on arrivals and on
    queued events, so every tie-break of the lane loop is exercised.
    """
    disk = make_xp32150_disk()
    serve = disk.serve

    def serve_whole_ms(cylinder: int, nbytes: int) -> ServiceRecord:
        record = serve(cylinder, nbytes)
        return ServiceRecord(float(math.ceil(record.seek_ms)),
                             float(math.ceil(record.latency_ms)),
                             float(math.ceil(record.transfer_ms)))

    disk.serve = serve_whole_ms  # type: ignore[method-assign]
    return disk


def integral_requests(count: int, seed: int) -> list:
    """An array workload with every arrival and deadline on a whole ms."""
    return [replace(r, arrival_ms=float(round(r.arrival_ms)),
                    deadline_ms=float(round(r.deadline_ms)))
            for r in ArrayWorkload(count=count,
                                   mean_interarrival_ms=4.0).generate(seed)]


@pytest.mark.parametrize("scheduler", ("scan", "edf"))
@pytest.mark.parametrize("seed", (3, 11))
def test_array_exact_ties_identical(seed, scheduler):
    """Arrivals, lane completions, rebuild ticks, refresh ticks and
    retries that fall on the same instant resolve in scheduling order,
    as in the reference (rebuild before arrival, arrival before
    completion, completion before retry)."""
    prints = run_array_both(
        integral_requests(140, seed),
        scheduler=scheduler,
        recharacterize_every_ms=7.0,
        disk_factory=whole_ms_disk,
        fault_plan=FaultPlan([
            DiskFailure(disk=1, start_ms=60.0, end_ms=240.0),
            TransientErrors(disk=3, start_ms=0.0, end_ms=600.0,
                            probability=0.3),
        ], seed=seed),
        retry_policy=RetryPolicy(),
        rebuild=RebuildConfig(stripes=24, interval_ms=5.0),
    )
    _, _, _, retries, _, rebuild_ops = prints
    assert retries > 0 and rebuild_ops > 0


@pytest.mark.parametrize("seed", (5, 17))
def test_array_short_failure_windows_identical(seed):
    """Failure windows far shorter than one service time open and
    close while an op is in flight: the op must still fail (the window
    overlapped its service), exactly as in the reference."""
    windows = [DiskFailure(disk=k % 5, start_ms=13.0 + 37.0 * k,
                           end_ms=13.0 + 37.0 * k + 1.5)
               for k in range(16)]
    _, _, _, retries, _, _ = run_array_both(
        ArrayWorkload(count=150, mean_interarrival_ms=3.0).generate(seed),
        fault_plan=FaultPlan(windows, seed=seed),
        retry_policy=RetryPolicy(),
    )
    assert retries > 0
