"""Unit tests for the fault-plan DSL and the injector wrapper."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    DiskFailure,
    FaultCounters,
    FaultInjector,
    FaultPlan,
    FaultyService,
    LatencySpike,
    RetryPolicy,
    ThermalRamp,
    TransientErrors,
)
from repro.sim.service import constant_service


class TestFaultWindows:
    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            DiskFailure(0, 10.0, 10.0)
        with pytest.raises(ValueError):
            DiskFailure(0, -1.0, 10.0)
        with pytest.raises(ValueError):
            LatencySpike(0, 0.0, 1.0, extra_ms=-1.0)
        with pytest.raises(ValueError):
            TransientErrors(0, 0.0, 1.0, probability=1.5)
        with pytest.raises(ValueError):
            ThermalRamp(0, 0.0, 1.0, peak_factor=0.5)

    @pytest.mark.parametrize("kind, extra", [
        (LatencySpike, {"extra_ms": 1.0}),
        (TransientErrors, {"probability": 0.5}),
        (DiskFailure, {}),
        (ThermalRamp, {"peak_factor": 2.0}),
    ], ids=["spike", "transient", "failure", "thermal"])
    def test_negative_disk_rejected(self, kind, extra):
        with pytest.raises(ValueError, match="disk"):
            kind(-1, 0.0, 1.0, **extra)

    def test_thermal_factor_ramps_linearly(self):
        ramp = ThermalRamp(0, 100.0, 200.0, peak_factor=3.0)
        assert ramp.factor_at(50.0) == 1.0
        assert ramp.factor_at(100.0) == 1.0
        assert ramp.factor_at(150.0) == pytest.approx(2.0)
        assert ramp.factor_at(200.0) == 1.0  # past the window


class TestFaultPlanQueries:
    def plan(self):
        return FaultPlan([
            LatencySpike(0, 0.0, 100.0, extra_ms=5.0),
            LatencySpike(0, 50.0, 150.0, extra_ms=3.0),
            TransientErrors(0, 0.0, 100.0, probability=0.5),
            TransientErrors(0, 0.0, 100.0, probability=0.5),
            DiskFailure(1, 10.0, 20.0),
            ThermalRamp(0, 0.0, 100.0, peak_factor=2.0),
        ], seed=3)

    def test_is_failed_window_semantics(self):
        plan = self.plan()
        assert not plan.is_failed(1, 9.999)
        assert plan.is_failed(1, 10.0)
        assert plan.is_failed(1, 19.999)
        assert not plan.is_failed(1, 20.0)  # recovered at end_ms
        assert not plan.is_failed(0, 15.0)  # other disk unaffected

    def test_failed_during_overlap_semantics(self):
        plan = self.plan()
        assert plan.failed_during(1, 0.0, 10.1)
        assert plan.failed_during(1, 19.0, 30.0)
        assert not plan.failed_during(1, 0.0, 10.0)   # half-open
        assert not plan.failed_during(1, 20.0, 30.0)
        assert not plan.failed_during(0, 0.0, 100.0)

    def test_spikes_add(self):
        plan = self.plan()
        assert plan.extra_latency_ms(0, 25.0) == 5.0
        assert plan.extra_latency_ms(0, 75.0) == 8.0
        assert plan.extra_latency_ms(0, 125.0) == 3.0
        assert plan.extra_latency_ms(0, 200.0) == 0.0

    def test_error_probabilities_combine_independently(self):
        plan = self.plan()
        # Two p=0.5 windows: 1 - 0.5*0.5 = 0.75.
        assert plan.error_probability(0, 50.0) == pytest.approx(0.75)
        assert plan.error_probability(0, 150.0) == 0.0
        # A failure window forces certainty.
        assert plan.error_probability(1, 15.0) == 1.0

    def test_service_penalty_combines_slowdown_and_spikes(self):
        plan = self.plan()
        # At t=50: thermal factor 1.5, spikes 5+3.
        assert plan.service_penalty_ms(0, 50.0, 10.0) == \
            pytest.approx(0.5 * 10.0 + 8.0)
        with pytest.raises(ValueError):
            plan.service_penalty_ms(0, 0.0, -1.0)

    def test_for_disk_filters_and_keeps_seed(self):
        sub = self.plan().for_disk(1)
        assert all(f.disk == 1 for f in sub)
        assert len(sub) == 1
        assert sub.seed == 3

    def test_horizon_and_describe(self):
        plan = self.plan()
        assert plan.horizon_ms == 150.0
        lines = plan.describe()
        assert len(lines) == len(plan)
        assert any("disk-failure" in line for line in lines)
        infinite = FaultPlan([DiskFailure(0, 0.0, math.inf)])
        assert infinite.horizon_ms == 0.0

    def test_failure_windows_sorted(self):
        plan = FaultPlan([
            DiskFailure(2, 50.0, 60.0),
            DiskFailure(1, 10.0, 20.0),
        ])
        windows = plan.failure_windows()
        assert [w.start_ms for w in windows] == [10.0, 50.0]
        assert [w.disk for w in plan.failure_windows(2)] == [2]

    def test_rebuild_windows_extend_the_outage(self):
        plan = FaultPlan([DiskFailure(0, 100.0, 200.0)])
        assert plan.rebuild_windows(rebuild_ms=50.0) == [(100.0, 250.0)]
        # Zero tail degenerates to the raw failure window.
        assert plan.rebuild_windows() == [(100.0, 200.0)]

    def test_rebuild_windows_merge_overlapping_episodes(self):
        plan = FaultPlan([
            DiskFailure(0, 100.0, 200.0),
            DiskFailure(1, 240.0, 300.0),  # tail of first reaches this
            DiskFailure(0, 500.0, 600.0),
        ])
        merged = plan.rebuild_windows(rebuild_ms=50.0)
        assert merged == [(100.0, 350.0), (500.0, 650.0)]
        # Per-disk filter sees only that disk's episodes.
        assert plan.rebuild_windows(0, rebuild_ms=50.0) == \
            [(100.0, 250.0), (500.0, 650.0)]

    def test_rebuild_windows_back_to_back_join(self):
        plan = FaultPlan([
            DiskFailure(0, 0.0, 100.0),
            DiskFailure(0, 150.0, 200.0),
        ])
        # 100 + 50 tail touches 150 exactly: one degradation episode.
        assert plan.rebuild_windows(rebuild_ms=50.0) == [(0.0, 250.0)]

    def test_rebuild_windows_negative_tail_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            FaultPlan().rebuild_windows(rebuild_ms=-1.0)


class TestSeededRolls:
    @given(request_id=st.integers(0, 1000), attempt=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_rolls_are_pure_functions_of_their_key(self, request_id,
                                                   attempt):
        plan = FaultPlan([TransientErrors(0, 0.0, 1e6, probability=0.4)],
                         seed=9)
        first = plan.attempt_fails(0, request_id, attempt, 50.0)
        # Same key, any number of interleaved other rolls: same answer.
        plan.attempt_fails(0, request_id + 1, attempt, 50.0)
        assert plan.attempt_fails(0, request_id, attempt, 50.0) == first

    def test_distinct_seeds_give_distinct_rolls(self):
        def rolls(seed):
            plan = FaultPlan(
                [TransientErrors(0, 0.0, 1e6, probability=0.5)],
                seed=seed)
            return [plan.attempt_fails(0, i, 1, 0.0) for i in range(64)]

        assert rolls(1) != rolls(2)

    def test_roll_rate_tracks_probability(self):
        plan = FaultPlan([TransientErrors(0, 0.0, 1e6, probability=0.3)],
                         seed=5)
        hits = sum(plan.attempt_fails(0, i, 1, 0.0) for i in range(2000))
        assert 0.25 < hits / 2000 < 0.35

    def test_extremes_skip_the_rng(self):
        clear = FaultPlan([], seed=1)
        assert not clear.attempt_fails(0, 1, 1, 0.0)
        down = FaultPlan([DiskFailure(0, 0.0, 100.0)], seed=1)
        assert down.attempt_fails(0, 1, 1, 50.0)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_ms=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)

    def test_backoff_grows_geometrically(self):
        policy = RetryPolicy(backoff_ms=10.0, backoff_factor=2.0)
        assert policy.backoff_for(1) == 10.0
        assert policy.backoff_for(2) == 20.0
        assert policy.backoff_for(3) == 40.0
        with pytest.raises(ValueError):
            policy.backoff_for(0)


class TestFaultInjector:
    def test_counters_track_attempts(self):
        plan = FaultPlan([DiskFailure(0, 0.0, 100.0)])
        injector = FaultInjector(plan, policy=RetryPolicy(max_attempts=2))
        assert injector.attempt_fails(0, 1, 1, 50.0)
        injector.note_retry()
        assert injector.attempt_fails(0, 1, 2, 60.0)
        assert injector.exhausted(2)
        injector.note_gave_up()
        counters = injector.counters
        assert counters.injected == 2
        assert counters.retries == 1
        assert counters.gave_up == 1
        assert counters.as_dict()["injected"] == 2

    def test_faulty_service_stretches_service_time(self):
        """Retry aborts/backoffs and penalties surface as a slower
        disk: the request still completes, after paying for every
        attempt (a covering failure window fails all of them)."""
        plan = FaultPlan([
            DiskFailure(0, 0.0, 1.0),
            LatencySpike(0, 0.0, 1e6, extra_ms=7.0),
        ])
        policy = RetryPolicy(max_attempts=3, abort_ms=2.0,
                             backoff_ms=10.0)
        injector = FaultInjector(plan, policy=policy)
        faulty = FaultyService(constant_service(5.0), injector)

        class _Req:
            request_id = 0
            cylinder = 0
            nbytes = 4096

        record = faulty.serve(_Req(), 0.5)
        # base 5 + spike 7 + two aborted retries (abort + backoff each).
        expected_retry_cost = sum(
            policy.abort_ms + policy.backoff_for(k) for k in (1, 2))
        assert record.total_ms == pytest.approx(
            5.0 + 7.0 + expected_retry_cost)
        assert injector.counters.injected == 3
        assert injector.counters.retries == 2
        assert injector.counters.gave_up == 1

    def test_empty_plan_is_transparent(self):
        faulty = FaultyService(constant_service(5.0),
                               FaultInjector(FaultPlan()))

        class _Req:
            request_id = 0
            cylinder = 0
            nbytes = 4096

        record = faulty.serve(_Req(), 0.0)
        assert record.total_ms == pytest.approx(5.0)
        assert faulty.injector.counters == FaultCounters()
