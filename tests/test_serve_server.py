"""The online serving loop: traces, QoS counters, shedding, clocks."""

from __future__ import annotations

import pytest

from repro.schedulers.fcfs import FCFSScheduler
from repro.serve import (
    AlwaysAdmit,
    QoSReporter,
    ReservationAdmission,
    ServerConfig,
    SessionManager,
    StreamSpec,
    StreamingServer,
    VirtualClock,
    WallClock,
)
from repro.sim.service import constant_service

#: stream_period_ms(rate, 64 KB) == 524.288 / rate -- invert it so
#: tests can say "one block every N ms".
def rate_for_period(period_ms: float) -> float:
    return 524.288 / period_ms


def spec(period_ms=100.0, level=2, blocks=5, **kwargs):
    return StreamSpec(rate_mbps=rate_for_period(period_ms),
                      priorities=(level,), blocks=blocks, **kwargs)


def make_server(geometry, *, service_ms=30.0, admission=None,
                config=None, reporter=None, clock=None):
    return StreamingServer(
        FCFSScheduler(),
        constant_service(service_ms),
        SessionManager(geometry, seed=11),
        admission or AlwaysAdmit(),
        clock=clock or VirtualClock(),
        config=config or ServerConfig(),
        reporter=reporter,
    )


class TestServerConfig:
    @pytest.mark.parametrize("field", ("recharacterize_ms",
                                       "degrade_window_ms"))
    @pytest.mark.parametrize("value", (float("nan"), float("inf")))
    def test_non_finite_periods_rejected(self, field, value):
        """A NaN re-key period never fires and a NaN pressure window
        never ages a fault out; both are refused up front."""
        with pytest.raises(ValueError, match=field):
            ServerConfig(**{field: value})


class TestScriptedScenario:
    """Two 5-block streams, 30 ms constant service, no overload."""

    def run_scripted(self, geometry, *, deadline_range=(750.0, 1500.0)):
        server = make_server(geometry)
        server.open_stream(spec(blocks=5,
                                deadline_range_ms=deadline_range))
        server.run_until(50.0)
        server.open_stream(spec(blocks=5, level=4,
                                deadline_range_ms=deadline_range))
        server.quiesce()
        return server

    def test_every_dispatch_exactly_once(self, geometry):
        server = self.run_scripted(geometry)
        dispatch_ids = [e.request_id for e in
                        server.trace.events("dispatch")]
        assert sorted(dispatch_ids) == list(range(10))
        assert len(set(dispatch_ids)) == 10
        assert server.trace.count("dispatch") == 10
        assert server.trace.count("preempt") == 0
        assert server.trace.count("miss") == 0

    def test_counters_reconcile_with_metrics(self, geometry):
        server = self.run_scripted(geometry)
        metrics = server.metrics
        assert server.trace.count("dispatch") == metrics.served == 10
        assert server.trace.count("complete") == metrics.served
        assert metrics.dropped == server.preempted + server.expired == 0
        assert metrics.missed == (server.trace.count("miss")
                                  + server.trace.count("preempt"))
        stats = server.stats()
        assert stats.dispatched == 10
        assert stats.completed == metrics.completed
        assert stats.missed == metrics.missed
        assert stats.queue_length == 0
        # Per-stream accounting matches MetricsCollector's.
        assert {s.stream_id: s.completed for s in stats.streams} == \
            {sid: counts[0]
             for sid, counts in metrics.stream_counts.items()}

    def test_all_misses_traced_once_when_late(self, geometry):
        # Impossible deadlines: every completion is late.
        server = self.run_scripted(geometry, deadline_range=(1.0, 1.0))
        miss_ids = [e.request_id for e in server.trace.events("miss")]
        assert len(miss_ids) == len(set(miss_ids))
        assert server.metrics.missed == (server.trace.count("miss")
                                         + server.trace.count("preempt"))
        # Late-but-served requests still complete.
        assert server.metrics.served + server.metrics.dropped == 10

    def test_stream_jitter_matches_period(self, geometry):
        server = make_server(geometry)
        server.open_stream(spec(period_ms=100.0, blocks=8))
        server.quiesce()
        qos = server.stats().streams[0]
        assert qos.completed == 8
        # Service (30 ms) fits inside the period, so blocks complete
        # once per period: mean gap = period, jitter ~ 0.
        assert qos.mean_gap_ms == pytest.approx(100.0)
        assert qos.jitter_ms == pytest.approx(0.0, abs=1e-9)


class TestAdmissionIntegration:
    def test_rejected_stream_never_enqueues(self, geometry, disk):
        policy = ReservationAdmission(disk, target_utilization=0.01,
                                      downgrade_limit=0.01)
        server = make_server(geometry, admission=policy)
        first, session = server.open_stream(
            spec(period_ms=2000.0, blocks=None)
        )
        assert session is not None
        second, rejected = server.open_stream(
            spec(period_ms=2000.0, blocks=None)
        )
        assert rejected is None
        server.run_until(10_000.0)
        # Only stream 0 exists anywhere: trace, metrics, sessions.
        assert server.manager.active_streams == 1
        streams_seen = {e.stream_id for e in server.trace
                        if e.request_id >= 0}
        assert streams_seen <= {session.stream_id}
        assert set(server.metrics.stream_counts) <= {session.stream_id}
        assert server.rejected == 1
        assert server.trace.count("reject") == 1

    def test_downgraded_stream_runs_at_lowest_level(self, geometry, disk):
        share = ReservationAdmission(disk).reservation_for(
            spec(period_ms=2000.0)
        )
        policy = ReservationAdmission(disk,
                                      target_utilization=share * 1.5,
                                      downgrade_limit=share * 2.5,
                                      priority_levels=8)
        server = make_server(geometry, admission=policy)
        _, full = server.open_stream(spec(period_ms=2000.0, level=2))
        _, degraded = server.open_stream(spec(period_ms=2000.0, level=2))
        assert full.spec.priorities == (2,)
        assert degraded.spec.priorities == (7,)
        assert server.admitted == 1
        assert server.downgraded == 1
        assert server.trace.count("downgrade") == 1


class TestLoadShedding:
    def flood(self, geometry, *, shed_policy, max_queue=3,
              horizon_ms=3000.0):
        config = ServerConfig(max_queue=max_queue,
                              shed_policy=shed_policy)
        server = make_server(geometry, service_ms=100.0, config=config)
        # One rare high-priority stream and four flooding low-priority
        # streams: arrivals (4 / 50 ms) far outrun service (1 / 100 ms).
        server.open_stream(spec(period_ms=1000.0, level=0, blocks=None))
        low_ids = []
        for _ in range(4):
            _, session = server.open_stream(
                spec(period_ms=50.0, level=5, blocks=None)
            )
            low_ids.append(session.stream_id)
        server.run_until(horizon_ms)
        return server, low_ids

    def test_sheds_only_lowest_priority_victims(self, geometry):
        server, low_ids = self.flood(geometry,
                                     shed_policy="lowest-priority")
        preempts = server.trace.events("preempt")
        assert preempts, "overload scenario must shed"
        assert {e.stream_id for e in preempts} <= set(low_ids)
        # The high-priority stream never lost a block to shedding.
        high = server.stats().streams[0]
        assert high.stream_id == 0
        assert high.issued > 0
        shed_ids = {e.request_id for e in preempts}
        dispatched_ids = {e.request_id for e in
                          server.trace.events("dispatch")}
        assert not shed_ids & dispatched_ids

    def test_queue_bound_holds_under_shedding(self, geometry):
        server, _ = self.flood(geometry, shed_policy="lowest-priority")
        assert server.queue_length() <= server.config.max_queue
        assert server.preempted == server.trace.count("preempt")
        assert server.metrics.dropped == server.preempted + server.expired

    def test_backpressure_defers_instead_of_shedding(self, geometry):
        server, _ = self.flood(geometry, shed_policy="none",
                               horizon_ms=1500.0)
        assert server.preempted == 0
        assert server.trace.count("preempt") == 0
        assert server.queue_length() <= server.config.max_queue
        # Deferred blocks stay owed by the sessions.
        assert server.manager.next_due_ms() is not None
        for checkpoint in (1600.0, 1800.0, 2400.0):
            server.run_until(checkpoint)
            assert server.queue_length() <= server.config.max_queue


class TestObservability:
    def test_reporter_ticks_on_virtual_clock(self, geometry):
        lines = []
        reporter = QoSReporter(100.0, lines.append)
        server = make_server(geometry, reporter=reporter)
        server.open_stream(spec(blocks=5))
        server.run_until(1000.0)
        assert reporter.reports == 10
        assert len(lines) == 10
        assert server.trace.count("report") == 10
        assert "streams=" in lines[0]

    def test_stats_snapshot_fields(self, geometry):
        server = make_server(geometry)
        server.open_stream(spec(blocks=2))
        server.quiesce()
        stats = server.stats()
        assert stats.attempts == 1
        assert stats.accepted_streams == 1
        assert stats.active_streams == 0  # retired after exhaustion
        assert server.trace.count("close") == 1
        assert stats.mean_response_ms > 0
        worst = stats.worst_stream()
        assert worst is not None and worst.stream_id == 0

    def test_trace_capacity_bounds_retention_not_counts(self, geometry):
        config = ServerConfig(trace_capacity=4)
        server = make_server(geometry, config=config)
        server.open_stream(spec(blocks=6))
        server.quiesce()
        assert len(server.trace) == 4
        assert server.trace.count("dispatch") == 6


class TestClocks:
    def test_quiesce_refuses_open_ended_sessions(self, geometry):
        server = make_server(geometry)
        server.open_stream(spec(blocks=None))
        with pytest.raises(RuntimeError):
            server.quiesce()

    def test_wall_clock_server_serves(self, geometry):
        server = make_server(geometry, service_ms=0.5,
                             clock=WallClock())
        server.open_stream(spec(period_ms=2.0, blocks=5))
        server.run_until(server.clock.now_ms() + 30.0)
        assert server.dispatched == 5
        assert server.metrics.served == 5
