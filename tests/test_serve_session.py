"""Stream sessions: periodic feeds, deterministic ids and deadlines."""

from __future__ import annotations

import pytest

from repro.serve.session import SessionManager, StreamSpec
from repro.workloads.multimedia import stream_period_ms


def spec(rate=0.375, **kwargs):
    kwargs.setdefault("priorities", (2,))
    return StreamSpec(rate_mbps=rate, **kwargs)


class TestStreamSpec:
    def test_period_matches_workload_helper(self):
        s = spec(rate=1.5)
        assert s.period_ms == pytest.approx(
            stream_period_ms(1.5, s.block_bytes)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            spec(rate=0.0)
        with pytest.raises(ValueError):
            spec(blocks=0)
        with pytest.raises(ValueError):
            spec(deadline_range_ms=(100.0, 50.0))
        with pytest.raises(ValueError):
            spec(priorities=(-1,))

    @pytest.mark.parametrize("rate", (float("inf"), float("nan")))
    def test_non_finite_rate_rejected(self, rate):
        """An infinite rate has a zero period (one session due forever
        at one instant); a NaN rate is due never."""
        with pytest.raises(ValueError, match="rate_mbps"):
            spec(rate=rate)

    @pytest.mark.parametrize("window", (
        (float("nan"), 10.0), (10.0, float("nan")),
        (10.0, float("inf")), (float("-inf"), 10.0)))
    def test_non_finite_deadline_range_rejected(self, window):
        with pytest.raises(ValueError, match="deadline_range_ms"):
            spec(deadline_range_ms=window)

    def test_with_priorities(self):
        assert spec().with_priorities((7,)).priorities == (7,)


class TestStreamSession:
    def test_due_sequence_is_periodic(self, geometry):
        manager = SessionManager(geometry, seed=1)
        session = manager.open(spec(blocks=3), now_ms=100.0)
        period = session.period_ms
        dues = []
        while not session.exhausted:
            dues.append(session.next_due_ms)
            session.issue(len(dues))
        assert dues == pytest.approx([100.0, 100.0 + period,
                                      100.0 + 2 * period])
        assert session.next_due_ms is None

    def test_deadlines_within_range_and_deterministic(self, geometry):
        def issue_all(seed):
            manager = SessionManager(geometry, seed=seed)
            manager.open(spec(blocks=5,
                              deadline_range_ms=(750.0, 1500.0)), 0.0)
            return manager.materialize(until_ms=1e7)

        first = issue_all(42)
        again = issue_all(42)
        other = issue_all(43)
        assert first == again
        assert [r.deadline_ms for r in first] != \
            [r.deadline_ms for r in other]
        for request in first:
            assert 750.0 <= request.deadline_ms - request.arrival_ms \
                <= 1500.0

    def test_close_stops_issuing(self, geometry):
        manager = SessionManager(geometry, seed=0)
        session = manager.open(spec(blocks=None), 0.0)
        manager.close(session.stream_id, 10.0)
        assert session.exhausted
        assert manager.poll(1e6) == []
        assert manager.active_streams == 0
        assert session.stream_id in manager.closed

    def test_live_stream_wraps_disk(self, geometry):
        manager = SessionManager(geometry, seed=0)
        max_block = geometry.capacity_bytes // spec().block_bytes - 1
        session = manager.open(
            spec(blocks=None, start_block=max_block), 0.0
        )
        first = session.issue(0)
        second = session.issue(1)
        # Wrapped around: the second block is back at the disk start.
        assert first.cylinder >= second.cylinder


class TestSessionManager:
    def test_poll_orders_by_due_then_stream(self, geometry):
        manager = SessionManager(geometry, seed=0)
        manager.open(spec(blocks=4), 5.0)   # stream 0: due 5, 5+p, ...
        manager.open(spec(blocks=4), 0.0)   # stream 1: due 0, p, ...
        requests = manager.poll(now_ms=3000.0)
        keys = [(r.arrival_ms, r.stream_id) for r in requests]
        assert keys == sorted(keys)
        assert [r.request_id for r in requests] == list(range(len(keys)))

    def test_lagging_session_interleaves_correctly(self, geometry):
        manager = SessionManager(geometry, seed=0)
        a = manager.open(spec(blocks=10), 0.0)
        period = a.period_ms
        # Open b mid-way through a's schedule; poll late so both have
        # several due blocks queued up.
        manager.open(spec(blocks=10), 0.6 * period)
        requests = manager.poll(now_ms=3.5 * period)
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)

    def test_poll_limit_defers_rest(self, geometry):
        manager = SessionManager(geometry, seed=0)
        manager.open(spec(blocks=6), 0.0)
        horizon = 6 * spec().period_ms
        taken = manager.poll(horizon, limit=2)
        assert len(taken) == 2
        rest = manager.poll(horizon)
        assert len(rest) == 4
        assert [r.request_id for r in taken + rest] == list(range(6))

    def test_materialize_equals_repeated_polls(self, geometry):
        horizon = 10 * spec().period_ms

        live = SessionManager(geometry, seed=9)
        live.open(spec(blocks=8), 0.0)
        live.open(spec(blocks=None), 100.0)
        polled = []
        for step in range(1, 101):
            polled.extend(live.poll(horizon * step / 100))

        offline = SessionManager(geometry, seed=9)
        offline.open(spec(blocks=8), 0.0)
        offline.open(spec(blocks=None), 100.0)
        assert offline.materialize(horizon) == polled

    def test_retire_exhausted(self, geometry):
        manager = SessionManager(geometry, seed=0)
        session = manager.open(spec(blocks=1), 0.0)
        manager.poll(1.0)
        done = manager.retire_exhausted(2.0)
        assert [s.stream_id for s in done] == [session.stream_id]
        assert manager.active_streams == 0
        assert manager.next_due_ms() is None
