"""Integration tests for the disk-server simulation loop."""

from __future__ import annotations

import math

import pytest

from repro.schedulers.edf import EDFScheduler
from repro.schedulers.fcfs import FCFSScheduler
from repro.schedulers.sstf import SSTFScheduler
from repro.sim.server import run_simulation
from repro.sim.service import (
    DiskService,
    SyntheticService,
    constant_service,
    priority_scaled_service,
)
from tests.conftest import make_request


def order_probe():
    """A service model that records the order requests are served in."""
    served = []

    def time_fn(request):
        served.append(request.request_id)
        return 10.0

    return SyntheticService(time_fn), served


class TestServiceModels:
    def test_constant_service(self):
        service = constant_service(25.0)
        record = service.serve(make_request(cylinder=7), 0.0)
        assert record.total_ms == 25.0
        assert record.seek_ms == 0.0
        assert service.head_cylinder == 7

    def test_priority_scaled_service(self):
        service = priority_scaled_service(10.0, 5.0)
        fast = service.serve(make_request(priorities=(0,)), 0.0)
        slow = service.serve(make_request(priorities=(4,)), 0.0)
        assert fast.total_ms == 10.0
        assert slow.total_ms == 30.0

    def test_negative_time_rejected(self):
        service = SyntheticService(lambda request: -1.0)
        with pytest.raises(ValueError):
            service.serve(make_request(), 0.0)

    def test_disk_service_delegates(self, disk):
        service = DiskService(disk)
        record = service.serve(make_request(cylinder=500, nbytes=4096), 0.0)
        assert record.total_ms > 0
        assert service.head_cylinder == 500


class TestRunSimulation:
    def test_fcfs_serves_in_arrival_order(self):
        requests = [
            make_request(request_id=i, arrival_ms=i * 1.0, priorities=(0,))
            for i in range(5)
        ]
        service, served = order_probe()
        result = run_simulation(requests, FCFSScheduler(), service)
        assert served == [0, 1, 2, 3, 4]
        assert result.submitted == 5
        assert result.unserved == 0

    def test_edf_reorders_backlog(self):
        # All arrive while request 0 is being served; EDF picks by
        # deadline among the backlog.
        requests = [
            make_request(request_id=0, arrival_ms=0.0, deadline_ms=1e9,
                         priorities=(0,)),
            make_request(request_id=1, arrival_ms=1.0, deadline_ms=500.0,
                         priorities=(0,)),
            make_request(request_id=2, arrival_ms=2.0, deadline_ms=100.0,
                         priorities=(0,)),
        ]
        service, served = order_probe()
        run_simulation(requests, EDFScheduler(), service)
        assert served == [0, 2, 1]

    def test_sstf_uses_head_position(self, disk):
        requests = [
            make_request(request_id=0, arrival_ms=0.0, cylinder=0,
                         nbytes=512, priorities=(0,)),
            make_request(request_id=1, arrival_ms=1.0, cylinder=3000,
                         nbytes=512, priorities=(0,)),
            make_request(request_id=2, arrival_ms=2.0, cylinder=100,
                         nbytes=512, priorities=(0,)),
        ]
        result = run_simulation(requests, SSTFScheduler(),
                                DiskService(disk))
        # Head is near 0 after request 0; cylinder 100 beats 3000.
        assert result.metrics.seek_ms < disk.seek_model.max_seek_ms * 2

    def test_deadline_miss_counted(self):
        requests = [
            make_request(request_id=0, arrival_ms=0.0, deadline_ms=5.0,
                         priorities=(0,)),
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0))
        assert result.metrics.missed == 1

    def test_drop_expired_frees_capacity(self):
        # Request 1's deadline passes while request 0 is served; with
        # drop_expired it is discarded and consumes no disk time.
        requests = [
            make_request(request_id=0, arrival_ms=0.0, deadline_ms=1e9,
                         priorities=(0,)),
            make_request(request_id=1, arrival_ms=0.5, deadline_ms=2.0,
                         priorities=(0,)),
            make_request(request_id=2, arrival_ms=1.0, deadline_ms=1e9,
                         priorities=(0,)),
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0),
                                drop_expired=True)
        assert result.metrics.dropped == 1
        assert result.metrics.served == 2
        assert result.metrics.makespan_ms == pytest.approx(20.0)

    def test_without_drop_late_requests_still_served(self):
        requests = [
            make_request(request_id=0, arrival_ms=0.0, deadline_ms=1e9,
                         priorities=(0,)),
            make_request(request_id=1, arrival_ms=0.5, deadline_ms=2.0,
                         priorities=(0,)),
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0))
        assert result.metrics.served == 2
        assert result.metrics.missed == 1

    def test_stop_at_reports_unserved(self):
        requests = [
            make_request(request_id=i, arrival_ms=0.0, priorities=(0,))
            for i in range(10)
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0), stop_at_ms=35.0)
        assert result.unserved > 0
        assert result.unserved + result.metrics.completed == 10

    def test_stop_counts_in_flight_and_future_arrivals_unserved(self):
        # One arrival every 10 ms, 15 ms services, stop at 42 ms: two
        # served, one in flight, two queued, five never arrived.
        requests = [
            make_request(request_id=i, arrival_ms=10.0 * i, priorities=(0,))
            for i in range(10)
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(15.0), stop_at_ms=42.0)
        assert result.submitted == 10
        assert result.metrics.served == 2
        assert result.metrics.dropped == 0
        assert result.unserved == 8

    def test_priority_dims_inferred(self):
        requests = [make_request(request_id=0, priorities=(1, 2, 3))]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(1.0))
        assert result.metrics.priority_dims == 3

    def test_priority_dims_mismatch_rejected(self):
        requests = [
            make_request(request_id=0, priorities=(1,)),
            make_request(request_id=1, priorities=(1, 2)),
        ]
        with pytest.raises(ValueError):
            run_simulation(requests, FCFSScheduler(), constant_service(1.0))

    def test_nan_arrival_rejected(self):
        requests = [make_request(request_id=0, arrival_ms=1.0),
                    make_request(request_id=1, arrival_ms=math.nan)]
        with pytest.raises(ValueError, match="request 1 has a NaN"):
            run_simulation(requests, FCFSScheduler(), constant_service(1.0))

    def test_empty_workload(self):
        result = run_simulation([], FCFSScheduler(), constant_service(1.0))
        assert result.submitted == 0
        assert result.metrics.completed == 0

    def test_idle_gap_between_arrivals(self):
        requests = [
            make_request(request_id=0, arrival_ms=0.0, priorities=(0,)),
            make_request(request_id=1, arrival_ms=1000.0, priorities=(0,)),
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0))
        assert result.metrics.makespan_ms == pytest.approx(1010.0)

    def test_inversions_counted_against_waiting_queue(self):
        # Low-priority request served while a high-priority one waits.
        requests = [
            make_request(request_id=0, arrival_ms=0.0, priorities=(5,)),
            make_request(request_id=1, arrival_ms=1.0, priorities=(5,)),
            make_request(request_id=2, arrival_ms=2.0, priorities=(0,)),
        ]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(10.0))
        # Request 1 dispatched while request 2 (higher priority) waits.
        assert result.metrics.total_inversions == 1

    def test_result_properties(self):
        requests = [make_request(request_id=0, priorities=(0,))]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(1.0))
        assert result.scheduler_name == "fcfs"
        assert result.inversions == 0
        assert result.misses == 0
        assert result.seek_ms == 0.0

    def test_negative_arrival_clamped(self):
        requests = [make_request(request_id=0, arrival_ms=-5.0,
                                 priorities=(0,))]
        result = run_simulation(requests, FCFSScheduler(),
                                constant_service(1.0))
        assert result.metrics.completed == 1

    def test_deterministic_across_runs(self):
        requests = [
            make_request(request_id=i, arrival_ms=i * 3.0,
                         cylinder=(i * 997) % 3832, nbytes=4096,
                         deadline_ms=i * 3.0 + 50.0, priorities=(i % 4,))
            for i in range(50)
        ]

        def run_once():
            from repro.disk.disk import make_xp32150_disk
            disk = make_xp32150_disk()
            disk.reset(0)
            return run_simulation(requests, EDFScheduler(),
                                  DiskService(disk))

        a, b = run_once(), run_once()
        assert a.metrics.seek_ms == b.metrics.seek_ms
        assert a.metrics.missed == b.metrics.missed
        assert a.metrics.total_inversions == b.metrics.total_inversions
