"""Tests for the workload generators."""

from __future__ import annotations

import math

import pytest

from repro.workloads.base import merge_workloads, offered_load_summary
from repro.workloads.editing import (
    EditDecisionList,
    EditingWorkload,
    EdlSegment,
    random_edl,
)
from repro.workloads.multimedia import (
    VideoServerWorkload,
    normal_priority_level,
    stream_period_ms,
)
from repro.workloads.poisson import PoissonWorkload
from repro.sim.rng import derive, exponential_interarrivals
from tests.conftest import make_request


class TestRng:
    def test_derive_is_stable(self):
        a = derive(42, "arrivals").random()
        b = derive(42, "arrivals").random()
        assert a == b

    def test_derive_streams_independent(self):
        a = derive(42, "arrivals").random()
        b = derive(42, "priorities").random()
        assert a != b

    def test_exponential_interarrivals(self):
        rng = derive(1, "x")
        arrivals = exponential_interarrivals(rng, 100.0, 1000)
        assert len(arrivals) == 1000
        assert arrivals == sorted(arrivals)
        mean_gap = arrivals[-1] / len(arrivals)
        assert mean_gap == pytest.approx(100.0, rel=0.15)

    def test_exponential_validation(self):
        rng = derive(1, "x")
        with pytest.raises(ValueError):
            exponential_interarrivals(rng, 0.0, 10)
        with pytest.raises(ValueError):
            exponential_interarrivals(rng, 10.0, -1)


class TestPoissonWorkload:
    def test_reproducible(self):
        workload = PoissonWorkload(count=100)
        assert workload.generate(7) == workload.generate(7)

    def test_different_seeds_differ(self):
        workload = PoissonWorkload(count=100)
        assert workload.generate(7) != workload.generate(8)

    def test_shapes(self):
        workload = PoissonWorkload(count=50, priority_dims=4,
                                   priority_levels=16)
        requests = workload.generate(1)
        assert len(requests) == 50
        for r in requests:
            assert len(r.priorities) == 4
            assert all(0 <= p < 16 for p in r.priorities)
            assert 0 <= r.cylinder < 3832
            assert 500.0 <= r.deadline_ms - r.arrival_ms <= 700.0

    def test_relaxed_deadlines(self):
        workload = PoissonWorkload(count=20, deadline_range_ms=None)
        assert all(math.isinf(r.deadline_ms)
                   for r in workload.generate(1))

    def test_arrival_order_and_unique_ids(self):
        requests = PoissonWorkload(count=200).generate(3)
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)
        assert len({r.request_id for r in requests}) == 200

    def test_write_fraction(self):
        none = PoissonWorkload(count=100, write_fraction=0.0).generate(1)
        all_w = PoissonWorkload(count=100, write_fraction=1.0).generate(1)
        assert not any(r.is_write for r in none)
        assert all(r.is_write for r in all_w)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonWorkload(mean_interarrival_ms=0.0)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                PoissonWorkload(mean_interarrival_ms=bad)
        with pytest.raises(ValueError):
            PoissonWorkload(deadline_range_ms=(0.0, 10.0))
        with pytest.raises(ValueError):
            PoissonWorkload(write_fraction=2.0)


class TestMultimedia:
    def test_stream_period(self):
        # 64 KB at 1.5 Mbps lasts ~349.5 ms.
        assert stream_period_ms(1.5) == pytest.approx(349.5, abs=0.5)
        with pytest.raises(ValueError):
            stream_period_ms(0.0)

    def test_normal_priority_levels_in_range(self):
        rng = derive(5, "levels")
        levels = [normal_priority_level(rng, 8) for _ in range(500)]
        assert all(0 <= level < 8 for level in levels)
        # Mid levels dominate under a centred normal.
        mid = sum(1 for level in levels if level in (3, 4))
        assert mid > len(levels) * 0.4

    def test_video_server_workload(self, geometry):
        workload = VideoServerWorkload(users=10, blocks_per_user=5)
        requests = workload.generate_streams(1, geometry)
        assert len(requests) == 50
        assert len({r.request_id for r in requests}) == 50
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)
        for r in requests:
            assert 750.0 <= r.deadline_ms - r.arrival_ms <= 1500.0
            assert 0 <= r.cylinder < geometry.cylinders

    def test_streams_are_sequential_on_disk(self, geometry):
        workload = VideoServerWorkload(users=3, blocks_per_user=10,
                                       burst_ms=0.0)
        requests = workload.generate_streams(2, geometry)
        by_stream: dict[int, list[int]] = {}
        for r in sorted(requests, key=lambda r: r.arrival_ms):
            by_stream.setdefault(r.stream_id, []).append(r.cylinder)
        for cylinders in by_stream.values():
            assert cylinders == sorted(cylinders)

    def test_raid_member_sees_reduced_rate(self, geometry):
        workload = VideoServerWorkload(users=4, blocks_per_user=6,
                                       burst_ms=0.0, raid_data_disks=4)
        requests = workload.generate_streams(3, geometry)
        one = [r for r in requests if r.stream_id == 0]
        gaps = [b.arrival_ms - a.arrival_ms for a, b in zip(one, one[1:])]
        assert min(gaps) == pytest.approx(4 * stream_period_ms(1.5),
                                          rel=0.01)

    def test_burst_quantization(self, geometry):
        workload = VideoServerWorkload(users=5, blocks_per_user=4,
                                       burst_ms=100.0)
        requests = workload.generate_streams(4, geometry)
        assert all(r.arrival_ms % 100.0 == 0.0 for r in requests)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoServerWorkload(users=0)
        with pytest.raises(ValueError):
            VideoServerWorkload(write_fraction=-0.1)


class TestEditing:
    def test_edl_block_sequence(self):
        edl = EditDecisionList((EdlSegment(10, 3), EdlSegment(100, 2)))
        assert edl.block_sequence() == [10, 11, 12, 100, 101]
        assert edl.total_blocks == 5

    def test_edl_validation(self):
        with pytest.raises(ValueError):
            EdlSegment(-1, 5)
        with pytest.raises(ValueError):
            EdlSegment(0, 0)

    def test_random_edl(self):
        rng = derive(9, "edl")
        edl = random_edl(rng, max_block=1000, segments=5)
        assert len(edl.segments) == 5
        assert all(s.start_block + s.blocks <= 1020 for s in edl.segments)

    def test_editing_workload_mix(self, geometry):
        workload = EditingWorkload(av_users=4, ftp_users=2,
                                   archive_users=1)
        requests = workload.generate(1, geometry)
        assert requests
        # FTP requests are large, relaxed-deadline, lowest priority.
        ftp = [r for r in requests if math.isinf(r.deadline_ms)]
        assert ftp
        assert all(r.priorities == (7, 7, 7) for r in ftp)
        assert all(r.nbytes > 64 * 1024 for r in ftp)
        # AV requests are single blocks with tight deadlines.
        av = [r for r in requests
              if r.nbytes == 64 * 1024 and r.has_deadline]
        assert av
        # Arrival-sorted, unique ids.
        arrivals = [r.arrival_ms for r in requests]
        assert arrivals == sorted(arrivals)
        assert len({r.request_id for r in requests}) == len(requests)

    def test_editing_reproducible(self, geometry):
        workload = EditingWorkload(av_users=2, ftp_users=1,
                                   archive_users=1)
        assert workload.generate(5, geometry) == workload.generate(
            5, geometry
        )

    def test_editing_has_writes(self, geometry):
        workload = EditingWorkload(av_users=10, record_fraction=1.0)
        requests = workload.generate(1, geometry)
        assert any(r.is_write for r in requests)


class TestComposition:
    def test_merge_renumbers(self):
        a = [make_request(request_id=0, arrival_ms=5.0)]
        b = [make_request(request_id=0, arrival_ms=1.0)]
        merged = merge_workloads([a, b])
        assert [r.request_id for r in merged] == [0, 1]
        assert merged[0].arrival_ms == 1.0

    def test_offered_load_summary(self):
        requests = [
            make_request(request_id=0, arrival_ms=0.0, nbytes=100),
            make_request(request_id=1, arrival_ms=10.0, nbytes=200),
        ]
        summary = offered_load_summary(requests)
        assert summary["count"] == 2
        assert summary["duration_ms"] == 10.0
        assert summary["bytes_total"] == 300.0

    def test_offered_load_empty(self):
        assert offered_load_summary([])["count"] == 0
