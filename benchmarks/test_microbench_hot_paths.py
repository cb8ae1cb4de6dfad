"""Micro-benchmarks of the scheduling hot paths.

These are classic pytest-benchmark loops (calibrated, many rounds):
curve index computation, v_c encapsulation, and queue operations are
the per-request costs a production scheduler would pay.  The batch
benchmarks additionally report the measured batch-vs-scalar speedup
via ``benchmark.extra_info`` and assert the fast paths stay
bit-identical to their scalar counterparts.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from repro.core.batch import characterize_batch
from repro.core.config import CascadedSFCConfig
from repro.core.encapsulator import EncodeContext
from repro.core.scheduler import CascadedSFCScheduler
from repro.sfc.lut import clear_lut_cache, curve_lut
from repro.sfc.registry import get_curve
from repro.sfc.vectorized import batch_index
from repro.sim.server import run_simulation
from repro.sim.service import constant_service
from repro.util.priority_queue import IndexedPriorityQueue
from _requests import make_request


@pytest.mark.parametrize("name", ["sweep", "gray", "hilbert", "diagonal",
                                  "spiral"])
def test_curve_index_3d(benchmark, name):
    curve = get_curve(name, 3, 16)
    rng = random.Random(1)
    points = [tuple(rng.randrange(16) for _ in range(3))
              for _ in range(256)]

    def index_batch():
        total = 0
        for point in points:
            total += curve.index(point)
        return total

    assert benchmark(index_batch) > 0


def test_curve_index_12d_hilbert(benchmark):
    curve = get_curve("hilbert", 12, 16)
    rng = random.Random(2)
    points = [tuple(rng.randrange(16) for _ in range(12))
              for _ in range(64)]
    benchmark(lambda: [curve.index(p) for p in points])


def test_characterize_full_cascade(benchmark):
    config = CascadedSFCConfig(priority_dims=3, priority_levels=8)
    scheduler = CascadedSFCScheduler(config, cylinders=3832)
    rng = random.Random(3)
    requests = [
        make_request(
            request_id=i,
            cylinder=rng.randrange(3832),
            deadline_ms=rng.uniform(100, 1000),
            priorities=tuple(rng.randrange(8) for _ in range(3)),
        )
        for i in range(256)
    ]

    def characterize_batch():
        return [scheduler.characterize(r, 0.0, 0) for r in requests]

    values = benchmark(characterize_batch)
    assert len(values) == 256


def test_priority_queue_churn(benchmark):
    rng = random.Random(4)
    keys = list(range(512))

    def churn():
        queue: IndexedPriorityQueue[int] = IndexedPriorityQueue()
        for key in keys:
            queue.push(key, rng.random())
        for _ in range(256):
            queue.pop()
        for key in keys[:128]:
            queue.push(key, rng.random())
        while queue:
            queue.pop()

    benchmark(churn)


@pytest.mark.parametrize("name", ["spiral", "diagonal"])
def test_curve_batch_lut(benchmark, name):
    """LUT-backed batch_index on the scalar-fallback curves."""
    curve = get_curve(name, 3, 16)
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 16, size=(4096, 3), dtype=np.uint64)
    clear_lut_cache()
    assert curve_lut(curve) is not None

    out = benchmark(lambda: batch_index(curve, pts))
    scalar = [curve.index(tuple(int(v) for v in row)) for row in pts[:64]]
    assert out[:64].tolist() == scalar


def test_characterize_batch_vs_scalar(benchmark):
    """Vectorized characterize_batch; extra_info carries the speedup."""
    config = CascadedSFCConfig(priority_dims=3, priority_levels=8,
                               sfc1="spiral")
    scheduler = CascadedSFCScheduler(config, cylinders=3832)
    rng = random.Random(6)
    requests = [
        make_request(
            request_id=i,
            cylinder=rng.randrange(3832),
            deadline_ms=rng.uniform(100, 1000),
            priorities=tuple(rng.randrange(8) for _ in range(3)),
        )
        for i in range(2048)
    ]
    ctx = EncodeContext(now_ms=0.0, head_cylinder=0)
    encapsulator = scheduler.encapsulator

    started = time.perf_counter()
    scalar = [encapsulator.characterize(r, ctx) for r in requests]
    scalar_s = time.perf_counter() - started

    started = time.perf_counter()
    batch_once = characterize_batch(encapsulator, requests, ctx)
    batch_s = time.perf_counter() - started
    assert batch_once.tolist() == scalar

    values = benchmark(
        lambda: characterize_batch(encapsulator, requests, ctx)
    )
    assert values.tolist() == scalar
    benchmark.extra_info["scalar_s"] = scalar_s
    benchmark.extra_info["speedup_vs_scalar"] = (
        scalar_s / batch_s if batch_s > 0 else float("inf")
    )


def test_recharacterize_queue(benchmark):
    """Bulk re-key of a loaded scheduler queue to a later instant."""
    config = CascadedSFCConfig(priority_dims=3, priority_levels=8,
                               sfc1="spiral")
    rng = random.Random(7)
    requests = [
        make_request(
            request_id=i,
            arrival_ms=float(i),
            cylinder=rng.randrange(3832),
            deadline_ms=float(i) + rng.uniform(100, 1000),
            priorities=tuple(rng.randrange(8) for _ in range(3)),
        )
        for i in range(2048)
    ]

    def rekey():
        scheduler = CascadedSFCScheduler(config, cylinders=3832)
        scheduler.submit_batch(requests, 0.0, 0)
        return scheduler.recharacterize(5_000.0, 1700)

    assert benchmark(rekey) > 0


def test_end_to_end_run_simulation(once):
    """Wall clock of one full simulator run on the stock fast path."""
    config = CascadedSFCConfig(priority_dims=3, priority_levels=8,
                               sfc1="spiral")
    rng = random.Random(8)
    requests = [
        make_request(
            request_id=i,
            arrival_ms=i * 2.0,
            cylinder=rng.randrange(3832),
            deadline_ms=i * 2.0 + rng.uniform(100, 1000),
            priorities=tuple(rng.randrange(8) for _ in range(3)),
        )
        for i in range(2000)
    ]

    def simulate():
        scheduler = CascadedSFCScheduler(config, cylinders=3832)
        return run_simulation(requests, scheduler, constant_service(1.5),
                              priority_levels=8)

    result = once(simulate)
    assert result.metrics.completed == 2000
