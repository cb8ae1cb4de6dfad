"""Differential tests for the hot-path fast tiers.

Each optimized path is pinned bit-for-bit against the slow path it
replaces, on hypothesis-generated inputs:

* **LUT tier**: for curves without an analytic vectorized path
  (spiral, diagonal, peano, and transform compositions),
  :func:`~repro.sfc.vectorized.batch_index` through the curve's table
  must equal the scalar ``curve.index`` loop.
* **Bulk re-key**: ``rekey_batch`` / ``push_batch`` must produce the
  same pop order (including FIFO tie-breaks) as the equivalent
  ``remove`` + ``push`` sequence.
* **Incremental re-characterization**:
  :meth:`~repro.core.scheduler.CascadedSFCScheduler.recharacterize`
  must leave every pending request at exactly the v_c a from-scratch
  resubmission at the same instant would give it, for every
  dispatcher.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import CascadedSFCConfig
from repro.core.request import DiskRequest
from repro.core.scheduler import CascadedSFCScheduler
from repro.sfc import get_curve
from repro.sfc.lut import clear_lut_cache, curve_lut, lut_gather
from repro.sfc.transforms import PermutedCurve, ReflectedCurve
from repro.sfc.vectorized import batch_index, has_vectorized_path
from repro.util.priority_queue import IndexedPriorityQueue

# -- LUT vs scalar index ---------------------------------------------------

#: (factory, dims, side) for every LUT-tier curve family.
LUT_CASES = {
    "spiral": (lambda d, s: get_curve("spiral", d, s), [(2, 7), (2, 12)]),
    "diagonal": (lambda d, s: get_curve("diagonal", d, s),
                 [(2, 7), (3, 5), (2, 12)]),
    "peano": (lambda d, s: get_curve("peano", d, s), [(2, 3), (2, 9)]),
    "reflected-sweep": (lambda d, s: ReflectedCurve(
        get_curve("sweep", d, s), [0]), [(2, 7), (3, 5)]),
    "permuted-spiral": (lambda d, s: PermutedCurve(
        get_curve("spiral", d, s), list(range(d))[::-1]),
        [(2, 7), (2, 9)]),
}


@pytest.mark.parametrize("name", sorted(LUT_CASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_lut_matches_scalar_index(name, data):
    """LUT gather == scalar index on curves without an analytic path."""
    factory, geometries = LUT_CASES[name]
    dims, side = data.draw(st.sampled_from(geometries), label="geometry")
    curve = factory(dims, side)
    assert not has_vectorized_path(curve)
    point = st.tuples(*(st.integers(0, side - 1) for _ in range(dims)))
    points = data.draw(st.lists(point, min_size=1, max_size=64),
                       label="points")
    clear_lut_cache()
    lut = curve_lut(curve)
    assert lut is not None
    gathered = lut_gather(lut, curve, np.array(points, dtype=np.uint64))
    scalar = [curve.index(p) for p in points]
    assert gathered.tolist() == scalar


@pytest.mark.parametrize("name", sorted(LUT_CASES))
def test_batch_index_uses_lut_when_amortized(name):
    """batch_index picks up the cached LUT and stays bit-identical."""
    factory, geometries = LUT_CASES[name]
    dims, side = geometries[0]
    curve = factory(dims, side)
    clear_lut_cache()
    assert curve_lut(curve) is not None
    rng = np.random.default_rng(7)
    pts = rng.integers(0, side, size=(100, dims), dtype=np.uint64)
    batched = batch_index(curve, pts)
    scalar = [curve.index(tuple(int(v) for v in row)) for row in pts]
    assert batched.tolist() == scalar


# -- bulk queue updates vs remove+push ------------------------------------

_priorities = st.floats(allow_nan=False, allow_infinity=False,
                        min_value=-1e9, max_value=1e9)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_rekey_batch_matches_remove_push(data):
    """Same pop order as the per-item idiom, FIFO ties included."""
    size = data.draw(st.integers(1, 40), label="size")
    initial = data.draw(
        st.lists(_priorities, min_size=size, max_size=size),
        label="initial",
    )
    rekeys = data.draw(
        st.lists(st.tuples(st.integers(0, size - 1), _priorities),
                 max_size=40),
        label="rekeys",
    )
    bulk: IndexedPriorityQueue[int] = IndexedPriorityQueue()
    naive: IndexedPriorityQueue[int] = IndexedPriorityQueue()
    for item, priority in enumerate(initial):
        bulk.push(item, priority)
        naive.push(item, priority)
    bulk.rekey_batch(rekeys)
    for item, priority in rekeys:
        naive.remove(item)
        naive.push(item, priority)
    assert len(bulk) == len(naive)
    bulk_order = [bulk.pop() for _ in range(len(bulk))]
    naive_order = [naive.pop() for _ in range(len(naive))]
    assert bulk_order == naive_order


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_push_batch_matches_sequential_push(data):
    """push_batch == per-item push, including replacements and ties."""
    pairs = data.draw(
        st.lists(st.tuples(st.integers(0, 15),
                           st.sampled_from([0.0, 1.0, 2.0, 3.0])),
                 max_size=60),
        label="pairs",
    )
    bulk: IndexedPriorityQueue[int] = IndexedPriorityQueue()
    naive: IndexedPriorityQueue[int] = IndexedPriorityQueue()
    bulk.push_batch(pairs)
    for item, priority in pairs:
        naive.push(item, priority)
    bulk_order = [bulk.pop() for _ in range(len(bulk))]
    naive_order = [naive.pop() for _ in range(len(naive))]
    assert bulk_order == naive_order


def test_rekey_batch_requires_presence():
    queue: IndexedPriorityQueue[int] = IndexedPriorityQueue()
    queue.push(1, 5.0)
    with pytest.raises(KeyError):
        queue.rekey_batch([(1, 1.0), (2, 2.0)])
    # Atomic: the failed call left the queue untouched.
    assert queue.priority_of(1) == 5.0


# -- incremental recharacterize vs from-scratch ---------------------------

_DISPATCHERS = ("conditional", "full", "non")


def _request(request_id: int, now: float, dims: int, levels: int,
             cylinder: int, deadline_offset: float | None,
             priorities: tuple[int, ...]) -> DiskRequest:
    return DiskRequest(
        request_id=request_id,
        arrival_ms=now,
        cylinder=cylinder,
        nbytes=65536,
        deadline_ms=(math.inf if deadline_offset is None
                     else now + deadline_offset),
        priorities=priorities,
    )


@pytest.mark.parametrize("dispatcher", _DISPATCHERS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_recharacterize_matches_from_scratch(dispatcher, data):
    """After recharacterize, every v_c equals a fresh submission's."""
    dims, levels = 2, 8
    sfc1 = data.draw(st.sampled_from(("hilbert", "spiral")), label="sfc1")
    config = CascadedSFCConfig(priority_dims=dims, priority_levels=levels,
                               sfc1=sfc1, dispatcher=dispatcher)
    scheduler = CascadedSFCScheduler(config, cylinders=512)
    count = data.draw(st.integers(1, 24), label="count")
    for i in range(count):
        request = _request(
            i, float(i), dims, levels,
            cylinder=data.draw(st.integers(0, 511), label=f"cyl{i}"),
            deadline_offset=data.draw(
                st.one_of(st.none(), st.floats(1.0, 2000.0)),
                label=f"dl{i}",
            ),
            priorities=tuple(
                data.draw(st.integers(0, levels - 1), label=f"p{i}{d}")
                for d in range(dims)
            ),
        )
        scheduler.submit(request, float(i), i % 512)
    pops = data.draw(st.integers(0, count // 2), label="pops")
    for _ in range(pops):
        scheduler.next_request(float(count), 100)
    now, head = float(count) + 500.0, 42
    scheduler.recharacterize(now, head)
    for request in scheduler.pending():
        assert (scheduler.dispatcher.vc_of(request)
                == scheduler.characterize(request, now, head))
    # Idempotence: nothing left to re-key at the same instant.
    assert scheduler.recharacterize(now, head) == 0
