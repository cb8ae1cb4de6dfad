"""Property tests (hypothesis) for cluster stream placement.

The consistent-hash ring carries the cluster's scalability story, so
its two defining properties are pinned directly:

* **balance** — over 16 arrays with the default virtual-node count,
  the most loaded array stays within a constant factor of the mean,
* **minimal churn** — an array joining (leaving) moves only the
  streams it gains (owned), bounded by roughly ``S/N``.
"""

from __future__ import annotations

import bisect

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.cluster import (
    ConsistentHashPlacement,
    LeastReservedPlacement,
    make_placement,
    stable_hash,
)

from .legacy_oracle import ArrayLoad, prefer

ARRAYS = 16
#: Max/mean load-ratio ceiling at 128 virtual nodes per array.
BALANCE_BOUND = 2.0
#: Churn slack over the ideal S/N expectation.
CHURN_SLACK = 2.5

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def _assignments(ring: ConsistentHashPlacement, streams: int
                 ) -> dict[int, int]:
    return {key: ring.first_choice(key) for key in range(streams)}


class TestRingBalance:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_balance_across_16_arrays(self, seed):
        """Max per-array share stays within BALANCE_BOUND x mean."""
        ring = ConsistentHashPlacement(range(ARRAYS), seed=seed)
        counts = dict.fromkeys(range(ARRAYS), 0)
        streams = 2000
        for key, owner in _assignments(ring, streams).items():
            counts[owner] += 1
        mean = streams / ARRAYS
        assert max(counts.values()) <= BALANCE_BOUND * mean
        # Every array owns something at this population.
        assert min(counts.values()) > 0

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_prefer_is_a_permutation(self, seed):
        """candidates() yields every member exactly once, in the
        oracle's full-walk preference order."""
        ring = ConsistentHashPlacement(range(ARRAYS), seed=seed)
        loads = [ArrayLoad(i, 0.0, 0.85) for i in range(ARRAYS)]
        for key in range(50):
            order = tuple(ring.candidates(key))
            assert sorted(order) == list(range(ARRAYS))
            assert order[0] == ring.first_choice(key)
            assert order == prefer(ring, key, loads)


class TestRingChurn:
    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_join_moves_only_onto_new_array(self, seed):
        """A join steals ~S/(N+1) streams, all onto the new array."""
        ring = ConsistentHashPlacement(range(ARRAYS), seed=seed)
        streams = 1000
        before = _assignments(ring, streams)
        ring.join(ARRAYS)  # a 17th array joins
        after = _assignments(ring, streams)
        moved = {k for k in before if before[k] != after[k]}
        assert all(after[k] == ARRAYS for k in moved)
        assert len(moved) <= CHURN_SLACK * streams / (ARRAYS + 1)

    @given(seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_leave_moves_only_leavers_streams(self, seed):
        """A leave relocates exactly the leaver's streams."""
        ring = ConsistentHashPlacement(range(ARRAYS), seed=seed)
        streams = 1000
        before = _assignments(ring, streams)
        leaver = 3
        ring.leave(leaver)
        after = _assignments(ring, streams)
        moved = {k for k in before if before[k] != after[k]}
        assert moved == {k for k in before if before[k] == leaver}
        assert all(after[k] != leaver for k in moved)

    @given(seed=seeds)
    @settings(max_examples=10, deadline=None)
    def test_leave_then_join_restores_the_ring(self, seed):
        """Membership changes are reversible (pure function of set)."""
        ring = ConsistentHashPlacement(range(ARRAYS), seed=seed)
        before = _assignments(ring, 500)
        ring.leave(5)
        ring.join(5)
        assert _assignments(ring, 500) == before


def per_point_ring(array_ids, seed, replicas=128):
    """Reference ring build: one sorted insertion per virtual node."""
    points: list[int] = []
    owners: list[int] = []
    for array_id in array_ids:
        for replica in range(replicas):
            point = stable_hash(seed, "ring", array_id, replica)
            index = bisect.bisect_left(points, point)
            points.insert(index, point)
            owners.insert(index, array_id)
    return points, owners


class TestRingBuild:
    @pytest.mark.parametrize("arrays", [16, 128])
    @pytest.mark.parametrize("seed", [0, 7, 2004])
    def test_one_sort_equals_per_point_build(self, arrays, seed):
        ring = ConsistentHashPlacement(range(arrays), seed=seed)
        assert (ring._points, ring._owners) \
            == per_point_ring(range(arrays), seed)

    def test_join_merges_into_the_ring(self):
        ring = ConsistentHashPlacement(range(8), seed=3)
        ring.join(8, 9)
        assert (ring._points, ring._owners) \
            == per_point_ring(range(10), 3)
        assert ring.members == tuple(range(10))

    @pytest.mark.parametrize("joining", [(3,), (8, 8)])
    def test_join_refuses_duplicates_untouched(self, joining):
        ring = ConsistentHashPlacement(range(8), seed=3)
        before = (list(ring._points), ring.members)
        with pytest.raises(ValueError, match="already on the ring"):
            ring.join(*joining)
        assert (ring._points, ring.members) == before


class TestLeastReserved:
    @given(seed=seeds, key=st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_orders_by_reserved_then_demotes_rebuilding(self, seed, key):
        policy = LeastReservedPlacement(range(4), seed=seed)
        loads = [
            ArrayLoad(0, 0.5, 0.85),
            ArrayLoad(1, 0.1, 0.85),
            ArrayLoad(2, 0.3, 0.85),
            ArrayLoad(3, 0.0, 0.51, rebuilding=True),
        ]
        for load in loads:
            policy.update(load.array_id, load.reserved_utilization,
                          load.rebuilding)
        order = tuple(policy.candidates(key))
        assert order[:3] == (1, 2, 0)
        assert order[3] == 3  # rebuilding array goes last
        assert order == prefer(policy, key, loads)

    def test_ties_split_by_stream_not_by_id(self):
        """Equal loads must not always favour the lowest array id."""
        policy = LeastReservedPlacement(range(4), seed=0)
        firsts = {next(policy.candidates(key)) for key in range(200)}
        assert len(firsts) == 4


class TestRegistry:
    def test_make_placement_registry(self):
        assert make_placement("ring", [0, 1], seed=1).name == "ring"
        assert make_placement(
            "least-reserved", [], seed=1).name == "least-reserved"
        with pytest.raises(KeyError):
            make_placement("nope", [0])

    def test_stable_hash_is_process_independent(self):
        """Pinned value: SHA-256, not Python's randomized hash()."""
        assert stable_hash(0, "ring", 1, 2) == stable_hash(0, "ring", 1, 2)
        assert stable_hash("a", "b") != stable_hash("ab")
