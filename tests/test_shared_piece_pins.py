"""Pins for the pieces the loops and their reference share.

``tests/legacy_oracle.py`` runs the same :class:`MetricsCollector`,
:class:`RunningStats` and :class:`DiskModel` as the shipped loops, so
the differential battery cannot see a mistake in any of them: both
sides would make it.  Each piece is checked here against a plain
scalar reference written out in the test -- the zone bisection, the
seek + rotation + transfer formula, textbook Welford, the paper's
per-request tallies and a brute-force inversion count -- compared bit
for bit (``float.hex`` or ``repr``) where floats are involved.
"""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.disk import DiskModel, make_xp32150_disk
from repro.disk.geometry import DiskGeometry, make_zones
from repro.disk.rotation import RotationModel
from repro.disk.seek import fit_seek_model
from repro.schedulers.fcfs import FCFSScheduler
from repro.sim.metrics import MetricsCollector
from repro.sim.server import run_simulation
from repro.sim.service import constant_service
from repro.sim.soa import InversionLedger
from repro.util.stats import RunningStats
from tests.conftest import make_request


# -- per-cylinder sectors-per-track table ------------------------------------

def zone_spt(geometry: DiskGeometry, cylinder: int) -> int:
    """Reference: sectors per track through the zone bisection."""
    return geometry.zone_of(cylinder).sectors_per_track


def test_cylinder_table_matches_zones_on_every_xp32150_cylinder(geometry):
    assert len(geometry.cylinder_spt) == geometry.cylinders
    for cylinder in range(geometry.cylinders):
        expected = zone_spt(geometry, cylinder)
        assert geometry.cylinder_spt[cylinder] == expected
        assert geometry.sectors_per_track(cylinder) == expected


@settings(max_examples=60, deadline=None)
@given(cylinders=st.integers(1, 600), zones=st.integers(1, 24),
       outer=st.integers(1, 400), inner=st.integers(1, 400))
def test_cylinder_table_matches_zones_on_made_geometries(cylinders, zones,
                                                         outer, inner):
    zones = min(zones, cylinders)
    geometry = DiskGeometry(cylinders=cylinders, tracks_per_cylinder=4,
                            sector_size=512,
                            zones=make_zones(cylinders, zones, outer, inner))
    assert geometry.cylinder_spt == [zone_spt(geometry, c)
                                     for c in range(cylinders)]


def test_sectors_per_track_still_checks_the_cylinder(geometry):
    for cylinder in (-1, geometry.cylinders):
        with pytest.raises(ValueError, match="outside"):
            geometry.sectors_per_track(cylinder)


# -- disk service -------------------------------------------------------------

def reference_service(disk: DiskModel, head: int, cylinder: int,
                      nbytes: int, rng: Random | None) -> tuple:
    """Reference: seek + rotation + transfer from the models' scalar
    formulas, in the order the disk model applies them."""
    geometry = disk.geometry
    seek = disk.seek_model.seek_of_distance(abs(cylinder - head))
    rotation = disk.rotation
    latency = (rotation.average_latency_ms if rng is None
               else rotation.sample_latency_ms(rng))
    spt = zone_spt(geometry, cylinder)
    transfer = nbytes / (spt * geometry.sector_size) * rotation.revolution_ms
    return seek, latency, transfer


def hexes(values) -> tuple:
    return tuple(float(v).hex() for v in values)


@pytest.mark.parametrize("deterministic", (True, False))
def test_preview_and_serve_match_the_formula_bit_for_bit(deterministic):
    disk = make_xp32150_disk(deterministic_latency=deterministic,
                             rng=Random(11))
    reference_rng = None if deterministic else Random(11)
    walk = Random(5)
    head = 0
    disk.reset(head)
    for step in range(400):
        cylinder = walk.randrange(disk.geometry.cylinders)
        nbytes = walk.choice((0, 1, 512, 4096, 65536, 65537, 1 << 20))
        record = (disk.preview(cylinder, nbytes) if step % 3 == 0
                  else disk.serve(cylinder, nbytes))
        expected = reference_service(disk, head, cylinder, nbytes,
                                     reference_rng)
        assert hexes((record.seek_ms, record.latency_ms,
                      record.transfer_ms)) == hexes(expected)
        assert float(record.total_ms).hex() == float(
            expected[0] + expected[1] + expected[2]).hex()
        if step % 3:
            head = cylinder
        assert disk.head_cylinder == head


@settings(max_examples=30, deadline=None)
@given(cylinders=st.integers(2, 300), zones=st.integers(1, 12),
       outer=st.integers(1, 300), inner=st.integers(1, 300),
       seed=st.integers(0, 2**16))
def test_serve_matches_the_formula_on_made_geometries(cylinders, zones,
                                                      outer, inner, seed):
    zones = min(zones, cylinders)
    geometry = DiskGeometry(cylinders=cylinders, tracks_per_cylinder=2,
                            sector_size=512,
                            zones=make_zones(cylinders, zones, outer, inner))
    seek = fit_seek_model(cylinders, average_ms=4.0, maximum_ms=9.0)
    disk = DiskModel(geometry, seek, RotationModel(rpm=5400))
    walk = Random(seed)
    head = 0
    for _ in range(40):
        cylinder = walk.randrange(cylinders)
        nbytes = walk.randrange(1 << 18)
        record = disk.serve(cylinder, nbytes)
        expected = reference_service(disk, head, cylinder, nbytes, None)
        assert hexes((record.seek_ms, record.latency_ms,
                      record.transfer_ms)) == hexes(expected)
        head = cylinder


def test_service_still_rejects_bad_input(disk):
    with pytest.raises(ValueError, match="outside"):
        disk.preview(disk.geometry.cylinders, 512)
    with pytest.raises(ValueError, match="non-negative"):
        disk.serve(10, -1)
    assert disk.head_cylinder == 0


# -- RunningStats -------------------------------------------------------------

def textbook_welford(values) -> dict:
    """Reference: Welford's update with builtin min/max."""
    count, mean, m2 = 0, 0.0, 0.0
    low, high = math.inf, -math.inf
    for value in values:
        count += 1
        delta = value - mean
        mean += delta / count
        m2 += delta * (value - mean)
        low = min(low, value)
        high = max(high, value)
    return {"_count": count, "_mean": mean, "_m2": m2,
            "_min": low, "_max": high}


WELFORD_CASES = [
    [],
    [3],
    [2, 2, 2, 2],
    [0.0, -0.0],
    [-0.0, 0.0, -0.0],
    [1.5, -2.25, 1e300, -1e300, 7.0],
    [math.inf, 1.0],
    [1.0, -math.inf, math.inf],
    [5, 1, 5, 1, 3],
    [0.1] * 10 + [0.2] * 10,
]


@pytest.mark.parametrize("values", WELFORD_CASES)
def test_running_stats_is_textbook_welford(values):
    stats = RunningStats()
    for value in values:
        stats.add(value)
    # repr keeps the sign of zero, the int/float type and NaN.
    assert repr(sorted(vars(stats).items())) == repr(
        sorted(textbook_welford(values).items()))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, width=64),
    st.integers(-1000, 1000),
    st.sampled_from((0.0, -0.0, math.inf, -math.inf)),
), max_size=40))
def test_running_stats_is_textbook_welford_on_any_stream(values):
    stats = RunningStats()
    stats.extend(values)
    assert repr(sorted(vars(stats).items())) == repr(
        sorted(textbook_welford(values).items()))


# -- MetricsCollector.on_complete ---------------------------------------------

def reference_tallies(dims: int, levels: int, events) -> tuple:
    """Reference: the paper's per-request tallies, written out."""
    served = dropped = missed = 0
    makespan = 0.0
    requests_by = [[0] * levels for _ in range(dims)]
    misses_by = [[0] * levels for _ in range(dims)]
    streams: dict[int, list[int]] = {}
    responses = []
    for request, completion, was_dropped in events:
        lost = was_dropped or completion > request.deadline_ms
        if was_dropped:
            dropped += 1
        else:
            served += 1
            responses.append(completion - request.arrival_ms)
        missed += lost
        makespan = max(makespan, completion)
        for k in range(dims):
            level = min(request.priorities[k], levels - 1)
            requests_by[k][level] += 1
            misses_by[k][level] += lost
        if request.stream_id >= 0:
            counts = streams.setdefault(request.stream_id, [0, 0])
            counts[0] += 1
            counts[1] += lost
    return (served, dropped, missed, repr(makespan), requests_by,
            misses_by, sorted(streams.items()),
            repr(sorted(textbook_welford(responses).items())))


def collector_tallies(metrics: MetricsCollector) -> tuple:
    return (metrics.served, metrics.dropped, metrics.missed,
            repr(metrics.makespan_ms), metrics.requests_by_dim_level,
            metrics.misses_by_dim_level,
            sorted((s, list(c)) for s, c in metrics.stream_counts.items()),
            repr(sorted(vars(metrics.response_ms).items())))


def test_on_complete_matches_the_reference_tallies():
    dims, levels = 2, 4
    events = [
        # on time, late, exactly at the deadline (not late), dropped
        (make_request(0, arrival_ms=0.0, deadline_ms=10.0,
                      priorities=(0, 3)), 5.0, False),
        (make_request(1, arrival_ms=1.0, deadline_ms=10.0,
                      priorities=(1, 2), stream_id=4), 12.5, False),
        (make_request(2, arrival_ms=2.0, deadline_ms=12.5,
                      priorities=(2, 1), stream_id=4), 12.5, False),
        (make_request(3, arrival_ms=3.0, deadline_ms=99.0,
                      priorities=(3, 0), stream_id=7), 11.0, True),
        # levels past the table clip into the last level
        (make_request(4, arrival_ms=4.0, deadline_ms=5.0,
                      priorities=(9, 40), stream_id=0), 8.0, False),
        (make_request(5, arrival_ms=4.0, deadline_ms=math.inf,
                      priorities=(4, 4)), 30.0, True),
        # an earlier completion than the makespan so far
        (make_request(6, arrival_ms=-2.0, deadline_ms=1.0,
                      priorities=(0, 0), stream_id=7), 1.0, False),
        (make_request(7, arrival_ms=0.5, deadline_ms=2.0,
                      priorities=(1, 1)), -0.0, False),
    ]
    metrics = MetricsCollector(dims, levels)
    for request, completion, dropped in events:
        metrics.on_complete(request, completion, dropped=dropped)
    assert collector_tallies(metrics) == reference_tallies(dims, levels,
                                                           events)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.floats(-5.0, 50.0), st.floats(0.0, 60.0),
    st.integers(-1, 3), st.booleans()), max_size=30))
def test_on_complete_matches_the_reference_on_any_stream(rows):
    events = [
        (make_request(i, arrival_ms=arrival, deadline_ms=arrival + 10.0,
                      priorities=levels, stream_id=stream),
         completion, dropped)
        for i, (levels, arrival, completion, stream, dropped)
        in enumerate(rows)
    ]
    metrics = MetricsCollector(2, 6)
    for request, completion, dropped in events:
        metrics.on_complete(request, completion, dropped=dropped)
    assert collector_tallies(metrics) == reference_tallies(2, 6, events)


# -- InversionLedger ----------------------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(("add", "charge", "remove")),
                          st.tuples(st.integers(0, 40),
                                    st.integers(0, 3))), max_size=60))
def test_ledger_counts_like_a_scan(ops):
    """Add / charge / remove sequences against a brute-force count of
    the waiting multiset (the definition ``on_dispatch`` scans)."""
    ledger = InversionLedger(2)
    waiting: list[tuple[int, int]] = []
    tallies = [0, 0]
    expected = [0, 0]

    def above(keys):
        return [sum(other[k] < keys[k] for other in waiting)
                for k in range(2)]

    for op, keys in ops:
        if op == "add" or keys not in waiting:
            ledger.add(keys)
            waiting.append(keys)
            continue
        waiting.remove(keys)
        # The request itself is never strictly above itself.
        assert ledger.inversions_of(keys) == above(keys)
        if op == "remove":
            ledger.remove(keys)
        else:
            ledger.charge(keys, tallies)
            expected = [e + a for e, a in zip(expected, above(keys))]
        assert tallies == expected
        assert ledger.inversions_of((41, 4)) == [len(waiting)] * 2


# -- priority-vector validation -----------------------------------------------

def test_short_priority_vector_still_raises():
    requests = [make_request(0, priorities=(1, 2, 3)),
                make_request(1, arrival_ms=1.0, priorities=(1, 2))]
    with pytest.raises(ValueError,
                       match=r"^request 1 has 2 priorities, expected 3$"):
        run_simulation(requests, FCFSScheduler(), constant_service(1.0))
    with pytest.raises(ValueError,
                       match=r"^request 0 has 3 priorities, expected 4$"):
        run_simulation(requests[:1], FCFSScheduler(), constant_service(1.0),
                       priority_dims=4)
