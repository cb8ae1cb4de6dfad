"""Curve tables (repro.sfc.lut) against the scalar mappings, cell by cell.

Every table builder evaluates a curve family's closed form over the
whole grid with numpy.  These tests pin each table to two independent
references written here:

* the scalar ``curve.index`` of every cell (point -> position), and
* the per-cell ``curve.point`` enumeration the tables used to be built
  from (position -> point), so both directions of each mapping agree.

Exhaustive up to 4,096 cells per grid (2-D side <= 64, 3-D side <= 16,
4-D side <= 8, Peano sides 3/9/27/81), for every family and every
transform, nested ones included; hypothesis draws larger shapes (up to
2**16 cells) and checks sampled cells plus the bijection over the whole
grid.  ``SpaceFillingCurve.walk`` inverts the table and must yield
exactly what the ``point`` enumeration yields.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sfc import lut
from repro.sfc.lut import build_lut, curve_lut, grid_sides
from repro.sfc.registry import get_curve
from repro.sfc.sweep import SweepCurve
from repro.sfc.transforms import (GluedCurve, PermutedCurve, ReflectedCurve,
                                  ReversedCurve)
from repro.sfc.vectorized import batch_index

POW2 = ("gray", "hilbert")
ANY_SIDE = ("sweep", "cscan", "scan", "spiral", "diagonal")

#: (name, dims, side) grids checked exhaustively, all <= 4,096 cells
#: except Peano 81 (6,561), which completes Peano's first four orders.
EXHAUSTIVE = (
    [(name, 1, side) for name in ANY_SIDE for side in (1, 2, 5, 16)]
    + [(name, 1, side) for name in POW2 for side in (1, 2, 16)]
    + [(name, 2, side) for name in ANY_SIDE
       for side in (1, 2, 3, 4, 5, 7, 8, 12, 31, 64)]
    + [(name, 2, side) for name in POW2 for side in (1, 2, 4, 8, 32, 64)]
    + [(name, 3, side) for name in ANY_SIDE for side in (2, 3, 5, 8, 11, 16)]
    + [(name, 3, side) for name in POW2 for side in (2, 4, 8, 16)]
    + [(name, 4, side) for name in ANY_SIDE for side in (2, 3, 5, 8)]
    + [(name, 4, side) for name in POW2 for side in (2, 4, 8)]
    + [("peano", 2, side) for side in (1, 3, 9, 27, 81)]
)


def _transforms():
    """Every transform over several bases, plus nested compositions."""
    spiral3 = get_curve("spiral", 3, 5)
    hilbert2 = get_curve("hilbert", 2, 8)
    diagonal3 = get_curve("diagonal", 3, 4)
    peano = get_curve("peano", 2, 9)
    scan4 = get_curve("scan", 4, 3)
    curves = []
    for base in (spiral3, hilbert2, diagonal3, peano, scan4):
        dims = base.dims
        curves += [
            PermutedCurve(base, list(range(dims))[::-1]),
            PermutedCurve(base, list(range(1, dims)) + [0]),
            ReflectedCurve(base, [0]),
            ReflectedCurve(base, range(dims)),
            ReflectedCurve(base, []),
            ReversedCurve(base),
        ]
        curves += [GluedCurve(base, copies, axis)
                   for copies in (1, 3) for axis in (0, dims - 1)]
    curves += [
        ReversedCurve(PermutedCurve(ReflectedCurve(spiral3, [1]),
                                    [2, 0, 1])),
        PermutedCurve(ReversedCurve(hilbert2), [1, 0]),
        ReflectedCurve(ReversedCurve(ReversedCurve(peano)), [1]),
        GluedCurve(ReversedCurve(PermutedCurve(diagonal3, [1, 2, 0])), 2,
                   2),
        GluedCurve(ReflectedCurve(PermutedCurve(scan4, [3, 1, 0, 2]),
                                  [0, 3]), 4, 1),
    ]
    return curves


TRANSFORMS = _transforms()


def _cells(curve) -> list[tuple[int, ...]]:
    """Every grid point, in the table's row-major order."""
    return list(itertools.product(*(range(s) for s in grid_sides(curve))))


def _flat(point, sides) -> int:
    flat = 0
    for coord, side in zip(point, sides):
        flat = flat * side + coord
    return flat


def _point_enumeration(curve) -> np.ndarray:
    """The former builder: one ``point()`` call per position."""
    sides = grid_sides(curve)
    table = np.empty(int(np.prod(sides)), dtype=np.uint64)
    for position in range(len(table)):
        table[_flat(curve.point(position), sides)] = position
    return table


def _check_exhaustively(curve) -> None:
    table = build_lut(curve)
    assert table.dtype == np.uint64
    scalar = [curve.index(point) for point in _cells(curve)]
    assert table.tolist() == scalar
    assert np.array_equal(table, _point_enumeration(curve))


@pytest.mark.parametrize("name,dims,side", EXHAUSTIVE)
def test_family_table_matches_scalar_index(name, dims, side):
    _check_exhaustively(get_curve(name, dims, side))


@pytest.mark.parametrize("curve", TRANSFORMS, ids=lambda c: c.name)
def test_transform_table_matches_scalar_index(curve):
    _check_exhaustively(curve)


@pytest.mark.parametrize("name,dims,side", EXHAUSTIVE[::5])
def test_walk_matches_point_enumeration(name, dims, side):
    curve = get_curve(name, dims, side)
    walked = list(curve.walk())
    assert walked == [curve.point(i) for i in range(len(curve))]
    assert all(type(c) is int for point in walked[:3] for c in point)


@pytest.mark.parametrize("curve", TRANSFORMS[::3], ids=lambda c: c.name)
def test_transform_walk_matches_point_enumeration(curve):
    assert list(curve.walk()) == [curve.point(i)
                                  for i in range(len(curve))]


def test_walk_beyond_the_table_bound_uses_point(monkeypatch):
    """Grids over the bound fall back to ``point`` calls, same order."""
    curve = get_curve("diagonal", 2, 9)
    expected = [curve.point(i) for i in range(len(curve))]
    monkeypatch.setattr(lut, "LUT_MAX_CELLS", 80)
    assert curve_lut(curve) is None
    assert list(curve.walk()) == expected


def test_walk_is_lazy_and_spans_chunks():
    """``walk`` builds nothing until the first point is drawn, and
    yields the same points across chunk boundaries (4,096 positions)."""
    curve = get_curve("spiral", 3, 20)  # 8,000 cells
    lut.clear_lut_cache(curve)
    walk = curve.walk()
    assert lut._cache_key(curve) not in lut._CACHE
    assert list(walk) == [curve.point(i) for i in range(len(curve))]
    assert lut._cache_key(curve) in lut._CACHE


def test_spiral_rings_beyond_16_bits():
    """A 1-D spiral within the table bound can have rings >= 2**16."""
    curve = get_curve("spiral", 1, 200_001)
    table = build_lut(curve)
    assert np.array_equal(np.sort(table),
                          np.arange(len(curve), dtype=np.uint64))
    for x in (0, 1, 65_535, 65_536, 65_537, 99_999, 100_000, 100_001,
              134_463, 134_464, 134_465, 200_000):
        assert int(table[x]) == curve.index((x,))
        assert curve.point(int(table[x])) == (x,)


def test_subclass_without_builder_falls_back_to_scalar():
    """Builders dispatch on exact types: a subclass may remap cells."""

    class Backwards(SweepCurve):
        name = "backwards"

        def index(self, point):
            return len(self) - 1 - super().index(point)

        def point(self, index):
            return super().point(len(self) - 1 - index)

    curve = Backwards(2, 6)
    assert build_lut(curve) is None
    assert curve_lut(curve) is None
    points = np.array(_cells(curve))
    assert batch_index(curve, points).tolist() == [
        curve.index(p) for p in _cells(curve)]
    assert list(curve.walk()) == [curve.point(i) for i in range(36)]


def test_transform_of_a_glued_curve_raises():
    """A transform keeps its base's square side, so over a glued base
    it would not cover the glued grid; construction refuses it."""
    glued = GluedCurve(get_curve("sweep", 2, 4), 2, 0)
    for transform in (lambda: PermutedCurve(glued, [1, 0]),
                      lambda: ReflectedCurve(glued, [0]),
                      lambda: ReversedCurve(glued),
                      lambda: GluedCurve(glued, 2, 1)):
        with pytest.raises(ValueError, match="glued"):
            transform()


# -- hypothesis: larger random shapes, sampled cells ------------------------

MAX_CELLS = 1 << 16


@st.composite
def _curves(draw):
    name = draw(st.sampled_from(ANY_SIDE + POW2 + ("peano",)))
    if name == "peano":
        dims, side = 2, draw(st.sampled_from([81, 243]))
    else:
        dims = draw(st.integers(1, 6))
        limit = int(round(MAX_CELLS ** (1 / dims)))
        if name in POW2:
            side = 2 ** draw(st.integers(0, limit.bit_length() - 1))
        else:
            side = draw(st.integers(1, limit))
        while side ** dims > MAX_CELLS:
            side -= 1
    curve = get_curve(name, dims, max(side, 1))
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["permute", "reflect", "reverse"]))
        if kind == "permute":
            curve = PermutedCurve(curve, draw(st.permutations(
                range(curve.dims))))
        elif kind == "reflect":
            curve = ReflectedCurve(curve, draw(st.sets(st.integers(
                0, curve.dims - 1))))
        else:
            curve = ReversedCurve(curve)
    if draw(st.booleans()):
        copies = draw(st.integers(1, max(1, MAX_CELLS // len(curve))))
        curve = GluedCurve(curve, copies,
                           draw(st.integers(0, curve.dims - 1)))
    return curve


@settings(max_examples=60, deadline=None)
@given(curve=_curves(), data=st.data())
def test_random_shapes_match_scalar_mappings(curve, data):
    table = build_lut(curve)
    cells = len(table)
    assert cells == len(curve) <= MAX_CELLS
    # A bijection onto [0, cells).
    assert np.array_equal(np.sort(table), np.arange(cells, dtype=np.uint64))
    sides = grid_sides(curve)
    flats = data.draw(st.lists(st.integers(0, cells - 1), min_size=1,
                               max_size=64), label="cells")
    for flat in flats:
        point = tuple(int(c) for c in np.unravel_index(flat, sides))
        assert int(table[flat]) == curve.index(point)
        assert _flat(curve.point(flat), sides) == int(
            np.flatnonzero(table == flat)[0])
