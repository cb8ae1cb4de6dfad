"""Point -> index lookup tables for every curve, built with numpy.

The analytic batch encoders in :mod:`repro.sfc.vectorized` cover
Sweep/C-Scan/Scan/Gray/Hilbert on power-of-two grids; Spiral,
Diagonal, Peano and the curve transforms have no such encoder, and a
per-row Python loop over them is exactly the per-request interpreter
cost the paper's O(1) scalability argument (Section 6) rules out.  For
grids of bounded size the full mapping is tabulated instead: one
``uint64`` array of ``len(curve)`` entries, indexed by the row-major
flattening of the grid point, holding the curve position of every
cell.  A batch lookup is then a single numpy gather.

Each curve family has a numpy builder over the whole grid, so a table
costs milliseconds, not one ``point()`` call per cell, and is
bit-for-bit the scalar mapping (``tests/test_sfc_tables.py`` checks
every cell):

* Sweep / C-Scan / Scan / Gray -- the batch encoders of
  :mod:`repro.sfc.vectorized` over the grid's broadcastable axes;
* Hilbert and Peano -- self-similarity: the order-``k`` table is
  ``2**dims`` (``3**2``) mirrored, permuted or reversed copies of the
  order ``k - 1`` table, each offset by its top digit;
* Diagonal -- diagonal offset plus the lexicographic rank within the
  diagonal, from per-tail-dimension prefix counts;
* Spiral -- a walk of each ring's perimeter (2-D), or a stable sort of
  the cells by ring (shell order, other dims);
* transforms -- array operations on the base table: a transpose
  (Permuted), ``flip`` (Reflected), ``cells - 1 - t`` (Reversed) and
  per-copy block offsets (Glued).

Memory bound: tables are only built up to :data:`LUT_MAX_CELLS`
(2**20) cells -- 8 MiB of ``uint64`` per curve worst case, and far
less for the stage-1 priority grids the scheduler actually uses
(``levels ** dims``, e.g. ``16**3`` = 32 KiB).  Every grid within the
bound is tabulated on first use: at the bound a build takes under
50 ms for every family (docs/PERFORMANCE.md has the timings).  Tables
are cached process-wide, keyed by the curve's structural identity
``(type, name, dims, sides)`` -- curve instances are stateless, and
transform names encode their composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .base import SpaceFillingCurve
from .diagonal import DiagonalCurve
from .gray import GrayCurve
from .hilbert import HilbertCurve
from .peano import PeanoCurve
from .scan import ScanCurve
from .spiral import SpiralCurve
from .sweep import CScanCurve, SweepCurve
from .transforms import (GluedCurve, PermutedCurve, ReflectedCurve,
                         ReversedCurve)

#: Hard cap on tabulated grid cells (8 MiB of uint64 per table).
LUT_MAX_CELLS = 1 << 20


@dataclass
class LutStats:
    """Process-wide table accounting (operation-count invariants)."""

    builds: int = 0
    hits: int = 0
    cells: int = 0
    #: Always 0: tables are never loaded from disk.  Kept for readers
    #: that still report it.
    disk_loads: int = 0

    def reset(self) -> None:
        self.builds = 0
        self.hits = 0
        self.cells = 0
        self.disk_loads = 0


#: Global build/hit counters, checked by the benchmark invariants.
LUT_STATS = LutStats()

_CACHE: dict[tuple, np.ndarray] = {}


def grid_sides(curve: SpaceFillingCurve) -> tuple[int, ...]:
    """Per-dimension grid extents (rectangular for glued curves)."""
    sides = [curve.side] * curve.dims
    if isinstance(curve, GluedCurve):
        sides[curve.axis] = curve.axis_side
    return tuple(sides)


def _cell_count(curve: SpaceFillingCurve) -> int:
    """Total grid cells, without ``len()``'s ssize_t overflow."""
    cells = 1
    for side in grid_sides(curve):
        cells *= side
    return cells


def _cache_key(curve: SpaceFillingCurve) -> tuple:
    # Transform names encode their full composition ("sweep[reversed]",
    # "hilbert[perm=1,0]", ...), so (type, name, dims, sides) pins the
    # mapping; curve instances carry no other state.
    return (type(curve).__qualname__, curve.name, curve.dims,
            grid_sides(curve))


# -- per-family builders: curve -> int64 table shaped like the grid ----------


def _open_grid(curve: SpaceFillingCurve, dtype=np.int64
               ) -> tuple[np.ndarray, ...]:
    """Broadcastable coordinate arrays of the grid (``np.ix_``)."""
    return np.ix_(*(np.arange(side, dtype=dtype)
                    for side in grid_sides(curve)))


def _analytic_table(curve: SpaceFillingCurve) -> np.ndarray:
    from .vectorized import analytic_batch  # vectorized imports this module

    table = analytic_batch(curve, list(_open_grid(curve, np.uint64)))
    return table.view(np.int64)  # positions < LUT_MAX_CELLS: same values


def _hilbert_table(curve: HilbertCurve) -> np.ndarray:
    """Hilbert positions by self-similarity, one order at a time.

    Skilling's transpose (:mod:`repro.sfc.hilbert`) handles the top bit
    of every coordinate first.  For a top-bit pattern ``h`` it reflects
    or swaps the lower bits of ``x[0]`` -- a symmetry ``A_h`` of the
    sub-cube -- and the rest of its pass is the order ``k - 1``
    algorithm on the result.  Its Gray step makes the top digit
    ``gray(h)`` (prefix XORs of ``h``) and complements every lower
    digit when the last of those XORs (the parity of ``h``) is set,
    which reverses the sub-curve.  So block ``h`` of the order-``k``
    table is ``digit(h) * B + T_{k-1}[A_h(y)]``, reversed on odd ``h``.

    The batch encoder in :mod:`repro.sfc.vectorized` needs full
    coordinate columns and takes about a second on a 2**20-cell grid;
    this builder takes milliseconds (docs/PERFORMANCE.md).
    """
    dims = curve.dims
    if curve.order == 0:
        return np.zeros((1,) * dims, dtype=np.int64)
    # Order 1: the top digits alone, over every h at once.
    table = gray = 0
    for bit in np.ix_(*[np.arange(2, dtype=np.int64)] * dims):
        gray = gray ^ bit
        table = 2 * table + gray
    for _ in range(curve.order - 1):
        half, cells = table.shape[0], table.size
        backwards = cells - 1 - table
        # Blocks first (h, then y), interleaved into (h_0, y_0, ...) below.
        blocks = np.empty((2 ** dims,) + table.shape, dtype=np.int64)
        for n, h in enumerate(itertools.product((0, 1), repeat=dims)):
            # A_h as a signed permutation: lower bits of x[j] after the
            # top level = those of x[src[j]], mirrored if flip[j].
            src, flip = list(range(dims)), [False] * dims
            digit = gray = 0
            for i, bit in enumerate(h):
                if bit:
                    flip[0] = not flip[0]
                elif i:
                    src[0], src[i] = src[i], src[0]
                    flip[0], flip[i] = flip[i], flip[0]
                gray ^= bit
                digit = 2 * digit + gray
            sub = (backwards if gray else table)[
                tuple(slice(None, None, -1 if f else 1) for f in flip)]
            np.add(sub.transpose([src.index(r) for r in range(dims)]),
                   digit * cells, out=blocks[n])
        pairs = [axis for j in range(dims) for axis in (j, dims + j)]
        table = blocks.reshape((2,) * dims + table.shape).transpose(
            pairs).reshape((2 * half,) * dims)
    return table


def _diagonal_table(curve: DiagonalCurve) -> np.ndarray:
    dims, side = curve.dims, curve.side
    coords = _open_grid(curve)
    top = dims * (side - 1)
    # counts[k][t]: cells of {0..side-1}^k with coordinate sum t.
    counts = [np.ones(1, dtype=np.int64)]
    for _ in range(dims):
        counts.append(np.convolve(counts[-1],
                                  np.ones(side, dtype=np.int64)))
    # prefix[k][t]: cells of {0..side-1}^k with coordinate sum <= t.
    prefix = [np.cumsum(np.pad(c, (0, top + 1 - len(c)))) for c in counts]
    # suffix[i]: coordinate sum of dimensions i.. (suffix[0] = diagonal).
    suffix = [0] * (dims + 1)
    for i in range(dims - 1, -1, -1):
        suffix[i] = coords[i] + suffix[i + 1]
    # Lexicographic rank within the diagonal: for each coordinate i, the
    # cells agreeing before i with a smaller coordinate i, that is
    # sum_{v < c_i} counts[k][suffix[i] - v] = prefix[k][suffix[i]] -
    # prefix[k][suffix[i + 1]] with k = dims - 1 - i.  The first term at
    # i = 0 depends on the diagonal alone and moves into ``start``; the
    # rest is summed from the last dimension, so it grows one axis at a
    # time.
    rest = 0
    for i in range(dims - 1, -1, -1):
        tail = prefix[dims - 1 - i]
        rest = rest - tail[suffix[i + 1]]
        if i:
            rest = rest + tail[suffix[i]]
    # Odd diagonals run backwards: position = end - rank.
    full = counts[dims]
    odd = np.arange(top + 1) % 2 == 1
    sign = np.where(odd, -1, 1)
    start = (np.cumsum(full) - full + np.where(odd, full - 1, 0)
             + sign * prefix[dims - 1])
    total = suffix[0]
    return start[total] + sign[total] * rest


def _spiral_table(curve: SpiralCurve) -> np.ndarray:
    side = curve.side
    if curve.dims != 2:
        # Shell order: outer rings first, sweep order within a ring --
        # a stable sort of the row-major cells by ring number.
        ring = side
        for coord in _open_grid(curve):
            ring = np.minimum(ring, np.minimum(coord, side - 1 - coord))
        # The narrowest dtype that holds every ring keeps numpy's stable
        # sort on radix sort wherever it can.
        order = np.argsort(ring.astype(np.min_scalar_type(side // 2)).ravel(),
                           kind="stable")
        table = np.empty(order.size, dtype=np.int64)
        table[order] = np.arange(order.size, dtype=np.int64)
        return table.reshape(grid_sides(curve))
    # Perimeter walk, one ring at a time from (r, r): x+ along y = r,
    # y+ along x = hi, x- along y = hi, y- along x = r.
    table = np.empty((side, side), dtype=np.int64)
    position = 0
    for lo in range(side // 2):
        hi = side - 1 - lo
        edge = np.arange(hi - lo, dtype=np.int64)
        table[lo:hi, lo] = position + edge
        table[hi, lo:hi] = position + (hi - lo) + edge
        table[hi:lo:-1, hi] = position + 2 * (hi - lo) + edge
        table[lo, hi:lo:-1] = position + 3 * (hi - lo) + edge
        position += 4 * (hi - lo)
    if side % 2:
        table[side // 2, side // 2] = position
    return table


def _peano_table(curve: PeanoCurve) -> np.ndarray:
    """Peano positions by self-similarity, one order at a time.

    The top ternary digits (``tx``, ``ty``) of a cell give the first
    two raw index digits: ``tx``, and ``ty`` complemented when ``tx``
    is odd.  Every lower x digit is complemented when the running sum
    of raw y digits is odd, and every lower y digit by the raw x sum;
    the top raw digits' share of those sums mirrors the whole lower
    block.  So block (tx, ty) of the order-``k`` table is
    ``(3 * tx + raw_y) * B + T_{k-1}``, mirrored in x when ``raw_y`` is
    odd and in y when ``tx`` is odd.
    """
    table = np.zeros((1, 1), dtype=np.int64)
    for _ in range(curve.order):
        third, cells = table.shape[0], table.size
        grown = np.empty((3 * third, 3 * third), dtype=np.int64)
        for tx in range(3):
            for ty in range(3):
                raw_y = 2 - ty if tx % 2 else ty
                sub = np.flip(table, [axis for axis, odd in
                                      enumerate((raw_y % 2, tx % 2))
                                      if odd])
                grown[tx * third:(tx + 1) * third,
                      ty * third:(ty + 1) * third] = (
                    (3 * tx + raw_y) * cells + sub)
        table = grown
    return table


def _permuted_table(curve: PermutedCurve) -> np.ndarray:
    return _table(curve.base).transpose(curve._perm)


def _reflected_table(curve: ReflectedCurve) -> np.ndarray:
    return np.flip(_table(curve._base), tuple(sorted(curve._reflected)))


def _reversed_table(curve: ReversedCurve) -> np.ndarray:
    return len(curve) - 1 - _table(curve._base)


def _glued_table(curve: GluedCurve) -> np.ndarray:
    base = _table(curve._base)
    offsets = np.arange(curve.copies, dtype=np.int64) * base.size
    tiles = base[np.newaxis] + offsets.reshape((-1,) + (1,) * base.ndim)
    # Tile t covers [t * side, (t + 1) * side) of the glued axis.
    return np.moveaxis(tiles, 0, curve.axis).reshape(grid_sides(curve))


_BUILDERS = {
    SweepCurve: _analytic_table,
    CScanCurve: _analytic_table,
    ScanCurve: _analytic_table,
    GrayCurve: _analytic_table,
    HilbertCurve: _hilbert_table,
    DiagonalCurve: _diagonal_table,
    SpiralCurve: _spiral_table,
    PeanoCurve: _peano_table,
    PermutedCurve: _permuted_table,
    ReflectedCurve: _reflected_table,
    ReversedCurve: _reversed_table,
    GluedCurve: _glued_table,
}


def _builder(curve: SpaceFillingCurve):
    """The table builder for ``curve``'s exact type, or None.

    Exact types, since a subclass may remap cells.  Transforms need a
    tabulable base on a square grid: a transform of a glued curve keeps
    only the base's square side, so its grid is not the glued grid.
    """
    base = getattr(curve, "_base", None)
    if base is not None and (isinstance(base, GluedCurve)
                             or _builder(base) is None):
        return None
    return _BUILDERS.get(type(curve))


def _table(curve: SpaceFillingCurve) -> np.ndarray:
    return _builder(curve)(curve)


def build_lut(curve: SpaceFillingCurve) -> np.ndarray | None:
    """``curve``'s flat point -> index table (None: no builder)."""
    if _builder(curve) is None:
        return None
    return np.ascontiguousarray(_table(curve), dtype=np.uint64).ravel()


def curve_lut(curve: SpaceFillingCurve) -> np.ndarray | None:
    """The cached table for ``curve``, built on first use; None beyond
    :data:`LUT_MAX_CELLS` or for a curve type without a builder."""
    cells = _cell_count(curve)
    if cells > LUT_MAX_CELLS:
        return None
    key = _cache_key(curve)
    lut = _CACHE.get(key)
    if lut is not None:
        LUT_STATS.hits += 1
        return lut
    lut = build_lut(curve)
    if lut is None:
        return None
    _CACHE[key] = lut
    LUT_STATS.builds += 1
    LUT_STATS.cells += cells
    return lut


def lut_gather(lut: np.ndarray, curve: SpaceFillingCurve,
               pts: np.ndarray) -> np.ndarray:
    """Curve positions of ``pts`` (validated uint64 rows) via ``lut``."""
    sides = grid_sides(curve)
    flat = np.zeros(len(pts), dtype=np.uint64)
    for k, side in enumerate(sides):
        flat = flat * np.uint64(side) + pts[:, k]
    return lut[flat]


def curve_points(curve: SpaceFillingCurve
                 ) -> Iterator[tuple[int, ...]] | None:
    """Every cell's coordinates in curve order (the inverse of the
    table), or None when ``curve`` has no table.

    Fills the table cache like :func:`curve_lut`.  Points are unravelled
    4,096 positions at a time, so beyond the table and its inverse (one
    ``uint64`` each per cell) memory stays O(dims).
    """
    lut = curve_lut(curve)
    if lut is None:
        return None
    order = np.empty_like(lut)
    order[lut] = np.arange(lut.size, dtype=np.uint64)
    sides, chunk = grid_sides(curve), 1 << 12
    return itertools.chain.from_iterable(
        zip(*(axis.tolist() for axis in
              np.unravel_index(order[start:start + chunk], sides)))
        for start in range(0, order.size, chunk))


def has_lut_path(curve: SpaceFillingCurve) -> bool:
    """True when ``batch_index`` may serve ``curve`` from a table."""
    return (_cell_count(curve) <= LUT_MAX_CELLS
            and _builder(curve) is not None)


def clear_lut_cache(curve: SpaceFillingCurve | None = None) -> None:
    """Drop cached tables: all of them, or just ``curve``'s.

    Targeted eviction lets the benchmark time one curve's cold build
    without discarding tables other sections are still reusing.
    """
    if curve is None:
        _CACHE.clear()
    else:
        _CACHE.pop(_cache_key(curve), None)


def cached_lut_count() -> int:
    """Number of tables currently cached."""
    return len(_CACHE)
