"""Vectorized batch encoding of curve indexes (numpy).

A production scheduler characterizes thousands of requests per second;
the per-request Python loop of :meth:`SpaceFillingCurve.index` is the
hot path.  ``batch_index`` computes the curve position of a whole
``(n, dims)`` array of grid points at once:

* Sweep / C-Scan / Scan (boustrophedon): pure arithmetic;
* Gray: vectorized bit interleave + Gray decode;
* Hilbert: vectorized Skilling transpose;
* Spiral / Diagonal / Peano / transforms on bounded grids: a
  point -> index table (:mod:`repro.sfc.lut`), one numpy gather per
  batch;
* anything else (grids beyond the table bound): a scalar fallback
  loop over the rows, so the API is total.

Vectorized paths require the index to fit in 64 bits
(``dims * log2(side) <= 63``); larger grids fall back automatically.
Results are bit-for-bit identical to the scalar implementations (the
test suite cross-checks them).
"""

from __future__ import annotations

import numpy as np

from .base import SpaceFillingCurve, is_power_of
from .gray import GrayCurve
from .hilbert import HilbertCurve
from .lut import curve_lut, grid_sides, lut_gather
from .scan import ScanCurve
from .sweep import CScanCurve, SweepCurve


def _as_points(points: np.ndarray,
               curve: SpaceFillingCurve) -> np.ndarray:
    array = np.asarray(points)
    if array.ndim != 2 or array.shape[1] != curve.dims:
        raise ValueError(
            f"points must have shape (n, {curve.dims}), got {array.shape}"
        )
    sides = grid_sides(curve)
    if array.size:
        if min(sides) == max(sides):
            if array.min() < 0 or array.max() >= sides[0]:
                raise ValueError(f"coordinates outside [0, {sides[0]})")
        else:
            # Rectangular grid (glued transforms): per-dimension bounds.
            for k, side in enumerate(sides):
                column = array[:, k]
                if column.min() < 0 or column.max() >= side:
                    raise ValueError(
                        f"coordinates outside [0, {side}) in dim {k}"
                    )
    if array.dtype == np.uint64:
        # Already the working dtype: no per-batch allocation.  Paths
        # that mutate rows copy for themselves (see the Hilbert branch).
        return array
    return array.astype(np.uint64)


#: Families with an arithmetic batch encoder (exact types: a subclass
#: may remap cells).
_ANALYTIC_TYPES = (SweepCurve, CScanCurve, ScanCurve, GrayCurve,
                   HilbertCurve)


def _fits_uint64(dims: int, side: int) -> bool:
    return is_power_of(side, 2) and dims * (side.bit_length() - 1) <= 63


# The encoders take one uint64 array per coordinate.  Batches pass the
# columns of an (n, dims) array; the table builders of repro.sfc.lut
# pass the broadcastable axes of a whole grid (np.ix_), so each
# intermediate only grows to the full grid when every axis has entered.


def _sweep_batch(cols: list[np.ndarray], side: int) -> np.ndarray:
    """Mixed-radix position, ``cols[0]`` most significant."""
    idx = np.uint64(0)
    for col in cols:
        idx = idx * np.uint64(side) + col
    return idx


def _scan_batch(cols: list[np.ndarray], side: int) -> np.ndarray:
    idx = np.uint64(0)
    for col in reversed(cols):
        odd = idx & np.uint64(1)
        # col, or side - 1 - col on odd prefixes, without a branch
        # (uint64 arithmetic wraps back into range).
        idx = (idx * np.uint64(side) + col
               + odd * (np.uint64(side - 1) - 2 * col))
    return idx


def _interleave_batch(cols: list[np.ndarray], order: int) -> np.ndarray:
    """Bit ``b`` of ``cols[k]`` lands at ``b * dims + dims - 1 - k``."""
    dims = len(cols)
    one = np.uint64(1)
    word = np.uint64(0)
    for k, col in enumerate(cols):
        spread = np.zeros_like(col)
        for b in range(order):
            spread |= ((col >> np.uint64(b)) & one) << np.uint64(
                b * dims + dims - 1 - k)
        word = word | spread
    return word


def _gray_decode_batch(code: np.ndarray) -> np.ndarray:
    value = code.copy()
    shift = np.uint64(1)
    # log2(64) doubling decode: value ^= value >> 1 >> 2 >> 4 ...
    while int(shift) < 64:
        value ^= value >> shift
        shift = np.uint64(int(shift) * 2)
    return value


def _hilbert_transpose_batch(pts: np.ndarray, order: int) -> np.ndarray:
    dims = pts.shape[1]
    x = pts  # mutated in place (callers pass a private copy)
    m = 1 << (order - 1)
    q = m
    while q > 1:
        p = np.uint64(q - 1)
        qq = np.uint64(q)
        for i in range(dims):
            cond = (x[:, i] & qq) != 0
            x[cond, 0] ^= p
            inv = ~cond
            t = (x[inv, 0] ^ x[inv, i]) & p
            x[inv, 0] ^= t
            x[inv, i] ^= t
        q >>= 1
    for i in range(1, dims):
        x[:, i] ^= x[:, i - 1]
    t = np.zeros(len(x), dtype=np.uint64)
    q = m
    while q > 1:
        cond = (x[:, dims - 1] & np.uint64(q)) != 0
        t[cond] ^= np.uint64(q - 1)
        q >>= 1
    x ^= t[:, None]
    return x


def analytic_batch(curve: SpaceFillingCurve,
                   cols: list[np.ndarray]) -> np.ndarray | None:
    """Positions of the points with coordinate columns ``cols`` for the
    five arithmetic families, else None.

    Valid for any side whose positions fit in 64 bits.  Hilbert needs
    full columns, not a grid's broadcastable axes.
    """
    kind = type(curve)
    if kind is SweepCurve:
        return _sweep_batch(cols[::-1], curve.side)
    if kind is CScanCurve:
        return _sweep_batch(cols, curve.side)
    if kind is ScanCurve:
        return _scan_batch(cols, curve.side)
    if kind is GrayCurve:
        return _gray_decode_batch(_interleave_batch(cols, curve.order))
    if kind is HilbertCurve:
        if curve.order == 0:
            return np.zeros_like(cols[0])
        transpose = _hilbert_transpose_batch(np.stack(cols, axis=1),
                                             curve.order)
        return _interleave_batch(list(transpose.T), curve.order)
    return None


def batch_index(curve: SpaceFillingCurve,
                points: np.ndarray) -> np.ndarray:
    """Curve positions of every row of ``points`` (shape ``(n, dims)``).

    Bit-identical to calling ``curve.index`` per row; uses a fully
    vectorized path for Sweep/C-Scan/Scan/Gray/Hilbert grids whose
    indexes fit in 64 bits, and a cached lookup table
    (:mod:`repro.sfc.lut`) for every other curve on bounded grids.
    """
    pts = _as_points(points, curve)
    if len(pts) == 0:
        return np.zeros(0, dtype=np.uint64)
    if has_vectorized_path(curve):
        return analytic_batch(curve, list(pts.T))

    # Table tier: Spiral, Diagonal, Peano and transforms on bounded
    # grids become a single gather against the cached point -> index
    # table (built once per curve shape).
    lut = curve_lut(curve)
    if lut is not None:
        return lut_gather(lut, curve, pts)

    # Total fallback: scalar loop (grids beyond the table bound, whose
    # indexes may be wider than 64 bits).
    out = np.empty(len(pts), dtype=object)
    for i, row in enumerate(points):
        out[i] = curve.index(tuple(int(c) for c in row))
    try:
        return out.astype(np.uint64)
    except (OverflowError, TypeError):
        return out


def has_vectorized_path(curve: SpaceFillingCurve) -> bool:
    """True when :func:`batch_index` avoids the scalar fallback."""
    return (type(curve) in _ANALYTIC_TYPES
            and _fits_uint64(curve.dims, curve.side))
