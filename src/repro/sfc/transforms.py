"""Curve transforms: reorient a space-filling curve without rewriting it.

Section 5.1 of the paper stresses that *how request parameters are
assigned to curve dimensions* matters: Sweep has a zero-inversion
favored dimension, the d-dimensional Hilbert construction is biased
toward its first axis, and applications may deliberately bias toward
(or away from) a parameter.  These wrappers make the assignment a
first-class, testable object:

* :class:`PermutedCurve` -- relabel the dimensions (choose which
  request parameter gets the favored axis);
* :class:`ReflectedCurve` -- flip selected coordinates (turn a
  "largest first" axis into "smallest first");
* :class:`ReversedCurve` -- traverse the same path backwards;
* :class:`GluedCurve` -- concatenate copies of a curve along one axis,
  the generalization of the paper's R-partitioned SFC3 stage.

All transforms preserve the bijection property, so every test that
holds for a base curve holds for its transforms.  A glued curve's grid
is rectangular, so it can only be the outermost transform: each
constructor here refuses a glued base.
"""

from __future__ import annotations

from typing import Sequence

from .base import CurveDomainError, SpaceFillingCurve


def _unglued(base: SpaceFillingCurve) -> SpaceFillingCurve:
    """``base``, or CurveDomainError when it is a :class:`GluedCurve`.

    A transform takes its base's square ``side``, which over a glued
    base would drop the extended axis and every tile past the first.
    """
    if isinstance(base, GluedCurve):
        raise CurveDomainError(
            f"cannot transform the glued curve {base.name}; "
            "glue the transformed curve instead"
        )
    return base


class PermutedCurve(SpaceFillingCurve):
    """Apply a base curve to permuted coordinates.

    ``permutation[k]`` is the base-curve dimension that dimension ``k``
    of this curve maps to.  Permuting lets the caller decide which
    request parameter receives, e.g., Sweep's monotone axis.
    """

    name = "permuted"

    def __init__(self, base: SpaceFillingCurve,
                 permutation: Sequence[int]) -> None:
        _unglued(base)
        perm = tuple(int(p) for p in permutation)
        if sorted(perm) != list(range(base.dims)):
            raise CurveDomainError(
                f"permutation {perm} is not a permutation of "
                f"0..{base.dims - 1}"
            )
        super().__init__(base.dims, base.side)
        self._base = base
        self._perm = perm
        self._inverse = tuple(perm.index(k) for k in range(base.dims))
        self.name = f"{base.name}[perm={','.join(map(str, perm))}]"

    @property
    def base(self) -> SpaceFillingCurve:
        return self._base

    def index(self, point: Sequence[int]) -> int:
        pt = self._check_point(point)
        base_point = tuple(pt[self._inverse[k]] for k in range(self.dims))
        return self._base.index(base_point)

    def point(self, index: int) -> tuple[int, ...]:
        base_point = self._base.point(self._check_index(index))
        return tuple(base_point[self._perm[k]] for k in range(self.dims))


class ReflectedCurve(SpaceFillingCurve):
    """Mirror selected coordinates of a base curve.

    ``reflected`` lists the dimensions whose coordinate ``x`` becomes
    ``side - 1 - x``.  Useful when a parameter is "bigger is better"
    (e.g. request value) but the grid convention is "smaller first".
    """

    name = "reflected"

    def __init__(self, base: SpaceFillingCurve,
                 reflected: Sequence[int]) -> None:
        _unglued(base)
        dims_set = frozenset(int(d) for d in reflected)
        for d in dims_set:
            if not 0 <= d < base.dims:
                raise CurveDomainError(
                    f"reflected dimension {d} outside [0, {base.dims})"
                )
        super().__init__(base.dims, base.side)
        self._base = base
        self._reflected = dims_set
        self.name = f"{base.name}[reflect={sorted(dims_set)}]"

    def _mirror(self, point: Sequence[int]) -> tuple[int, ...]:
        return tuple(
            self.side - 1 - c if k in self._reflected else c
            for k, c in enumerate(point)
        )

    def index(self, point: Sequence[int]) -> int:
        return self._base.index(self._mirror(self._check_point(point)))

    def point(self, index: int) -> tuple[int, ...]:
        return self._mirror(self._base.point(self._check_index(index)))


class ReversedCurve(SpaceFillingCurve):
    """The same path walked end to start."""

    name = "reversed"

    def __init__(self, base: SpaceFillingCurve) -> None:
        _unglued(base)
        super().__init__(base.dims, base.side)
        self._base = base
        self.name = f"{base.name}[reversed]"

    def index(self, point: Sequence[int]) -> int:
        pt = self._check_point(point)
        return len(self) - 1 - self._base.index(pt)

    def point(self, index: int) -> tuple[int, ...]:
        idx = self._check_index(index)
        return self._base.point(len(self) - 1 - idx)


class GluedCurve(SpaceFillingCurve):
    """``copies`` tiles of a base curve glued along dimension ``axis``.

    The grid side along ``axis`` becomes ``copies * base.side``; tile
    ``i`` is fully traversed before tile ``i + 1``.  With a Sweep base
    on two dimensions this is exactly the paper's "R two-dimensional
    space-filling curves glued together horizontally" (Section 5.3).

    The resulting grid is rectangular along ``axis``; ``side`` reports
    the *base* side and :meth:`axis_side` the extended one, and points
    are validated accordingly.
    """

    name = "glued"

    def __init__(self, base: SpaceFillingCurve, copies: int,
                 axis: int = 0) -> None:
        _unglued(base)
        if copies < 1:
            raise CurveDomainError("copies must be >= 1")
        if not 0 <= axis < base.dims:
            raise CurveDomainError(
                f"axis {axis} outside [0, {base.dims})"
            )
        super().__init__(base.dims, base.side)
        self._base = base
        self._copies = copies
        self._axis = axis
        self.name = f"{base.name}[x{copies} on dim {axis}]"

    @property
    def copies(self) -> int:
        return self._copies

    @property
    def axis(self) -> int:
        """The glued dimension."""
        return self._axis

    @property
    def axis_side(self) -> int:
        """Grid side along the glued axis."""
        return self._copies * self._base.side

    def __len__(self) -> int:
        return len(self._base) * self._copies

    def _check_point(self, point: Sequence[int]) -> tuple[int, ...]:
        pt = tuple(int(c) for c in point)
        if len(pt) != self.dims:
            raise CurveDomainError(
                f"{self.name}: point has {len(pt)} coordinates, "
                f"expected {self.dims}"
            )
        for k, c in enumerate(pt):
            limit = self.axis_side if k == self._axis else self.side
            if not 0 <= c < limit:
                raise CurveDomainError(
                    f"{self.name}: coordinate {c} outside [0, {limit}) "
                    f"in dim {k}"
                )
        return pt

    def index(self, point: Sequence[int]) -> int:
        pt = self._check_point(point)
        tile, offset = divmod(pt[self._axis], self._base.side)
        base_point = list(pt)
        base_point[self._axis] = offset
        return tile * len(self._base) + self._base.index(base_point)

    def point(self, index: int) -> tuple[int, ...]:
        idx = self._check_index(index)
        tile, base_index = divmod(idx, len(self._base))
        base_point = list(self._base.point(base_index))
        base_point[self._axis] += tile * self._base.side
        return tuple(base_point)
