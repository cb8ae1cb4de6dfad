"""Base classes for space-filling curves.

A space-filling curve (SFC) visits every cell of a ``dims``-dimensional
grid of side ``side`` exactly once, defining a total order on the cells.
The Cascaded-SFC scheduler (Mokbel et al., ICDE 2004) uses such orders to
collapse multi-dimensional QoS descriptions of disk requests into scalar
priorities.

Every curve provides both directions of the mapping:

* :meth:`SpaceFillingCurve.index` -- grid point -> position along the curve
* :meth:`SpaceFillingCurve.point` -- position along the curve -> grid point

Positions run from ``0`` to ``len(curve) - 1``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar, Iterator, Sequence


class CurveDomainError(ValueError):
    """Raised when a point or index lies outside the curve's grid."""


class SpaceFillingCurve(ABC):
    """A total order over the cells of a ``dims``-dimensional grid.

    Parameters
    ----------
    dims:
        Number of dimensions of the grid.  Must be at least 1.
    side:
        Number of cells along each dimension.  Subclasses may restrict the
        admissible values (e.g. powers of two for bit-based curves).
    """

    #: Registry name of the curve (e.g. ``"hilbert"``).
    name: ClassVar[str] = "abstract"

    def __init__(self, dims: int, side: int) -> None:
        if dims < 1:
            raise CurveDomainError(f"dims must be >= 1, got {dims}")
        if side < 1:
            raise CurveDomainError(f"side must be >= 1, got {side}")
        self._dims = dims
        self._side = side

    @property
    def dims(self) -> int:
        """Number of grid dimensions."""
        return self._dims

    @property
    def side(self) -> int:
        """Number of cells along each dimension."""
        return self._side

    def __len__(self) -> int:
        """Total number of cells visited by the curve."""
        return self._side ** self._dims

    @abstractmethod
    def index(self, point: Sequence[int]) -> int:
        """Return the position of ``point`` along the curve."""

    @abstractmethod
    def point(self, index: int) -> tuple[int, ...]:
        """Return the grid point at position ``index`` along the curve."""

    def walk(self) -> Iterator[tuple[int, ...]]:
        """Yield every grid point in curve order.

        Grids within the table bound invert the point -> index table
        (:func:`repro.sfc.lut.curve_points`), which builds and caches
        the table process-wide on first use; larger ones cost
        ``len(self)`` calls to :meth:`point`.
        """
        from .lut import curve_points  # lut imports this module

        points = curve_points(self)
        if points is None:
            points = map(self.point, range(len(self)))
        yield from points

    def _check_point(self, point: Sequence[int]) -> tuple[int, ...]:
        """Validate ``point`` and return it as a tuple."""
        pt = tuple(int(c) for c in point)
        if len(pt) != self._dims:
            raise CurveDomainError(
                f"{self.name}: point has {len(pt)} coordinates, "
                f"expected {self._dims}"
            )
        for c in pt:
            if not 0 <= c < self._side:
                raise CurveDomainError(
                    f"{self.name}: coordinate {c} outside [0, {self._side})"
                )
        return pt

    def _check_index(self, index: int) -> int:
        """Validate ``index`` and return it as an int."""
        idx = int(index)
        if not 0 <= idx < len(self):
            raise CurveDomainError(
                f"{self.name}: index {idx} outside [0, {len(self)})"
            )
        return idx

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dims={self._dims}, side={self._side})"


def is_power_of(value: int, base: int) -> bool:
    """Return True when ``value`` is a positive integer power of ``base``.

    ``base ** 0 == 1`` counts as a power, so ``is_power_of(1, b)`` is True
    for every base.
    """
    if value < 1:
        return False
    while value % base == 0:
        value //= base
    return value == 1


def require_power_of_two(side: int, curve_name: str) -> int:
    """Validate that ``side`` is a power of two and return log2(side)."""
    if not is_power_of(side, 2):
        raise CurveDomainError(
            f"{curve_name}: side must be a power of two, got {side}"
        )
    return side.bit_length() - 1
