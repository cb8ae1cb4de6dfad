"""Structure-of-arrays request columns for the simulation loop.

:func:`repro.sim.server.run_simulation` keeps the whole workload as
columns -- arrival, per-dimension priority ranks, and the precomputed
SFC key when the scheduler admits one -- and advances over them in
vectorized epochs between event barriers.

The columns never replace the :class:`~repro.core.request.DiskRequest`
objects (schedulers and metrics still receive the originals); they are
the index the loop plans epochs and counts inversions from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.request import DiskRequest


@dataclass
class RequestColumns:
    """The workload as parallel columns, in arrival order."""

    requests: Sequence[DiskRequest]
    #: Arrival clamped to >= 0 -- the instant the arrival fires
    #: (``max(arrival_ms, 0.0)``), non-decreasing.
    arrival_ms: np.ndarray
    #: Per request, the rank of its priority level among the distinct
    #: levels of the workload, one rank per dimension: the
    #: :class:`InversionLedger` keys of the request.
    ranks: list[tuple[int, ...]]
    #: Precomputed whole-run v_c (float64), or None when the scheduler
    #: does not admit arrival-time precomputation.
    sfc_key: np.ndarray | None = None

    @classmethod
    def from_requests(cls, ordered: Sequence[DiskRequest],
                      dims: int) -> "RequestColumns":
        """Columns of ``ordered``, whose priority vectors all have
        ``dims`` levels (the caller checked the lengths)."""
        n = len(ordered)
        arrival = np.empty(n, dtype=np.float64)
        priorities = np.empty((n, dims), dtype=np.int64)
        for i, request in enumerate(ordered):
            arrival[i] = max(request.arrival_ms, 0.0)
            if dims:
                priorities[i, :] = request.priorities
        # One np.unique per dimension: the rank of each level among
        # the workload's distinct levels, ordered like the levels.
        ranks = [np.unique(priorities[:, k], return_inverse=True)[1].tolist()
                 for k in range(dims)]
        rows = list(zip(*ranks)) if dims else [()] * n
        return cls(requests=ordered, arrival_ms=arrival, ranks=rows)

    def __len__(self) -> int:
        return len(self.requests)


class InversionLedger:
    """Exact priority-inversion counting without iterating the queue.

    Every dispatch charges one inversion per waiting request per
    dimension where the waiting request's priority is *strictly*
    higher (a lower level).  Scanning the queue for that
    (``MetricsCollector.on_dispatch``) is an O(queue x dims) Python
    loop -- the dominant cost under load.  Priorities are small
    integers, so the same count falls out of per-dimension occupancy
    tables: keep one waiting-count per key, and the inversions charged
    to a dispatch are the occupancy strictly below the dispatched
    request's key.  Integer arithmetic throughout, so the tallies are
    identical to the scan's, not approximations.

    A request's keys are one small non-negative int per dimension,
    ordered like the priority levels they stand for.  The serving and
    array tiers, whose request populations are open-ended, feed the
    raw levels; :func:`repro.sim.run_simulation` feeds the dense ranks
    of :attr:`RequestColumns.ranks`, so sparse or huge levels still
    make short tables.  Tables grow on demand.
    """

    __slots__ = ("_counts",)

    def __init__(self, dims: int) -> None:
        self._counts: list[list[int]] = [[] for _ in range(dims)]

    def add(self, keys: Sequence[int]) -> None:
        """A request with ``keys`` joined the waiting set."""
        for counts, key in zip(self._counts, keys):
            try:
                counts[key] += 1
            except IndexError:
                counts.extend([0] * (key + 1 - len(counts)))
                counts[key] += 1

    def remove(self, keys: Sequence[int]) -> None:
        """A request with ``keys`` left the waiting set."""
        for counts, key in zip(self._counts, keys):
            counts[key] -= 1

    def inversions_of(self, keys: Sequence[int]) -> list[int]:
        """Waiting requests strictly above ``keys``, per dimension.

        Call after :meth:`remove`, mirroring the scan, where the
        dispatched request is already out of ``pending()``.
        """
        return [sum(counts[:key]) for counts, key in zip(self._counts, keys)]

    def charge(self, keys: Sequence[int], tallies: list[int]) -> None:
        """:meth:`remove` ``keys``, then add :meth:`inversions_of` them
        into ``tallies`` (e.g. ``MetricsCollector.inversions_by_dim``)."""
        k = 0
        for counts, key in zip(self._counts, keys):
            counts[key] -= 1
            tallies[k] += sum(counts[:key])
            k += 1


@dataclass
class ServeColumns:
    """A session's upcoming arrivals, precomputed as SoA spans.

    Each :class:`repro.serve.session.StreamSession` issues an arithmetic
    arrival sequence — ``due = opened + index * period`` — with a block
    walk and one RNG deadline draw per request.  The serving loop's
    span admission plans a chunk of that sequence ahead of time as
    three parallel columns (due, deadline, cylinder), indexed by the
    session's issue counter, so a run of arrivals longer than one
    block is taken without per-request heap churn.

    The arithmetic is element-for-element the scalar path's: dues via
    one float64 multiply-add, deadlines by adding the session RNG's
    draws (consumed in issue order at plan time) to the dues, cylinders
    through :meth:`repro.disk.geometry.DiskGeometry.block_cylinders`.
    A plan therefore never changes observable behaviour, only when the
    work happens — the scalar ``issue()`` consumes from the same plan.
    """

    stream_id: int
    #: Issue index of row 0; row ``i`` is issue ``start_index + i``.
    start_index: int
    due_ms: np.ndarray
    deadline_ms: np.ndarray
    cylinder: np.ndarray

    def __len__(self) -> int:
        return len(self.due_ms)

    @property
    def end_index(self) -> int:
        """One past the last planned issue index."""
        return self.start_index + len(self.due_ms)
