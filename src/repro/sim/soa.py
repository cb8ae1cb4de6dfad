"""Structure-of-arrays request columns for the simulation loop.

:func:`repro.sim.server.run_simulation` keeps the whole workload as
numpy columns -- arrival, per-dimension priorities, and the
precomputed SFC key when the scheduler admits one -- and advances over
them in vectorized epochs between event barriers.

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
    """The workload as parallel numpy columns, in arrival order."""

    requests: tuple[DiskRequest, ...]
    #: Arrival clamped to >= 0 -- the instant the arrival fires
    #: (``max(arrival_ms, 0.0)``), non-decreasing.
    arrival_ms: np.ndarray
    #: ``(n, dims)`` int64 matrix of the priority vectors.
    priorities: np.ndarray
    #: Precomputed whole-run v_c (float64), or None when the scheduler
    #: does not admit arrival-time precomputation.
    sfc_key: np.ndarray | None = None

    @classmethod
    def from_requests(cls, ordered: Sequence[DiskRequest],
                      dims: int) -> "RequestColumns":
        n = len(ordered)
        arrival = np.empty(n, dtype=np.float64)
        priorities = np.empty((n, dims), dtype=np.int64)
        for i, request in enumerate(ordered):
            arrival[i] = max(request.arrival_ms, 0.0)
            if dims:
                priorities[i, :] = request.priorities
        return cls(
            requests=tuple(ordered),
            arrival_ms=arrival,
            priorities=priorities,
        )

    def __len__(self) -> int:
        return len(self.requests)


class InversionLedger:
    """Exact priority-inversion counting without iterating the queue.

    Every dispatch charges one inversion per waiting request per
    dimension where the waiting request's priority is *strictly*
    higher (a lower level).  Scanning the queue for that
    (``MetricsCollector.on_dispatch``) is an O(queue x dims) Python
    loop -- the dominant cost under load.  Priorities are small
    integers, so the same count falls out of per-level occupancy
    tables: rank every request's priority against the distinct levels
    present in the workload, keep one waiting-count per level, and the
    inversions charged to a dispatch are the occupancy strictly below
    the dispatched request's rank.  Integer arithmetic throughout, so
    the tallies are identical to the scan's, not approximations.
    """

    def __init__(self, priorities: np.ndarray) -> None:
        self._dims = priorities.shape[1] if priorities.ndim == 2 else 0
        self._ranks: list[np.ndarray] = []
        self._counts: list[list[int]] = []
        for k in range(self._dims):
            levels, ranks = np.unique(priorities[:, k],
                                      return_inverse=True)
            self._ranks.append(ranks.astype(np.int64))
            self._counts.append([0] * len(levels))

    def add(self, index: int) -> None:
        """Request ``index`` joined the waiting set."""
        for k in range(self._dims):
            self._counts[k][self._ranks[k][index]] += 1

    def remove(self, index: int) -> None:
        """Request ``index`` left the waiting set (popped by dispatch)."""
        for k in range(self._dims):
            self._counts[k][self._ranks[k][index]] -= 1

    def inversions_of(self, index: int) -> list[int]:
        """Waiting requests strictly above ``index``'s priority, per dim.

        Call after :meth:`remove`, mirroring the scan, where the
        dispatched request is already out of ``pending()``.
        """
        out = []
        for k in range(self._dims):
            rank = self._ranks[k][index]
            out.append(sum(self._counts[k][:rank]))
        return out


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


class ServeInversionLedger:
    """:class:`InversionLedger` for an open-ended request population.

    The offline ledger ranks a closed workload's priority levels up
    front; the serving tier admits requests open-endedly, so this
    variant keys occupancy by the raw priority level and grows the
    per-dimension tables on demand.  Same integer tallies as the
    legacy ``MetricsCollector.on_dispatch`` scan over ``pending()``.
    """

    def __init__(self, dims: int) -> None:
        self._counts: list[list[int]] = [[] for _ in range(dims)]

    def add(self, priorities: Sequence[int]) -> None:
        """A request with ``priorities`` joined the waiting set."""
        for k, level in enumerate(priorities):
            counts = self._counts[k]
            if level >= len(counts):
                counts.extend([0] * (level + 1 - len(counts)))
            counts[level] += 1

    def remove(self, priorities: Sequence[int]) -> None:
        """A request with ``priorities`` left the waiting set."""
        for k, level in enumerate(priorities):
            self._counts[k][level] -= 1

    def inversions_of(self, priorities: Sequence[int]) -> list[int]:
        """Waiting requests strictly above ``priorities``, per dim.

        Call after :meth:`remove`, mirroring the reference loop where
        the dispatched request is already out of ``pending()``.
        """
        return [sum(self._counts[k][:level])
                for k, level in enumerate(priorities)]
