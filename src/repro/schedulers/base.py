"""Scheduler interface shared by Cascaded-SFC and every baseline.

The simulator drives schedulers through three calls:

* :meth:`Scheduler.submit` -- a request arrived (the disk may be busy);
* :meth:`Scheduler.next_request` -- the disk is free, pick what to serve;
* :meth:`Scheduler.pending` -- enumerate waiting requests (metrics only).

``next_request`` receives the current time and head cylinder so that
position-aware policies (SSTF, SCAN, FD-SCAN, ...) can decide at
dispatch time; queue-order policies simply pop their queue.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    from repro.core.request import DiskRequest


class Scheduler(ABC):
    """Base class of all disk schedulers."""

    #: Registry name, e.g. ``"edf"``.
    name: str = "abstract"

    @abstractmethod
    def submit(self, request: DiskRequest, now: float,
               head_cylinder: int) -> None:
        """Accept an arriving request."""

    @abstractmethod
    def next_request(self, now: float, head_cylinder: int
                     ) -> DiskRequest | None:
        """Pick and remove the request to serve next, or None when idle."""

    @abstractmethod
    def pending(self) -> Iterator[DiskRequest]:
        """Iterate over every waiting request (any order)."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of waiting requests."""

    def submit_many(self, requests, nows, head_cylinder: int) -> None:
        """Accept a span of requests, each arriving at its own clock.

        ``nows`` holds one timestamp per request (non-decreasing).
        Semantically identical to calling :meth:`submit` in order; the
        simulation loop uses this for arrival spans that fall inside one
        busy period, where the head position is constant.  Vectorizing
        schedulers override it (see
        :meth:`repro.core.CascadedSFCScheduler.submit_many`).
        """
        for request, now in zip(requests, nows):
            self.submit(request, float(now), head_cylinder)

    def on_served(self, request: DiskRequest, completion_ms: float) -> None:
        """Hook: the disk finished serving ``request``.

        Default does nothing; stateful policies (e.g. SCAN direction
        bookkeeping) may override.
        """

    def bind_observer(self, observer) -> None:
        """Attach a :class:`repro.obs.Observer` for lifecycle tracing.

        Default does nothing: baselines carry no internal structure
        worth tracing.  The cascaded scheduler overrides this to record
        characterization stages and dispatcher queue movements.
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} pending={len(self)}>"


class SchedulerError(RuntimeError):
    """Raised on scheduler protocol violations (e.g. pop when empty)."""
