"""A small event-driven simulation engine.

The RAID-5 array loop (:mod:`repro.sim.array`) keeps its retries,
rebuild stripes and refresh ticks here.  Events fire in (time,
sequence) order, so ties resolve in scheduling order.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True)
class _ScheduledEvent:
    time_ms: float
    sequence: int
    action: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)


class EventToken:
    """Handle returned by :meth:`EventQueue.schedule`; allows cancelling."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        self._event.cancelled = True

    @property
    def time_ms(self) -> float:
        return self._event.time_ms


class EventQueue:
    """Time-ordered queue of callbacks."""

    def __init__(self) -> None:
        self._heap: list[_ScheduledEvent] = []
        self._sequence = itertools.count()
        self._now = 0.0

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, time_ms: float, action: Callable[[], None]
                 ) -> EventToken:
        """Run ``action`` at ``time_ms`` (must not be in the past)."""
        if time_ms < self._now:
            raise ValueError(
                f"cannot schedule at {time_ms} before now={self._now}"
            )
        event = _ScheduledEvent(time_ms, next(self._sequence), action)
        heapq.heappush(self._heap, event)
        return EventToken(event)

    def reserve_sequences(self, count: int) -> int:
        """Consume ``count`` sequence numbers; return the first one.

        The array loop keeps logical arrivals and member completions
        outside the heap but must preserve the (time, sequence) tie
        order of scheduling them here; reserving a contiguous block at
        the point where they are scheduled pins later dynamic events
        behind them.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return -1
        first = next(self._sequence)
        for _ in range(count - 1):
            next(self._sequence)
        return first

    def peek_key(self) -> tuple[float, int] | None:
        """(time, sequence) of the next live event, or None when empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        event = self._heap[0]
        return (event.time_ms, event.sequence)

    def advance_to(self, time_ms: float) -> None:
        """Move the clock forward without firing anything.

        Used by external event sources (the arrival pump) that fire
        their own callbacks interleaved with the heap's.
        """
        if time_ms < self._now:
            raise ValueError(
                f"cannot advance to {time_ms} before now={self._now}"
            )
        self._now = time_ms

    def step(self) -> bool:
        """Fire the next event; False when the queue is exhausted."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._now = event.time_ms
            event.action()
            return True
        return False

    def run(self, until_ms: float | None = None) -> None:
        """Fire events until exhaustion (or until past ``until_ms``)."""
        while self._heap:
            if until_ms is not None and self._heap[0].time_ms > until_ms:
                self._now = until_ms
                return
            self.step()

    def __len__(self) -> int:
        return sum(1 for e in self._heap if not e.cancelled)
