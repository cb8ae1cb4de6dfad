"""Structured per-decision trace events for the serving layer.

Every decision the server takes — admitting or rejecting a stream,
dispatching a request, shedding a victim under overload, recording a
deadline miss — is appended to a :class:`TraceLog` as one
:class:`TraceEvent`.  The log doubles as the observability substrate
(counters per kind, bounded retention) and as the ground truth the
tests reconcile against :class:`~repro.sim.metrics.MetricsCollector`.

Event kinds (the trace-event schema):

===========  =========================================================
kind         meaning
===========  =========================================================
``admit``    a new stream was accepted at its requested QoS
``downgrade``a new stream was accepted, but demoted to the lowest
             priority level (graceful degradation)
``reject``   a new stream was refused by the admission controller
``close``    a stream ended (ran out of blocks, or was closed)
``dispatch`` a request started service at the disk
``complete`` a request finished service (on time or late)
``preempt``  a queued request was evicted by load shedding before it
             ever reached the disk
``miss``     a request missed its deadline (completed late, or was
             dropped already-expired at dispatch time)
``report``   a periodic QoS report was emitted
===========  =========================================================

Fault-injection kinds (emitted only when the server runs with a
:class:`~repro.faults.FaultInjector`):

================  ====================================================
kind              meaning
================  ====================================================
``fault_inject``  a service attempt failed (transient I/O error or a
                  whole-disk failure window); detail carries the cause
                  and the attempt number
``retry``         a previously failed request re-entered the scheduler
                  queue after its backoff elapsed
``degrade_enter`` sustained fault pressure pushed the server into
                  degraded mode (lowest-SFC-priority streams are shed
                  or downgraded)
``degrade_exit``  fault pressure subsided; normal service resumed
================  ====================================================

``dispatch``/``preempt``/``miss`` events are emitted exactly once per
affected request (per attempt, for ``dispatch`` under retries);
``admit``/``downgrade``/``reject`` exactly once per stream-open
attempt.
"""

from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Iterator

#: Version of the :meth:`TraceEvent.as_dict` export schema.  Bump when
#: a field is added, removed, or changes meaning.
TRACE_SCHEMA_VERSION = 1

#: The canonical event kinds, in rough lifecycle order.
TRACE_KINDS = (
    "admit",
    "downgrade",
    "reject",
    "close",
    "dispatch",
    "complete",
    "preempt",
    "miss",
    "report",
    "fault_inject",
    "retry",
    "degrade_enter",
    "degrade_exit",
)

#: Set form of :data:`TRACE_KINDS` for the per-event kind check.
_CANONICAL = frozenset(TRACE_KINDS)

#: Kinds added at runtime via :meth:`TraceLog.register_kind`.
_REGISTERED_KINDS: set[str] = set()


def known_trace_kinds() -> tuple[str, ...]:
    """Every currently-valid kind: canonical first, then registered."""
    return TRACE_KINDS + tuple(sorted(_REGISTERED_KINDS))


def _check_kind(kind: str) -> None:
    if kind not in _CANONICAL and kind not in _REGISTERED_KINDS:
        raise ValueError(
            f"unknown trace kind {kind!r}; "
            f"expected one of {known_trace_kinds()} "
            f"(see TraceLog.register_kind)"
        )


@dataclass(frozen=True)
class TraceEvent:
    """One structured serving-layer decision."""

    time_ms: float
    kind: str
    stream_id: int = -1
    request_id: int = -1
    detail: str = ""

    def __post_init__(self) -> None:
        _check_kind(self.kind)

    def as_dict(self) -> dict[str, object]:
        """Flat dict form (CSV / JSON-lines export), schema-versioned."""
        return {
            "schema_version": TRACE_SCHEMA_VERSION,
            "time_ms": self.time_ms,
            "kind": self.kind,
            "stream_id": self.stream_id,
            "request_id": self.request_id,
            "detail": self.detail,
        }


@dataclass
class TraceLog:
    """Bounded event log with per-kind counters.

    ``capacity`` bounds retention (oldest events are discarded first) so
    a long-lived server cannot grow without limit; the per-kind counters
    keep counting across evictions, so QoS accounting stays exact even
    when the event bodies have been dropped.  Events are retained as
    plain tuples, which the cyclic garbage collector stops tracking, so
    a large log does not slow every later collection; readers get
    :class:`TraceEvent` views.
    """

    capacity: int | None = None
    #: Optional callback invoked with every recorded event (e.g. an
    #: :meth:`repro.obs.Observer.on_trace_event` bound method).
    sink: Callable[[TraceEvent], None] | None = None
    _events: deque = field(init=False, repr=False)
    _counts: Counter = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.capacity is not None and self.capacity < 1:
            raise ValueError("capacity must be >= 1 (or None)")
        self._events = deque(maxlen=self.capacity)
        self._counts = Counter()

    @staticmethod
    def register_kind(kind: str) -> str:
        """Register an additional valid event kind.

        Subsystems layered on top of the server (replication, tiering,
        ...) call this once at import time to trace their own decisions
        without editing this module.  Canonical kinds stay validated
        exactly as before; re-registering any known kind is a no-op.
        Returns ``kind`` so the call doubles as a constant definition::

            KIND_REBALANCE = TraceLog.register_kind("rebalance")
        """
        if not kind or not isinstance(kind, str):
            raise ValueError("trace kind must be a non-empty string")
        if kind not in TRACE_KINDS:
            _REGISTERED_KINDS.add(kind)
        return kind

    def record(self, time_ms: float, kind: str, *, stream_id: int = -1,
               request_id: int = -1, detail: str = "") -> None:
        """Append one event and bump its kind counter."""
        _check_kind(kind)
        row = (time_ms, kind, stream_id, request_id, detail)
        self._events.append(row)
        self._counts[kind] += 1
        if self.sink is not None:
            self.sink(TraceEvent(*row))

    def rows(self) -> Iterator[tuple[float, str, int, int, str]]:
        """Retained events as plain ``(time_ms, kind, stream_id,
        request_id, detail)`` tuples (bulk serialization)."""
        return iter(self._events)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Retained events, optionally filtered by kind."""
        if kind is None:
            return [TraceEvent(*row) for row in self._events]
        return [TraceEvent(*row) for row in self._events if row[1] == kind]

    def count(self, kind: str) -> int:
        """Lifetime number of events of ``kind`` (eviction-proof)."""
        return self._counts[kind]

    def counts(self) -> dict[str, int]:
        """Lifetime counters for every kind seen so far."""
        return dict(self._counts)

    def to_jsonl(self, path) -> int:
        """Write retained events as JSON lines; returns lines written.

        Callers previously hand-rolled this export; keep it here so the
        schema (one :meth:`TraceEvent.as_dict` object per line, sorted
        keys) has a single owner.
        """
        written = 0
        with open(path, "w", encoding="utf-8") as fh:
            for event in self:
                fh.write(json.dumps(event.as_dict(), sort_keys=True))
                fh.write("\n")
                written += 1
        return written

    def __iter__(self) -> Iterator[TraceEvent]:
        return (TraceEvent(*row) for row in self._events)

    def __len__(self) -> int:
        """Number of *retained* events (≤ lifetime total when bounded)."""
        return len(self._events)
