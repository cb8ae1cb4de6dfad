"""The online serving loop: sessions -> admission -> scheduler -> disk.

:class:`StreamingServer` is the serving-layer counterpart of the
offline :func:`repro.sim.run_simulation`: it wraps the same
:class:`~repro.schedulers.base.Scheduler` and
:class:`~repro.sim.service.ServiceModel` interfaces, but instead of
replaying a closed request list it is *clock-driven*: admitted
:class:`~repro.serve.session.StreamSession` feeds become due as time
advances, an :class:`~repro.serve.admission.AdmissionPolicy` gates new
streams, and overload is degraded gracefully — the request queue is
bounded, and when it overflows the server either sheds the
lowest-priority queued victims (``shed_policy="lowest-priority"``) or
exerts backpressure by deferring session polls
(``shed_policy="none"``).

Every decision lands in a :class:`~repro.serve.trace.TraceLog`, and
all timing/miss accounting reuses
:class:`~repro.sim.metrics.MetricsCollector`, so the online QoS
numbers reconcile exactly with the offline simulator's.

There is one serving loop (:meth:`StreamingServer.run_until`).  Pure
arrivals while the disk is busy are admitted as bulk spans from the
sessions' column plans; every other instant takes one flat event
step.  The per-event reference loop it replaced lives in the tests
(``tests/legacy_oracle.py``), which pin the two byte for byte.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from repro.core.batch import characterize_batch
from repro.core.encapsulator import EncodeContext
from repro.core.request import DiskRequest
from repro.core.scheduler import CascadedSFCScheduler
from repro.faults import FaultInjector
from repro.obs.observer import Observer, live
from repro.obs.profile import instrumented
from repro.schedulers.base import Scheduler
from repro.sim.metrics import MetricsCollector
from repro.sim.service import ServiceModel
from repro.sim.soa import InversionLedger

from .admission import (
    AdmissionDecision,
    AdmissionPolicy,
    AdmissionResult,
    LoadSnapshot,
)
from .clock import Clock, VirtualClock
from .session import SessionManager, StreamSession, StreamSpec
from .stats import QoSReporter, ServerStats, StreamQoSTracker
from .trace import TraceLog

#: Span size from which one whole-epoch :func:`characterize_batch`
#: beats per-request scalar submits (the batch call has a fixed cost
#: of roughly a dozen scalar characterizations).
_SPAN_BATCH_MIN = 16


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of the serving loop."""

    #: Bound on queued (not yet dispatched) requests.
    max_queue: int = 64
    #: ``"lowest-priority"`` sheds queued victims on overflow;
    #: ``"none"`` defers session polls instead (pure backpressure).
    shed_policy: str = "lowest-priority"
    #: Drop requests whose deadline already passed at dispatch time
    #: (a late video frame is worthless — Section 6).
    drop_expired: bool = True
    priority_dims: int = 1
    priority_levels: int = 8
    #: Retained trace events (None = unbounded).
    trace_capacity: int | None = None
    # -- graceful degradation under fault pressure (only active when
    # the server is constructed with a FaultInjector) ------------------
    #: Sliding window over which fault events count as "pressure".
    degrade_window_ms: float = 5_000.0
    #: Fault events inside the window that trip degraded mode.
    degrade_after: int = 8
    #: ``"shed"`` closes the lowest-SFC-priority stream on entry;
    #: ``"downgrade"`` demotes it to the lowest priority level instead.
    degrade_policy: str = "shed"
    #: Streams shed/downgraded per degraded-mode entry.
    degrade_victims: int = 1
    #: Period of queue re-characterization: every that many ms the
    #: scheduler re-keys queued requests to the current clock and head
    #: position (no-op for schedulers without ``recharacterize``).
    #: None (the default) keeps the paper's insert-time-only baseline
    #: and the pinned golden serve trace bit-identical.
    recharacterize_ms: float | None = None

    def __post_init__(self) -> None:
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if self.recharacterize_ms is not None and not (
                math.isfinite(self.recharacterize_ms)
                and self.recharacterize_ms > 0):
            raise ValueError("recharacterize_ms must be finite and positive")
        if self.shed_policy not in ("lowest-priority", "none"):
            raise ValueError(
                "shed_policy must be 'lowest-priority' or 'none'"
            )
        if not (math.isfinite(self.degrade_window_ms)
                and self.degrade_window_ms > 0):
            raise ValueError("degrade_window_ms must be finite and positive")
        if self.degrade_after < 1:
            raise ValueError("degrade_after must be >= 1")
        if self.degrade_policy not in ("shed", "downgrade"):
            raise ValueError(
                "degrade_policy must be 'shed' or 'downgrade'"
            )
        if self.degrade_victims < 1:
            raise ValueError("degrade_victims must be >= 1")


class StreamingServer:
    """Admission-controlled streaming disk server.

    Drive it by alternating :meth:`open_stream` / :meth:`close_stream`
    with :meth:`run_until` (advance the clock, serving everything due);
    :meth:`quiesce` finishes all outstanding work of bounded sessions.
    """

    def __init__(self, scheduler: Scheduler, service: ServiceModel,
                 manager: SessionManager, admission: AdmissionPolicy,
                 *, clock: Clock | None = None,
                 config: ServerConfig | None = None,
                 reporter: QoSReporter | None = None,
                 faults: FaultInjector | None = None,
                 observer: Observer | None = None) -> None:
        self.scheduler = scheduler
        self.service = service
        self.manager = manager
        self.admission = admission
        self.faults = faults
        self.clock = clock if clock is not None else VirtualClock()
        self.config = config or ServerConfig()
        #: Per-dimension level occupancy of the waiting set: dispatch
        #: reads its priority inversions here instead of scanning the
        #: queue.
        self._ledger = InversionLedger(self.config.priority_dims)
        #: Lazy max-heap over queued requests on the shed-victim key
        #: ``(priorities, deadline, request_id)``.
        self._shed_heap: list[
            tuple[tuple[int, ...], float, int, DiskRequest]] = []
        #: Ids currently inside the scheduler queue.
        self._queued_ids: set[int] = set()
        self.reporter = reporter
        self.trace = TraceLog(capacity=self.config.trace_capacity)
        self.metrics = MetricsCollector(self.config.priority_dims,
                                        self.config.priority_levels)
        self.obs = live(observer)
        if self.obs is not None:
            # The trace log mirrors every serving-layer decision into
            # the registry; spans get the richer per-request hooks.
            self.trace.sink = self.obs.on_trace_event
            scheduler.bind_observer(self.obs)
            self.obs.watch_scheduler(scheduler)
            self.metrics.publish_into(self.obs.registry, prefix="serve")
            if faults is not None:
                self.obs.watch_faults(faults)
            self.obs.registry.on_collect(self._publish_server_gauges)
        #: Whether arrival spans may be taken at all.  A span skips the
        #: per-request observer hooks, deferred polls (``"none"``
        #: backpressure) reshape the arrival pattern a span assumes,
        #: and a real clock must not jump across the span; those runs
        #: take the event step for every instant.
        self._spans = (self.obs is None
                       and self.config.shed_policy == "lowest-priority"
                       and isinstance(self.clock, VirtualClock))
        #: Under ``"none"`` backpressure due polls wait for queue room.
        self._backpressure = self.config.shed_policy == "none"
        self.started_ms = self.clock.now_ms()
        # Admission counters.
        self.admitted = 0
        self.downgraded = 0
        self.rejected = 0
        self.closed_streams = 0
        # Dispatch-path counters.
        self.dispatched = 0
        self.preempted = 0
        self.expired = 0
        #: In-flight request and its completion instant, if busy.
        self._busy: tuple[DiskRequest, float] | None = None
        #: True while the in-flight "service" is an aborting fault.
        self._busy_faulted = False
        #: Ids counted as shed but still inside the scheduler queue.
        self._shed_pending: set[int] = set()
        # Fault-injection state.
        #: Service attempts per request id (only under fault injection).
        self._attempts: dict[int, int] = {}
        #: (due_ms, request_id, request) heap of pending retries.
        self._retry_due: list[tuple[float, int, DiskRequest]] = []
        #: Fault instants inside the sliding pressure window.
        self._fault_times: list[float] = []
        self.fault_failures = 0
        self.degrade_entries = 0
        self.degraded_streams = 0
        self.degraded = False
        #: Per-admitted-stream reserved utilization shares.
        self._reservations: dict[int, float] = {}
        #: Cached running sum of the shares (None = dirty).  Admission
        #: checks read it per decision; keeping the fold incremental
        #: (append adds, removal invalidates) reproduces
        #: ``sum(dict.values())`` bit-for-bit.
        self._reserved_sum: float | None = 0
        self._qos: dict[int, StreamQoSTracker] = {}
        #: Next periodic re-characterization instant (None = disarmed).
        self._recharacterize_due: float | None = None
        self._can_recharacterize = (
            self.config.recharacterize_ms is not None
            and getattr(scheduler, "recharacterize", None) is not None
        )
        #: Queue re-characterization passes performed.
        self.recharacterizations = 0
        #: Whether any timer (report, retry, degrade-exit, re-key) can
        #: ever be armed; without one, event times are completions and
        #: session dues only.
        self._timed = (reporter is not None or faults is not None
                       or self._can_recharacterize)

    # -- stream lifecycle -------------------------------------------------

    @property
    def reserved_utilization(self) -> float:
        if self._reserved_sum is None:
            self._reserved_sum = sum(self._reservations.values())
        return self._reserved_sum

    def queue_length(self) -> int:
        """Queued requests still eligible for service."""
        return len(self._queued_ids) - len(self._shed_pending)

    def measured_utilization(self, now_ms: float | None = None) -> float:
        elapsed = (self.clock.now_ms() if now_ms is None
                   else now_ms) - self.started_ms
        return self.metrics.busy_ms / elapsed if elapsed > 0 else 0.0

    def load_snapshot(self) -> LoadSnapshot:
        """Current load, as the admission controller sees it."""
        now = self.clock.now_ms()
        return LoadSnapshot(
            time_ms=now,
            active_streams=self.manager.active_streams,
            reserved_utilization=self.reserved_utilization,
            measured_utilization=self.measured_utilization(now),
            miss_ratio=self.metrics.miss_ratio,
            queue_length=self.queue_length(),
        )

    def open_stream(self, spec: StreamSpec
                    ) -> tuple[AdmissionResult, StreamSession | None]:
        """Ask admission control for a new stream at the current time.

        Rejected specs get no session and therefore can never enqueue a
        request; downgraded specs are admitted with the priority vector
        the controller granted.
        """
        if len(spec.priorities) != self.config.priority_dims:
            raise ValueError(
                f"spec has {len(spec.priorities)} priority dims, "
                f"server is configured for {self.config.priority_dims}"
            )
        now = self.clock.now_ms()
        admission = self.admission
        result = admission.decide(
            spec, self.load_snapshot() if admission.reads_load else None)
        if not result.admitted:
            self.rejected += 1
            self.trace.record(now, "reject", detail=result.reason)
            return result, None
        granted = spec
        if (result.priorities is not None
                and result.priorities != spec.priorities):
            granted = spec.with_priorities(result.priorities)
        session = self.manager.open(granted, now)
        self._reservations[session.stream_id] = result.utilization
        if self._reserved_sum is not None:
            # Same fold as sum(values) with an append-at-end dict.
            self._reserved_sum = self._reserved_sum + result.utilization
        self._qos[session.stream_id] = StreamQoSTracker(session.stream_id)
        if result.decision is AdmissionDecision.DOWNGRADE:
            self.downgraded += 1
            kind = "downgrade"
        else:
            self.admitted += 1
            kind = "admit"
        self.trace.record(now, kind, stream_id=session.stream_id,
                          detail=result.reason)
        return result, session

    def close_stream(self, stream_id: int) -> StreamSession:
        """End a stream; its queued requests still drain normally."""
        now = self.clock.now_ms()
        session = self.manager.close(stream_id, now)
        self._retire(session, now)
        return session

    def _retire(self, session: StreamSession, now: float) -> None:
        self._reservations.pop(session.stream_id, None)
        self._reserved_sum = None  # mid-dict removal: recompute lazily
        self.closed_streams += 1
        self.trace.record(now, "close", stream_id=session.stream_id,
                          detail=f"issued={session.issued}")

    # -- the clock-driven loop --------------------------------------------

    def run_until(self, until_ms: float) -> None:
        """Advance the clock to ``until_ms``, serving everything due.

        While the disk is busy, every instant strictly before the next
        event barrier (completion, armed timer, ``until_ms``) is a pure
        arrival: nothing completes or dispatches, and no trace event
        other than shed/retire can occur.  Those arrivals are admitted
        as one span (:meth:`_admit_span`).  Every other instant takes
        one event :meth:`_step`.  A call with nothing due before
        ``until_ms`` costs one event-time computation.
        """
        clock = self.clock
        now_ms = clock.now_ms
        next_due_ms = self.manager.next_due_ms
        spans = self._spans
        timed = self._timed
        while True:
            now = now_ms()
            busy = self._busy
            due = next_due_ms()
            # Strictly-future dues only: an arrival due exactly *now*
            # is stepped at the clock's current value (whose int-ness
            # the trace repr preserves).
            if spans and busy is not None and due is not None and due > now:
                barrier = min(until_ms, busy[1])
                if timed:
                    for c in self._timer_candidates(now):
                        if c < barrier:
                            barrier = c
                if due < barrier:
                    self._admit_span(due, barrier)
                    continue
            t = self._next_event_ms(until_ms, now, busy, due)
            if t is None:
                break
            clock.sleep_until(t)
            self._step(max(t, now_ms()), due)
        clock.sleep_until(until_ms)

    def _next_event_ms(self, until_ms: float, now: float,
                       busy: tuple[DiskRequest, float] | None,
                       due: float | None) -> float | None:
        """Earliest actionable instant at or before ``until_ms``.

        Candidates in a fixed order -- completion, report, retry,
        degrade-exit, re-key, session due -- where the first of equal
        minima wins, so which of two tying instants (an int clock
        value, a float due) is processed never depends on anything
        else.
        """
        t = None if busy is None else busy[1]
        if self._timed:
            for c in self._timer_candidates(now):
                if t is None or c < t:
                    t = c
        if due is not None:
            if due > now:
                if t is None or due < t:
                    t = due
            elif self._poll_limit() != 0:
                # Deferred (backpressured) work can be picked up now.
                if t is None or now < t:
                    t = now
            # else: no room; the next completion will re-poll.
        if t is None or t > until_ms:
            return None
        return t

    def _timer_candidates(self, now: float) -> list[float]:
        """Wake-up instants of the armed timers, in candidate order."""
        out = []
        if self.reporter is not None:
            out.append(self.reporter.next_due_ms)
        if self._retry_due:
            out.append(max(self._retry_due[0][0], now))
        if self.degraded and self._fault_times:
            # The instant the oldest fault ages out of the pressure
            # window (a possible degrade_exit).
            out.append(self._fault_times[0] + self.config.degrade_window_ms)
        if (self._recharacterize_due is not None
                and self.queue_length() > 0):
            out.append(max(self._recharacterize_due, now))
        return out

    def _admit_span(self, first_due: float, barrier: float) -> None:
        """Admit every session arrival strictly before ``barrier``."""
        config = self.config
        if self._can_recharacterize and self._recharacterize_due is None:
            # The periodic re-key arms at the first group instant;
            # folding its due into the barrier up front keeps the
            # armed timer outside the span.
            barrier = min(barrier, first_due + config.recharacterize_ms)
        requests, dues, exhausted = self.manager.poll_span(barrier)
        scheduler = self.scheduler
        head = self.service.head_cylinder
        keys: list[float] | None = None
        if (isinstance(scheduler, CascadedSFCScheduler)
                and len(requests) >= _SPAN_BATCH_MIN):
            # One characterize_batch for the whole epoch; insertion
            # happens per instant group below with the precomputed
            # keys (head position cannot move inside the span).  Short
            # spans stay on the scalar submit path -- the batch call's
            # fixed cost would dominate them.
            ctx = EncodeContext(now_ms=dues[-1], head_cylinder=head)
            keys = characterize_batch(
                scheduler.encapsulator, requests, ctx,
                nows=np.asarray(dues, dtype=np.float64),
            ).tolist()
            insert = scheduler.dispatcher.insert
        qos = self._qos
        max_queue = config.max_queue
        exhaust_i = 0
        n = len(requests)
        i = 0
        while i < n:
            t = dues[i]
            j = i + 1
            while j < n and dues[j] == t:
                j += 1
            group = requests[i:j]
            if keys is not None:
                for request, vc in zip(group, keys[i:j]):
                    insert(request, vc)
            else:
                submit = scheduler.submit
                for request in group:
                    submit(request, t, head)
            for request in group:
                tracker = qos.get(request.stream_id)
                if tracker is not None:
                    tracker.on_issue()
                self._note_queued(request)
            if self.queue_length() > max_queue:
                self._shed(t)
            while (exhaust_i < len(exhausted)
                   and exhausted[exhaust_i][0] <= t):
                session = exhausted[exhaust_i][1]
                self.manager.retire(session, t)
                self._retire(session, t)
                exhaust_i += 1
            i = j
        if self._can_recharacterize and self._recharacterize_due is None:
            # The queue is non-empty from the first group on, so an
            # event step there would have armed the timer.
            self._recharacterize_due = first_due + config.recharacterize_ms
        self.clock.sleep_until(dues[-1])

    def _note_queued(self, request: DiskRequest) -> None:
        """Bookkeeping for a request entering the scheduler queue."""
        self._ledger.add(request.priorities)
        queued = self._queued_ids
        queued.add(request.request_id)
        heap = self._shed_heap
        if len(heap) > 2 * len(queued) + 64:
            # Entries of dispatched requests only surface during a
            # shed; drop them here so the heap stays O(queue) when
            # sheds are rare.
            heap[:] = [entry for entry in heap
                       if -entry[2] in queued
                       and -entry[2] not in self._shed_pending]
            heapq.heapify(heap)
        heapq.heappush(heap, (
            tuple([-p for p in request.priorities]),
            -request.deadline_ms, -request.request_id, request,
        ))

    def run_for(self, delta_ms: float) -> None:
        self.run_until(self.clock.now_ms() + delta_ms)

    def quiesce(self) -> None:
        """Serve until no work remains (bounded sessions only).

        Runs completions, queued requests, and every remaining session
        block to exhaustion.  Calling this with an open-ended (live)
        session would never return; close those first.
        """
        for session in self.manager:
            if session.spec.blocks is None:
                raise RuntimeError(
                    f"stream {session.stream_id} is open-ended; "
                    "close it before quiescing"
                )
        while (self._busy is not None or self.queue_length() > 0
               or self._retry_due
               or self.manager.next_due_ms() is not None):
            due = self.manager.next_due_ms()
            t = self._next_event_ms(math.inf, self.clock.now_ms(),
                                    self._busy, due)
            if t is None:
                break
            self.clock.sleep_until(t)
            self._step(max(t, self.clock.now_ms()), due)

    def _poll_limit(self) -> int | None:
        """How many due requests may enter the queue right now."""
        if not self._backpressure:
            return None  # take everything; shedding restores the bound
        return max(self.config.max_queue - self.queue_length(), 0)

    def _step(self, now: float, due: float | None) -> None:
        """Handle everything actionable at instant ``now``.

        The stages run in a fixed order -- completion, retries, fault
        pressure, due arrivals, shedding, re-key, dispatch, retirement,
        re-key re-arm, report -- each behind the cheap test that says
        it has work, so an instant costs what actually happens at it.
        ``due`` is the sessions' earliest due as the loop last read it;
        nothing before the admission stage can move a due earlier.
        """
        busy = self._busy
        if busy is not None and busy[1] <= now:
            self._complete()
        retry = self._retry_due
        grew = bool(retry) and retry[0][0] <= now
        if grew:
            self._requeue_retries(now)
        if self._fault_times or self.degraded:
            self._update_degrade(now)
        if ((due is not None and due <= now) or self.obs is not None) \
                and self._admit_due(now):
            grew = True
        if (grew and not self._backpressure
                and self.queue_length() > self.config.max_queue):
            self._shed(now)
        if (self._recharacterize_due is not None
                and now >= self._recharacterize_due):
            self._recharacterize(now)
        if self._busy is None:
            self._dispatch(now)
        for session in self.manager.retire_exhausted(now):
            self._retire(session, now)
        if self._can_recharacterize:
            # (Re-)arm the periodic re-key only while there is queued
            # work, so an idle server generates no wake-ups.
            if self.queue_length() == 0:
                self._recharacterize_due = None
            elif self._recharacterize_due is None:
                self._recharacterize_due = (now
                                            + self.config.recharacterize_ms)
        if self.reporter is not None and self.reporter.due(now):
            stats = self.stats()
            self.reporter.report(stats)
            self.trace.record(now, "report",
                              detail=f"#{self.reporter.reports}")

    def _admit_due(self, now: float) -> bool:
        """Move due session blocks into the scheduler queue.

        Returns whether any request entered.
        """
        limit = self._poll_limit()
        if limit == 0:
            return False
        obs = self.obs
        requests = self.manager.poll(now, limit)
        submit = self.scheduler.submit
        head = self.service.head_cylinder
        for request in requests:
            tracker = self._qos.get(request.stream_id)
            if tracker is not None:
                tracker.on_issue()
            if obs is not None:
                obs.on_arrival(request, now)
            submit(request, now, head)
            self._note_queued(request)
            if obs is not None:
                obs.ensure_enqueued(request, now)
        if obs is not None:
            obs.on_queue_depth(now, self.queue_length())
        return bool(requests)

    def _recharacterize(self, now: float) -> None:
        """Periodic re-key of the queue to the current clock and head."""
        if self.queue_length() == 0:
            return
        self._recharacterize_due = None  # re-armed at the end of _step
        self.scheduler.recharacterize(  # type: ignore[attr-defined]
            now, self.service.head_cylinder
        )
        self.recharacterizations += 1

    def _shed(self, now: float) -> None:
        """Evict lowest-priority queued victims until the bound holds.

        Victims come off a lazy max-heap on the ``(priorities,
        deadline, request_id)`` key.  Entries go stale when their
        request is popped or already shed and are discarded on
        surfacing; the surviving top is the largest eligible key,
        taken in descending order.
        """
        excess = self.queue_length() - self.config.max_queue
        heap = self._shed_heap
        queued = self._queued_ids
        shed = self._shed_pending
        while excess > 0 and heap:
            victim = heapq.heappop(heap)[3]
            rid = victim.request_id
            if rid not in queued or rid in shed:
                continue  # stale entry
            self._shed_one(victim, now)
            excess -= 1

    def _shed_one(self, victim: DiskRequest, now: float) -> None:
        """Count one queued request as shed (it drains as a zombie)."""
        self._shed_pending.add(victim.request_id)
        self.preempted += 1
        self.metrics.on_complete(victim, now, dropped=True)
        if self.obs is not None:
            self.obs.on_drop(victim, now, "shed")
        tracker = self._qos.get(victim.stream_id)
        if tracker is not None:
            tracker.on_complete(now, missed=True, served=False)
        self.trace.record(
            now, "preempt", stream_id=victim.stream_id,
            request_id=victim.request_id,
            detail=f"shed level={max(victim.priorities, default=0)}",
        )

    # -- fault injection & graceful degradation ---------------------------

    def _fault_attempt(self, request: DiskRequest, now: float) -> str:
        """Roll this dispatch against the fault plan.

        Returns ``"ok"`` (serve normally), ``"abort"`` (the attempt
        failed; the disk is busy aborting and the request will retry
        after backoff), or ``"gave_up"`` (retry budget exhausted; the
        request was dropped).
        """
        assert self.faults is not None
        attempt = self._attempts.get(request.request_id, 0) + 1
        self._attempts[request.request_id] = attempt
        if not self.faults.attempt_fails(0, request.request_id,
                                         attempt, now):
            return "ok"
        self._note_fault(now)
        cause = ("disk-failure" if self.faults.is_failed(0, now)
                 else "io-error")
        self.trace.record(now, "fault_inject",
                          stream_id=request.stream_id,
                          request_id=request.request_id,
                          detail=f"{cause} attempt={attempt}")
        if self.faults.exhausted(attempt):
            self.faults.note_gave_up()
            self.fault_failures += 1
            self._attempts.pop(request.request_id, None)
            self.metrics.on_complete(request, now, dropped=True)
            self.scheduler.on_served(request, now)
            tracker = self._qos.get(request.stream_id)
            if tracker is not None:
                tracker.on_complete(now, missed=True, served=False)
            self.trace.record(now, "miss",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail="fault")
            if self.obs is not None:
                self.obs.on_drop(request, now, "fault")
            return "gave_up"
        # The aborted command still occupies the disk briefly; the
        # request itself re-enters the queue after its backoff.
        self._busy = (request, now + self.faults.policy.abort_ms)
        self._busy_faulted = True
        return "abort"

    def _requeue_retries(self, now: float) -> None:
        """Re-submit requests whose retry backoff has elapsed."""
        while self._retry_due and self._retry_due[0][0] <= now:
            _due, _rid, request = heapq.heappop(self._retry_due)
            assert self.faults is not None
            self.faults.note_retry()
            attempts = self._attempts.get(request.request_id, 0)
            if self.obs is not None:
                self.obs.on_requeue(request, now, attempt=attempts + 1)
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
            self._note_queued(request)
            self.trace.record(now, "retry",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail=f"attempt={attempts + 1}")

    def _note_fault(self, now: float) -> None:
        self._fault_times.append(now)
        self._update_degrade(now)

    def _update_degrade(self, now: float) -> None:
        """Maintain the sliding fault-pressure window and mode flips."""
        if self.faults is None:
            return
        config = self.config
        times = self._fault_times
        # Same arithmetic as the _next_event_ms wake-up candidate
        # (times[0] + window), so the scheduled exit instant is
        # guaranteed to actually age the fault out.
        while times and times[0] + config.degrade_window_ms <= now:
            times.pop(0)
        if not self.degraded and len(times) >= config.degrade_after:
            self.degraded = True
            self.degrade_entries += 1
            self.trace.record(
                now, "degrade_enter",
                detail=(f"faults={len(times)}"
                        f"/{config.degrade_window_ms:.0f}ms"),
            )
            self._degrade_relief(now)
        elif self.degraded and not times:
            self.degraded = False
            self.trace.record(now, "degrade_exit")

    def _degrade_relief(self, now: float) -> None:
        """Shed or downgrade the lowest-SFC-priority active streams.

        One pass over the population: the ``degrade_victims`` largest
        sessions on the ``(priorities, stream_id)`` key, descending,
        match the old rescan-per-victim loop — shedding removes the
        chosen victim from the population and downgrading makes it
        ineligible, and neither changes any other session's key.
        """
        config = self.config
        lowest_of = lambda spec: tuple(  # noqa: E731
            config.priority_levels - 1 for _ in spec.priorities
        )
        eligible = [
            s for s in self.manager
            if (config.degrade_policy == "shed"
                or s.spec.priorities != lowest_of(s.spec))
        ]
        victims = heapq.nlargest(
            config.degrade_victims, eligible,
            key=lambda s: (s.spec.priorities, s.stream_id),
        )
        for victim in victims:
            if config.degrade_policy == "shed":
                self.close_stream(victim.stream_id)
            else:
                victim.spec = victim.spec.with_priorities(
                    lowest_of(victim.spec)
                )
                self.trace.record(now, "downgrade",
                                  stream_id=victim.stream_id,
                                  detail="degrade-mode")
            self.degraded_streams += 1

    @instrumented("dispatch_loop")
    def _dispatch(self, now: float) -> None:
        """Start serving the scheduler's next pick if the disk is free."""
        while self._busy is None:
            request = self.scheduler.next_request(
                now, self.service.head_cylinder
            )
            if request is None:
                return
            self._ledger.remove(request.priorities)
            self._queued_ids.discard(request.request_id)
            if request.request_id in self._shed_pending:
                # Already counted as shed; let the scheduler forget it.
                self._shed_pending.discard(request.request_id)
                self.scheduler.on_served(request, now)
                continue
            self.metrics.note_queue_length(
                len(self._queued_ids) - len(self._shed_pending) + 1)
            if self.config.drop_expired and now >= request.deadline_ms:
                self.expired += 1
                self.metrics.on_complete(request, now, dropped=True)
                self.scheduler.on_served(request, now)
                tracker = self._qos.get(request.stream_id)
                if tracker is not None:
                    tracker.on_complete(now, missed=True, served=False)
                self.trace.record(now, "miss",
                                  stream_id=request.stream_id,
                                  request_id=request.request_id,
                                  detail="expired")
                if self.obs is not None:
                    self.obs.on_drop(request, now, "expired")
                continue
            if self.faults is not None:
                outcome = self._fault_attempt(request, now)
                if outcome == "gave_up":
                    continue
                if outcome == "abort":
                    return
            # Same tallies as scanning pending(): the ledger holds
            # exactly the still-queued requests, shed zombies included.
            self.metrics.add_inversions(
                self._ledger.inversions_of(request.priorities))
            record = self.service.serve(request, now)
            total_ms = record.total_ms
            if self.faults is not None:
                self._attempts.pop(request.request_id, None)
                total_ms += self.faults.service_penalty_ms(
                    0, now, record.total_ms
                )
            self.metrics.on_service(record.seek_ms, record.latency_ms,
                                    total_ms - record.total_ms
                                    + record.transfer_ms)
            self.dispatched += 1
            self._busy = (request, now + total_ms)
            self.trace.record(now, "dispatch",
                              stream_id=request.stream_id,
                              request_id=request.request_id)
            if self.obs is not None:
                self.obs.on_dispatch(request, now)
                self.obs.on_service(
                    request, now, seek_ms=record.seek_ms,
                    latency_ms=record.latency_ms,
                    transfer_ms=total_ms - record.seek_ms
                    - record.latency_ms,
                )
            return

    def _complete(self) -> None:
        assert self._busy is not None
        request, completion = self._busy
        self._busy = None
        if self._busy_faulted:
            # A failed attempt finished aborting: pay the backoff,
            # then the request re-enters the scheduler queue.
            self._busy_faulted = False
            assert self.faults is not None
            self.scheduler.on_served(request, completion)
            attempt = self._attempts[request.request_id]
            due = completion + self.faults.policy.backoff_for(attempt)
            heapq.heappush(self._retry_due,
                           (due, request.request_id, request))
            return
        self.metrics.on_complete(request, completion)
        self.scheduler.on_served(request, completion)
        missed = completion > request.deadline_ms
        tracker = self._qos.get(request.stream_id)
        if tracker is not None:
            tracker.on_complete(completion, missed)
        if self.obs is not None:
            self.obs.on_complete(request, completion, missed=missed)
        self.trace.record(completion, "complete",
                          stream_id=request.stream_id,
                          request_id=request.request_id)
        if missed:
            self.trace.record(completion, "miss",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail="late")

    # -- observability ----------------------------------------------------

    def _publish_server_gauges(self) -> None:
        """Registry pull: admission and dispatch-path counters.

        Mirrors the :class:`ServerStats` tallies so Prometheus exports
        reconcile with :meth:`stats` snapshots (a property test pins
        this against the span-log outcomes too).
        """
        assert self.obs is not None
        registry = self.obs.registry
        for name, value, help_text in (
            ("streams_admitted_total", self.admitted, "streams admitted"),
            ("streams_downgraded_total", self.downgraded,
             "streams admitted at degraded priority"),
            ("streams_rejected_total", self.rejected, "streams refused"),
            ("streams_closed_total", self.closed_streams, "streams ended"),
            ("requests_dispatched_total", self.dispatched,
             "requests that started disk service"),
            ("requests_preempted_total", self.preempted,
             "queued requests shed under overload"),
            ("requests_expired_total", self.expired,
             "requests dropped already-expired at dispatch"),
            ("fault_failures_total", self.fault_failures,
             "requests abandoned after exhausting retries"),
            ("degrade_entries_total", self.degrade_entries,
             "degraded-mode entries"),
        ):
            registry.counter(name, help_text).set_total(float(value))
        registry.gauge("active_streams",
                       "currently open streams").set(
                           self.manager.active_streams)
        registry.gauge("server_queue_length",
                       "queued requests eligible for service").set(
                           self.queue_length())
        registry.gauge("reserved_utilization",
                       "sum of admitted utilization shares").set(
                           self.reserved_utilization)
        registry.gauge("degraded",
                       "1 while in degraded mode").set(
                           1.0 if self.degraded else 0.0)

    def stats(self) -> ServerStats:
        """Snapshot the current QoS state."""
        now = self.clock.now_ms()
        return ServerStats(
            time_ms=now,
            active_streams=self.manager.active_streams,
            admitted=self.admitted,
            downgraded=self.downgraded,
            rejected=self.rejected,
            closed=self.closed_streams,
            dispatched=self.dispatched,
            completed=self.metrics.completed,
            missed=self.metrics.missed,
            preempted=self.preempted,
            expired=self.expired,
            queue_length=self.queue_length(),
            mean_queue_length=self.metrics.queue_length.mean,
            reserved_utilization=self.reserved_utilization,
            measured_utilization=self.measured_utilization(now),
            miss_ratio=self.metrics.miss_ratio,
            mean_response_ms=self.metrics.response_ms.mean,
            streams=tuple(
                self._qos[sid].snapshot() for sid in sorted(self._qos)
            ),
            faults_injected=(self.faults.counters.injected
                             if self.faults else 0),
            fault_retries=(self.faults.counters.retries
                           if self.faults else 0),
            fault_failures=self.fault_failures,
            degrade_entries=self.degrade_entries,
            degraded_streams=self.degraded_streams,
            degraded=self.degraded,
        )
