"""Reference loops for the differential tests: one event at a time.

:func:`repro.sim.run_simulation` and
:func:`repro.sim.run_array_simulation` plan their runs over arrival
columns, lane heaps and vectorized epochs, and
:class:`repro.serve.StreamingServer` admits arrival spans in bulk and
keeps its inversion and shed bookkeeping incrementally.  The loops
here are the plain formulations they replaced -- every arrival, every
completion and every refresh tick is its own event, priority
inversions are counted by scanning the waiting queue at each
dispatch, and shed victims are found by scanning it too.  They are
slow and obviously right; the differential batteries
(``tests/test_engine_differential.py``,
``tests/test_serve_engine_differential.py``) and the golden replays
(``tests/test_determinism_golden.py``, ``tests/test_cluster_golden.py``)
require the shipped loops to reproduce them bit for bit.

The cluster decision tier has its reference here too:
:func:`route_scan` snapshots every array's load and ranks the whole
fleet per decision, where :meth:`repro.cluster.GlobalAdmission.route`
walks indexed views lazily; ``tests/test_cluster_incremental.py``
requires identical decisions.
"""

from __future__ import annotations

import bisect
import heapq
import math
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence
from unittest import mock

from repro.cluster.admission import (
    ClusterDecision,
    GlobalAdmission,
    RouteDecision,
)
from repro.cluster.placement import (
    LeastReservedPlacement,
    PlacementPolicy,
    stable_hash,
)
from repro.core.request import DiskRequest
from repro.obs.observer import Observer, live
from repro.schedulers.base import Scheduler
from repro.serve.server import StreamingServer
from repro.sim import array
from repro.sim.engine import EventQueue
from repro.sim.metrics import MetricsCollector
from repro.sim.server import SimulationResult, TimelineEntry
from repro.sim.service import ServiceModel


# -- single disk --------------------------------------------------------------

def run_simulation(requests: Sequence[DiskRequest],
                   scheduler: Scheduler,
                   service: ServiceModel,
                   *,
                   drop_expired: bool = False,
                   stop_at_ms: float | None = None,
                   priority_dims: int | None = None,
                   priority_levels: int = 16,
                   record_timeline: bool = False,
                   recharacterize_every_ms: float | None = None,
                   observer: Observer | None = None
                   ) -> SimulationResult:
    """Reference for :func:`repro.sim.run_simulation` (same contract)."""
    if recharacterize_every_ms is not None and recharacterize_every_ms <= 0:
        raise ValueError("recharacterize_every_ms must be positive")
    ordered = sorted(requests, key=lambda r: (r.arrival_ms, r.request_id))
    if priority_dims is None:
        priority_dims = len(ordered[0].priorities) if ordered else 0
    for request in ordered:
        if len(request.priorities) != priority_dims:
            raise ValueError(
                f"request {request.request_id} has "
                f"{len(request.priorities)} priorities, expected "
                f"{priority_dims}"
            )
    metrics = MetricsCollector(priority_dims, priority_levels)

    obs = live(observer)
    if obs is not None:
        scheduler.bind_observer(obs)
        obs.watch_scheduler(scheduler)
        metrics.publish_into(obs.registry)

    queue = EventQueue()
    state = _ServerState(scheduler, service, metrics, queue, drop_expired,
                         recharacterize_every_ms=recharacterize_every_ms,
                         observer=obs)
    if record_timeline:
        state.timeline = []

    for request in ordered:
        queue.schedule(max(request.arrival_ms, 0.0),
                       _Arrival(state, request))

    queue.run(until_ms=stop_at_ms)

    return SimulationResult(
        scheduler_name=scheduler.name,
        metrics=metrics,
        submitted=len(ordered),
        # Everything not completed by the stop: still queued, in
        # flight, or never arrived.
        unserved=len(ordered) - metrics.completed,
        timeline=state.timeline,
    )


class _ServerState:
    """Mutable simulation state shared by the event callbacks."""

    def __init__(self, scheduler: Scheduler, service: ServiceModel,
                 metrics: MetricsCollector, queue: EventQueue,
                 drop_expired: bool, *,
                 recharacterize_every_ms: float | None = None,
                 observer: Observer | None = None) -> None:
        self.scheduler = scheduler
        self.service = service
        self.metrics = metrics
        self.queue = queue
        self.drop_expired = drop_expired
        self.busy = False
        self.timeline: list[TimelineEntry] | None = None
        self.recharacterize_every_ms = recharacterize_every_ms
        self._refresh_armed = False
        self.obs = observer

    def arm_refresh(self) -> None:
        """Schedule the next periodic re-characterization (at most one
        outstanding, and only while the scheduler holds work -- so the
        event queue still drains)."""
        if (self.recharacterize_every_ms is None or self._refresh_armed
                or getattr(self.scheduler, "recharacterize", None) is None):
            return
        self._refresh_armed = True
        self.queue.schedule(
            self.queue.now + self.recharacterize_every_ms, _Refresh(self)
        )

    def try_dispatch(self) -> None:
        """Start serving the scheduler's next pick if the disk is free."""
        while not self.busy:
            now = self.queue.now
            head = self.service.head_cylinder
            request = self.scheduler.next_request(now, head)
            if request is None:
                return
            self.metrics.note_queue_length(len(self.scheduler) + 1)
            obs = self.obs
            if self.drop_expired and now >= request.deadline_ms:
                # The data is already useless; drop without disk time.
                self.metrics.on_complete(request, now, dropped=True)
                self.scheduler.on_served(request, now)
                if obs is not None:
                    obs.on_drop(request, now, "expired")
                if self.timeline is not None:
                    self.timeline.append(TimelineEntry(
                        request.request_id, now, now,
                        len(self.scheduler), dropped=True,
                    ))
                continue
            self.metrics.on_dispatch(request, self.scheduler.pending())
            record = self.service.serve(request, now)
            self.metrics.on_service(record.seek_ms, record.latency_ms,
                                    record.transfer_ms)
            if obs is not None:
                obs.on_dispatch(request, now)
                obs.on_service(request, now, seek_ms=record.seek_ms,
                               latency_ms=record.latency_ms,
                               transfer_ms=record.transfer_ms)
            completion = now + record.total_ms
            if self.timeline is not None:
                self.timeline.append(TimelineEntry(
                    request.request_id, now, completion,
                    len(self.scheduler),
                ))
            self.busy = True
            self.queue.schedule(completion, _Completion(self, request))
            return


class _Arrival:
    """Arrival event: hand the request to the scheduler."""

    def __init__(self, state: _ServerState, request: DiskRequest) -> None:
        self._state = state
        self._request = request

    def __call__(self) -> None:
        state = self._state
        now = state.queue.now
        if state.obs is not None:
            state.obs.on_arrival(self._request, now)
        state.scheduler.submit(self._request, now,
                               state.service.head_cylinder)
        if state.obs is not None:
            state.obs.ensure_enqueued(self._request, now)
            state.obs.on_queue_depth(now, len(state.scheduler))
        state.try_dispatch()
        if len(state.scheduler):
            state.arm_refresh()


class _Refresh:
    """Periodic re-characterization event."""

    def __init__(self, state: _ServerState) -> None:
        self._state = state

    def __call__(self) -> None:
        state = self._state
        state._refresh_armed = False
        if len(state.scheduler):
            state.scheduler.recharacterize(  # type: ignore[attr-defined]
                state.queue.now, state.service.head_cylinder
            )
            state.try_dispatch()
            if len(state.scheduler):
                state.arm_refresh()


class _Completion:
    """Service-completion event: record outcome, dispatch the next one."""

    def __init__(self, state: _ServerState, request: DiskRequest) -> None:
        self._state = state
        self._request = request

    def __call__(self) -> None:
        state = self._state
        state.busy = False
        now = state.queue.now
        state.metrics.on_complete(self._request, now)
        state.scheduler.on_served(self._request, now)
        if state.obs is not None:
            state.obs.on_complete(self._request, now,
                                  missed=now > self._request.deadline_ms)
        state.try_dispatch()


# -- RAID-5 array -------------------------------------------------------------

class _HeapArrayState(array._ArrayState):
    """The array's fault/retry/rebuild bookkeeping, driven by the heap.

    Each logical arrival and each member completion is one
    :class:`EventQueue` event (the completion a closure scheduled at
    dispatch), instead of the arrival column and lane heap of
    :meth:`repro.sim.array._ArrayState.run`.
    """

    def run(self, ordered) -> None:
        for request in ordered:
            self.queue.schedule(
                max(request.arrival_ms, 0.0),
                lambda req=request: self.submit_logical(req),
            )
        self.queue.run()

    def dispatch(self, member) -> None:
        while not member.busy:
            now = self.queue.now
            physical = member.scheduler.next_request(
                now, member.disk.head_cylinder
            )
            if physical is None:
                return
            if self._member_failed(member.index, now):
                # The member died with this op still queued: fail it
                # without consuming (nonexistent) disk time.
                member.scheduler.on_served(physical, now)
                self._op_failed(physical)
                continue
            member.metrics.on_dispatch(physical, member.scheduler.pending())
            record = member.disk.serve(physical.cylinder, physical.nbytes)
            total_ms = record.total_ms
            if self.plan is not None:
                total_ms += self.plan.service_penalty_ms(
                    member.index, now, record.total_ms
                )
            member.metrics.on_service(record.seek_ms, record.latency_ms,
                                      total_ms - record.seek_ms
                                      - record.latency_ms)
            member.busy = True
            started = now
            completion = now + total_ms

            def complete(member=member, physical: DiskRequest = physical,
                         started: float = started) -> None:
                member.busy = False
                now = self.queue.now
                member.scheduler.on_served(physical, now)
                failed_mid_flight = (
                    self._member_failed(member.index, now)
                    or (self.plan is not None
                        and self.plan.failed_during(member.index,
                                                    started, now))
                )
                transient = (
                    not failed_mid_flight
                    and self.plan is not None
                    and self.plan.attempt_fails(
                        member.index, physical.request_id, 1, started
                    )
                )
                if failed_mid_flight or transient:
                    self._op_failed(physical)
                else:
                    member.metrics.on_complete(physical, now)
                    meta = self.op_meta.pop(physical.request_id, None)
                    if meta is not None:
                        logical_id, epoch = meta
                        self.finish_op(logical_id, epoch)
                self.dispatch(member)

            self.queue.schedule(completion, complete)
            return


def run_array_simulation(*args, **kwargs) -> array.ArrayResult:
    """Reference for :func:`repro.sim.run_array_simulation`.

    Same setup and bookkeeping; only the loop differs (the state class
    is swapped for the call's duration).
    """
    with mock.patch.object(array, "_ArrayState", _HeapArrayState):
        return array.run_array_simulation(*args, **kwargs)


# -- serving loop -------------------------------------------------------------

class LegacyStreamingServer(StreamingServer):
    """Reference for :class:`repro.serve.StreamingServer`'s loop.

    Same admission, fault, degrade and completion bookkeeping; the loop
    steps one event instant at a time through every stage, counts
    inversions by scanning ``pending()``, sheds by scanning the queue
    for the largest victims, and reads the queue length from the
    scheduler.
    """

    def queue_length(self) -> int:
        return len(self.scheduler) - len(self._shed_pending)

    def run_until(self, until_ms: float) -> None:
        while True:
            t = self._legacy_next_event_ms(until_ms)
            if t is None:
                break
            self.clock.sleep_until(t)
            self._process(max(t, self.clock.now_ms()))
        self.clock.sleep_until(until_ms)

    def quiesce(self) -> None:
        for session in self.manager:
            if session.spec.blocks is None:
                raise RuntimeError(
                    f"stream {session.stream_id} is open-ended; "
                    "close it before quiescing"
                )
        while (self._busy is not None or self.queue_length() > 0
               or self._retry_due
               or self.manager.next_due_ms() is not None):
            t = self._legacy_next_event_ms(math.inf)
            if t is None:
                break
            self.clock.sleep_until(t)
            self._process(max(t, self.clock.now_ms()))

    def _legacy_next_event_ms(self, until_ms: float) -> float | None:
        now = self.clock.now_ms()
        candidates: list[float] = []
        if self._busy is not None:
            candidates.append(self._busy[1])
        if self.reporter is not None:
            candidates.append(self.reporter.next_due_ms)
        if self._retry_due:
            candidates.append(max(self._retry_due[0][0], now))
        if self.degraded and self._fault_times:
            candidates.append(
                self._fault_times[0] + self.config.degrade_window_ms
            )
        if (self._recharacterize_due is not None
                and self.queue_length() > 0):
            candidates.append(max(self._recharacterize_due, now))
        due = self.manager.next_due_ms()
        if due is not None:
            if due > now:
                candidates.append(due)
            elif self._poll_limit() != 0:
                candidates.append(now)
        eligible = [c for c in candidates if c <= until_ms]
        return min(eligible) if eligible else None

    def _process(self, now: float) -> None:
        if self._busy is not None and self._busy[1] <= now:
            self._complete()
        self._legacy_requeue_retries(now)
        self._update_degrade(now)
        self._legacy_admit_due(now)
        self._legacy_recharacterize(now)
        self._legacy_dispatch(now)
        for session in self.manager.retire_exhausted(now):
            self._retire(session, now)
        if not self._can_recharacterize or self.queue_length() == 0:
            self._recharacterize_due = None
        elif self._recharacterize_due is None:
            self._recharacterize_due = now + self.config.recharacterize_ms
        if self.reporter is not None and self.reporter.due(now):
            stats = self.stats()
            self.reporter.report(stats)
            self.trace.record(now, "report",
                              detail=f"#{self.reporter.reports}")

    def _legacy_admit_due(self, now: float) -> None:
        limit = self._poll_limit()
        if limit == 0:
            return
        obs = self.obs
        for request in self.manager.poll(now, limit):
            tracker = self._qos.get(request.stream_id)
            if tracker is not None:
                tracker.on_issue()
            if obs is not None:
                obs.on_arrival(request, now)
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
            if obs is not None:
                obs.ensure_enqueued(request, now)
        if obs is not None:
            obs.on_queue_depth(now, self.queue_length())
        if self.config.shed_policy == "lowest-priority":
            excess = self.queue_length() - self.config.max_queue
            if excess > 0:
                victims = heapq.nlargest(
                    excess,
                    (r for r in self.scheduler.pending()
                     if r.request_id not in self._shed_pending),
                    key=lambda r: (r.priorities, r.deadline_ms,
                                   r.request_id),
                )
                for victim in victims:
                    self._shed_one(victim, now)

    def _legacy_requeue_retries(self, now: float) -> None:
        while self._retry_due and self._retry_due[0][0] <= now:
            _due, _rid, request = heapq.heappop(self._retry_due)
            self.faults.note_retry()
            attempts = self._attempts.get(request.request_id, 0)
            if self.obs is not None:
                self.obs.on_requeue(request, now, attempt=attempts + 1)
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
            self.trace.record(now, "retry",
                              stream_id=request.stream_id,
                              request_id=request.request_id,
                              detail=f"attempt={attempts + 1}")

    def _legacy_recharacterize(self, now: float) -> None:
        if (self._recharacterize_due is None
                or now < self._recharacterize_due
                or self.queue_length() == 0):
            return
        self._recharacterize_due = None
        self.scheduler.recharacterize(now, self.service.head_cylinder)
        self.recharacterizations += 1

    def _legacy_dispatch(self, now: float) -> None:
        while self._busy is None:
            request = self.scheduler.next_request(
                now, self.service.head_cylinder
            )
            if request is None:
                return
            if request.request_id in self._shed_pending:
                self._shed_pending.discard(request.request_id)
                self.scheduler.on_served(request, now)
                continue
            self.metrics.note_queue_length(self.queue_length() + 1)
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
            self.metrics.on_dispatch(request, self.scheduler.pending())
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


@contextmanager
def legacy_serving() -> Iterator[None]:
    """Build every :class:`StreamingServer` as the reference loop.

    Patches the class where the serving entry points look it up -- the
    package root (the cluster cell imports it from there), the serve
    ramp and the faults scenario -- for the block's duration.  The
    cluster cells must then run in this process (``jobs=1``).
    """
    import repro.serve
    from repro.experiments import faults_scenario, serve_demo

    with ExitStack() as stack:
        for module in (repro.serve, serve_demo, faults_scenario):
            stack.enter_context(mock.patch.object(
                module, "StreamingServer", LegacyStreamingServer))
        yield


# -- cluster decision tier ----------------------------------------------------

@dataclass(frozen=True)
class ArrayLoad:
    """One array's budget state, as the reference ordering sees it."""

    array_id: int
    #: Sum of the placed streams' reserved utilization shares.
    reserved_utilization: float
    #: Budget ceiling currently advertised (degraded while rebuilding).
    advertised_limit: float
    #: True while a hot-spare rebuild eats the array's bandwidth.
    rebuilding: bool = False


def prefer(placement: PlacementPolicy, stream_key: int,
           loads: Sequence[ArrayLoad]) -> tuple[int, ...]:
    """Reference preference order over ``loads``, best first.

    Least-reserved: sort every load by (rebuilding, reserved rounded to
    12 places, tie hash).  Ring: the full clockwise walk from the
    stream's point over the ring's points, first occurrence of each
    eligible array.
    """
    if isinstance(placement, LeastReservedPlacement):
        return tuple(load.array_id for load in sorted(
            loads,
            key=lambda load: (
                load.rebuilding,
                round(load.reserved_utilization, 12),
                placement.tie_key(stream_key, load.array_id),
            ),
        ))
    eligible = {load.array_id for load in loads}
    points, owners = placement._points, placement._owners
    start = bisect.bisect_right(
        points, stable_hash(placement._seed, "stream", stream_key))
    order: list[int] = []
    seen: set[int] = set()
    for step in range(len(owners)):
        if len(order) == len(eligible):
            break
        owner = owners[(start + step) % len(owners)]
        if owner in eligible and owner not in seen:
            seen.add(owner)
            order.append(owner)
    return tuple(order)


def loads(admission: GlobalAdmission) -> list[ArrayLoad]:
    """Per-array load snapshots in array-id order."""
    return [
        ArrayLoad(array_id=array_id,
                  reserved_utilization=budget.reserved,
                  advertised_limit=budget.advertised_limit,
                  rebuilding=array_id in admission.rebuilding)
        for array_id, budget in sorted(admission.budgets.items())
    ]


def scan_decide(admission: GlobalAdmission, stream_key: int, spec,
                *, exclude: frozenset[int] = frozenset(),
                count: bool = True) -> tuple[ClusterDecision, str]:
    """Reference for :meth:`repro.cluster.GlobalAdmission.route`, with
    the decision-log reason this oracle formats itself.

    Builds every load snapshot, ranks the whole fleet and walks the
    order, pricing the stream on each array -- O(arrays) per decision.
    ``preferred`` is the full order, not the consulted prefix.
    """
    eligible = [load for load in loads(admission)
                if load.array_id not in exclude]
    preferred = prefer(admission.placement, stream_key, eligible)
    for rank, array_id in enumerate(preferred):
        budget = admission.budgets[array_id]
        share = budget.share_for(spec)
        if budget.reserved + share <= budget.advertised_limit:
            budget.reserve(share)
            decision = (RouteDecision.ADMIT if rank == 0
                        else RouteDecision.SPILL)
            if count:
                if decision is RouteDecision.ADMIT:
                    admission.counters.admitted += 1
                else:
                    admission.counters.spillovers += 1
            reason = (f"array {array_id} reserved "
                      f"{budget.reserved:.3f}"
                      f"/{budget.advertised_limit:.3f}"
                      + (f" after {rank} spills" if rank else ""))
            return ClusterDecision(
                decision=decision,
                array_id=array_id,
                share=share,
                rank=rank,
                preferred=preferred,
                reserved=budget.reserved,
                limit=budget.advertised_limit,
            ), reason
    if count:
        admission.counters.rejected += 1
    reason = f"no array budget fits (tried {len(preferred)} arrays)"
    return ClusterDecision(
        decision=RouteDecision.REJECT,
        array_id=-1,
        share=0.0,
        rank=len(preferred),
        preferred=preferred,
    ), reason


def route_scan(admission: GlobalAdmission, stream_key: int, spec,
               *, exclude: frozenset[int] = frozenset(),
               count: bool = True) -> ClusterDecision:
    """:func:`scan_decide`'s decision alone: the drop-in replacement
    for :meth:`repro.cluster.GlobalAdmission.route`."""
    return scan_decide(admission, stream_key, spec, exclude=exclude,
                       count=count)[0]


@contextmanager
def scan_admission() -> Iterator[None]:
    """Route every :class:`GlobalAdmission` decision through
    :func:`route_scan` for the block's duration."""
    with mock.patch.object(GlobalAdmission, "route", route_scan):
        yield
