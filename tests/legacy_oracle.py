"""Reference loops for the differential tests: one heap event per request.

:func:`repro.sim.run_simulation` and
:func:`repro.sim.run_array_simulation` plan their runs over arrival
columns, lane heaps and vectorized epochs.  The loops here are the
plain event-heap formulation they replaced -- every arrival, every
completion and every refresh tick is its own
:class:`~repro.sim.engine.EventQueue` event, and priority inversions
are counted by scanning the waiting queue at each dispatch.  They are
slow and obviously right; the differential batteries
(``tests/test_engine_differential.py``) and the golden replays
(``tests/test_determinism_golden.py``) require the shipped loops to
reproduce them bit for bit.
"""

from __future__ import annotations

from typing import Sequence
from unittest import mock

from repro.core.request import DiskRequest
from repro.obs.observer import Observer, live
from repro.schedulers.base import Scheduler
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
        unserved=len(scheduler),
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
