"""The disk server loop: arrivals -> scheduler -> service -> metrics.

``run_simulation`` replays a request stream against one scheduler and
one service model, producing a :class:`SimulationResult`.  It is the
single harness every experiment and baseline comparison runs through,
so all schedulers see byte-identical workloads and timing rules.

The loop plans the run over numpy columns
(:class:`repro.sim.soa.RequestColumns`) instead of one heap event per
request:

* **Event barriers, not a heap.**  At any instant the loop has at
  most two dynamic events outstanding -- the in-flight completion and
  the optional re-characterization timer -- so the next event is a
  three-way minimum over (time, sequence) keys.  Arrivals hold the
  sequences 0..n-1 and dynamic events draw n, n+1, ... in scheduling
  order, so simultaneous events fire arrivals first, then in the order
  they were scheduled.
* **Vectorized arrival epochs.**  While the disk is busy, every
  arrival strictly inside the current barrier is a pure scheduler
  submit; the span boundary is one ``np.searchsorted`` and the span
  is characterized in one :func:`repro.core.batch.characterize_batch`
  call with a per-request ``now`` column.  When the scheduler's v_c
  depends only on (request, arrival clock) -- the paper configuration:
  cascaded stages with the fixed sweep origin -- the whole run's SFC
  keys are precomputed in a single batch call before the loop starts.
* **Ledger inversions.**  Priority inversions are charged from
  per-level occupancy tables (:class:`repro.sim.soa.InversionLedger`)
  in O(levels) per dispatch instead of an O(queue x dims) scan over
  the waiting requests; integer arithmetic, so tallies are exact.

``tests/legacy_oracle.py`` keeps the one-event-per-request heap loop
this replaced; the differential tests and golden traces pin the two
bit for bit.  With a live observer the loop submits arrivals one at a
time so hook order is that of the reference.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.request import DiskRequest
from repro.obs.observer import Observer, live
from repro.schedulers.base import Scheduler

from .metrics import MetricsCollector
from .service import ServiceModel
from .soa import InversionLedger, RequestColumns


@dataclass(frozen=True)
class TimelineEntry:
    """One dispatch in the service timeline (debug / visualization)."""

    request_id: int
    start_ms: float
    end_ms: float
    queue_length: int
    dropped: bool = False


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    scheduler_name: str
    metrics: MetricsCollector
    submitted: int
    #: Requests still queued when the run stopped (0 unless truncated).
    unserved: int
    #: Dispatch timeline, populated when run_simulation(record_timeline=True).
    timeline: list[TimelineEntry] | None = None

    @property
    def inversions(self) -> int:
        return self.metrics.total_inversions

    @property
    def misses(self) -> int:
        return self.metrics.missed

    @property
    def seek_ms(self) -> float:
        return self.metrics.seek_ms


#: Environment variable carrying the recorded engine tag.  Every tier
#: (sim, array, serving) has a single loop, so the tag selects nothing;
#: it is validated and recorded with runs as provenance.
ENGINE_ENV = "REPRO_SIM_ENGINE"

ENGINES = ("legacy", "batched")


def resolve_engine(engine: str | None) -> str:
    """Validate an engine tag; None defers to $REPRO_SIM_ENGINE."""
    if engine is None:
        engine = os.environ.get(ENGINE_ENV) or "legacy"
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


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
    """Simulate serving ``requests`` (sorted by arrival) with ``scheduler``.

    Parameters
    ----------
    drop_expired:
        When True, a request whose deadline has already passed at
        dispatch time is dropped without consuming disk time (video
        frames are worthless after their display slot -- Section 6).
        When False, late requests are still served and merely counted
        as misses (Sections 5.2-5.3).
    stop_at_ms:
        Optional hard stop; requests still queued are reported in
        :attr:`SimulationResult.unserved`.
    priority_dims / priority_levels:
        Shape of the metrics tables; inferred from the first request
        when ``priority_dims`` is None.
    record_timeline:
        When True, the result carries one :class:`TimelineEntry` per
        dispatch (including drops) for debugging and visualization.
    recharacterize_every_ms:
        When set, the queue is periodically re-keyed to the *current*
        clock and head position via ``scheduler.recharacterize`` (a
        no-op for schedulers without one).  Off by default: the paper's
        baseline characterizes at insertion only, and the pinned golden
        traces assume that.
    observer:
        Optional :class:`repro.obs.Observer` recording request-lifecycle
        spans, registry metrics, and queue-depth samples for this run.
        Defaults to off (:data:`repro.obs.NULL_OBSERVER` semantics) with
        no behavioural or measurable timing impact.
    """
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
    columns = RequestColumns.from_requests(ordered, priority_dims)
    nan = np.isnan(columns.arrival_ms)
    if nan.any():
        first = ordered[int(nan.argmax())]
        raise ValueError(f"request {first.request_id} has a NaN arrival_ms")
    metrics = MetricsCollector(priority_dims, priority_levels)

    obs = live(observer)
    if obs is not None:
        scheduler.bind_observer(obs)
        obs.watch_scheduler(scheduler)
        metrics.publish_into(obs.registry)

    columns.sfc_key = precompute_sfc_keys(scheduler, columns, obs)
    run = _Run(columns, scheduler, service, metrics,
               drop_expired=drop_expired, stop_at_ms=stop_at_ms,
               record_timeline=record_timeline,
               recharacterize_every_ms=recharacterize_every_ms,
               observer=obs)
    run.execute()
    return SimulationResult(
        scheduler_name=scheduler.name,
        metrics=metrics,
        submitted=len(ordered),
        unserved=len(scheduler),
        timeline=run.timeline,
    )


def precompute_sfc_keys(scheduler: Scheduler, columns: RequestColumns,
                        observer: Observer | None) -> np.ndarray | None:
    """Whole-run v_c column when submit is a pure (request, clock) map.

    Applies to the stock :class:`repro.core.CascadedSFCScheduler` with
    fast-path stages and the paper's fixed sweep origin
    (``seek_track_head=False``): v_c then never reads the head
    position, so every request's insertion key is known at t=0 and one
    ``characterize_batch`` call with the arrival column as per-request
    clocks replaces n scalar characterizations.  Returns None when the
    precondition fails (custom stages, head-tracking stage 3, live
    observer) -- the loop then characterizes span by span.
    """
    if observer is not None:
        return None
    from repro.core.batch import _fast_path_applies, characterize_batch
    from repro.core.encapsulator import EncodeContext
    from repro.core.scheduler import CascadedSFCScheduler
    if type(scheduler) is not CascadedSFCScheduler:
        return None
    encapsulator = scheduler.encapsulator
    if not _fast_path_applies(encapsulator):
        return None
    stage3 = encapsulator.stage3
    if stage3 is not None and getattr(stage3, "track_head", False):
        return None
    ctx = EncodeContext(now_ms=0.0, head_cylinder=0)
    return characterize_batch(encapsulator, columns.requests, ctx,
                              nows=columns.arrival_ms)


class _Run:
    """One execution: the barrier loop and its event handlers."""

    def __init__(self, columns: RequestColumns, scheduler: Scheduler,
                 service: ServiceModel, metrics: MetricsCollector, *,
                 drop_expired: bool, stop_at_ms: float | None,
                 record_timeline: bool,
                 recharacterize_every_ms: float | None,
                 observer: Observer | None) -> None:
        self.columns = columns
        self.scheduler = scheduler
        self.service = service
        self.metrics = metrics
        self.drop_expired = drop_expired
        self.stop_at_ms = stop_at_ms
        self.refresh_every = recharacterize_every_ms
        self.obs = observer
        self.timeline: list[TimelineEntry] | None = (
            [] if record_timeline else None)
        self.ledger = InversionLedger(columns.priorities)
        self.index_of = {id(request): i
                         for i, request in enumerate(columns.requests)}
        self.busy = False
        self.now = 0.0
        # Arrivals hold sequences 0..n-1; completions and refreshes
        # draw n, n+1, ... in scheduling order, so (time, sequence)
        # ties fire arrivals first, then dynamic events as scheduled.
        self._seq = len(columns)
        self._completion: tuple[float, int, DiskRequest] | None = None
        self._refresh: tuple[float, int] | None = None
        self._can_refresh = (
            recharacterize_every_ms is not None
            and getattr(scheduler, "recharacterize", None) is not None
        )

    # -- sequence / refresh bookkeeping -----------------------------------

    def _next_seq(self) -> int:
        seq = self._seq
        self._seq += 1
        return seq

    def _arm_refresh(self) -> None:
        """Arm the next periodic re-characterization (at most one
        outstanding, and only while the scheduler holds work)."""
        if not self._can_refresh or self._refresh is not None:
            return
        self._refresh = (self.now + self.refresh_every, self._next_seq())

    # -- the barrier loop --------------------------------------------------

    def execute(self) -> None:
        n = len(self.columns)
        arrivals = self.columns.arrival_ms.tolist()
        stop = self.stop_at_ms
        i = 0
        while True:
            kind = None
            time = seq = 0
            if i < n:
                kind, time, seq = "arrival", arrivals[i], i
            completion = self._completion
            if completion is not None and (
                    kind is None
                    or (completion[0], completion[1]) < (time, seq)):
                kind, time, seq = "completion", completion[0], completion[1]
            refresh = self._refresh
            if refresh is not None and (
                    kind is None or (refresh[0], refresh[1]) < (time, seq)):
                kind, time, seq = "refresh", refresh[0], refresh[1]
            if kind is None:
                break
            if stop is not None and time > stop:
                self.now = stop
                break
            self.now = time
            if kind == "arrival":
                i = self._on_arrivals(i)
            elif kind == "completion":
                self._on_completion()
            else:
                self._on_refresh()

    # -- event handlers ----------------------------------------------------

    def _on_arrivals(self, i: int) -> int:
        """Fire arrival ``i``; bulk-submit its whole epoch when legal."""
        if not self.busy or self.obs is not None:
            # Idle (each arrival may dispatch immediately) or observed
            # (per-request hook order): one request at a time.
            self._single_arrival(i)
            return i + 1
        if self._can_refresh and self._refresh is None:
            # The first arrival of a busy epoch arms the refresh timer
            # at its own clock; submit it alone so the barrier below
            # sees the new timer.
            self._single_arrival(i)
            return i + 1
        # Busy and unobserved: every arrival up to the next dynamic
        # event is a pure submit (dispatch no-ops while busy, the
        # refresh timer is already armed or impossible).  Arrivals tie
        # ahead of dynamic events, so the span is inclusive of the
        # barrier instant.
        barrier = self._completion[0]
        if self._refresh is not None and self._refresh[0] < barrier:
            barrier = self._refresh[0]
        if self.stop_at_ms is not None and self.stop_at_ms < barrier:
            # Arrivals past the hard stop never fire; an arrival
            # exactly at the stop instant still does.
            barrier = self.stop_at_ms
        end = int(np.searchsorted(self.columns.arrival_ms, barrier,
                                  side="right"))
        if end <= i:
            end = i + 1
        self._submit_span(i, end)
        return end

    def _single_arrival(self, i: int) -> None:
        request = self.columns.requests[i]
        now = self.now
        obs = self.obs
        if obs is not None:
            obs.on_arrival(request, now)
        self._submit_one(i, now)
        if obs is not None:
            obs.ensure_enqueued(request, now)
            obs.on_queue_depth(now, len(self.scheduler))
        self._try_dispatch()
        if len(self.scheduler):
            self._arm_refresh()

    def _submit_one(self, i: int, now: float) -> None:
        request = self.columns.requests[i]
        keys = self.columns.sfc_key
        if keys is not None:
            self.scheduler.dispatcher.insert(request, float(keys[i]))
        else:
            self.scheduler.submit(request, now,
                                  self.service.head_cylinder)
        self.ledger.add(i)

    def _submit_span(self, start: int, end: int) -> None:
        columns = self.columns
        requests = columns.requests
        keys = columns.sfc_key
        ledger = self.ledger
        if keys is not None:
            insert = self.scheduler.dispatcher.insert
            for j in range(start, end):
                insert(requests[j], float(keys[j]))
                ledger.add(j)
            return
        self.scheduler.submit_many(requests[start:end],
                                   columns.arrival_ms[start:end],
                                   self.service.head_cylinder)
        for j in range(start, end):
            ledger.add(j)

    def _try_dispatch(self) -> None:
        """Start serving the scheduler's next pick if the disk is free."""
        scheduler = self.scheduler
        service = self.service
        metrics = self.metrics
        while not self.busy:
            now = self.now
            request = scheduler.next_request(now, service.head_cylinder)
            if request is None:
                return
            index = self.index_of[id(request)]
            self.ledger.remove(index)
            metrics.note_queue_length(len(scheduler) + 1)
            obs = self.obs
            if self.drop_expired and now >= request.deadline_ms:
                # The data is already useless; drop without disk time.
                metrics.on_complete(request, now, dropped=True)
                scheduler.on_served(request, now)
                if obs is not None:
                    obs.on_drop(request, now, "expired")
                if self.timeline is not None:
                    self.timeline.append(TimelineEntry(
                        request.request_id, now, now,
                        len(scheduler), dropped=True,
                    ))
                continue
            metrics.add_inversions(self.ledger.inversions_of(index))
            record = service.serve(request, now)
            metrics.on_service(record.seek_ms, record.latency_ms,
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
                    len(scheduler),
                ))
            self.busy = True
            self._completion = (completion, self._next_seq(), request)
            return

    def _on_completion(self) -> None:
        _, _, request = self._completion
        self._completion = None
        self.busy = False
        now = self.now
        self.metrics.on_complete(request, now)
        self.scheduler.on_served(request, now)
        if self.obs is not None:
            self.obs.on_complete(request, now,
                                 missed=now > request.deadline_ms)
        self._try_dispatch()

    def _on_refresh(self) -> None:
        self._refresh = None
        scheduler = self.scheduler
        if len(scheduler):
            scheduler.recharacterize(  # type: ignore[attr-defined]
                self.now, self.service.head_cylinder
            )
            self._try_dispatch()
            if len(scheduler):
                self._arm_refresh()
