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
  per-level occupancy tables (:class:`repro.sim.soa.InversionLedger`,
  keyed by the priority ranks the columns computed once) in O(levels)
  per dispatch instead of an O(queue x dims) scan over the waiting
  requests; integer arithmetic, so tallies are exact.
* **One inlined step per request.**  Pop, ledger charge, disk service,
  metrics and completion run in the loop body over locals, with no
  per-request numpy scalar reads and no hops through handler methods.

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
    #: Submitted requests not completed (served or dropped) by the
    #: stop: still queued, in flight, or not yet arrived.  0 unless
    #: truncated; ``metrics.completed + unserved == submitted``.
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
        Optional hard stop; every request not completed by then --
        queued, in flight or yet to arrive -- is reported in
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
    timeline: list[TimelineEntry] | None = [] if record_timeline else None
    _execute(columns, scheduler, service, metrics,
             drop_expired=drop_expired, stop=stop_at_ms, timeline=timeline,
             refresh_every=recharacterize_every_ms, obs=obs)
    return SimulationResult(
        scheduler_name=scheduler.name,
        metrics=metrics,
        submitted=len(ordered),
        unserved=len(ordered) - metrics.completed,
        timeline=timeline,
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


_ARRIVAL, _COMPLETION, _REFRESH = 1, 2, 3


def _execute(columns: RequestColumns, scheduler: Scheduler,
             service: ServiceModel, metrics: MetricsCollector, *,
             drop_expired: bool, stop: float | None,
             timeline: list[TimelineEntry] | None,
             refresh_every: float | None, obs: Observer | None) -> None:
    """The barrier loop, with the per-request step inlined.

    Each iteration picks the next event -- the next arrival, the
    in-flight completion or the refresh timer, ties broken by
    sequence -- handles it, and then runs the dispatch step (pop,
    ledger, disk service, metrics) while the disk is free.  Loop state
    lives in locals; the scheduler, the service model and the
    collector are reached through the same public calls, in the same
    order, as the reference loop makes.
    """
    requests = columns.requests
    arrival_ms = columns.arrival_ms
    arrivals = arrival_ms.tolist()
    keys = None if columns.sfc_key is None else columns.sfc_key.tolist()
    ranks = columns.ranks
    n = len(requests)
    rank_of = {id(request): row for request, row in zip(requests, ranks)}
    ledger = InversionLedger(len(ranks[0]) if n else 0)
    add_waiting = ledger.add
    inversions = metrics.inversions_by_dim
    note_queue_length = metrics.queue_length.add
    on_complete = metrics.on_complete
    next_request = scheduler.next_request
    on_served = scheduler.on_served
    insert = scheduler.dispatcher.insert if keys is not None else None
    serve = service.serve
    can_refresh = (refresh_every is not None and getattr(
        scheduler, "recharacterize", None) is not None)

    # Arrivals hold sequences 0..n-1; completions and refreshes draw
    # n, n+1, ... in scheduling order, so (time, sequence) ties fire
    # arrivals first, then dynamic events as scheduled.
    seq = n
    busy = False
    in_flight: DiskRequest | None = None
    done_at = 0.0
    done_seq = 0
    refresh_at: float | None = None
    refresh_seq = 0
    at = 0.0
    i = 0
    while True:
        # -- the next event ------------------------------------------------
        if i < n:
            kind = _ARRIVAL
            at = arrivals[i]
            if busy and done_at < at:
                kind = _COMPLETION
                at = done_at
        elif busy:
            kind = _COMPLETION
            at = done_at
        else:
            kind = 0
        if refresh_at is not None and (
                not kind or refresh_at < at
                or (kind == _COMPLETION and refresh_at == at
                    and refresh_seq < done_seq)):
            kind = _REFRESH
            at = refresh_at
        if not kind or (stop is not None and at > stop):
            break
        now = at

        # -- the event -----------------------------------------------------
        if kind == _ARRIVAL:
            if busy and obs is None and (not can_refresh
                                         or refresh_at is not None):
                # Busy and unobserved, with the refresh timer armed or
                # impossible: every arrival up to the next dynamic
                # event is a pure submit.  Arrivals tie ahead of
                # dynamic events, so the span includes the barrier
                # instant; arrivals past the hard stop never fire.
                barrier = done_at
                if refresh_at is not None and refresh_at < barrier:
                    barrier = refresh_at
                if stop is not None and stop < barrier:
                    barrier = stop
                end = int(np.searchsorted(arrival_ms, barrier,
                                          side="right"))
                if end <= i:
                    end = i + 1
                if keys is not None:
                    for j in range(i, end):
                        insert(requests[j], keys[j])
                        add_waiting(ranks[j])
                else:
                    scheduler.submit_many(requests[i:end],
                                          arrival_ms[i:end],
                                          service.head_cylinder)
                    for j in range(i, end):
                        add_waiting(ranks[j])
                i = end
                continue
            # Idle (the arrival may dispatch at once), observed (per-
            # request hook order) or the first arrival of a busy
            # epoch, which arms the refresh timer at its own clock.
            request = requests[i]
            if obs is not None:
                obs.on_arrival(request, now)
            if keys is not None:
                insert(request, keys[i])
            else:
                scheduler.submit(request, now, service.head_cylinder)
            add_waiting(ranks[i])
            i += 1
            if obs is not None:
                obs.ensure_enqueued(request, now)
                obs.on_queue_depth(now, len(scheduler))
        elif kind == _COMPLETION:
            request = in_flight
            in_flight = None
            busy = False
            on_complete(request, now)
            on_served(request, now)
            if obs is not None:
                obs.on_complete(request, now,
                                missed=now > request.deadline_ms)
        else:
            refresh_at = None
            if not len(scheduler):
                continue
            scheduler.recharacterize(  # type: ignore[attr-defined]
                now, service.head_cylinder)

        # -- the dispatch step ---------------------------------------------
        while not busy:
            request = next_request(now, service.head_cylinder)
            if request is None:
                break
            row = rank_of[id(request)]
            note_queue_length(len(scheduler) + 1)
            if drop_expired and now >= request.deadline_ms:
                # The data is already useless; drop without disk time.
                ledger.remove(row)
                on_complete(request, now, dropped=True)
                on_served(request, now)
                if obs is not None:
                    obs.on_drop(request, now, "expired")
                if timeline is not None:
                    timeline.append(TimelineEntry(
                        request.request_id, now, now,
                        len(scheduler), dropped=True,
                    ))
                continue
            ledger.charge(row, inversions)
            record = serve(request, now)
            seek = record.seek_ms
            latency = record.latency_ms
            transfer = record.transfer_ms
            metrics.seek_ms += seek
            metrics.latency_ms += latency
            metrics.transfer_ms += transfer
            if obs is not None:
                obs.on_dispatch(request, now)
                obs.on_service(request, now, seek_ms=seek,
                               latency_ms=latency, transfer_ms=transfer)
            done_at = now + (seek + latency + transfer)
            if timeline is not None:
                timeline.append(TimelineEntry(
                    request.request_id, now, done_at, len(scheduler),
                ))
            busy = True
            in_flight = request
            done_seq = seq
            seq += 1

        # An arrival or a refresh that leaves work queued arms the
        # next periodic re-characterization (at most one outstanding).
        if (kind != _COMPLETION and can_refresh and refresh_at is None
                and len(scheduler)):
            refresh_at = now + refresh_every
            refresh_seq = seq
            seq += 1
