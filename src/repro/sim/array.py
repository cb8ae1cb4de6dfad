"""Multi-disk RAID-5 array simulation.

The PanaViss server stores each file striped over a five-disk RAID-5
set (Table 1).  :func:`run_array_simulation` replays *logical* block
requests against the whole array: every logical request expands into
its physical per-disk operations (one read, or the four-op
read-modify-write of a small write), each member disk runs its own
scheduler instance over its own arm, and a logical request completes
when its last physical operation does.

This is the substrate behind the "68 to 91 users per disk" framing of
Section 6: the per-member load the single-disk experiments assume is
exactly what this module produces.

Fault injection (:mod:`repro.faults`) makes the array *dynamic*:

* a :class:`~repro.faults.DiskFailure` window takes a member down
  mid-run — reads addressed to it are reconstructed from the
  survivors' parity fan-out, writes skip it, and any physical
  operation caught on the failed member (queued, or in flight when
  the window opens — the mid-stripe case) fails and triggers a
  bounded **logical-request retry** that re-expands the request
  against the degraded geometry;
* latency spikes, thermal ramps and transient per-operation errors
  apply per member through the same plan; and
* an optional hot-spare :class:`RebuildConfig` injects paced rebuild
  traffic — parity reads on every survivor plus reconstruction writes
  on the spare — that competes with foreground requests *through the
  member schedulers*, not around them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.request import DiskRequest
from repro.disk.disk import DiskModel, FILE_BLOCK_BYTES, make_xp32150_disk
from repro.disk.raid import Raid5Array
from repro.obs.observer import Observer, live
from repro.schedulers.base import Scheduler

from .engine import EventQueue
from .metrics import MetricsCollector
from .soa import InversionLedger

if TYPE_CHECKING:
    # repro.faults builds on repro.sim.rng, so the fault types this
    # module instantiates are imported where it does so.
    from repro.faults import DiskFailure, FaultPlan, RetryPolicy


@dataclass(frozen=True)
class LogicalRequest:
    """A block request addressed to the array, not a member disk."""

    request_id: int
    arrival_ms: float
    logical_block: int
    deadline_ms: float
    priorities: tuple[int, ...] = ()
    is_write: bool = False
    nbytes: int = FILE_BLOCK_BYTES


@dataclass(frozen=True)
class RebuildConfig:
    """Hot-spare rebuild traffic injected after a member failure.

    Starting ``interval_ms`` after a failure window opens, one stripe
    is rebuilt per interval: every survivor contributes a parity read
    and (when ``spare`` is True) the reconstructed stripe is written to
    a dedicated spare member appended to the array.  Rebuild operations
    carry the lowest priority level so foreground traffic outranks
    them inside each member's scheduler.
    """

    stripes: int = 16
    interval_ms: float = 50.0
    spare: bool = True

    def __post_init__(self) -> None:
        if self.stripes < 1:
            raise ValueError("stripes must be >= 1")
        if self.interval_ms <= 0:
            raise ValueError("interval_ms must be positive")


@dataclass
class ArrayResult:
    """Outcome of an array-level run."""

    logical_metrics: MetricsCollector
    disk_metrics: list[MetricsCollector]
    physical_ops: int
    #: Logical requests re-expanded after a physical op failed.
    retries: int = 0
    #: Logical requests abandoned (retry budget, or >1 member down).
    failed_logical: int = 0
    #: Physical rebuild operations injected by the hot-spare rebuild.
    rebuild_ops: int = 0

    @property
    def write_amplification(self) -> float:
        """Physical ops per completed logical request.

        4x for healthy small writes; higher still under degraded-mode
        fan-out reads and logical retries, whose re-issued operations
        all count — the amplification a fault actually costs.
        """
        total = self.logical_metrics.completed
        return self.physical_ops / total if total else 0.0


class _MemberDisk:
    """One member: its own disk model, scheduler and busy state."""

    def __init__(self, index: int, disk: DiskModel, scheduler: Scheduler,
                 metrics: MetricsCollector) -> None:
        self.index = index
        self.disk = disk
        self.scheduler = scheduler
        self.metrics = metrics
        self.busy = False
        #: Priority levels of the ops in the member's queue, for
        #: charging inversions at dispatch without scanning it.
        self.ledger = InversionLedger(metrics.priority_dims)


@dataclass
class _FaultTallies:
    """Array-run fault bookkeeping (surfaced on :class:`ArrayResult`)."""

    retries: int = 0
    failed_logical: int = 0
    rebuild_ops: int = 0


class _ArrayState:
    """Shared bookkeeping for one array run.

    Logical arrivals stay in their sorted column and member completions
    live on per-member *lanes* (at most one in-flight op each, kept on
    a ``(busy-until, sequence, lane)`` heap); only the genuinely dynamic
    events -- retries, rebuild stripes, refresh ticks -- go on the
    :class:`~repro.sim.engine.EventQueue`.  Arrivals and completions
    reserve queue sequence numbers where they are scheduled, so every
    ``(time, sequence)`` tie between the three sources resolves in
    scheduling order (see :meth:`run`).
    """

    def __init__(self, members: list[_MemberDisk], raid: Raid5Array,
                 queue: EventQueue, geometry_block: Callable[[int], int],
                 logical_metrics: MetricsCollector, *,
                 plan: FaultPlan | None = None,
                 retry_policy: RetryPolicy | None = None,
                 spare: _MemberDisk | None = None,
                 recharacterize_every_ms: float | None = None,
                 observer: Observer | None = None) -> None:
        self.members = members
        self.raid = raid
        self.queue = queue
        self.geometry_block = geometry_block
        self.logical_metrics = logical_metrics
        self.plan = plan
        from repro.faults import RetryPolicy

        self.retry_policy = retry_policy or RetryPolicy()
        self.spare = spare
        self.remaining: dict[int, int] = {}  # logical id -> ops left
        self.logical: dict[int, LogicalRequest] = {}
        #: Retry epoch per logical id; stale completions are ignored.
        self.epoch: dict[int, int] = {}
        #: Attempts per logical id (1 = first submission).
        self.attempts: dict[int, int] = {}
        #: physical id -> (logical id, epoch at submission).
        self.op_meta: dict[int, tuple[int, int]] = {}
        self.physical_ops = 0
        self.tallies = _FaultTallies()
        self._next_physical_id = 0
        self.failed_disk: int | None = None  # static (legacy) failure
        self.recharacterize_every_ms = recharacterize_every_ms
        self._refresh_armed = False
        #: Traces *logical* request lifecycles; member schedulers are
        #: watched for stats but not bound (physical ops never reach a
        #: terminal span phase of their own).
        self.obs = observer
        all_members = self._all_members()
        self._lane_member: list[_MemberDisk] = all_members
        #: (request, started) of the in-flight op, per lane.
        self._inflight: list[tuple[DiskRequest, float] | None] = (
            [None] * len(all_members))
        #: (busy-until, sequence, lane) heap of in-flight completions.
        #: Each member holds at most one in-flight op and an op, once
        #: dispatched, always reaches its completion instant, so an
        #: entry is never stale: push at dispatch, pop at fire.
        self._lane_heap: list[tuple[float, int, int]] = []
        #: Busy count over the *array* members only: logical arrivals
        #: never submit to the spare (rebuild traffic does, via heap
        #: events), so the arrival-epoch invariant needs exactly the
        #: array members busy, spare state notwithstanding.
        self._busy_array = 0

    # -- periodic re-characterization -------------------------------------

    def _all_members(self) -> list[_MemberDisk]:
        return self.members + ([self.spare] if self.spare else [])

    def _arm_refresh(self) -> None:
        if self.recharacterize_every_ms is None or self._refresh_armed:
            return
        self._refresh_armed = True
        self.queue.schedule(
            self.queue.now + self.recharacterize_every_ms, self._refresh
        )

    def _refresh(self) -> None:
        """Re-key every member's queue to the current clock and arm."""
        self._refresh_armed = False
        pending = False
        for member in self._all_members():
            recharacterize = getattr(member.scheduler, "recharacterize",
                                     None)
            if len(member.scheduler) and recharacterize is not None:
                recharacterize(self.queue.now, member.disk.head_cylinder)
                self.dispatch(member)
            if len(member.scheduler):
                pending = True
        if pending:
            self._arm_refresh()

    # -- failure state ----------------------------------------------------

    def _member_failed(self, index: int, now: float) -> bool:
        if self.failed_disk == index:
            return True
        return self.plan is not None and self.plan.is_failed(index, now)

    def _failed_members(self, now: float) -> list[int]:
        return [m.index for m in self.members
                if self._member_failed(m.index, now)]

    # -- logical request lifecycle ----------------------------------------

    def submit_logical(self, request: LogicalRequest) -> None:
        if request.request_id not in self.attempts:
            self.attempts[request.request_id] = 1
            self.epoch[request.request_id] = 0
        if self.obs is not None:
            self.obs.on_arrival(request, self.queue.now)
        self._expand(request)
        if self.obs is not None:
            self.obs.on_queue_depth(
                self.queue.now,
                sum(len(m.scheduler) for m in self._all_members()),
            )

    def _expand(self, request: LogicalRequest) -> None:
        """Expand against the *current* failure state and enqueue ops."""
        now = self.queue.now
        failed = self._failed_members(now)
        if len(failed) > 1:
            # RAID-5 cannot reconstruct with two members down.
            self._give_up(request)
            return
        down = failed[0] if failed else None
        if down is not None and not request.is_write:
            ops = self.raid.degraded_read_ops(request.logical_block, down)
        else:
            ops = (self.raid.write_ops(request.logical_block)
                   if request.is_write
                   else self.raid.read_ops(request.logical_block))
            if down is not None:
                # Degraded writes: operations addressed to the failed
                # member vanish (their data is reconstructed on rebuild);
                # the survivors still do their share.
                ops = tuple(op for op in ops if op.disk != down)
                if not ops:
                    # Whole write absorbed by the failed member: the
                    # request completes logically with no disk work.
                    self._finish_logical(request.request_id)
                    return
        self.remaining[request.request_id] = len(ops)
        self.logical[request.request_id] = request
        epoch = self.epoch[request.request_id]
        for op in ops:
            member = self.members[op.disk]
            self._submit_physical(
                member,
                cylinder=self.geometry_block(op.block),
                nbytes=request.nbytes,
                deadline_ms=request.deadline_ms,
                priorities=request.priorities,
                logical_id=request.request_id,
                epoch=epoch,
                is_write=op.is_write,
            )

    def _submit_physical(self, member: _MemberDisk, *, cylinder: int,
                         nbytes: int, deadline_ms: float,
                         priorities: tuple[int, ...], logical_id: int,
                         epoch: int, is_write: bool) -> None:
        physical = DiskRequest(
            request_id=self._next_physical_id,
            arrival_ms=self.queue.now,
            cylinder=cylinder,
            nbytes=nbytes,
            deadline_ms=deadline_ms,
            priorities=priorities,
            stream_id=logical_id,  # back-pointer (-1 = rebuild traffic)
            is_write=is_write,
        )
        self._next_physical_id += 1
        if logical_id >= 0:
            # Rebuild traffic is tallied separately so
            # write_amplification charges only foreground work.
            self.physical_ops += 1
        self.op_meta[physical.request_id] = (logical_id, epoch)
        member.scheduler.submit(physical, self.queue.now,
                                member.disk.head_cylinder)
        member.ledger.add(priorities)
        self.dispatch(member)
        if len(member.scheduler):
            self._arm_refresh()

    def _finish_logical(self, logical_id: int) -> None:
        request = self.logical.pop(logical_id, None)
        self.remaining.pop(logical_id, None)
        self.attempts.pop(logical_id, None)
        self.epoch.pop(logical_id, None)
        if request is None:
            # Absorbed degraded write: never entered the books.
            return
        now = self.queue.now
        self.logical_metrics.on_complete(_placeholder(request), now)
        if self.obs is not None:
            self.obs.on_complete(request, now,
                                 missed=now > request.deadline_ms)

    def _give_up(self, request: LogicalRequest) -> None:
        self.tallies.failed_logical += 1
        self.remaining.pop(request.request_id, None)
        self.logical.pop(request.request_id, None)
        self.attempts.pop(request.request_id, None)
        self.epoch.pop(request.request_id, None)
        self.logical_metrics.on_complete(_placeholder(request),
                                         self.queue.now, dropped=True)
        if self.obs is not None:
            self.obs.on_drop(request, self.queue.now, "fault")

    # -- physical dispatch ------------------------------------------------

    def lane_key(self) -> tuple[float, int, int] | None:
        """(time, sequence, lane) of the earliest completion."""
        return self._lane_heap[0] if self._lane_heap else None

    def all_busy(self) -> bool:
        """Every array member has an in-flight op (spare excluded)."""
        return self._busy_array == len(self.members)

    def dispatch(self, member: _MemberDisk) -> None:
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
                member.ledger.remove(physical.priorities)
                member.scheduler.on_served(physical, now)
                self._op_failed(physical)
                continue
            member.ledger.charge(physical.priorities,
                                 member.metrics.inversions_by_dim)
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
            completion = now + total_ms
            sequence = self.queue.reserve_sequences(1)
            self._inflight[member.index] = (physical, now)
            heapq.heappush(self._lane_heap,
                           (completion, sequence, member.index))
            if member is not self.spare:
                self._busy_array += 1
            return

    def complete_lane(self, lane: int) -> None:
        """Fire lane ``lane``'s due completion and dispatch its next op."""
        member = self._lane_member[lane]
        physical, started = self._inflight[lane]  # type: ignore[misc]
        self._inflight[lane] = None
        if member is not self.spare:
            self._busy_array -= 1
        member.busy = False
        now = self.queue.now
        member.scheduler.on_served(physical, now)
        failed_mid_flight = (
            self._member_failed(member.index, now)
            or (self.plan is not None
                and self.plan.failed_during(member.index, started, now))
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

    def _op_failed(self, physical: DiskRequest) -> None:
        """A physical op failed: retry its logical parent (if live)."""
        meta = self.op_meta.pop(physical.request_id, None)
        if meta is None:
            return
        logical_id, epoch = meta
        if logical_id < 0:
            # Rebuild traffic: no logical parent, no retry.
            return
        if self.epoch.get(logical_id) != epoch:
            return  # stale op of an already-retried expansion
        request = self.logical.get(logical_id)
        if request is None:
            return
        self._retry_logical(request)

    def _retry_logical(self, request: LogicalRequest) -> None:
        """Invalidate the current expansion and re-expand after backoff."""
        logical_id = request.request_id
        attempt = self.attempts.get(logical_id, 1)
        # Invalidate in-flight siblings of the failed expansion.
        self.epoch[logical_id] = self.epoch.get(logical_id, 0) + 1
        self.remaining.pop(logical_id, None)
        if attempt >= self.retry_policy.max_attempts:
            self._give_up(request)
            return
        self.attempts[logical_id] = attempt + 1
        self.tallies.retries += 1
        if self.obs is not None:
            self.obs.on_requeue(request, self.queue.now,
                                attempt=attempt + 1)
        due = self.queue.now + self.retry_policy.backoff_for(attempt)
        self.queue.schedule(due, lambda: self._expand(request))

    def finish_op(self, logical_id: int, epoch: int = 0) -> None:
        """One physical op of ``logical_id`` completed successfully."""
        if logical_id < 0:
            return  # rebuild traffic has no logical parent
        if self.epoch.get(logical_id) != epoch:
            return  # stale: the logical request was retried meanwhile
        if logical_id not in self.remaining:
            return  # already finished or given up
        self.remaining[logical_id] -= 1
        if self.remaining[logical_id] == 0:
            self._finish_logical(logical_id)

    # -- hot-spare rebuild -------------------------------------------------

    def schedule_rebuild(self, rebuild: RebuildConfig, dims: int,
                         priority_levels: int) -> None:
        """Pace rebuild stripes after every planned failure window."""
        from repro.faults import DiskFailure

        windows: list[DiskFailure] = []
        if self.plan is not None:
            windows = self.plan.failure_windows()
        if self.failed_disk is not None:
            windows.append(DiskFailure(self.failed_disk, 0.0, math.inf))
        lowest = tuple(priority_levels - 1 for _ in range(dims))
        for window in windows:
            for stripe in range(rebuild.stripes):
                at = window.start_ms + (stripe + 1) * rebuild.interval_ms
                self.queue.schedule(
                    max(at, 0.0),
                    lambda s=stripe, w=window: self._rebuild_stripe(s, w,
                                                                    lowest),
                )

    def _rebuild_stripe(self, stripe: int, window: DiskFailure,
                        lowest: tuple[int, ...]) -> None:
        now = self.queue.now
        if now >= window.end_ms:
            return  # the member recovered; rebuild is moot
        cylinder = self.geometry_block(stripe)
        for member in self.members:
            if member.index == window.disk:
                continue
            if self._member_failed(member.index, now):
                continue  # a second failed member contributes nothing
            self.tallies.rebuild_ops += 1
            self._submit_physical(
                member, cylinder=cylinder, nbytes=FILE_BLOCK_BYTES,
                deadline_ms=math.inf, priorities=lowest,
                logical_id=-1, epoch=0, is_write=False,
            )
        if self.spare is not None:
            self.tallies.rebuild_ops += 1
            self._submit_physical(
                self.spare, cylinder=cylinder, nbytes=FILE_BLOCK_BYTES,
                deadline_ms=math.inf, priorities=lowest,
                logical_id=-1, epoch=0, is_write=True,
            )

    # -- the event loop ----------------------------------------------------

    def run(self, ordered: Sequence[LogicalRequest]) -> None:
        """Replay ``ordered`` (arrival-sorted) to exhaustion.

        The next event is a three-way minimum over (time, sequence)
        keys: the next arrival, the earliest lane completion and the
        queue's head.  The arrivals reserve one sequence block here,
        after any rebuild stripes were scheduled and before anything
        else, so every tie (rebuild before arrival, arrival before
        completion, completion before retry) resolves in scheduling
        order.

        While every lane is busy and the refresh timer is already armed
        (or impossible), a logical arrival is a pure scheduler submit
        that can move neither the lane minimum nor the queue head, so
        the whole arrival span strictly inside the current barrier is
        replayed in one epoch without recomputing the minimum.
        """
        queue = self.queue
        times = [max(request.arrival_ms, 0.0) for request in ordered]
        base = queue.reserve_sequences(len(ordered))
        i = 0
        n = len(ordered)
        refresh_off = self.recharacterize_every_ms is None
        while True:
            kind = None
            key: tuple[float, int] = (0.0, 0)
            if i < n:
                kind, key = "arrival", (times[i], base + i)
            lane = self.lane_key()
            if lane is not None and (kind is None or lane[:2] < key):
                kind, key = "lane", lane[:2]
            heap_key = queue.peek_key()
            if heap_key is not None and (kind is None or heap_key < key):
                kind, key = "heap", heap_key
            if kind is None:
                return
            if kind == "arrival":
                queue.advance_to(times[i])
                self.submit_logical(ordered[i])
                i += 1
                if i >= n or not self.all_busy() or not (
                        refresh_off or self._refresh_armed):
                    continue
                # Busy epoch: arrivals strictly inside the barrier are
                # pure submits.  Ties at the barrier instant fall back
                # to the exact key comparison above.
                barrier = self.lane_key()[0]  # all busy => lanes exist
                heap_key = queue.peek_key()
                if heap_key is not None and heap_key[0] < barrier:
                    barrier = heap_key[0]
                while i < n and times[i] < barrier:
                    queue.advance_to(times[i])
                    self.submit_logical(ordered[i])
                    i += 1
            elif kind == "lane":
                heapq.heappop(self._lane_heap)
                queue.advance_to(lane[0])
                self.complete_lane(lane[2])
            else:
                queue.step()


def _placeholder(request: LogicalRequest) -> DiskRequest:
    """A DiskRequest stand-in so the metrics collector can account a
    completed logical request."""
    return DiskRequest(
        request_id=request.request_id,
        arrival_ms=request.arrival_ms,
        cylinder=0,
        nbytes=request.nbytes,
        deadline_ms=request.deadline_ms,
        priorities=request.priorities,
        is_write=request.is_write,
    )


def run_array_simulation(
    requests: Sequence[LogicalRequest],
    scheduler_factory: Callable[[], Scheduler],
    *,
    raid: Raid5Array | None = None,
    disk_factory: Callable[[], DiskModel] = make_xp32150_disk,
    priority_levels: int = 16,
    failed_disk: int | None = None,
    fault_plan: FaultPlan | None = None,
    retry_policy: RetryPolicy | None = None,
    rebuild: RebuildConfig | None = None,
    recharacterize_every_ms: float | None = None,
    observer: Observer | None = None,
) -> ArrayResult:
    """Replay logical block requests against a RAID-5 array.

    Each member disk gets its own scheduler from ``scheduler_factory``
    and its own freshly parked disk from ``disk_factory``.

    ``failed_disk`` runs the array in degraded mode for the whole run:
    reads whose data lives on the failed member are reconstructed by
    reading the same stripe from every survivor (the RAID-5 fan-out
    read), and writes skip the failed member.

    ``fault_plan`` makes degradation *dynamic*: failure windows open
    and close mid-run, latency spikes / thermal ramps / transient
    errors hit individual members, and physical operations caught on a
    failing member trigger bounded logical-request retries governed by
    ``retry_policy``.  ``rebuild`` additionally injects paced hot-spare
    rebuild traffic through the member schedulers after each failure
    window opens.  Every fault must name a member of the array (the
    hot spare, when ``rebuild`` adds one, is the last member).

    ``recharacterize_every_ms`` periodically re-keys every member's
    queue to the current clock and head position (schedulers without a
    ``recharacterize`` method are left alone).  Off by default so the
    pinned fault-injection benchmarks stay bit-identical.

    ``observer`` traces *logical* request lifecycles (arrival, retry
    re-queues, completion/drop) and pulls per-member dispatcher stats
    into the registry under ``member<i>_dispatcher_*``; default off.
    """
    if recharacterize_every_ms is not None and recharacterize_every_ms <= 0:
        raise ValueError("recharacterize_every_ms must be positive")
    raid = raid or Raid5Array(disks=5)
    if failed_disk is not None and not 0 <= failed_disk < raid.disks:
        raise ValueError(f"failed_disk {failed_disk} out of range")
    member_count = raid.disks + (1 if rebuild is not None and rebuild.spare
                                 else 0)
    for fault in fault_plan or ():
        if not 0 <= fault.disk < member_count:
            raise ValueError(
                f"fault on disk {fault.disk} out of range: the array "
                f"has {member_count} members"
            )
    dims = len(requests[0].priorities) if requests else 0
    logical_metrics = MetricsCollector(dims, priority_levels)
    queue = EventQueue()

    members = []
    for index in range(member_count):
        disk = disk_factory()
        disk.reset(0)
        members.append(_MemberDisk(
            index, disk, scheduler_factory(),
            MetricsCollector(dims, priority_levels),
        ))
    spare = members[raid.disks] if member_count > raid.disks else None

    first_disk = members[0].disk

    def block_to_cylinder(block: int) -> int:
        geometry = first_disk.geometry
        max_block = geometry.capacity_bytes // FILE_BLOCK_BYTES - 1
        return geometry.block_cylinder(min(block, max_block),
                                       FILE_BLOCK_BYTES)

    obs = live(observer)
    if obs is not None:
        logical_metrics.publish_into(obs.registry, prefix="array")
        for member in members:
            obs.watch_scheduler(
                member.scheduler,
                prefix=f"member{member.index}_dispatcher",
            )

    state = _ArrayState(members[:raid.disks], raid, queue,
                        block_to_cylinder, logical_metrics,
                        plan=fault_plan, retry_policy=retry_policy,
                        spare=spare,
                        recharacterize_every_ms=recharacterize_every_ms,
                        observer=obs)
    state.failed_disk = failed_disk
    if rebuild is not None:
        state.schedule_rebuild(rebuild, dims, priority_levels)

    state.run(sorted(requests, key=lambda r: (r.arrival_ms, r.request_id)))

    return ArrayResult(
        logical_metrics=logical_metrics,
        disk_metrics=[member.metrics for member in members],
        physical_ops=state.physical_ops,
        retries=state.tallies.retries,
        failed_logical=state.tallies.failed_logical,
        rebuild_ops=state.tallies.rebuild_ops,
    )
