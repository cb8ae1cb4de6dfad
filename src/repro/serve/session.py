"""Live stream sessions: per-user request feeds for the online server.

The offline workloads (:mod:`repro.workloads.multimedia`) pre-generate
a closed request list; the serving layer instead models each admitted
user as an open-ended :class:`StreamSession` that *becomes due* once
per period and is polled by the server loop.  A :class:`SessionManager`
owns the admitted sessions, hands out globally increasing request ids,
and can also *materialize* the identical request sequence up-front so
the same population can be replayed through the offline simulator
(:func:`repro.sim.run_simulation`) for deterministic tests — see
:mod:`repro.serve.adapter`.

Determinism contract: a session draws its per-request deadlines from a
private RNG stream keyed by ``(seed, stream_id)`` in issue order, so
polling a session live and materializing it offline produce identical
requests.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace
from random import Random
from typing import Iterator, Sequence

import numpy as np

from repro.core.request import DiskRequest
from repro.disk.disk import FILE_BLOCK_BYTES
from repro.disk.geometry import DiskGeometry
from repro.sim.soa import ServeColumns
from repro.workloads.multimedia import stream_period_ms

#: Issues planned ahead per :meth:`StreamSession.ensure_plan` chunk.
PLAN_CHUNK = 128
#: First plan chunk of a session; later chunks quadruple up to
#: :data:`PLAN_CHUNK`.  Most of a plan's cost is its per-request
#: deadline RNG draws, so a short-lived stream (a bounded title, or a
#: low-rate fleet session that issues one or two blocks) must not pay
#: for 128 of them up front.
PLAN_CHUNK_FIRST = 8


@dataclass(frozen=True)
class StreamSpec:
    """What a user asks for when opening a stream.

    Parameters
    ----------
    rate_mbps:
        Consumption rate *as seen by this disk* (divide the stream rate
        by the RAID data-disk count when modelling a striped server).
    block_bytes:
        Transfer unit; one request per period retrieves one block.
    priorities:
        Requested QoS vector (level 0 = highest); the admission
        controller may downgrade it.
    deadline_range_ms:
        Per-block relative deadline, drawn uniformly from this range
        (Section 6 uses U(750, 1500)).
    start_block:
        First file block; consecutive requests read consecutive blocks.
    blocks:
        Number of blocks in the title, or None for an open-ended live
        stream (the session then wraps around the disk).
    is_write:
        True for a real-time ingest stream.
    """

    rate_mbps: float
    block_bytes: int = FILE_BLOCK_BYTES
    priorities: tuple[int, ...] = (0,)
    deadline_range_ms: tuple[float, float] = (750.0, 1500.0)
    start_block: int = 0
    blocks: int | None = None
    is_write: bool = False
    #: Request value for value-based schedulers (larger = more valuable).
    value: float = 0.0

    def __post_init__(self) -> None:
        # A zero period (infinite rate) would make one session due
        # forever at one instant; NaN compares false everywhere.
        if not (math.isfinite(self.rate_mbps) and self.rate_mbps > 0):
            raise ValueError("rate_mbps must be finite and positive")
        if self.block_bytes < 1:
            raise ValueError("block_bytes must be >= 1")
        if self.blocks is not None and self.blocks < 1:
            raise ValueError("blocks must be >= 1 (or None)")
        lo, hi = self.deadline_range_ms
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("deadline_range_ms must be finite")
        if lo < 0 or hi < lo:
            raise ValueError("deadline_range_ms must satisfy 0 <= lo <= hi")
        if any(p < 0 for p in self.priorities):
            raise ValueError("priority levels must be non-negative")

    @property
    def period_ms(self) -> float:
        """Time one block lasts at the consumption rate."""
        return stream_period_ms(self.rate_mbps, self.block_bytes)

    def with_priorities(self, priorities: tuple[int, ...]) -> "StreamSpec":
        return replace(self, priorities=priorities)

    def advanced(self, blocks: int) -> "StreamSpec":
        """The spec of this stream resumed ``blocks`` into its title.

        Used by cluster migration (:mod:`repro.cluster.migration`): a
        stream re-admitted on another array continues from where the
        drained copy stopped.  Bounded titles shrink their remaining
        ``blocks`` accordingly; a fully-consumed bounded title keeps
        one block so the resumed session stays constructible (it
        retires on its first poll).
        """
        if blocks < 0:
            raise ValueError("blocks must be >= 0")
        if blocks == 0:
            return self
        remaining = self.blocks
        if remaining is not None:
            blocks = min(blocks, remaining - 1)
            remaining = remaining - blocks
        return replace(self, start_block=self.start_block + blocks,
                       blocks=remaining)


class StreamSession:
    """One admitted user's periodic block feed.

    The session is a pure generator of due requests: the server polls
    it through the :class:`SessionManager`; it never touches the clock
    itself.
    """

    __slots__ = ("stream_id", "spec", "opened_ms", "closed_ms",
                 "_geometry", "_rng", "_index", "_max_block", "period_ms",
                 "issued", "_plan", "_plan_due", "_plan_deadline",
                 "_plan_cylinder", "_plan_chunk")

    def __init__(self, stream_id: int, spec: StreamSpec, opened_ms: float,
                 geometry: DiskGeometry, rng: Random) -> None:
        self.stream_id = stream_id
        self.spec = spec
        self.opened_ms = opened_ms
        self.closed_ms: float | None = None
        self._geometry = geometry
        self._rng = rng
        self._index = 0
        self._max_block = geometry.capacity_bytes // spec.block_bytes - 1
        #: Cached block period; the spec fields it derives from
        #: (rate, block size) never change over a session's life
        #: (priority downgrades replace only the QoS vector).
        self.period_ms = spec.period_ms
        #: Requests issued so far (monotone; equals polled count).
        self.issued = 0
        #: Precomputed upcoming issues (:class:`ServeColumns`), shared
        #: by the scalar :meth:`issue` and the bulk span path so the
        #: session's RNG stream is consumed exactly once per index.
        self._plan: ServeColumns | None = None
        # Scalar mirrors of the plan columns (``tolist`` once per
        # chunk): consumption is per-request, and indexing Python
        # lists hands back Python floats/ints directly.  Empty tuples
        # until the first plan: most sparse sessions never plan.
        self._plan_due: Sequence[float] = ()
        self._plan_deadline: Sequence[float] = ()
        self._plan_cylinder: Sequence[int] = ()
        self._plan_chunk = PLAN_CHUNK_FIRST

    @property
    def exhausted(self) -> bool:
        """True once the title has been fully issued or the session closed."""
        if self.closed_ms is not None:
            return True
        return self.spec.blocks is not None and self._index >= self.spec.blocks

    @property
    def next_due_ms(self) -> float | None:
        """Arrival instant of the next block, or None when exhausted."""
        if self.closed_ms is not None:
            return None
        index = self._index
        blocks = self.spec.blocks
        if blocks is not None and index >= blocks:
            return None
        return self.opened_ms + index * self.period_ms

    def close(self, now_ms: float) -> None:
        """Stop issuing.  The deadline RNG (a few KB of generator
        state) and any unconsumed plan are released: a closed session
        never draws again, and the manager keeps it for QoS reporting
        for the rest of the run."""
        self.closed_ms = now_ms
        self._rng = None  # type: ignore[assignment]
        self._plan = None
        self._plan_due = self._plan_deadline = self._plan_cylinder = ()

    def issue(self, request_id: int) -> DiskRequest:
        """Build the next due request (advances the session)."""
        due = self.next_due_ms
        if due is None:
            raise RuntimeError(f"stream {self.stream_id} is exhausted")
        spec = self.spec
        plan = self._plan
        if plan is not None:
            i = self._index - plan.start_index
            if 0 <= i < len(plan):
                # Deadline/cylinder precomputed (the RNG draw for this
                # index was consumed at plan time); priorities read
                # fresh so an admission downgrade still lands.
                request = DiskRequest(
                    request_id=request_id,
                    arrival_ms=due,
                    cylinder=self._plan_cylinder[i],
                    nbytes=spec.block_bytes,
                    deadline_ms=self._plan_deadline[i],
                    priorities=spec.priorities,
                    value=spec.value,
                    stream_id=self.stream_id,
                    is_write=spec.is_write,
                )
                self._index += 1
                self.issued += 1
                return request
            self._plan = None
        block = spec.start_block + self._index
        if spec.blocks is None:
            block %= self._max_block + 1  # live stream: wrap the disk
        else:
            block = min(block, self._max_block)
        lo, hi = spec.deadline_range_ms
        request = DiskRequest(
            request_id=request_id,
            arrival_ms=due,
            cylinder=self._geometry.block_cylinder(block, spec.block_bytes),
            nbytes=spec.block_bytes,
            deadline_ms=due + self._rng.uniform(lo, hi),
            priorities=spec.priorities,
            value=spec.value,
            stream_id=self.stream_id,
            is_write=spec.is_write,
        )
        self._index += 1
        self.issued += 1
        return request

    def plan_remaining(self) -> int:
        """Planned issues not yet consumed."""
        plan = self._plan
        if plan is None:
            return 0
        return max(0, plan.end_index - self._index)

    def ensure_plan(self, chunk: int | None = None) -> None:
        """Guarantee at least one planned issue (chunked ahead).

        Element-for-element the scalar :meth:`issue` arithmetic: dues
        by one float64 multiply-add, blocks wrapped (live) or clamped
        (bounded), cylinders via the vectorized zone table, deadline
        draws taken from the session RNG in issue order.  Chunks grow
        geometrically (:data:`PLAN_CHUNK_FIRST` quadrupling to
        :data:`PLAN_CHUNK`), so sessions that issue little plan
        little; plan size never affects results, only timing.
        """
        if self.exhausted or self.plan_remaining() > 0:
            return
        spec = self.spec
        if chunk is None:
            chunk = self._plan_chunk
            self._plan_chunk = min(PLAN_CHUNK, chunk * 4)
        count = chunk
        if spec.blocks is not None:
            count = min(count, spec.blocks - self._index)
        idx = np.arange(self._index, self._index + count, dtype=np.int64)
        due = self.opened_ms + idx.astype(np.float64) * spec.period_ms
        blocks = spec.start_block + idx
        if spec.blocks is None:
            blocks %= self._max_block + 1  # live stream: wrap the disk
        else:
            blocks = np.minimum(blocks, self._max_block)
        lo, hi = spec.deadline_range_ms
        uniform = self._rng.uniform
        draws = np.array([uniform(lo, hi) for _ in range(count)],
                         dtype=np.float64)
        self._plan = ServeColumns(
            stream_id=self.stream_id,
            start_index=self._index,
            due_ms=due,
            deadline_ms=due + draws,
            cylinder=self._geometry.block_cylinders(blocks, spec.block_bytes),
        )
        self._plan_due = self._plan.due_ms.tolist()
        self._plan_deadline = self._plan.deadline_ms.tolist()
        self._plan_cylinder = self._plan.cylinder.tolist()

    def planned_due_before(self, bound_ms: float) -> int:
        """Planned issues due strictly before ``bound_ms`` (at least 1).

        Only meaningful right after :meth:`ensure_plan` when the head
        due is known to precede ``bound_ms`` — the head is always
        taken (even when exactly *at* the bound: the span loop popped
        it as the global minimum).  A short forward walk over the
        scalar due mirror; runs are bounded by the next session's due,
        so they are usually far shorter than the plan chunk.
        """
        plan = self._plan
        assert plan is not None
        offset = self._index - plan.start_index
        dues = self._plan_due
        n = len(dues)
        count = offset + 1
        while count < n and dues[count] < bound_ms:
            count += 1
        return count - offset

    def take_planned(self, count: int, first_id: int,
                     out_requests: list[DiskRequest],
                     out_dues: list[float]) -> None:
        """Issue ``count`` planned requests, appending to the out lists.

        Identical rows to ``count`` scalar :meth:`issue` calls with
        consecutive ids from ``first_id`` — the columns were already
        mirrored to Python lists at plan time, so this is a tight
        scalar loop with no numpy round trips.
        """
        plan = self._plan
        assert plan is not None
        offset = self._index - plan.start_index
        spec = self.spec
        dues = self._plan_due
        deadlines = self._plan_deadline
        cylinders = self._plan_cylinder
        stream_id = self.stream_id
        nbytes = spec.block_bytes
        priorities = spec.priorities
        value = spec.value
        is_write = spec.is_write
        for i in range(offset, offset + count):
            out_requests.append(DiskRequest(
                request_id=first_id,
                arrival_ms=dues[i],
                cylinder=cylinders[i],
                nbytes=nbytes,
                deadline_ms=deadlines[i],
                priorities=priorities,
                value=value,
                stream_id=stream_id,
                is_write=is_write,
            ))
            first_id += 1
        out_dues.extend(dues[offset:offset + count])
        self._index += count
        self.issued += count


class SessionManager:
    """Owns the live sessions and turns them into a single request feed.

    The manager is shared by the online server and the offline adapter:
    the server calls :meth:`poll` as simulated (or wall) time advances,
    while :meth:`materialize` plays every session forward to a horizon
    and returns the identical requests as one sorted batch.
    """

    def __init__(self, geometry: DiskGeometry, *, seed: int = 0) -> None:
        self._geometry = geometry
        self._seed = seed
        self._rng_prefix = f"{seed}:serve/"
        self._next_stream_id = 0
        self._next_request_id = 0
        self.sessions: dict[int, StreamSession] = {}
        #: Sessions that ended (kept for QoS reporting).
        self.closed: dict[int, StreamSession] = {}
        #: (due_ms, stream_id) min-heap over the active sessions' next
        #: block instants.  Every live session has exactly one
        #: *current* entry (pushed at open, replaced at each issue);
        #: entries of closed sessions go stale and are dropped as soon
        #: as they reach the top, so the head is always current and
        #: :meth:`next_due_ms` is one read.  The popped (due,
        #: stream_id) minimum is the key a scan of every session would
        #: minimize, so the issue order is a pure function of the
        #: population.
        self._due_heap: list[tuple[float, int]] = []
        #: Sessions whose final block just issued, awaiting
        #: :meth:`retire_exhausted`.  Only bounded titles ever land
        #: here (live streams never exhaust), so retirement is O(newly
        #: finished) instead of a scan of the whole population.
        self._retire_pending: list[StreamSession] = []

    @property
    def geometry(self) -> DiskGeometry:
        return self._geometry

    @property
    def active_streams(self) -> int:
        return len(self.sessions)

    @property
    def issued_requests(self) -> int:
        return self._next_request_id

    def open(self, spec: StreamSpec, now_ms: float) -> StreamSession:
        """Create a session (admission already granted)."""
        stream_id = self._next_stream_id
        self._next_stream_id += 1
        # derive(seed, "serve", stream_id), with the key prefix built
        # once per manager.
        rng = Random(self._rng_prefix + str(stream_id))
        session = StreamSession(stream_id, spec, now_ms, self._geometry, rng)
        self.sessions[stream_id] = session
        due = session.next_due_ms
        if due is not None:
            heapq.heappush(self._due_heap, (due, stream_id))
        return session

    def close(self, stream_id: int, now_ms: float) -> StreamSession:
        """End a session; it stops issuing immediately."""
        session = self.sessions.pop(stream_id)
        session.close(now_ms)
        self.closed[stream_id] = session
        self._settle()
        return session

    def retire(self, session: StreamSession, now_ms: float) -> None:
        """Move one finished session into ``closed``."""
        self.sessions.pop(session.stream_id, None)
        session.close(now_ms)
        self.closed[session.stream_id] = session
        self._settle()

    def retire_exhausted(self, now_ms: float) -> list[StreamSession]:
        """Move sessions whose titles finished into ``closed``.

        :meth:`poll` marks a session the moment its last block issues,
        so this drains that pending list — O(newly finished), where it
        used to scan every live session per server tick.  The stream-id
        sort reproduces the scan's dict order (insertion order == open
        order == ascending stream id).
        """
        if not self._retire_pending:
            return []
        done = []
        for session in sorted(self._retire_pending,
                              key=lambda s: s.stream_id):
            if self.sessions.get(session.stream_id) is not session:
                continue  # closed explicitly since its last issue
            self.retire(session, now_ms)
            done.append(session)
        self._retire_pending.clear()
        return done

    def _settle(self) -> None:
        """Drop stale entries until the heap head is current."""
        heap = self._due_heap
        sessions = self.sessions
        while heap:
            due, stream_id = heap[0]
            session = sessions.get(stream_id)
            if session is not None and session.next_due_ms == due:
                return
            heapq.heappop(heap)  # closed, retired, or already issued

    def next_due_ms(self) -> float | None:
        """Earliest pending block instant across all sessions."""
        heap = self._due_heap
        return heap[0][0] if heap else None

    def poll(self, now_ms: float, limit: int | None = None
             ) -> list[DiskRequest]:
        """Pop every request due at or before ``now_ms``.

        Requests come out in global ``(due instant, stream id)`` order —
        one at a time, so a session that fell several periods behind
        still interleaves correctly — which makes request ids a pure
        function of the session population, not of poll timing.
        ``limit`` caps how many are taken (backpressure); the rest stay
        due and will be returned by a later poll.
        """
        out: list[DiskRequest] = []
        heap = self._due_heap
        sessions = self.sessions
        while (heap and heap[0][0] <= now_ms
               and (limit is None or len(out) < limit)):
            stream_id = heap[0][1]
            session = sessions[stream_id]
            out.append(session.issue(self._next_request_id))
            self._next_request_id += 1
            due = session.next_due_ms
            if due is not None:
                heapq.heapreplace(heap, (due, stream_id))
            else:
                heapq.heappop(heap)
                self._retire_pending.append(session)
            self._settle()
        return out

    def poll_span(self, before_ms: float) -> tuple[
            list[DiskRequest], list[float],
            list[tuple[float, "StreamSession"]]]:
        """Issue every request due strictly *before* ``before_ms``, bulk.

        The serving loop's span admission path: sessions are popped
        from the due heap as in :meth:`poll`, but instead of one issue
        per pop, the popped session takes its whole run of arrivals up
        to the *next* session's due instant.  The run's head is one
        scalar :meth:`StreamSession.issue`; only a run longer than one
        block reads the rest from the session's
        :class:`~repro.sim.soa.ServeColumns` plan, so sparse sessions
        never pay for a plan.  A run is bounded by ``min(before_ms,
        next head due)`` with ties excluded, so equal-due arrivals
        still go through the heap and come out in the same global
        ``(due instant, stream id)`` order :meth:`poll` pops one at a
        time -- request ids and order are bit-identical, with no merge
        step.

        Returns ``(requests, dues, exhausted)``: the issued requests,
        a parallel list of their due instants (Python floats,
        non-decreasing), and ``(last_due, session)`` for every bounded
        title that finished inside the span, in ``(last_due,
        stream_id)`` order -- the order the event step retires them in
        (last issues come out in global order, so no sort is needed).
        """
        heap = self._due_heap
        requests: list[DiskRequest] = []
        dues_out: list[float] = []
        exhausted: list[tuple[float, StreamSession]] = []
        sessions = self.sessions
        while heap and heap[0][0] < before_ms:
            due, stream_id = heapq.heappop(heap)
            session = sessions[stream_id]
            self._settle()
            bound = min(before_ms, heap[0][0]) if heap else before_ms
            requests.append(session.issue(self._next_request_id))
            dues_out.append(due)
            self._next_request_id += 1
            following = session.next_due_ms
            if following is not None and following < bound:
                session.ensure_plan()
                count = session.planned_due_before(bound)
                session.take_planned(count, self._next_request_id,
                                     requests, dues_out)
                self._next_request_id += count
                following = session.next_due_ms
            if following is None:
                exhausted.append((dues_out[-1], session))
                continue
            heapq.heappush(heap, (following, stream_id))
        return requests, dues_out, exhausted

    def materialize(self, until_ms: float) -> list[DiskRequest]:
        """Issue every request due in ``[now, until_ms]`` as one batch.

        Equivalent to polling at every due instant up to ``until_ms``;
        used by the offline adapter to hand the identical workload to
        :func:`repro.sim.run_simulation`.
        """
        return self.poll(until_ms)

    def __iter__(self) -> Iterator[StreamSession]:
        return iter(self.sessions.values())

    def __len__(self) -> int:
        return len(self.sessions)
