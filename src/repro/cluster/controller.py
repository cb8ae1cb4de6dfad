"""The fleet controller: N arrays behind one admission/migration brain.

:class:`ClusterController` is the serial *decision* tier of the
cluster.  It replays a time-ordered script of stream-open attempts
against the global admission controller
(:mod:`repro.cluster.admission`), watches every array's fault plan for
disk failures (:meth:`repro.faults.FaultPlan.rebuild_windows` is the
failure -> controller signal), degrades a rebuilding array's
advertised budget, and migrates the overhang
(:mod:`repro.cluster.migration`).  Its output is a :class:`ClusterPlan`:

* a **decision log** — the admit/spill/reject/migrate/drop sequence,
  serializable to canonical bytes (the golden cluster trace), kept as
  rows of plain atoms whose detail text is formatted only when read,
  and
* one **per-array timeline** of ``open``/``close`` tuple records — the
  closed script each array's serving cell
  (:func:`repro.parallel.cells.run_cluster_cell`) replays through a
  real :class:`~repro.serve.server.StreamingServer`.

The two-tier split is what makes the fleet parallel-safe: every
decision that couples arrays (placement, budgets, migration targets)
happens here, serially, as a pure function of the inputs; the
expensive per-array serving is then embarrassingly parallel and merges
positionally, so ``--jobs N`` is bit-identical to serial by the same
argument as :mod:`repro.parallel.runner`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import NamedTuple

from repro.disk.disk import DiskModel, make_xp32150_disk
from repro.faults import FaultPlan
from repro.serve.admission import ReservationAdmission
from repro.serve.adapter import RampEvent

from .admission import (
    ArrayBudget,
    GlobalAdmission,
    admit_reason,
    reject_reason,
)
from .migration import (
    MigrationLedger,
    MigrationRecord,
    PlacedStream,
    resume_spec,
    select_victims,
)
from .placement import make_placement

#: Decision-log kinds, in the vocabulary of the golden cluster trace.
DECISION_KINDS = (
    "admit", "spill", "reject", "rebuild_start", "rebuild_end",
    "migrate", "migrate_drop",
)


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of the cluster tier."""

    #: Fleet size (array ids are 0..arrays-1).
    arrays: int = 4
    #: Placement policy registry name ("ring" or "least-reserved").
    placement: str = "ring"
    #: Root seed: ring points, tie-breaks, and per-array serving RNG.
    seed: int = 0
    #: Virtual nodes per array on the consistent-hash ring.
    ring_replicas: int = 128
    #: Per-array admission ceiling (healthy).
    target_utilization: float = 0.85
    #: Fraction of the budget still advertised during hot-spare
    #: rebuild (the rebuild traffic eats the rest).
    rebuild_capacity_factor: float = 0.6
    #: Hot-spare rebuild tail beyond the failure window itself.
    rebuild_extra_ms: float = 8_000.0
    #: Drain -> re-admit handoff pause; also the per-stream
    #: interruption bound the ledger enforces.
    migration_pause_ms: float = 500.0
    #: Priority levels of the serving stack.
    priority_levels: int = 8

    def __post_init__(self) -> None:
        if self.arrays < 1:
            raise ValueError("arrays must be >= 1")
        if not 0.0 < self.rebuild_capacity_factor <= 1.0:
            raise ValueError(
                "rebuild_capacity_factor must be in (0, 1]"
            )
        if self.migration_pause_ms < 0:
            raise ValueError("migration_pause_ms must be >= 0")
        if self.rebuild_extra_ms < 0:
            raise ValueError("rebuild_extra_ms must be >= 0")


@dataclass(frozen=True)
class DecisionRecord:
    """One line of the cluster decision log (a view of one plan row)."""

    time_ms: float
    #: One of :data:`DECISION_KINDS`.
    kind: str
    #: Stream key, or -1 for array-level events.
    stream_key: int
    #: Array acted on (-1 for fleet-wide rejects).
    array_id: int
    detail: str = ""


class TimelineEntry(NamedTuple):
    """One scripted action on one array's serving timeline."""

    time_ms: float
    #: ``"open"`` or ``"close"``.
    action: str
    stream_key: int
    #: The granted spec (``open`` only).
    spec: object | None = None


#: Timeline order: by time, then stream key.
_TIMELINE_ORDER = itemgetter(0, 2)


def row_detail(row: tuple) -> str:
    """The decision-log detail of one plan row, formatted on read.

    Rows are ``(time_ms, kind, stream_key, array_id, *detail)``: an
    admit/spill row keeps ``(reserved, limit, rank)`` of the granting
    budget, a reject row the number of arrays tried, and every other
    kind its detail string.
    """
    kind = row[1]
    if kind == "admit" or kind == "spill":
        return admit_reason(row[3], row[4], row[5], row[6])
    if kind == "reject":
        return reject_reason(row[4])
    return row[4]


@dataclass
class ClusterPlan:
    """Everything the controller decided, ready for the serving tier."""

    config: ClusterConfig
    #: The decision log as an immutable tuple of rows of plain atoms
    #: (see :func:`row_detail`); read :attr:`decisions` for
    #: :class:`DecisionRecord` views.
    log: tuple[tuple, ...] = ()
    #: array id -> time-ordered open/close script.
    timelines: dict[int, list[TimelineEntry]] = field(
        default_factory=dict)
    ledger: MigrationLedger | None = None
    #: Final admission counters (admitted/spillovers/rejected).
    counters: dict[str, int] = field(default_factory=dict)
    #: array id -> final reserved utilization.
    reserved: dict[int, float] = field(default_factory=dict)
    #: array id -> streams resident when the replay ended.
    resident: dict[int, int] = field(default_factory=dict)
    #: ``(log, SHA-256 of its serialize() bytes)``, set by serialize().
    _sha256: tuple[tuple, object] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def accepted(self) -> int:
        """Streams granted service anywhere in the fleet."""
        return self.counters.get("admitted", 0) \
            + self.counters.get("spillovers", 0)

    @property
    def decisions(self) -> list[DecisionRecord]:
        """The decision log as records, built on each read."""
        return [DecisionRecord(row[0], row[1], row[2], row[3],
                               row_detail(row))
                for row in self.log]

    def serialize(self) -> bytes:
        """Canonical byte form of the decision log (golden pinning).

        Also keeps the bytes' SHA-256 for :meth:`sha256` while
        :attr:`log` is the same tuple, so a caller that needs both
        formats the log once.  The bytes themselves are not kept: on
        the 16-array fleet they would hold ~2 MB for the plan's life.
        """
        log = self.log
        data = "\n".join([
            f"{row[0]!r}|{row[1]}|{row[2]}|{row[3]}|{row_detail(row)}"
            for row in log
        ]).encode()
        if type(log) is tuple:
            self._sha256 = (log, hashlib.sha256(data))
        return data

    def sha256(self):
        """A fresh SHA-256 hasher fed :meth:`serialize`'s bytes, which
        the caller may extend; formats the log only if no
        :meth:`serialize` call since :attr:`log` was set did."""
        cached = self._sha256
        if cached is None or cached[0] is not self.log:
            return hashlib.sha256(self.serialize())
        return cached[1].copy()


class ClusterController:
    """Serial decision tier over N array budgets.

    Parameters
    ----------
    config:
        Fleet shape and policy knobs.
    fault_plans:
        Optional per-array :class:`~repro.faults.FaultPlan`.  Disk
        indices inside a plan address the array's *members*; any
        failure window triggers that array's rebuild handling.  The
        same plan is handed to the array's serving cell, so the budget
        degradation here and the physical retries there describe one
        fault.
    disk:
        The Table 1 disk model pricing every budget (default
        XP32150).  One model is shared: budgets only read geometry.
    """

    def __init__(self, config: ClusterConfig,
                 fault_plans: dict[int, FaultPlan] | None = None,
                 *, disk: DiskModel | None = None) -> None:
        self.config = config
        self.fault_plans = dict(fault_plans or {})
        self.disk = disk if disk is not None else make_xp32150_disk()
        array_ids = list(range(config.arrays))
        self.placement = make_placement(
            config.placement, array_ids, seed=config.seed,
            replicas=config.ring_replicas,
        )
        # One pricing policy for the whole fleet: every array prices a
        # stream identically, which GlobalAdmission requires.
        pricing = ReservationAdmission(
            self.disk,
            target_utilization=config.target_utilization,
            downgrade_limit=config.target_utilization,
            priority_levels=config.priority_levels,
        )
        self.budgets = {
            array_id: ArrayBudget(array_id, pricing)
            for array_id in array_ids
        }
        self.admission = GlobalAdmission(self.placement, self.budgets)
        self.ledger = MigrationLedger(bound_ms=config.migration_pause_ms)
        self.streams: dict[int, PlacedStream] = {}
        #: array id -> {stream key -> placed stream}; kept in lockstep
        #: with ``streams`` so rebuild victim selection reads one
        #: array's residents instead of scanning the whole fleet.
        self._by_array: dict[int, dict[int, PlacedStream]] = {
            array_id: {} for array_id in array_ids
        }
        self.rebuild_entries = 0
        self._log: list[tuple] = []
        self._timelines: dict[int, list[TimelineEntry]] = {
            array_id: [] for array_id in array_ids
        }

    # -- the decision replay ----------------------------------------------

    def run(self, events: list[RampEvent],
            until_ms: float) -> ClusterPlan:
        """Replay arrivals and fault edges; emit the cluster plan.

        Edges at the same instant process before arrivals (a failure
        at t must shape the routing of an arrival at t), and arrivals
        tie-break by submission order — both orderings are explicit so
        the decision log is a pure function of the inputs.
        """
        agenda: list[tuple[float, int, int, object]] = []
        for array_id in sorted(self.fault_plans):
            plan = self.fault_plans[array_id]
            for start, end in plan.rebuild_windows(
                    rebuild_ms=self.config.rebuild_extra_ms):
                if start >= until_ms:
                    continue
                agenda.append((start, 0, array_id, "rebuild_start"))
                agenda.append((end, 0, array_id, "rebuild_end"))
        for index, event in enumerate(
                sorted(events, key=attrgetter("time_ms"))):
            agenda.append((event.time_ms, 1, index, event.spec))
        agenda.sort(key=itemgetter(0, 1, 2))
        for time_ms, order, key, payload in agenda:
            if order == 0:
                if payload == "rebuild_start":
                    self._rebuild_start(key, time_ms)
                else:
                    self._rebuild_end(key, time_ms)
            else:
                self._arrival(key, payload, time_ms)
        return ClusterPlan(
            config=self.config,
            log=tuple(self._log),
            timelines={
                array_id: sorted(entries, key=_TIMELINE_ORDER)
                for array_id, entries in self._timelines.items()
            },
            ledger=self.ledger,
            counters=self.admission.counters.as_dict(),
            reserved={
                array_id: budget.reserved
                for array_id, budget in sorted(self.budgets.items())
            },
            resident=self._resident(),
        )

    def _resident(self) -> dict[int, int]:
        return {array_id: len(placed)
                for array_id, placed in self._by_array.items()}

    def _place(self, stream: PlacedStream) -> None:
        self.streams[stream.stream_key] = stream
        self._by_array[stream.array_id][stream.stream_key] = stream

    def _unplace(self, stream: PlacedStream) -> None:
        del self.streams[stream.stream_key]
        del self._by_array[stream.array_id][stream.stream_key]

    def _note(self, time_ms: float, kind: str, stream_key: int,
              array_id: int, detail: str) -> None:
        self._log.append((time_ms, kind, stream_key, array_id, detail))

    # -- arrivals ----------------------------------------------------------

    def _arrival(self, stream_key: int, spec, time_ms: float) -> None:
        decision = self.admission.route(stream_key, spec)
        array_id = decision.array_id
        if array_id < 0:
            self._log.append((time_ms, "reject", stream_key, -1,
                              decision.rank))
            return
        self._place(PlacedStream(stream_key, array_id, spec,
                                 decision.share, time_ms))
        self._timelines[array_id].append(
            TimelineEntry(time_ms, "open", stream_key, spec))
        # Rank 0 is an admit, any later rank a spill (RouteDecision).
        self._log.append((time_ms, "spill" if decision.rank else "admit",
                          stream_key, array_id, decision.reserved,
                          decision.limit, decision.rank))

    # -- failure handling --------------------------------------------------

    def _rebuild_start(self, array_id: int, time_ms: float) -> None:
        budget = self.budgets[array_id]
        self.admission.set_rebuilding(array_id, True)
        self.rebuild_entries += 1
        budget.capacity_factor = self.config.rebuild_capacity_factor
        self._note(
            time_ms, "rebuild_start", -1, array_id,
            f"advertised {budget.advertised_limit:.3f} "
            f"(x{self.config.rebuild_capacity_factor})",
        )
        # select_victims orders by the unique (priorities, stream_key)
        # key, so reading the per-array resident map instead of
        # scanning every fleet stream picks the identical victims.
        resident = list(self._by_array[array_id].values())
        excess = budget.reserved - budget.advertised_limit
        for victim in select_victims(resident, excess):
            self._migrate(victim, time_ms)

    def _rebuild_end(self, array_id: int, time_ms: float) -> None:
        budget = self.budgets[array_id]
        self.admission.set_rebuilding(array_id, False)
        budget.capacity_factor = 1.0
        self._note(time_ms, "rebuild_end", -1, array_id,
                  f"advertised {budget.advertised_limit:.3f}")

    def _migrate(self, victim: PlacedStream, time_ms: float) -> None:
        """Drain ``victim`` and re-admit it on a healthy array."""
        self.admission.release(victim.array_id, victim.share)
        self._timelines[victim.array_id].append(
            TimelineEntry(time_ms, "close", victim.stream_key))
        resume_ms = time_ms + self.config.migration_pause_ms
        resumed = resume_spec(victim, resume_ms)
        decision = self.admission.route(
            victim.stream_key, resumed,
            exclude=frozenset({victim.array_id}), count=False,
        )
        if not decision.admitted:
            self._unplace(victim)
            self.ledger.record(MigrationRecord(
                stream_key=victim.stream_key,
                from_array=victim.array_id,
                to_array=-1,
                start_ms=time_ms,
                resume_ms=time_ms,
                reason=decision.reason,
            ))
            self._note(time_ms, "migrate_drop", victim.stream_key,
                       victim.array_id, decision.reason)
            return
        self._unplace(victim)
        self._place(victim._replace(
            array_id=decision.array_id,
            spec=resumed,
            share=decision.share,
            opened_ms=resume_ms,
        ))
        self._timelines[decision.array_id].append(
            TimelineEntry(resume_ms, "open", victim.stream_key, resumed))
        record = MigrationRecord(
            stream_key=victim.stream_key,
            from_array=victim.array_id,
            to_array=decision.array_id,
            start_ms=time_ms,
            resume_ms=resume_ms,
            reason=decision.reason,
        )
        self.ledger.record(record)
        self._note(
            time_ms, "migrate", victim.stream_key, victim.array_id,
            f"-> array {decision.array_id} "
            f"pause={record.interruption_ms:.0f}ms",
        )

    # -- observability -----------------------------------------------------

    def metrics_snapshot(self) -> dict[str, float]:
        """Flat metric map for :meth:`repro.obs.Observer.watch_cluster`.

        ``*_total`` keys export as counters, the rest as gauges; the
        per-array reserved/advertised pairs carry the array id in the
        name (the registry is label-free by design).
        """
        counters = self.admission.counters
        snapshot: dict[str, float] = {
            "cluster_streams_admitted_total": counters.admitted,
            "cluster_streams_spilled_total": counters.spillovers,
            "cluster_streams_rejected_total": counters.rejected,
            "cluster_migrations_total": self.ledger.migrated,
            "cluster_migration_drops_total": self.ledger.dropped,
            "cluster_rebuilds_total": self.rebuild_entries,
            "cluster_arrays": float(self.config.arrays),
            "cluster_arrays_rebuilding":
                float(len(self.admission.rebuilding)),
            "cluster_streams_resident": float(len(self.streams)),
            "cluster_reserved_utilization":
                self.admission.fleet_reserved,
            "cluster_advertised_utilization":
                self.admission.fleet_advertised,
            "cluster_migration_interruption_ms":
                self.ledger.total_interruption_ms,
        }
        for array_id, budget in sorted(self.budgets.items()):
            prefix = f"cluster_array{array_id}"
            snapshot[f"{prefix}_reserved_utilization"] = budget.reserved
            snapshot[f"{prefix}_advertised_limit"] = \
                budget.advertised_limit
            snapshot[f"{prefix}_streams"] = float(budget.streams)
        return snapshot
