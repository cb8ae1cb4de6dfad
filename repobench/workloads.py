"""The seeded benchmark workloads: sim_disk and fleet16.

Each workload generates its inputs from the seed once (set-up), then
runs passes through the program's public entry points.  A pass
returns an :class:`Outcome`: the host seconds the benchmark timed, the
simulated statistics, a fingerprint of everything the program
produced, and the conservation laws the outputs must satisfy on any
seed.  Fingerprinting and law checks happen after the timed region.

Pass kinds (``kinds`` lists those a measuring run repeats; the traced
run adds one ``observed`` pass):

* ``plain``    -- the program as ``python -m repro.experiments`` runs it
  (fleet16 reads each serving cell's final ``StreamingServer.stats``
  through a pass-through wrapper, once per cell);
* ``observed`` -- the same with a live :class:`repro.obs.Observer`;
* ``timed``    -- the decision tier with a per-call timer on its
  decision call (``CascadedSFCScheduler.next_request`` on sim_disk,
  ``GlobalAdmission.route`` on fleet16), for the
  decision-latency percentiles;
* ``decide``   -- fleet16: its decision tier alone, untimed.

A third workload, decide128 (the decision tier alone at 128 arrays),
and a fourth, serve_ramp (a dense always-admit serving ramp), were
dropped: their host figures did not hold steady (see README).
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

#: The reference seed whose fingerprints ``reference.json`` pins.
REFERENCE_SEED = 2004


@dataclass
class Outcome:
    """What one pass produced.  Times are ``time.perf_counter``
    readings and differences of them."""

    #: Host seconds of the whole pass (program work only).
    wall_s: float
    #: When the pass's timed region began.
    started: float
    #: Simulated requests resolved: served, shed, expired or dropped
    #: (stream-open requests on a workload without a disk, see README).
    resolved: int
    #: Decisions made by the workload's decision tier.
    decisions: int
    #: (start, end) of the decision tier (the whole pass on sim_disk);
    #: None when a timer or observer slowed it.
    decision_span: tuple | None
    #: Simulated QoS: requests attempted / missed, inversions, seeks.
    attempted: int
    missed: int
    inversions: int
    seek_ms: float
    served: int
    sessions_attempted: int
    sessions_accepted: int
    #: Named digests of everything the program produced.
    fingerprint: dict
    #: (law, holds) pairs checked on every seed.
    laws: list
    #: Per-call decision latencies, seconds, and when each call
    #: began (``timed`` passes only).
    decision_latencies: list = field(default_factory=list)
    decision_starts: list = field(default_factory=list)
    #: Layer facts the traced pass reports (busy ratio, sheds, ...).
    layer: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class _CallTimer:
    """Times every call of one method (the ``timed`` pass kind); with
    no owner it times nothing."""

    def __init__(self, owner=None, name: str = "") -> None:
        self.owner, self.name = owner, name
        self.samples: list[float] = []
        self.starts: list[float] = []

    def __enter__(self) -> "_CallTimer":
        if self.owner is None:
            return self
        original = self.original = self.owner.__dict__[self.name]
        samples, starts = self.samples, self.starts
        clock = time.perf_counter

        def timed(*args, **kwargs):
            started = clock()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(clock() - started)
                starts.append(started)

        setattr(self.owner, self.name, timed)
        return self

    def __exit__(self, *exc) -> None:
        if self.owner is not None:
            setattr(self.owner, self.name, self.original)


class Workload:
    """Base: seeded inputs, passes, fingerprints, laws."""

    name = ""
    kinds = ("plain", "timed")

    def __init__(self, seed: int, quick: bool = False) -> None:
        self.seed = seed
        self.quick = quick

    def generate(self) -> None:
        raise NotImplementedError

    def run_pass(self, kind: str, scratch: str,
                 region=nullcontext) -> Outcome:
        raise NotImplementedError

    def describe(self) -> dict:
        """Input sizes, recorded in the run context."""
        raise NotImplementedError


# -- sim_disk ------------------------------------------------------------------


class SimDisk(Workload):
    """Poisson stream -> Cascaded-SFC -> XP32150 disk via run_simulation."""

    name = "sim_disk"

    def __init__(self, seed: int, quick: bool = False) -> None:
        super().__init__(seed, quick)
        self.count = 400 if quick else 4000

    def describe(self) -> dict:
        return {"requests": self.count, "mean_interarrival_ms": 14.0,
                "priority_dims": 3, "priority_levels": 16}

    def generate(self) -> None:
        from repro.workloads.poisson import PoissonWorkload
        self.requests = PoissonWorkload(
            count=self.count,
            mean_interarrival_ms=14.0,
            priority_dims=3,
            priority_levels=16,
            deadline_range_ms=(200.0, 1200.0),
        ).generate(self.seed)

    def run_pass(self, kind: str, scratch: str,
                 region=nullcontext) -> Outcome:
        from repro.core.config import CascadedSFCConfig
        from repro.core.scheduler import CascadedSFCScheduler
        from repro.disk.disk import make_xp32150_disk
        from repro.obs import Observer
        from repro.parallel import metrics_fingerprint
        from repro.sim import server as sim_server
        from repro.sim.service import DiskService

        observer = Observer() if kind == "observed" else None
        timer = (_CallTimer(CascadedSFCScheduler, "next_request")
                 if kind == "timed" else _CallTimer())
        with region(), timer:
            started = time.perf_counter()
            scheduler = CascadedSFCScheduler(
                CascadedSFCConfig(priority_dims=3, priority_levels=16,
                                  sfc1="diagonal"),
                cylinders=3832,
            )
            disk = make_xp32150_disk()
            disk.reset(0)
            result = sim_server.run_simulation(
                self.requests, scheduler, DiskService(disk),
                priority_levels=16, observer=observer,
            )
            wall = time.perf_counter() - started

        m = result.metrics
        laws = [
            ("sim: served + dropped = submitted",
             m.served + m.dropped == result.submitted),
            ("sim: nothing left queued", result.unserved == 0),
        ]
        fingerprint = {"sim": _sha(repr((
            result.scheduler_name, result.submitted, result.unserved,
            metrics_fingerprint(m))).encode())}
        return Outcome(
            wall_s=wall,
            started=started,
            resolved=m.served + m.dropped,
            decisions=m.served + m.dropped,
            decision_span=((started, started + wall) if kind == "plain"
                           else None),
            attempted=result.submitted,
            missed=m.missed,
            inversions=m.total_inversions,
            seek_ms=m.seek_ms,
            served=m.served,
            # No admission control: every request is accepted.
            sessions_attempted=result.submitted,
            sessions_accepted=result.submitted,
            fingerprint=fingerprint,
            laws=laws,
            decision_latencies=timer.samples,
            decision_starts=timer.starts,
            layer={
                "disk.sim_busy_ratio": (m.busy_ms / m.makespan_ms
                                        if m.makespan_ms else 0.0),
            },
        )


# -- fleet16 --------------------------------------------------------------------


class _ServerProbe:
    """Collects each serving cell's QoS tallies as the cell reads its
    final :meth:`StreamingServer.stats` (once per cell, so free)."""

    def __enter__(self) -> "_ServerProbe":
        from repro.serve import StreamingServer
        self.owner = StreamingServer
        self.original = original = StreamingServer.__dict__["stats"]
        self.servers: list[dict] = []
        servers = self.servers

        def stats(server):
            snapshot = original(server)
            m = server.metrics
            servers.append({
                "issued": sum(s.issued for s in snapshot.streams),
                "completed": m.completed,
                "served": m.served,
                "missed": m.missed,
                "inversions": m.total_inversions,
                "seek_ms": m.seek_ms,
                "preempted": snapshot.preempted,
                "mean_queue_length": snapshot.mean_queue_length,
            })
            return snapshot

        StreamingServer.stats = stats
        return self

    def __exit__(self, *exc) -> None:
        self.owner.stats = self.original


def _cluster_cells(spec, plan) -> list:
    """The per-array serving cells of a plan."""
    from repro.experiments.cluster_demo import (LEVELS, fault_plans,
                                                scheduler_ref)
    from repro.parallel import ClusterCellSpec
    plans = fault_plans(spec)
    ref = scheduler_ref(spec.scheduler)
    return [
        ClusterCellSpec(
            label=("cluster", spec.placement, array_id),
            array_id=array_id,
            timeline=tuple(timeline),
            until_ms=spec.until_ms,
            seed=spec.seed,
            scheduler=ref,
            fault_plan=plans.get(array_id),
            max_queue=spec.max_queue,
            priority_levels=LEVELS,
        )
        for array_id, timeline in sorted(plan.timelines.items())
    ]


def _plan_laws(plan, attempts: int) -> list:
    counters, ledger = plan.counters, plan.ledger
    opens = sum(1 for entries in plan.timelines.values()
                for e in entries if e.action == "open")
    closes = sum(1 for entries in plan.timelines.values()
                 for e in entries if e.action == "close")
    return [
        ("cluster: accepted + rejected = attempts",
         plan.accepted + counters.get("rejected", 0) == attempts),
        ("cluster: timeline opens = accepted + migrations",
         opens == plan.accepted + ledger.migrated),
        ("cluster: timeline closes = migrations + migration drops",
         closes == ledger.migrated + ledger.dropped),
    ]


class Fleet16(Workload):
    """The default 16-array ClusterSpec: decide, then serve every
    array's cell at jobs=1, fold a report and record it.  ``decide``
    and ``timed`` passes stop at the decisions."""

    name = "fleet16"
    kinds = ("plain", "decide", "timed")

    def _spec(self):
        from repro.experiments.cluster_demo import ClusterSpec
        spec = ClusterSpec(seed=self.seed)
        if self.quick:
            spec = replace(spec, arrays=4, users=1_200, tail_ms=5_000.0,
                           failure_start_ms=1_500.0,
                           failure_end_ms=2_500.0)
        return spec

    def describe(self) -> dict:
        spec = self._spec()
        return {"arrays": spec.arrays, "users": spec.users,
                "user_interval_ms": spec.user_interval_ms,
                "failure_array": spec.failure_array, "jobs": 1}

    def generate(self) -> None:
        from repro.experiments.cluster_demo import cluster_events
        self.spec = self._spec()
        self.events = cluster_events(self.spec)

    def run_pass(self, kind: str, scratch: str,
                 region=nullcontext) -> Outcome:
        from repro import cluster, parallel
        from repro.cluster.admission import GlobalAdmission
        from repro.experiments.cluster_demo import fault_plans, make_config
        from repro.obs import Observer

        spec = self.spec
        observer = Observer() if kind == "observed" else None
        timer = (_CallTimer(GlobalAdmission, "route")
                 if kind == "timed" else _CallTimer())
        serves = kind not in ("decide", "timed")
        store_path = os.path.join(scratch, f"runs-{time.time_ns()}.sqlite")
        with region():
            started = time.perf_counter()
            controller = cluster.ClusterController(make_config(spec),
                                                   fault_plans(spec))
            if observer is not None:
                observer.watch_cluster(controller)
            with timer:
                plan = controller.run(self.events, spec.until_ms)
            decided = time.perf_counter()
            if serves:
                cells = _cluster_cells(spec, plan)
                with _ServerProbe() as probe:
                    results = parallel.run_cells(
                        parallel.run_cluster_cell, cells, jobs=1,
                        observer=observer)
                report = cluster.build_report(plan, results)
                record_id = self._record(store_path, report, observer,
                                         started)
            if observer is not None:
                observer.registry.to_json()
            wall = time.perf_counter() - started

        ledger = plan.ledger
        attempts = len(self.events)
        rejected = plan.counters.get("rejected", 0)
        decisions = attempts + ledger.migrated + ledger.dropped
        laws = _plan_laws(plan, attempts)
        if kind == "timed":
            laws.append(("cluster: one route call per decision",
                         len(timer.samples) == decisions))
        outcome = Outcome(
            wall_s=wall,
            started=started,
            # Without serving cells the requests a pass resolves are
            # the stream-open requests; a refused one is a miss.
            resolved=attempts,
            decisions=decisions,
            decision_span=((started, decided)
                           if kind in ("plain", "decide") else None),
            attempted=attempts,
            missed=rejected,
            inversions=0,
            seek_ms=0.0,
            served=0,
            sessions_attempted=attempts,
            sessions_accepted=plan.accepted,
            fingerprint={"plan": _sha(plan.serialize())},
            laws=laws,
            decision_latencies=timer.samples,
            decision_starts=timer.starts,
            layer={
                "cluster.spill_ratio": (plan.counters.get("spillovers", 0)
                                        / plan.accepted
                                        if plan.accepted else 0.0),
                "cluster.migrations": ledger.migrated,
            },
        )
        if serves:
            self._add_serving(outcome, plan, cells, results, report,
                              probe.servers)
            outcome.laws.append(self._verify_store(store_path, record_id,
                                                   report))
            outcome.layer["store.record_bytes"] = _files_bytes(store_path)
            _remove_store(store_path)
        return outcome

    @staticmethod
    def _add_serving(outcome: Outcome, plan, cells, results, report,
                     servers) -> None:
        """Fold the serving cells' QoS into a decide-only outcome."""
        total = {key: sum(s[key] for s in servers)
                 for key in ("issued", "completed", "served", "missed",
                             "inversions", "seek_ms", "preempted")}
        outcome.resolved = total["completed"]
        outcome.attempted = total["issued"]
        outcome.missed = total["missed"]
        outcome.inversions = total["inversions"]
        outcome.seek_ms = total["seek_ms"]
        outcome.served = total["served"]
        outcome.fingerprint["cells"] = _sha("|".join(
            f"{r.array_id}:{r.trace_digest}"
            for r in sorted(results, key=lambda r: r.array_id)).encode())
        outcome.fingerprint["report"] = report.fingerprint()
        opens = {array: sum(1 for e in timeline if e.action == "open")
                 for array, timeline in plan.timelines.items()}
        outcome.laws += [
            ("cluster: cell opens = plan opens per array",
             all(r.opened == opens[r.array_id] for r in results)),
            ("cluster: one server per cell",
             len(servers) == len(results) == len(plan.timelines)),
        ]
        outcome.layer.update({
            "disk.sim_busy_ratio": report.mean_measured_utilization,
            "serve.shed_ratio": (total["preempted"] / total["issued"]
                                 if total["issued"] else 0.0),
            "serve.sim_queue_len_mean": (
                sum(s["mean_queue_length"] for s in servers)
                / len(servers) if servers else 0.0),
            "faults.injected": sum(r.faults_injected for r in results),
            "parallel.spec_bytes": len(pickle.dumps(cells)),
            "parallel.result_bytes": len(pickle.dumps(results)),
        })

    def _record(self, path: str, report, observer, started: float) -> int:
        """Record the run into a fresh store, as ``--record`` does."""
        from repro import store as run_store
        from repro.experiments.history import cluster_trace
        from repro.obs import Registry
        registry = observer.registry if observer is not None \
            else Registry()
        report.publish(registry)
        spec = self.spec
        with run_store.open_store(path) as runs:
            return runs.record(run_store.RunRecord(
                kind="cluster",
                config=dataclasses.asdict(spec),
                trace=cluster_trace(report),
                engine=os.environ.get("REPRO_SIM_ENGINE"),
                scheduler=spec.scheduler,
                seed=spec.seed,
                metrics=registry.to_json(),
                report=report.as_dict(),
                timings={"total_s": time.perf_counter() - started},
            ))

    @staticmethod
    def _verify_store(path: str, record_id, report) -> tuple:
        from repro import store as run_store
        from repro.experiments.history import cluster_trace
        with run_store.open_store(path) as runs:
            stored = runs.get(record_id)
        return ("store: recorded run reads back intact",
                stored.verify()
                and stored.trace == cluster_trace(report))


def _files_bytes(path: str) -> int:
    """Bytes of a sqlite store and its side files."""
    directory, base = os.path.split(path)
    return sum(os.path.getsize(os.path.join(directory, name))
               for name in os.listdir(directory) if name.startswith(base))


def _remove_store(path: str) -> None:
    directory, base = os.path.split(path)
    for name in os.listdir(directory):
        if name.startswith(base):
            os.remove(os.path.join(directory, name))


WORKLOADS = {cls.name: cls for cls in (SimDisk, Fleet16)}
