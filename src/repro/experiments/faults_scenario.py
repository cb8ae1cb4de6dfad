"""Faults scenario: schedulers under an identical fault schedule.

The deterministic stress test behind the graceful-degradation claims:
a fixed population of streams plays against one disk while a seeded
:class:`~repro.faults.FaultPlan` injects a latency spike, background
transient I/O errors, a whole-disk failure window, and a thermal
slowdown ramp.  Every scheduler under comparison — the cascaded-SFC
scheduler and the classical baselines — faces the *same* streams and
the *same* fault rolls (faults are keyed by ``(seed, disk, request,
attempt)``, not by call order), so any difference in the outcome is
the scheduler's doing.

The headline metric is the **degraded-window miss ratio**: deadline
misses per completion inside the window that starts when the disk
fails and ends ``recovery_ms`` after it comes back — the stretch where
the backlog drains and scheduling order decides who glitches.  The
cascade's QoS-aware ordering spends the scarce post-fault bandwidth on
the requests whose deadlines are still reachable, so it recovers with
fewer misses than deadline-only baselines.

Run with::

    python -m repro.experiments faults [--quick] [--out results/faults_compare.csv]
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass, field, replace

from repro.faults import (
    DiskFailure,
    FaultInjector,
    FaultPlan,
    LatencySpike,
    RetryPolicy,
    ThermalRamp,
    TransientErrors,
)
from repro.serve import (
    RampEvent,
    ServerConfig,
    ServerStats,
    SessionManager,
    StreamSpec,
    StreamingServer,
    VirtualClock,
    make_admission,
    run_ramp_online,
)
from repro.disk.disk import make_xp32150_disk
from repro.sim.rng import derive
from repro.sim.service import DiskService
from repro.workloads.multimedia import normal_priority_level

from .common import Table
from .serve_demo import LEVELS, make_scheduler

#: Schedulers compared under the identical fault schedule.
CONTENDERS = ("cascaded-sfc", "edf", "scan-edf")


@dataclass(frozen=True)
class FaultsSpec:
    """Scenario parameters (one disk of the Table 1 array).

    The defaults stage a three-act run: healthy warm-up with a latency
    spike, a short whole-disk outage whose retries outlive the window
    (``backoff_ms`` is deliberately longer than the outage remainder,
    so requests survive to re-contend after recovery), and a thermal
    slowdown ramp covering the post-outage drain.  The drained backlog
    plus slowed disk is a *sustained* overload — the regime where EDF's
    domino effect bites and the cascade's sweep-order throughput and
    priority-selective victims pay off.
    """

    streams: int = 64
    stream_interval_ms: float = 120.0
    duration_ms: float = 60_000.0
    stream_rate_mbps: float = 0.375  # 1.5 Mbps striped over 4 data disks
    write_fraction: float = 0.25
    seed: int = 2004
    # -- the fault schedule -------------------------------------------
    #: Background transient I/O error probability (whole run).
    error_probability: float = 0.01
    #: Latency spike: [start, end) adds extra_ms to every service.
    spike_start_ms: float = 8_000.0
    spike_end_ms: float = 12_000.0
    spike_extra_ms: float = 4.0
    #: Whole-disk failure window (nothing completes inside it).
    failure_start_ms: float = 20_000.0
    failure_end_ms: float = 20_800.0
    #: Thermal slowdown ramp toward peak_factor x service time,
    #: overlapping the post-outage drain.
    thermal_start_ms: float = 21_000.0
    thermal_end_ms: float = 42_000.0
    thermal_peak_factor: float = 1.8
    #: The degraded window extends this far past the failure window,
    #: covering the backlog drain where scheduling order matters most.
    recovery_ms: float = 6_000.0
    # -- fault handling ------------------------------------------------
    max_attempts: int = 4
    abort_ms: float = 4.0
    backoff_ms: float = 400.0
    degrade_after: int = 10
    degrade_window_ms: float = 3_000.0
    degrade_policy: str = "shed"
    schedulers: tuple[str, ...] = CONTENDERS

    def quick(self) -> "FaultsSpec":
        """Benchmark-sized instance: same acts, third of the run."""
        return replace(
            self,
            duration_ms=20_000.0,
            spike_start_ms=2_000.0, spike_end_ms=4_000.0,
            failure_start_ms=6_000.0, failure_end_ms=6_800.0,
            thermal_start_ms=7_000.0, thermal_end_ms=14_000.0,
        )

    @property
    def degraded_window(self) -> tuple[float, float]:
        """[failure start, failure end + recovery): the headline window."""
        return (self.failure_start_ms,
                self.failure_end_ms + self.recovery_ms)

    def make_plan(self) -> FaultPlan:
        """The shared fault schedule every contender replays."""
        return FaultPlan([
            LatencySpike(disk=0, start_ms=self.spike_start_ms,
                         end_ms=self.spike_end_ms,
                         extra_ms=self.spike_extra_ms),
            TransientErrors(disk=0, start_ms=0.0,
                            end_ms=self.duration_ms,
                            probability=self.error_probability),
            DiskFailure(disk=0, start_ms=self.failure_start_ms,
                        end_ms=self.failure_end_ms),
            ThermalRamp(disk=0, start_ms=self.thermal_start_ms,
                        end_ms=self.thermal_end_ms,
                        peak_factor=self.thermal_peak_factor),
        ], seed=self.seed)

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(max_attempts=self.max_attempts,
                           abort_ms=self.abort_ms,
                           backoff_ms=self.backoff_ms)


@dataclass(frozen=True)
class ContenderOutcome:
    """One scheduler's run under the shared fault schedule."""

    scheduler: str
    stats: ServerStats
    #: Misses / completions inside the degraded window (the headline).
    window_miss_ratio: float
    window_misses: int
    window_completions: int
    #: Same ratio restricted to above-median-priority streams — the
    #: traffic graceful degradation is supposed to protect.
    window_high_miss_ratio: float
    #: SHA-256 over the serialized trace (the determinism fingerprint).
    trace_digest: str


@dataclass
class FaultsResult:
    """Everything the scenario produced."""

    summary: Table
    spec: FaultsSpec = field(default_factory=FaultsSpec)
    outcomes: list[ContenderOutcome] = field(default_factory=list)
    #: True when the re-run of the first contender reproduced its
    #: trace byte for byte.
    deterministic: bool = True

    def outcome(self, scheduler: str) -> ContenderOutcome:
        for out in self.outcomes:
            if out.scheduler == scheduler:
                return out
        raise KeyError(scheduler)


def stream_events(spec: FaultsSpec) -> list[RampEvent]:
    """The scripted stream-open attempts (identical per contender)."""
    prio_rng = derive(spec.seed, "faults", "prio")
    layout_rng = derive(spec.seed, "faults", "layout")
    events = []
    for user in range(spec.streams):
        priorities = (normal_priority_level(prio_rng, LEVELS),)
        events.append(RampEvent(
            time_ms=user * spec.stream_interval_ms,
            spec=StreamSpec(
                rate_mbps=spec.stream_rate_mbps,
                priorities=priorities,
                start_block=layout_rng.randrange(30_000),
                blocks=None,
                is_write=layout_rng.random() < spec.write_fraction,
                value=float(LEVELS - 1 - priorities[0]),
            ),
        ))
    return events


def build_server(spec: FaultsSpec, scheduler: str) -> StreamingServer:
    """One serving stack with a fresh fault injector."""
    disk = make_xp32150_disk()
    disk.reset(0)
    return StreamingServer(
        make_scheduler(scheduler),
        DiskService(disk),
        SessionManager(disk.geometry, seed=spec.seed),
        make_admission("always"),
        clock=VirtualClock(),
        config=ServerConfig(
            priority_levels=LEVELS,
            degrade_after=spec.degrade_after,
            degrade_window_ms=spec.degrade_window_ms,
            degrade_policy=spec.degrade_policy,
        ),
        faults=FaultInjector(spec.make_plan(),
                             policy=spec.retry_policy()),
    )


def serialize_trace(server: StreamingServer) -> bytes:
    """Canonical byte form of the full trace (determinism checks)."""
    lines = [
        f"{time_ms!r}|{kind}|{stream_id}|{request_id}|{detail}"
        for time_ms, kind, stream_id, request_id, detail
        in server.trace.rows()
    ]
    return "\n".join(lines).encode()


def _window_miss_ratio(server: StreamingServer,
                       window: tuple[float, float],
                       streams: set[int] | None = None
                       ) -> tuple[float, int, int]:
    """Misses per completion inside ``window``, from the trace.

    A late completion emits both a ``complete`` and a ``miss`` event; a
    fault drop emits only the ``miss`` — so the ratio can exceed 1
    inside a hard outage.  ``streams`` restricts to a stream subset.
    """
    start, end = window
    keep = (lambda s: True) if streams is None else streams.__contains__
    misses = sum(1 for e in server.trace.events("miss")
                 if start <= e.time_ms < end and keep(e.stream_id))
    completes = sum(1 for e in server.trace.events("complete")
                    if start <= e.time_ms < end and keep(e.stream_id))
    denom = max(completes, 1)
    return misses / denom, misses, completes


def run_contender(spec: FaultsSpec, scheduler: str) -> tuple[
        ContenderOutcome, bytes]:
    server = build_server(spec, scheduler)
    events = stream_events(spec)
    decisions = run_ramp_online(server, events, spec.duration_ms)
    stats = server.stats()
    high = {
        decision.stream_id
        for event, decision in zip(events, decisions)
        if decision.stream_id >= 0
        and event.spec.priorities[0] < LEVELS // 2
    }
    ratio, misses, completes = _window_miss_ratio(server,
                                                  spec.degraded_window)
    high_ratio, _, _ = _window_miss_ratio(server, spec.degraded_window,
                                          high)
    trace = serialize_trace(server)
    outcome = ContenderOutcome(
        scheduler=scheduler,
        stats=stats,
        window_miss_ratio=ratio,
        window_misses=misses,
        window_completions=completes,
        window_high_miss_ratio=high_ratio,
        trace_digest=hashlib.sha256(trace).hexdigest(),
    )
    return outcome, trace


def run(spec: FaultsSpec = FaultsSpec()) -> FaultsResult:
    outcomes: list[ContenderOutcome] = []
    first_trace: bytes | None = None
    for scheduler in spec.schedulers:
        outcome, trace = run_contender(spec, scheduler)
        outcomes.append(outcome)
        if first_trace is None:
            first_trace = trace

    # Determinism: the first contender re-run must reproduce its trace
    # byte for byte.
    deterministic = True
    if spec.schedulers:
        _, replay = run_contender(spec, spec.schedulers[0])
        deterministic = replay == first_trace

    lo, hi = spec.degraded_window
    summary = Table(
        title=(f"faults -- schedulers under one fault schedule "
               f"(degraded window {lo / 1e3:.0f}-{hi / 1e3:.0f}s)"),
        headers=("scheduler", "completed", "missed", "miss_ratio",
                 "window_miss_ratio", "window_high_miss", "faults",
                 "retries", "failures", "degrade_entries",
                 "shed_streams"),
    )
    for out in outcomes:
        s = out.stats
        summary.add_row(
            out.scheduler, s.completed, s.missed,
            round(s.miss_ratio, 4), round(out.window_miss_ratio, 4),
            round(out.window_high_miss_ratio, 4),
            s.faults_injected, s.fault_retries, s.fault_failures,
            s.degrade_entries, s.degraded_streams,
        )
    return FaultsResult(summary=summary, spec=spec, outcomes=outcomes,
                        deterministic=deterministic)


def write_faults_csv(result: FaultsResult, path: str) -> str:
    """Record the comparison: one row per contender plus provenance."""
    from .common import ensure_parent
    spec = result.spec
    lo, hi = spec.degraded_window
    ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "scheduler", "completed", "missed", "miss_ratio",
            "window_miss_ratio", "window_high_miss_ratio",
            "window_misses", "window_completions",
            "faults_injected", "fault_retries", "fault_failures",
            "degrade_entries", "shed_streams", "trace_sha256",
        ])
        for out in result.outcomes:
            s = out.stats
            writer.writerow([
                out.scheduler, s.completed, s.missed,
                round(s.miss_ratio, 6), round(out.window_miss_ratio, 6),
                round(out.window_high_miss_ratio, 6),
                out.window_misses, out.window_completions,
                s.faults_injected, s.fault_retries, s.fault_failures,
                s.degrade_entries, s.degraded_streams,
                out.trace_digest,
            ])
        writer.writerow([
            "meta", f"seed={spec.seed}",
            f"degraded_window_ms={lo:.0f}-{hi:.0f}",
            f"deterministic={result.deterministic}",
        ])
    return path


def main() -> None:
    spec = FaultsSpec()
    result = run(spec)
    print(result.summary.render())
    print(f"deterministic replay: {result.deterministic}")


if __name__ == "__main__":
    main()
