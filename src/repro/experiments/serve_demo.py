"""Serve demo: ramp users onto one disk until admission control saturates.

The online analogue of Section 6: new users ask for MPEG-1 1.5 Mbps
streams (striped over the RAID-5 set, so each disk sees rate/4) at a
steady rate; the admission controller accepts them until the Table 1
disk budget is exhausted, then degrades and finally rejects.  The demo
reports the achieved users/disk against the paper's empirical
"68 to 91 users per disk" band.

Run with::

    python -m repro.experiments serve [--quick] [--policy reservation]
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

from repro.core.config import CascadedSFCConfig
from repro.core.scheduler import CascadedSFCScheduler
from repro.disk.disk import make_xp32150_disk
from repro.schedulers.base import Scheduler
from repro.schedulers.registry import SchedulerContext, make_baseline
from repro.serve import (
    QoSReporter,
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
from repro.serve.adapter import RampDecision
from repro.sim.rng import derive
from repro.sim.service import DiskService
from repro.workloads.multimedia import normal_priority_level

from .common import Table

CYLINDERS = 3832
LEVELS = 8
#: Section 6: "68 to 91 users per disk" on the PanaViss setup.
PAPER_BAND = (68, 91)


@dataclass(frozen=True)
class ServeSpec:
    """Ramp scenario parameters (defaults follow Section 6)."""

    max_users: int = 110
    user_interval_ms: float = 1000.0
    #: Extra serving time after the last open attempt.
    tail_ms: float = 30_000.0
    stream_rate_mbps: float = 1.5
    raid_data_disks: int = 4
    scheduler: str = "cascaded-sfc"
    policy: str = "reservation"
    max_queue: int = 64
    write_fraction: float = 0.25
    seed: int = 2004
    report_every_ms: float | None = None

    def quick(self) -> "ServeSpec":
        return replace(self, user_interval_ms=250.0, tail_ms=5_000.0)

    @property
    def per_disk_rate_mbps(self) -> float:
        return self.stream_rate_mbps / self.raid_data_disks

    @property
    def until_ms(self) -> float:
        return self.max_users * self.user_interval_ms + self.tail_ms


@dataclass
class ServeResult:
    """Everything the demo produced."""

    summary: Table
    decisions_table: Table
    decisions: list[RampDecision] = field(default_factory=list)
    events: list[RampEvent] = field(default_factory=list)
    stats: ServerStats | None = None
    #: Streams admitted at full QoS (the achieved users/disk).
    achieved_users: int = 0
    #: Admitted + downgraded.
    accepted_users: int = 0
    #: Canonical serialized trace of the run (the replay contract the
    #: run store fingerprints; same bytes the golden tests assert).
    trace: bytes = b""


def make_scheduler(name: str, *, levels: int = LEVELS) -> Scheduler:
    """Build the serving scheduler: a baseline or the full cascade."""
    if name == "cascaded-sfc":
        config = CascadedSFCConfig(
            priority_dims=1, priority_levels=levels, sfc1="sweep",
            f=1.0, deadline_horizon_ms=1500.0, r_partitions=3,
        )
        return CascadedSFCScheduler(config, cylinders=CYLINDERS)
    return make_baseline(
        name, SchedulerContext(cylinders=CYLINDERS, priority_levels=levels)
    )


def ramp_events(spec: ServeSpec) -> list[RampEvent]:
    """The scripted stream-open attempts of the ramp."""
    prio_rng = derive(spec.seed, "serve-ramp", "prio")
    layout_rng = derive(spec.seed, "serve-ramp", "layout")
    events = []
    for user in range(spec.max_users):
        priorities = (normal_priority_level(prio_rng, LEVELS),)
        events.append(RampEvent(
            time_ms=user * spec.user_interval_ms,
            spec=StreamSpec(
                rate_mbps=spec.per_disk_rate_mbps,
                priorities=priorities,
                start_block=layout_rng.randrange(30_000),
                blocks=None,  # live streams: keep playing until the end
                is_write=layout_rng.random() < spec.write_fraction,
                value=float(LEVELS - 1 - priorities[0]),
            ),
        ))
    return events


def build_server(spec: ServeSpec,
                 sink=print, *, observer=None) -> StreamingServer:
    """Assemble the serving stack for one ramp run."""
    disk = make_xp32150_disk()
    disk.reset(0)
    reporter = None
    if spec.report_every_ms is not None:
        reporter = QoSReporter(spec.report_every_ms, sink)
    kwargs = {"priority_levels": LEVELS} if spec.policy == "reservation" \
        else {}
    return StreamingServer(
        make_scheduler(spec.scheduler),
        DiskService(disk),
        SessionManager(disk.geometry, seed=spec.seed),
        make_admission(spec.policy, disk, **kwargs),
        clock=VirtualClock(),
        config=ServerConfig(max_queue=spec.max_queue,
                            priority_levels=LEVELS),
        reporter=reporter,
        observer=observer,
    )


def run(spec: ServeSpec = ServeSpec(), *, sink=print,
        observer=None) -> ServeResult:
    # Imported lazily: faults_scenario imports this module for the
    # scheduler factory, so the top level must stay one-directional.
    from .faults_scenario import serialize_trace

    server = build_server(spec, sink, observer=observer)
    events = ramp_events(spec)
    decisions = run_ramp_online(server, events, spec.until_ms)
    stats = server.stats()
    trace = serialize_trace(server)

    decisions_table = Table(
        title="Serve ramp -- admission decisions",
        headers=("user", "t_ms", "decision", "level",
                 "reserved_util", "streams_after"),
    )
    streams = 0
    for user, (event, decision) in enumerate(zip(events, decisions)):
        if decision.stream_id >= 0:
            streams += 1
        decisions_table.add_row(
            user, event.time_ms, decision.decision.value,
            event.spec.priorities[0],
            decision.reserved_utilization_after, streams,
        )

    achieved = stats.admitted
    accepted = stats.accepted_streams
    lo, hi = PAPER_BAND
    summary = Table(
        title="Serve ramp -- summary",
        headers=("metric", "value"),
    )
    for name, value in (
        ("scheduler", spec.scheduler),
        ("admission policy", spec.policy),
        ("open attempts", stats.attempts),
        ("users/disk (full QoS)", achieved),
        ("users/disk (incl. degraded)", accepted),
        ("paper band (Section 6)", f"{lo}-{hi}"),
        ("within paper band", "yes" if lo <= accepted <= hi else "no"),
        ("rejected", stats.rejected),
        ("dispatched", stats.dispatched),
        ("completed", stats.completed),
        ("deadline misses", stats.missed),
        ("miss ratio", round(stats.miss_ratio, 4)),
        ("load-shed victims", stats.preempted),
        ("reserved utilization", round(stats.reserved_utilization, 4)),
        ("measured utilization", round(stats.measured_utilization, 4)),
        ("mean response (ms)", round(stats.mean_response_ms, 2)),
    ):
        summary.add_row(name, value)

    return ServeResult(
        summary=summary,
        decisions_table=decisions_table,
        decisions=decisions,
        events=events,
        stats=stats,
        achieved_users=achieved,
        accepted_users=accepted,
        trace=trace,
    )


def write_ramp_csv(result: ServeResult, path: str) -> str:
    """Record the ramp (one row per open attempt + a summary row)."""
    from .common import ensure_parent
    ensure_parent(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["user", "t_ms", "decision", "level",
                         "reserved_util", "streams_after"])
        for row in result.decisions_table.rows:
            writer.writerow(row)
        writer.writerow(["achieved_users_full_qos", result.achieved_users,
                         "accepted_users", result.accepted_users,
                         "paper_band", f"{PAPER_BAND[0]}-{PAPER_BAND[1]}"])
    return path


def main() -> None:
    result = run(ServeSpec(report_every_ms=10_000.0))
    print(result.summary.render())


if __name__ == "__main__":
    main()
