"""Bridge between the online server and the offline simulator.

The same session population can be played two ways:

* **online** — a :class:`~repro.serve.server.StreamingServer` on a
  virtual clock, with streams opened as ramp events fire
  (:func:`run_ramp_online`);
* **offline** — the admission decisions replayed up-front, the admitted
  sessions materialized into one closed request list, and that list
  handed to :func:`repro.sim.run_simulation`
  (:func:`replay_ramp_offline`).

For *load-independent* admission policies (reservation-based,
always-admit) the two paths make **identical** admit / downgrade /
reject decisions: a decision depends only on the policy parameters and
the reserved shares of previously admitted streams, and sessions draw
their requests from RNG streams keyed by ``(seed, stream_id)``.  The
deterministic adapter tests pin exactly this.  Measurement-based
admission reacts to live load and has no exact offline counterpart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.request import DiskRequest
from repro.disk.geometry import DiskGeometry
from repro.schedulers.base import Scheduler
from repro.sim.server import SimulationResult, run_simulation
from repro.sim.service import ServiceModel

from .admission import AdmissionDecision, AdmissionPolicy, LoadSnapshot
from .server import StreamingServer
from .session import SessionManager, StreamSpec


@dataclass(frozen=True)
class RampEvent:
    """One stream-open attempt at an absolute instant."""

    time_ms: float
    spec: StreamSpec


@dataclass(frozen=True)
class RampDecision:
    """Recorded outcome of one ramp event."""

    time_ms: float
    decision: AdmissionDecision
    #: Stream id granted, or -1 when rejected.
    stream_id: int
    reserved_utilization_after: float


@dataclass
class OfflineRamp:
    """Result of replaying a ramp through the offline simulator."""

    decisions: list[RampDecision]
    requests: list[DiskRequest]
    result: SimulationResult

    @property
    def accepted(self) -> int:
        return sum(
            1 for d in self.decisions
            if d.decision is not AdmissionDecision.REJECT
        )


def run_ramp_online(server: StreamingServer,
                    events: Sequence[RampEvent],
                    until_ms: float) -> list[RampDecision]:
    """Fire ``events`` against a live server, then run to ``until_ms``."""
    decisions: list[RampDecision] = []
    for event in sorted(events, key=lambda e: e.time_ms):
        server.run_until(event.time_ms)
        result, session = server.open_stream(event.spec)
        decisions.append(RampDecision(
            time_ms=event.time_ms,
            decision=result.decision,
            stream_id=session.stream_id if session is not None else -1,
            reserved_utilization_after=server.reserved_utilization,
        ))
    server.run_until(until_ms)
    return decisions


def replay_ramp_offline(events: Sequence[RampEvent],
                        policy: AdmissionPolicy,
                        geometry: DiskGeometry,
                        scheduler: Scheduler,
                        service: ServiceModel,
                        *,
                        seed: int = 0,
                        until_ms: float,
                        drop_expired: bool = True,
                        priority_levels: int = 8,
                        record_timeline: bool = False) -> OfflineRamp:
    """Replay the ramp's admission decisions, then simulate offline.

    Mirrors the online decision path for load-independent policies: the
    snapshot carries only the reserved shares of streams admitted so
    far (a cold offline replay measures nothing), the admitted specs
    open sessions in the same order with the same ``(seed, stream_id)``
    RNG keys, and the materialized request batch is served through
    :func:`repro.sim.run_simulation`.
    """
    manager = SessionManager(geometry, seed=seed)
    reserved = 0.0
    decisions: list[RampDecision] = []
    for event in sorted(events, key=lambda e: e.time_ms):
        load = LoadSnapshot(
            time_ms=event.time_ms,
            active_streams=manager.active_streams,
            reserved_utilization=reserved,
        )
        result = policy.decide(event.spec, load)
        stream_id = -1
        if result.admitted:
            granted = event.spec
            if (result.priorities is not None
                    and result.priorities != event.spec.priorities):
                granted = event.spec.with_priorities(result.priorities)
            session = manager.open(granted, event.time_ms)
            stream_id = session.stream_id
            reserved += result.utilization
        decisions.append(RampDecision(
            time_ms=event.time_ms,
            decision=result.decision,
            stream_id=stream_id,
            reserved_utilization_after=reserved,
        ))
    requests = manager.materialize(until_ms)
    result = run_simulation(
        requests, scheduler, service,
        drop_expired=drop_expired,
        priority_levels=priority_levels,
        record_timeline=record_timeline,
    )
    return OfflineRamp(decisions=decisions, requests=requests,
                       result=result)


def uniform_ramp(make_spec: Callable[[int], StreamSpec],
                 count: int, interval_ms: float,
                 *, start_ms: float = 0.0) -> list[RampEvent]:
    """One stream-open attempt every ``interval_ms``, ``count`` times."""
    return [
        RampEvent(start_ms + i * interval_ms, make_spec(i))
        for i in range(count)
    ]
