"""Applying a :class:`~repro.faults.plan.FaultPlan` to running services.

Two integration points:

* :class:`FaultInjector` — the stateful middleman the online server
  and the RAID array replay consult at dispatch time.  It owns the
  retry policy, keeps lifetime counters, and answers "does this
  attempt fail, and what does it cost?".
* :class:`FaultyService` — a :class:`~repro.sim.service.ServiceModel`
  wrapper for the *offline* engine, which has no failure path: retries
  and their backoffs are absorbed into the returned service time, so
  ``run_simulation`` sees a slower disk rather than a lossy one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.request import DiskRequest
from repro.disk.disk import ServiceRecord

from .plan import FaultPlan

if TYPE_CHECKING:
    from repro.sim.service import ServiceModel


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    An attempt that fails costs ``abort_ms`` of disk time (the aborted
    command) and the request becomes eligible again after a backoff of
    ``backoff_ms * backoff_factor**(attempt - 1)``.  After
    ``max_attempts`` total attempts the request is given up.
    """

    max_attempts: int = 3
    abort_ms: float = 4.0
    backoff_ms: float = 10.0
    backoff_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.abort_ms < 0 or self.backoff_ms < 0:
            raise ValueError("abort_ms/backoff_ms must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")

    def backoff_for(self, attempt: int) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return self.backoff_ms * self.backoff_factor ** (attempt - 1)


@dataclass
class FaultCounters:
    """Lifetime tallies of what the injector did."""

    #: Failed service attempts (transient errors + failed-disk attempts).
    injected: int = 0
    #: Re-submissions after a failed attempt.
    retries: int = 0
    #: Requests abandoned after ``max_attempts`` failures.
    gave_up: int = 0
    #: Extra service milliseconds added by spikes/ramps.
    penalty_ms: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {
            "injected": self.injected,
            "retries": self.retries,
            "gave_up": self.gave_up,
            "penalty_ms": self.penalty_ms,
        }


@dataclass
class FaultInjector:
    """Stateful fault oracle shared by one run.

    Wraps the passive :class:`FaultPlan` with a retry policy and
    counters.  All decisions delegate to the plan's seeded rolls, so
    the injector adds bookkeeping, not randomness.
    """

    plan: FaultPlan
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    counters: FaultCounters = field(default_factory=FaultCounters)

    def attempt_fails(self, disk: int, request_id: int, attempt: int,
                      now_ms: float) -> bool:
        """Roll attempt ``attempt`` of ``request_id``; count failures."""
        failed = self.plan.attempt_fails(disk, request_id, attempt, now_ms)
        if failed:
            self.counters.injected += 1
        return failed

    def exhausted(self, attempt: int) -> bool:
        """True when ``attempt`` was the last one the policy allows."""
        return attempt >= self.policy.max_attempts

    def note_retry(self) -> None:
        self.counters.retries += 1

    def note_gave_up(self) -> None:
        self.counters.gave_up += 1

    def service_penalty_ms(self, disk: int, now_ms: float,
                           base_ms: float) -> float:
        """Latency-spike + thermal-ramp surcharge for one service."""
        penalty = self.plan.service_penalty_ms(disk, now_ms, base_ms)
        self.counters.penalty_ms += penalty
        return penalty

    def is_failed(self, disk: int, now_ms: float) -> bool:
        return self.plan.is_failed(disk, now_ms)


class FaultyService:
    """A fault-injecting :class:`~repro.sim.service.ServiceModel`.

    For the offline engine, which completes every dispatched request:
    failed attempts and their backoffs are charged as extra service
    time on the same request (the disk retrying in place).  A request
    that exhausts its attempts still "completes" — after paying for
    every attempt — and is tallied in ``injector.counters.gave_up``;
    under deadline workloads that time cost is what turns faults into
    misses, which keeps scheduler comparisons meaningful.
    """

    def __init__(self, inner: ServiceModel, injector: FaultInjector,
                 *, disk: int = 0) -> None:
        self._inner = inner
        self._injector = injector
        self._disk = disk

    @property
    def inner(self) -> ServiceModel:
        return self._inner

    @property
    def injector(self) -> FaultInjector:
        return self._injector

    @property
    def head_cylinder(self) -> int:
        return self._inner.head_cylinder

    def serve(self, request: DiskRequest, now: float) -> ServiceRecord:
        injector = self._injector
        policy = injector.policy
        record = self._inner.serve(request, now)
        penalty = injector.service_penalty_ms(self._disk, now,
                                              record.total_ms)
        retry_ms = 0.0
        attempt = 1
        while injector.attempt_fails(self._disk, request.request_id,
                                     attempt, now):
            if injector.exhausted(attempt):
                injector.note_gave_up()
                break
            retry_ms += policy.abort_ms + policy.backoff_for(attempt)
            injector.note_retry()
            attempt += 1
        return ServiceRecord(
            seek_ms=record.seek_ms,
            latency_ms=record.latency_ms + penalty,
            transfer_ms=record.transfer_ms + retry_ms,
        )
