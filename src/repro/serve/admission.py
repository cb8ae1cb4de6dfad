"""Admission control: decide whether a new stream fits on the disk.

The paper's Section 6 server sustains "68 to 91 users per disk"; an
online server reaches that operating point only if something refuses
the 92nd user.  Three policies are provided:

* :class:`ReservationAdmission` — the classic deterministic test: each
  stream reserves a worst-case service budget per period derived from
  the :class:`~repro.disk.disk.DiskModel` (seek budget + rotational
  latency + block transfer, Table 1 numbers), and a stream is admitted
  while the summed reservation stays under a target utilization.  With
  a ``downgrade_limit`` above the target, streams landing between the
  two are admitted at the lowest priority level instead of rejected
  (graceful degradation).
* :class:`MeasurementAdmission` — optimistic: admits while the
  *measured* disk utilization and deadline-miss ratio stay under
  thresholds; reacts to the real load instead of worst-case budgets.
* :class:`AlwaysAdmit` — the no-control baseline that lets the server
  saturate (useful to demonstrate why admission control matters).

Policies are pure deciders: they see the candidate
:class:`~repro.serve.session.StreamSpec` and a :class:`LoadSnapshot`
and return an :class:`AdmissionResult`.  Reservation bookkeeping is
kept by the server through :meth:`AdmissionPolicy.reservation_for`, so
a decision depends only on (policy parameters, admitted set, snapshot)
— which is what makes online and offline replays agree
(:mod:`repro.serve.adapter`).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.disk.disk import DiskModel

from .session import StreamSpec


class AdmissionDecision(enum.Enum):
    """Outcome class of one stream-open attempt."""

    ADMIT = "admit"
    DOWNGRADE = "downgrade"
    REJECT = "reject"


@dataclass(frozen=True)
class LoadSnapshot:
    """What the server knows about current load at decision time."""

    time_ms: float = 0.0
    active_streams: int = 0
    #: Sum of admitted streams' reserved utilization shares.
    reserved_utilization: float = 0.0
    #: Busy time / elapsed time since the server started.
    measured_utilization: float = 0.0
    #: Fraction of completed requests that missed their deadline.
    miss_ratio: float = 0.0
    queue_length: int = 0


@dataclass(frozen=True)
class AdmissionResult:
    """Decision plus the QoS actually granted."""

    decision: AdmissionDecision
    #: Priority vector the stream was granted (None when rejected).
    priorities: tuple[int, ...] | None
    #: Reserved utilization share of this stream (0 for non-reserving
    #: policies).
    utilization: float
    reason: str

    @property
    def admitted(self) -> bool:
        return self.decision is not AdmissionDecision.REJECT


class AdmissionPolicy(ABC):
    """Interface of all admission controllers."""

    #: Registry name, e.g. ``"reservation"``.
    name: str = "abstract"
    #: Whether :meth:`decide` reads its ``load`` argument.  The server
    #: builds no :class:`LoadSnapshot` (and passes None) for a policy
    #: that does not.
    reads_load: bool = True

    @abstractmethod
    def decide(self, spec: StreamSpec, load: LoadSnapshot | None
               ) -> AdmissionResult:
        """Accept, downgrade, or reject ``spec`` under ``load``."""

    def reservation_for(self, spec: StreamSpec) -> float:
        """Utilization share this stream reserves when admitted."""
        return 0.0


class ReservationAdmission(AdmissionPolicy):
    """Deterministic worst-case budget test against the disk model.

    Parameters
    ----------
    disk:
        The disk whose budget is being reserved (Table 1 model).
    target_utilization:
        Admit while reserved + new share stays at or under this.
    downgrade_limit:
        Between target and this limit, admit at the lowest priority
        level instead of rejecting; set equal to ``target_utilization``
        to disable downgrades.
    seek_budget_ms:
        Per-request seek allowance.  Under SCAN-order batching the
        per-request seek is far below the random-access average (the
        paper's server amortizes one sweep across the whole batch), so
        the default is a fraction of the 8.5 ms Table 1 average.
    transfer_cylinder:
        Cylinder whose zone rate prices the transfer term.  Default
        (None) uses the middle cylinder — the sustained-rate estimate
        appropriate for soft QoS; pass ``geometry.cylinders - 1`` for
        a hard worst-case (innermost-zone) budget.
    priority_levels:
        Level count used to build the downgraded priority vector.
    """

    name = "reservation"

    def __init__(self, disk: DiskModel, *,
                 target_utilization: float = 0.85,
                 downgrade_limit: float = 0.95,
                 seek_budget_ms: float = 2.5,
                 transfer_cylinder: int | None = None,
                 priority_levels: int = 8) -> None:
        if not 0.0 < target_utilization <= downgrade_limit:
            raise ValueError(
                "need 0 < target_utilization <= downgrade_limit"
            )
        self._disk = disk
        self.target_utilization = target_utilization
        self.downgrade_limit = downgrade_limit
        self.seek_budget_ms = seek_budget_ms
        if transfer_cylinder is None:
            transfer_cylinder = disk.geometry.cylinders // 2
        self.transfer_cylinder = transfer_cylinder
        self.priority_levels = priority_levels

    def service_budget_ms(self, spec: StreamSpec) -> float:
        """Per-block service budget: seek + latency + transfer."""
        transfer = self._disk.transfer_time_ms(spec.block_bytes,
                                               self.transfer_cylinder)
        latency = self._disk.rotation.average_latency_ms
        return self.seek_budget_ms + latency + transfer

    def reservation_for(self, spec: StreamSpec) -> float:
        return self.service_budget_ms(spec) / spec.period_ms

    def decide(self, spec: StreamSpec, load: LoadSnapshot
               ) -> AdmissionResult:
        share = self.reservation_for(spec)
        total = load.reserved_utilization + share
        if total <= self.target_utilization:
            return AdmissionResult(
                AdmissionDecision.ADMIT, spec.priorities, share,
                f"reserved {total:.3f} <= target "
                f"{self.target_utilization:.3f}",
            )
        if total <= self.downgrade_limit:
            lowest = tuple(
                self.priority_levels - 1 for _ in spec.priorities
            ) or (self.priority_levels - 1,)
            return AdmissionResult(
                AdmissionDecision.DOWNGRADE, lowest, share,
                f"reserved {total:.3f} in degraded band "
                f"(<= {self.downgrade_limit:.3f})",
            )
        return AdmissionResult(
            AdmissionDecision.REJECT, None, 0.0,
            f"reserved {total:.3f} > limit {self.downgrade_limit:.3f}",
        )


class MeasurementAdmission(AdmissionPolicy):
    """Admit while observed utilization and miss ratio stay healthy.

    More permissive than reservation control: it exploits the slack a
    worst-case budget leaves on the table, at the cost of reacting only
    after load materializes.  ``min_streams`` are always admitted so a
    cold server can bootstrap measurements.
    """

    name = "measurement"

    def __init__(self, *, max_utilization: float = 0.90,
                 max_miss_ratio: float = 0.05,
                 min_streams: int = 1) -> None:
        if not 0.0 < max_utilization <= 1.0:
            raise ValueError("max_utilization must be in (0, 1]")
        self.max_utilization = max_utilization
        self.max_miss_ratio = max_miss_ratio
        self.min_streams = min_streams

    def decide(self, spec: StreamSpec, load: LoadSnapshot
               ) -> AdmissionResult:
        if load.active_streams < self.min_streams:
            return AdmissionResult(
                AdmissionDecision.ADMIT, spec.priorities, 0.0,
                f"bootstrap (< {self.min_streams} streams)",
            )
        if load.measured_utilization > self.max_utilization:
            return AdmissionResult(
                AdmissionDecision.REJECT, None, 0.0,
                f"utilization {load.measured_utilization:.3f} > "
                f"{self.max_utilization:.3f}",
            )
        if load.miss_ratio > self.max_miss_ratio:
            return AdmissionResult(
                AdmissionDecision.REJECT, None, 0.0,
                f"miss ratio {load.miss_ratio:.3f} > "
                f"{self.max_miss_ratio:.3f}",
            )
        return AdmissionResult(
            AdmissionDecision.ADMIT, spec.priorities, 0.0,
            f"utilization {load.measured_utilization:.3f} ok",
        )


class AlwaysAdmit(AdmissionPolicy):
    """No admission control (the overload baseline)."""

    name = "always"
    reads_load = False

    def __init__(self) -> None:
        #: One immutable result per requested priority vector.
        self._results: dict[tuple[int, ...], AdmissionResult] = {}

    def decide(self, spec: StreamSpec, load: LoadSnapshot | None
               ) -> AdmissionResult:
        result = self._results.get(spec.priorities)
        if result is None:
            result = self._results[spec.priorities] = AdmissionResult(
                AdmissionDecision.ADMIT, spec.priorities, 0.0,
                "always-admit",
            )
        return result


def make_admission(name: str, disk: DiskModel | None = None,
                   **kwargs: object) -> AdmissionPolicy:
    """Instantiate a policy by registry name.

    ``"reservation"`` requires ``disk``; keyword arguments pass through
    to the policy constructor.
    """
    if name == "reservation":
        if disk is None:
            raise ValueError("reservation admission needs a DiskModel")
        return ReservationAdmission(disk, **kwargs)  # type: ignore[arg-type]
    if name == "measurement":
        return MeasurementAdmission(**kwargs)  # type: ignore[arg-type]
    if name == "always":
        return AlwaysAdmit()
    raise KeyError(
        f"unknown admission policy {name!r}; "
        "known: reservation, measurement, always"
    )
