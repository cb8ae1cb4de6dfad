"""The fault-plan DSL: a seeded, declarative schedule of disk faults.

A :class:`FaultPlan` is a closed description of *when* and *how* disks
misbehave during a run.  It is deliberately passive — a pure function
from ``(disk, time)`` to fault state — so the same plan can be applied
to the offline simulator (:mod:`repro.sim`), the RAID array replay
(:mod:`repro.sim.array`) and the online server (:mod:`repro.serve`)
and every consumer sees *identical* degraded conditions.  All
randomness (the per-attempt transient-error rolls) is keyed by
``(seed, disk, request_id, attempt)``, never by call order, so two
schedulers replaying the same workload under the same plan face the
same faults at the same requests.

Four fault kinds cover the degradation regimes of a video server:

* :class:`LatencySpike` — a window during which every service on the
  disk pays a fixed extra latency (firmware hiccup, recalibration).
* :class:`TransientErrors` — a window during which each service
  attempt fails independently with probability ``probability`` and
  must be retried (media errors, vibration).
* :class:`DiskFailure` — the disk is gone between ``start_ms`` and
  ``end_ms`` (recovery/replacement); every attempt fails.
* :class:`ThermalRamp` — service times inflate linearly from 1x at
  ``start_ms`` to ``peak_factor`` at ``end_ms`` (thermal throttling).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Union

from repro.sim.rng import derive


def _check_fault(disk: int, start_ms: float, end_ms: float) -> None:
    if disk < 0:
        raise ValueError(f"fault disk must be >= 0, got {disk}")
    if not (start_ms >= 0 and end_ms > start_ms):
        raise ValueError(
            f"fault window must satisfy 0 <= start < end, "
            f"got [{start_ms}, {end_ms})"
        )


@dataclass(frozen=True)
class LatencySpike:
    """Every service on ``disk`` in the window pays ``extra_ms`` more."""

    disk: int
    start_ms: float
    end_ms: float
    extra_ms: float

    def __post_init__(self) -> None:
        _check_fault(self.disk, self.start_ms, self.end_ms)
        if self.extra_ms < 0:
            raise ValueError("extra_ms must be non-negative")


@dataclass(frozen=True)
class TransientErrors:
    """Service attempts on ``disk`` fail with ``probability`` in the window."""

    disk: int
    start_ms: float
    end_ms: float
    probability: float

    def __post_init__(self) -> None:
        _check_fault(self.disk, self.start_ms, self.end_ms)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must lie in [0, 1]")


@dataclass(frozen=True)
class DiskFailure:
    """``disk`` is down for the whole window (recovers at ``end_ms``)."""

    disk: int
    start_ms: float
    end_ms: float

    def __post_init__(self) -> None:
        _check_fault(self.disk, self.start_ms, self.end_ms)


@dataclass(frozen=True)
class ThermalRamp:
    """Service times inflate linearly to ``peak_factor`` over the window."""

    disk: int
    start_ms: float
    end_ms: float
    peak_factor: float

    def __post_init__(self) -> None:
        _check_fault(self.disk, self.start_ms, self.end_ms)
        if self.peak_factor < 1.0:
            raise ValueError("peak_factor must be >= 1")

    def factor_at(self, now_ms: float) -> float:
        """Slowdown factor at ``now_ms`` (1.0 outside the window)."""
        if not self.start_ms <= now_ms < self.end_ms:
            return 1.0
        progress = (now_ms - self.start_ms) / (self.end_ms - self.start_ms)
        return 1.0 + (self.peak_factor - 1.0) * progress


Fault = Union[LatencySpike, TransientErrors, DiskFailure, ThermalRamp]


class FaultPlan:
    """A seeded schedule of faults, queryable by ``(disk, time)``.

    Parameters
    ----------
    faults:
        The fault windows.  Windows of the same kind on the same disk
        may overlap; effects combine (extra latencies add, slowdown
        factors multiply, error probabilities combine as independent
        causes).
    seed:
        Root seed of the transient-error rolls.  Two plans with equal
        faults and seeds behave identically.
    """

    def __init__(self, faults: Sequence[Fault] = (), *, seed: int = 0) -> None:
        self._faults = tuple(faults)
        self._seed = seed

    @property
    def seed(self) -> int:
        return self._seed

    @property
    def faults(self) -> tuple[Fault, ...]:
        return self._faults

    def __len__(self) -> int:
        return len(self._faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self._faults)

    def for_disk(self, disk: int) -> "FaultPlan":
        """The sub-plan of faults addressing ``disk`` (same seed)."""
        return FaultPlan(
            [f for f in self._faults if f.disk == disk], seed=self._seed
        )

    # -- state queries ----------------------------------------------------

    def is_failed(self, disk: int, now_ms: float) -> bool:
        """True while a :class:`DiskFailure` window covers ``now_ms``."""
        return any(
            isinstance(f, DiskFailure) and f.disk == disk
            and f.start_ms <= now_ms < f.end_ms
            for f in self._faults
        )

    def failed_during(self, disk: int, start_ms: float,
                      end_ms: float) -> bool:
        """True if ``disk`` fails at any point of ``[start_ms, end_ms)``."""
        return any(
            isinstance(f, DiskFailure) and f.disk == disk
            and f.start_ms < end_ms and start_ms < f.end_ms
            for f in self._faults
        )

    def failure_windows(self, disk: int | None = None
                        ) -> list[DiskFailure]:
        """Every failure window (of ``disk``, or all), in start order."""
        windows = [
            f for f in self._faults if isinstance(f, DiskFailure)
            and (disk is None or f.disk == disk)
        ]
        return sorted(windows, key=lambda f: (f.start_ms, f.disk))

    def rebuild_windows(self, disk: int | None = None, *,
                        rebuild_ms: float = 0.0
                        ) -> list[tuple[float, float]]:
        """Failure windows extended by the hot-spare rebuild tail.

        The failure -> controller signal of the cluster tier
        (:mod:`repro.cluster.controller`): each returned ``(start,
        end)`` covers the outage itself plus ``rebuild_ms`` of rebuild
        traffic after the disk returns — the stretch during which the
        array's advertised budget stays degraded.  Overlapping or
        back-to-back windows merge, so one degradation episode yields
        one signal.
        """
        if rebuild_ms < 0:
            raise ValueError("rebuild_ms must be non-negative")
        windows = [(f.start_ms, f.end_ms + rebuild_ms)
                   for f in self.failure_windows(disk)]
        merged: list[tuple[float, float]] = []
        for start, end in windows:
            if merged and start <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], end))
            else:
                merged.append((start, end))
        return merged

    def extra_latency_ms(self, disk: int, now_ms: float) -> float:
        """Sum of active :class:`LatencySpike` extras at ``now_ms``."""
        return sum(
            f.extra_ms for f in self._faults
            if isinstance(f, LatencySpike) and f.disk == disk
            and f.start_ms <= now_ms < f.end_ms
        )

    def slowdown_factor(self, disk: int, now_ms: float) -> float:
        """Product of active :class:`ThermalRamp` factors at ``now_ms``."""
        factor = 1.0
        for f in self._faults:
            if isinstance(f, ThermalRamp) and f.disk == disk:
                factor *= f.factor_at(now_ms)
        return factor

    def error_probability(self, disk: int, now_ms: float) -> float:
        """Combined attempt-failure probability at ``now_ms``.

        Overlapping windows combine as independent failure causes:
        ``1 - prod(1 - p_i)``.  A covering :class:`DiskFailure` forces
        the probability to 1.
        """
        if self.is_failed(disk, now_ms):
            return 1.0
        survive = 1.0
        for f in self._faults:
            if (isinstance(f, TransientErrors) and f.disk == disk
                    and f.start_ms <= now_ms < f.end_ms):
                survive *= 1.0 - f.probability
        return 1.0 - survive

    def service_penalty_ms(self, disk: int, now_ms: float,
                           base_ms: float) -> float:
        """Extra service time faults add to a ``base_ms`` operation."""
        if base_ms < 0:
            raise ValueError("base_ms must be non-negative")
        slowdown = (self.slowdown_factor(disk, now_ms) - 1.0) * base_ms
        return slowdown + self.extra_latency_ms(disk, now_ms)

    # -- seeded error rolls ----------------------------------------------

    def attempt_fails(self, disk: int, request_id: int, attempt: int,
                      now_ms: float) -> bool:
        """Deterministic roll: does service ``attempt`` fail at ``now_ms``?

        The roll is a pure function of ``(seed, disk, request_id,
        attempt)`` and the active windows — independent of how many
        rolls happened before, so replays under different schedulers
        stay comparable.
        """
        probability = self.error_probability(disk, now_ms)
        if probability >= 1.0:
            return True
        if probability <= 0.0:
            return False
        rng = derive(self._seed, "fault-roll", disk, request_id, attempt)
        return rng.random() < probability

    # -- introspection ----------------------------------------------------

    @property
    def horizon_ms(self) -> float:
        """End of the last fault window (0 for an empty plan)."""
        ends = [f.end_ms for f in self._faults if math.isfinite(f.end_ms)]
        return max(ends) if ends else 0.0

    def describe(self) -> list[str]:
        """One human-readable line per fault window, in start order."""
        def line(f: Fault) -> str:
            window = f"[{f.start_ms:.0f}, {f.end_ms:.0f})ms disk={f.disk}"
            if isinstance(f, LatencySpike):
                return f"latency-spike {window} +{f.extra_ms}ms"
            if isinstance(f, TransientErrors):
                return f"transient-errors {window} p={f.probability}"
            if isinstance(f, DiskFailure):
                return f"disk-failure {window}"
            return f"thermal-ramp {window} x{f.peak_factor}"

        return [line(f) for f in
                sorted(self._faults, key=lambda f: (f.start_ms, f.disk))]
