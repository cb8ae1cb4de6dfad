"""Failure-driven stream migration: drain, pause, re-admit.

When a disk failure puts an array into hot-spare rebuild, its
advertised budget drops and the reserved shares no longer fit.  The
controller sheds the overhang by *migrating* the lowest-SFC-priority
streams (the same victim order the single-server degrade path uses:
numerically largest priority vector first, stream id as the stable
tie-break) to healthy arrays.

A migration is modelled as a **drain / re-admit with a bounded
interruption window**: the stream closes on the source at the failure
instant, is silent for ``pause_ms`` (the session/handoff cost), and
re-opens on the target with its playback position advanced past the
blocks it already consumed (:meth:`repro.serve.session.StreamSpec
.advanced`).  The interruption is charged against QoS in the
:class:`MigrationLedger` — every window is recorded, counted, and
bounded, so "we kept the stream alive" is a checkable claim, not a
narrative one.  A stream no healthy budget can absorb is dropped and
counted separately (the fleet-level analogue of shedding).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence


class PlacedStream(NamedTuple):
    """One admitted stream, as the controller tracks it."""

    stream_key: int
    array_id: int
    #: The spec as granted (per-disk rate, priorities after any grant).
    spec: object
    #: Reserved utilization share on the owning array.
    share: float
    #: When the stream (last) started on its current array.
    opened_ms: float

    def blocks_played(self, now_ms: float) -> int:
        """Whole blocks consumed on the current array by ``now_ms``."""
        elapsed = max(now_ms - self.opened_ms, 0.0)
        return int(elapsed // self.spec.period_ms)


@dataclass(frozen=True)
class MigrationRecord:
    """One completed (or failed) stream migration."""

    stream_key: int
    from_array: int
    #: Target array, or -1 when the stream was dropped instead.
    to_array: int
    #: Instant the stream stopped on the source.
    start_ms: float
    #: Instant it resumed on the target (== start_ms for drops).
    resume_ms: float
    reason: str

    @property
    def interruption_ms(self) -> float:
        return self.resume_ms - self.start_ms

    @property
    def dropped(self) -> bool:
        return self.to_array < 0


@dataclass
class MigrationLedger:
    """Interruption-window accounting for every migration attempt.

    ``bound_ms`` is the contract: no migrated stream may be silent for
    longer.  :meth:`within_bound` is asserted by the cluster demo and
    the golden trace test, and the summed/max windows roll up into the
    fleet QoS report.
    """

    bound_ms: float
    records: list[MigrationRecord] = field(default_factory=list)
    dropped: int = 0

    def record(self, record: MigrationRecord) -> None:
        if record.dropped:
            self.dropped += 1
        else:
            if record.interruption_ms > self.bound_ms:
                raise ValueError(
                    f"stream {record.stream_key} interruption "
                    f"{record.interruption_ms:.0f}ms exceeds the "
                    f"{self.bound_ms:.0f}ms bound"
                )
            self.records.append(record)

    @property
    def migrated(self) -> int:
        return len(self.records)

    @property
    def total_interruption_ms(self) -> float:
        return sum(r.interruption_ms for r in self.records)

    @property
    def max_interruption_ms(self) -> float:
        return max((r.interruption_ms for r in self.records),
                   default=0.0)

    def within_bound(self) -> bool:
        """True while every recorded window honours ``bound_ms``."""
        return all(r.interruption_ms <= self.bound_ms
                   for r in self.records)

    def as_dict(self) -> dict[str, float]:
        return {
            "migrated": self.migrated,
            "dropped": self.dropped,
            "total_interruption_ms": self.total_interruption_ms,
            "max_interruption_ms": self.max_interruption_ms,
            "bound_ms": self.bound_ms,
        }


def select_victims(streams: Iterable[PlacedStream],
                   excess_share: float) -> list[PlacedStream]:
    """Lowest-SFC-priority streams freeing at least ``excess_share``.

    Victim order matches the serving layer's degrade path
    (:meth:`repro.serve.server.StreamingServer._degrade_relief`):
    numerically largest priority vector first — level 0 is the highest
    QoS class and is evicted last — with the stream key as a stable
    tie-break.  Selection stops as soon as the freed shares cover the
    overhang, so a small budget dip moves few streams.
    """
    if excess_share <= 0.0:
        return []
    ranked = sorted(
        streams,
        key=lambda s: (s.spec.priorities, s.stream_key),
        reverse=True,
    )
    victims: list[PlacedStream] = []
    freed = 0.0
    for stream in ranked:
        victims.append(stream)
        freed += stream.share
        if freed >= excess_share:
            break
    return victims


def resume_spec(stream: PlacedStream, resume_ms: float) -> object:
    """The spec a migrated stream re-opens with on its target array.

    Playback position advances past the blocks consumed on the source,
    so the stream continues (rather than restarts) its title.
    """
    return stream.spec.advanced(stream.blocks_played(resume_ms))


def excess_on(budget, streams: Sequence[PlacedStream]) -> float:
    """Reserved overhang of ``budget`` given its placed ``streams``."""
    reserved = sum(s.share for s in streams)
    return reserved - budget.advertised_limit
