"""Poisson multi-priority workload (Sections 5.1-5.3 of the paper).

Requests arrive with exponential interarrival times; each carries ``D``
independent uniform priority levels, a deadline drawn uniformly from a
relative range (or relaxed), and a uniformly random target cylinder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.request import DiskRequest
from repro.sim.rng import derive, exponential_interarrivals


@dataclass(frozen=True)
class PoissonWorkload:
    """Configurable synthetic workload for the figure experiments.

    Parameters mirror the paper's setups: 250 ms mean interarrival,
    16 priority levels for Figures 5-7, 8 levels and deadlines of
    500-700 ms for Figures 8-9.
    """

    count: int = 2000
    mean_interarrival_ms: float = 250.0
    priority_dims: int = 3
    priority_levels: int = 16
    #: Relative deadline range in ms; ``None`` means relaxed deadlines.
    deadline_range_ms: tuple[float, float] | None = (500.0, 700.0)
    cylinders: int = 3832
    nbytes: int = 64 * 1024
    #: Fraction of write requests (non-linear editing mixes them in).
    write_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 0:
            raise ValueError("count must be non-negative")
        if not 0 < self.mean_interarrival_ms < math.inf:
            raise ValueError("mean_interarrival_ms must be finite and "
                             "positive")
        if self.priority_dims < 0:
            raise ValueError("priority_dims must be non-negative")
        if self.priority_levels < 1:
            raise ValueError("priority_levels must be >= 1")
        if self.deadline_range_ms is not None:
            lo, hi = self.deadline_range_ms
            if not 0 < lo <= hi:
                raise ValueError("deadline range must satisfy 0 < lo <= hi")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ValueError("write_fraction must lie in [0, 1]")

    def generate(self, seed: int) -> list[DiskRequest]:
        """Build the request list for ``seed`` (stable across calls)."""
        arrivals_rng = derive(seed, "poisson", "arrivals")
        marks_rng = derive(seed, "poisson", "marks")
        arrivals = exponential_interarrivals(
            arrivals_rng, self.mean_interarrival_ms, self.count
        )
        requests = []
        for request_id, arrival in enumerate(arrivals):
            priorities = tuple(
                marks_rng.randrange(self.priority_levels)
                for _ in range(self.priority_dims)
            )
            if self.deadline_range_ms is None:
                deadline = math.inf
            else:
                lo, hi = self.deadline_range_ms
                deadline = arrival + marks_rng.uniform(lo, hi)
            requests.append(DiskRequest(
                request_id=request_id,
                arrival_ms=arrival,
                cylinder=marks_rng.randrange(self.cylinders),
                nbytes=self.nbytes,
                deadline_ms=deadline,
                priorities=priorities,
                value=float(self.priority_levels - 1 - priorities[0])
                if priorities else 0.0,
                is_write=marks_rng.random() < self.write_fraction,
            ))
        return requests
