"""Seek-time models.

Table 1 of the paper gives a square-root seek cost function with an
8.5 ms average and an 18 ms maximum over 3832 cylinders (the exact
coefficients are lost to OCR).  We use the standard two-phase HPL model,

    seek(d) = 0                      for d = 0,
    seek(d) = a + b * sqrt(d)        for 1 <= d <= knee,
    seek(d) = c + e * d              for d > knee,

which is square-root dominated for short seeks (arm acceleration) and
linear for long ones (coast phase), and calibrate its coefficients so
that the *expected seek over uniformly random request pairs* and the
*full-stroke seek* match the data-sheet numbers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeekModel:
    """Two-phase (sqrt then linear) seek-time model, times in ms."""

    cylinders: int
    settle_ms: float  # a
    sqrt_coeff: float  # b
    linear_base: float  # c
    linear_coeff: float  # e
    knee: int

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Seek time in milliseconds between two cylinders."""
        distance = abs(to_cyl - from_cyl)
        return self.seek_of_distance(distance)

    def seek_of_distance(self, distance: int) -> float:
        if distance < 0:
            raise ValueError("seek distance must be non-negative")
        if distance == 0:
            return 0.0
        if distance <= self.knee:
            return self.settle_ms + self.sqrt_coeff * math.sqrt(distance)
        return self.linear_base + self.linear_coeff * distance

    @property
    def max_seek_ms(self) -> float:
        return self.seek_of_distance(self.cylinders - 1)

    def expected_random_seek_ms(self) -> float:
        """Expected seek between two independent uniform cylinders."""
        return _mean_over_random_pairs(self)


def _mean_over_random_pairs(model: SeekModel) -> float:
    """E[seek(|c1 - c2|)] with c1, c2 uniform over the cylinders.

    P(distance = d) = 2*(N - d)/N^2 for d >= 1 and 1/N for d = 0.  Each
    term is ``(2.0*(N - d)/(N*N)) * seek(d)``, rounded exactly as the
    scalar expression would be, and the terms are added strictly left
    to right (``np.add.accumulate``, not the pairwise ``np.sum``) so the
    result is the same float as a Python loop over ``d = 1..N-1``.
    """
    n = model.cylinders
    if n < 2:
        return 0.0
    d = np.arange(1, n, dtype=np.float64)
    seek = np.where(d <= model.knee,
                    model.settle_ms + model.sqrt_coeff * np.sqrt(d),
                    model.linear_base + model.linear_coeff * d)
    terms = 2.0 * (n - d) / float(n * n) * seek
    return float(np.add.accumulate(terms)[-1])


@functools.lru_cache(maxsize=64, typed=True)
def fit_seek_model(cylinders: int, average_ms: float, maximum_ms: float,
                   settle_ms: float = 1.5,
                   knee_fraction: float = 0.25) -> SeekModel:
    """Calibrate a :class:`SeekModel` to data-sheet average / maximum.

    The sqrt coefficient ``b`` is found by bisection so the expected seek
    over random request pairs equals ``average_ms``; the linear phase is
    then pinned by continuity at the knee and by the full-stroke maximum.

    Bit-identity condition: the coefficients must equal, bit for bit,
    those of this bisection over a sequential Python loop of the
    per-distance terms (pinned in ``tests/test_disk_seek_rotation.py``).
    That holds only while :func:`_mean_over_random_pairs` rounds every
    term as the scalar expression does and adds the terms in order of
    distance.  A pairwise sum or a closed-form solve for ``b`` lands on
    a different last bit, and the simulator fingerprints and golden
    traces record that bit.

    The fit depends only on its arguments and the model is frozen, so
    results are memoized: every disk built from the same data sheet
    shares one fit instead of rerunning the 80-step bisection.
    """
    if cylinders < 2:
        raise ValueError("need at least 2 cylinders to seek")
    if not 0 < average_ms < maximum_ms:
        raise ValueError("require 0 < average < maximum seek time")
    knee = max(1, int(cylinders * knee_fraction))

    def build(b: float) -> SeekModel:
        knee_time = settle_ms + b * math.sqrt(knee)
        span = (cylinders - 1) - knee
        if span <= 0:
            return SeekModel(cylinders, settle_ms, b, knee_time, 0.0,
                             cylinders - 1)
        slope = (maximum_ms - knee_time) / span
        base = knee_time - slope * knee
        return SeekModel(cylinders, settle_ms, b, base, slope, knee)

    lo, hi = 0.0, maximum_ms  # generous bracket for b
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if _mean_over_random_pairs(build(mid)) < average_ms:
            lo = mid
        else:
            hi = mid
    model = build((lo + hi) / 2.0)
    return model


@dataclass(frozen=True)
class LinearSeekModel:
    """Simple affine seek model, handy for analytic tests."""

    cylinders: int
    startup_ms: float
    per_cylinder_ms: float

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        return self.seek_of_distance(abs(to_cyl - from_cyl))

    def seek_of_distance(self, distance: int) -> float:
        if distance < 0:
            raise ValueError("seek distance must be non-negative")
        if distance == 0:
            return 0.0
        return self.startup_ms + self.per_cylinder_ms * distance

    @property
    def max_seek_ms(self) -> float:
        return self.seek_of_distance(self.cylinders - 1)
