"""Tests for the seek and rotation models."""

from __future__ import annotations

import math
from random import Random

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from repro.disk.rotation import RotationModel
from repro.disk.seek import (LinearSeekModel, SeekModel,
                             _mean_over_random_pairs, fit_seek_model)


class TestFitSeekModel:
    def test_hits_calibration_targets(self):
        model = fit_seek_model(3832, average_ms=8.5, maximum_ms=18.0)
        assert model.expected_random_seek_ms() == pytest.approx(8.5,
                                                                abs=0.01)
        assert model.max_seek_ms == pytest.approx(18.0, abs=0.01)

    def test_zero_distance_is_free(self):
        model = fit_seek_model(3832, 8.5, 18.0)
        assert model.seek_of_distance(0) == 0.0

    def test_monotone_in_distance(self):
        model = fit_seek_model(3832, 8.5, 18.0)
        previous = -1.0
        for d in range(0, 3832, 37):
            t = model.seek_of_distance(d)
            assert t >= previous
            previous = t

    def test_continuous_at_knee(self):
        model = fit_seek_model(1000, 8.5, 18.0)
        before = model.seek_of_distance(model.knee)
        after = model.seek_of_distance(model.knee + 1)
        assert after - before < 0.5

    def test_symmetric(self):
        model = fit_seek_model(100, 5.0, 10.0)
        assert model.seek_time(10, 90) == model.seek_time(90, 10)

    def test_negative_distance_rejected(self):
        model = fit_seek_model(100, 5.0, 10.0)
        with pytest.raises(ValueError):
            model.seek_of_distance(-1)

    def test_invalid_calibration(self):
        with pytest.raises(ValueError):
            fit_seek_model(1, 5.0, 10.0)
        with pytest.raises(ValueError):
            fit_seek_model(100, 10.0, 5.0)
        with pytest.raises(ValueError):
            fit_seek_model(100, 0.0, 5.0)

    @pytest.mark.slow
    @given(st.integers(min_value=1, max_value=3831))
    @settings(max_examples=50, deadline=None)
    def test_short_seeks_cheaper_than_max(self, distance):
        model = fit_seek_model(3832, 8.5, 18.0)
        assert 0 < model.seek_of_distance(distance) <= model.max_seek_ms


def scalar_mean_over_random_pairs(model):
    """Reference E[seek]: a per-distance Python loop, which the numpy
    kernel must reproduce to the last bit."""
    n = model.cylinders
    total = 0.0
    for d in range(1, n):
        total += 2.0 * (n - d) / (n * n) * model.seek_of_distance(d)
    return total


def scalar_fit_seek_model(cylinders, average_ms, maximum_ms,
                          settle_ms=1.5, knee_fraction=0.25):
    """Reference fit: the 80-step bisection over the scalar loop."""
    knee = max(1, int(cylinders * knee_fraction))

    def build(b):
        knee_time = settle_ms + b * math.sqrt(knee)
        span = (cylinders - 1) - knee
        if span <= 0:
            return SeekModel(cylinders, settle_ms, b, knee_time, 0.0,
                             cylinders - 1)
        slope = (maximum_ms - knee_time) / span
        base = knee_time - slope * knee
        return SeekModel(cylinders, settle_ms, b, base, slope, knee)

    lo, hi = 0.0, maximum_ms
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if scalar_mean_over_random_pairs(build(mid)) < average_ms:
            lo = mid
        else:
            hi = mid
    return build((lo + hi) / 2.0)


class TestSeekCalibrationBitIdentity:
    def test_xp32150_coefficients_pinned(self):
        # Recorded from the scalar-loop fit; the simulator fingerprints
        # and golden traces depend on every bit of these.
        model = fit_seek_model(3832, 8.5, 18.0)
        assert model.knee == 958
        assert model.settle_ms.hex() == "0x1.8000000000000p+0"
        assert model.sqrt_coeff.hex() == "0x1.889508fd18bfap-3"
        assert model.linear_base.hex() == "0x1.f46df00abce1fp+1"
        assert model.linear_coeff.hex() == "0x1.e214ffc9cf401p-9"

    @seed(2004)
    @given(cylinders=st.integers(min_value=2, max_value=6000),
           maximum=st.floats(min_value=0.5, max_value=50.0),
           fraction=st.floats(min_value=0.01, max_value=0.99))
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_scalar_loop(self, cylinders, maximum, fraction):
        average = maximum * fraction
        reference = scalar_fit_seek_model(cylinders, average, maximum)
        assert fit_seek_model(cylinders, average, maximum) == reference
        assert (_mean_over_random_pairs(reference)
                == scalar_mean_over_random_pairs(reference))

    def test_single_cylinder_has_no_seek(self):
        model = SeekModel(cylinders=1, settle_ms=1.0, sqrt_coeff=0.5,
                          linear_base=2.0, linear_coeff=0.05, knee=1)
        assert _mean_over_random_pairs(model) == 0.0


class TestLinearSeekModel:
    def test_affine(self):
        model = LinearSeekModel(100, startup_ms=2.0, per_cylinder_ms=0.1)
        assert model.seek_of_distance(0) == 0.0
        assert model.seek_of_distance(10) == pytest.approx(3.0)
        assert model.max_seek_ms == pytest.approx(2.0 + 9.9)

    def test_negative_rejected(self):
        model = LinearSeekModel(100, 1.0, 0.1)
        with pytest.raises(ValueError):
            model.seek_of_distance(-5)


class TestRotationModel:
    def test_7200_rpm(self):
        rotation = RotationModel(rpm=7200)
        assert rotation.revolution_ms == pytest.approx(8.333, abs=1e-3)
        assert rotation.average_latency_ms == pytest.approx(4.167, abs=1e-3)

    def test_deterministic_sample(self):
        rotation = RotationModel(rpm=7200)
        assert rotation.sample_latency_ms() == rotation.average_latency_ms

    def test_random_sample_within_revolution(self):
        rotation = RotationModel(rpm=7200)
        rng = Random(42)
        for _ in range(100):
            latency = rotation.sample_latency_ms(rng)
            assert 0.0 <= latency < rotation.revolution_ms

    def test_random_sample_mean(self):
        rotation = RotationModel(rpm=7200)
        rng = Random(7)
        samples = [rotation.sample_latency_ms(rng) for _ in range(5000)]
        assert sum(samples) / len(samples) == pytest.approx(
            rotation.average_latency_ms, rel=0.05
        )

    def test_invalid_rpm(self):
        with pytest.raises(ValueError):
            RotationModel(rpm=0)


class TestSeekModelDataclass:
    def test_direct_construction(self):
        model = SeekModel(cylinders=100, settle_ms=1.0, sqrt_coeff=0.5,
                          linear_base=2.0, linear_coeff=0.05, knee=25)
        assert model.seek_of_distance(16) == pytest.approx(1.0 + 0.5 * 4.0)
        assert model.seek_of_distance(50) == pytest.approx(2.0 + 2.5)
        assert not math.isnan(model.expected_random_seek_ms())
