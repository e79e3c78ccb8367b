"""Counter-based stream derivation and the Box-Muller normal transform."""

import math

import numpy as np
import pytest

from mpslam_bounds.streams import (
    GROUND_TRUTH_STREAM,
    RandomStream,
    derive_run_stream,
    trajectory_stream,
)


class TestDeterminism:
    def test_same_inputs_reproduce_the_stream(self):
        a = derive_run_stream(1234, 7).standard_normal(100)
        b = derive_run_stream(1234, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_uniforms_reproduce_too(self):
        a = derive_run_stream(99, 0).uniform(50)
        b = derive_run_stream(99, 0).uniform(50)
        np.testing.assert_array_equal(a, b)

    def test_different_runs_give_different_draws(self):
        a = derive_run_stream(1234, 0).standard_normal(8)
        b = derive_run_stream(1234, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_stream_independent_of_how_many_values_requested_before(self):
        s = derive_run_stream(5, 5)
        first = [s.standard_normal() for _ in range(10)]
        np.testing.assert_array_equal(first, derive_run_stream(5, 5).standard_normal(10))


class TestIndependence:
    def test_adjacent_runs_are_uncorrelated(self):
        n = 10_000
        a = derive_run_stream(2024, 0).standard_normal(n)
        b = derive_run_stream(2024, 1).standard_normal(n)
        rho = np.corrcoef(a, b)[0, 1]
        assert abs(rho) < 0.05

    def test_ground_truth_stream_distinct_from_runs(self):
        a = trajectory_stream(2024).standard_normal(100)
        b = derive_run_stream(2024, 0).standard_normal(100)
        assert not np.allclose(a, b)


class TestNormalTransform:
    def test_moments(self):
        draws = derive_run_stream(7, 3).standard_normal(100_000)
        assert abs(draws.mean()) < 4.0 / np.sqrt(100_000)
        assert abs(draws.var() - 1.0) < 0.02

    def test_normal_scales_and_shifts(self):
        s1 = derive_run_stream(7, 4)
        s2 = derive_run_stream(7, 4)
        raw = [s1.standard_normal() for _ in range(20)]
        shifted = [s2.normal(3.0, 0.5) for _ in range(20)]
        np.testing.assert_allclose(shifted, 3.0 + 0.5 * np.asarray(raw), rtol=1e-12)

    def test_tail_mass_is_plausible(self):
        draws = derive_run_stream(11, 0).standard_normal(100_000)
        frac_beyond_2 = np.mean(np.abs(draws) > 2.0)
        assert 0.04 < frac_beyond_2 < 0.051  # true value 0.0455


def scalar_box_muller(stream, count):
    """The transform one pair at a time with scalar ``math`` calls, from the
    same uniforms: z0 of each pair, then its z1."""
    out = []
    for u1, u2 in stream.uniform(2 * count).reshape(-1, 2):
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        angle = 2.0 * math.pi * u2
        out += [radius * math.cos(angle), radius * math.sin(angle)]
    return np.array(out)


class TestBlockDraw:
    def test_mixed_requests_equal_one_block_bit_for_bit(self):
        """Scalar, odd and even requests, the spare carried across calls,
        give the values of one request of the total size."""
        stream = derive_run_stream(31, 4)
        parts = [np.atleast_1d(stream.standard_normal())]
        for size in (3, 4, 1, 0, 5, 2, 7):
            parts.append(stream.standard_normal(size))
        parts.append(np.atleast_1d(stream.standard_normal()))
        mixed = np.concatenate(parts)
        assert mixed.size == 24
        np.testing.assert_array_equal(mixed, derive_run_stream(31, 4).standard_normal(24))
        assert isinstance(derive_run_stream(31, 4).standard_normal(), float)

    def test_matches_the_scalar_math_transform_to_the_last_places(self):
        """numpy's vectorized log may round differently from math.log by one
        unit in the last place (ulp). The radius then moves by at most one
        ulp and a draw, the radius times a cosine or sine, by at most two."""
        count = 100_000
        block = derive_run_stream(2024, 9).standard_normal(2 * count)
        reference = scalar_box_muller(derive_run_stream(2024, 9), count)
        ulps = np.abs(block.view(np.int64) - reference.view(np.int64))
        assert ulps.max() <= 2
        assert np.mean(ulps > 0) < 0.01
        u1 = derive_run_stream(2024, 9).uniform(2 * count)[0::2]
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        exact = np.array([math.sqrt(-2.0 * math.log(1.0 - u)) for u in u1])
        assert np.abs(radius.view(np.int64) - exact.view(np.int64)).max() <= 1


class TestValidation:
    def test_run_index_cannot_collide_with_trajectory_stream(self):
        with pytest.raises(ValueError):
            derive_run_stream(1, GROUND_TRUTH_STREAM)

    def test_seed_must_fit_64_bits(self):
        with pytest.raises(ValueError):
            RandomStream(-1, 0)
        with pytest.raises(ValueError):
            RandomStream(2**64, 0)
        RandomStream(2**64 - 1, 0)  # boundary is fine
