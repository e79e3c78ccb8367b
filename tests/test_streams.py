"""Counter-based stream derivation, the Philox kernel and the Box-Muller
normal transform."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

import mpslam_bounds.scenario as scenario_module
import mpslam_bounds.streams as streams_module
from mpslam_bounds.scenario import ground_truth, scenario_from_mapping
from mpslam_bounds.streams import (
    GROUND_TRUTH_STREAM,
    RandomStream,
    derive_run_stream,
    standard_normals,
    trajectory_stream,
    uniforms,
)

DESK_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "desk.yaml"


class TestDeterminism:
    def test_same_inputs_reproduce_the_stream(self):
        a = derive_run_stream(1234, 7).standard_normal(100)
        b = derive_run_stream(1234, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_uniforms_reproduce_too(self):
        a = uniforms([derive_run_stream(99, 0)], 50)[0]
        b = uniforms([derive_run_stream(99, 0)], 50)[0]
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
    for u1, u2 in uniforms([stream], 2 * count)[0].reshape(-1, 2):
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
        u1 = uniforms([derive_run_stream(2024, 9)], 2 * count)[0][0::2]
        radius = np.sqrt(-2.0 * np.log(1.0 - u1))
        exact = np.array([math.sqrt(-2.0 * math.log(1.0 - u)) for u in u1])
        assert np.abs(radius.view(np.int64) - exact.view(np.int64)).max() <= 1


class TestValidation:
    def test_run_index_cannot_collide_with_trajectory_stream(self):
        with pytest.raises(ValueError):
            derive_run_stream(1, GROUND_TRUTH_STREAM)


class OracleStream:
    """numpy's ``Generator(Philox(key=[seed, stream]))`` with the package's
    Box-Muller transform on its uniforms: what the streams drew before they
    had their own kernel, and what they must still draw bit for bit."""

    def __init__(self, seed, stream_index):
        key = np.array([seed, stream_index], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        self._spare = None

    def uniform(self, size=None):
        return self._gen.random(size)

    def standard_normal(self, size=None):
        count = 1 if size is None else size
        spare = [] if self._spare is None else [self._spare]
        pairs = -(-(count - len(spare)) // 2)
        u = self._gen.random(2 * pairs)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        angle = 2.0 * np.pi * u[1::2]
        drawn = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1).ravel()
        out = np.concatenate([spare, drawn])
        self._spare = float(out[count]) if out.size > count else None
        return float(out[0]) if size is None else out[:count]


KEYS = [(0, 0), (0, 2**64 - 1), (2**64 - 1, 0), (2**64 - 1, 2**64 - 1),
        (98765, GROUND_TRUTH_STREAM), (98765, 7)]
LENGTHS = [1, 3, 4, 5, 4093]


class TestNumpyPhiloxOracle:
    @pytest.mark.parametrize("key", KEYS, ids=str)
    @pytest.mark.parametrize("count", LENGTHS)
    def test_uniforms_are_numpys_bit_for_bit(self, key, count):
        np.testing.assert_array_equal(uniforms([RandomStream(*key)], count)[0],
                                      OracleStream(*key).uniform(count))

    @pytest.mark.parametrize("key", KEYS, ids=str)
    @pytest.mark.parametrize("count", LENGTHS)
    def test_normals_are_numpys_bit_for_bit(self, key, count):
        np.testing.assert_array_equal(RandomStream(*key).standard_normal(count),
                                      OracleStream(*key).standard_normal(count))

    @pytest.mark.parametrize("key", KEYS, ids=str)
    def test_split_requests_follow_the_oracle(self, key):
        """Odd counts keep a spare that opens the next request; scalar draws,
        uniform draws in between (which leave the spare alone) and requests
        that start mid-block all read the oracle's values."""
        stream, oracle = RandomStream(*key), OracleStream(*key)
        normal = "standard_normal"
        for name, size in [(normal, 3), (normal, None), ("uniform", 5), (normal, 1), (normal, 4),
                           ("uniform", 1), (normal, 7), (normal, 0), ("uniform", 4093),
                           (normal, 4093), (normal, 2)]:
            draw = stream.standard_normal if name == normal else lambda n: uniforms([stream], n)[0]
            got, expected = draw(size), getattr(oracle, name)(size)
            assert type(got) is type(expected)
            np.testing.assert_array_equal(got, expected)

    def test_requests_beyond_one_chunk_of_blocks(self):
        """A request longer than one kernel chunk, starting mid-block."""
        count = 4 * streams_module._CHUNK + 7
        stream, oracle = RandomStream(5, 6), OracleStream(5, 6)
        uniforms([stream], 3), oracle.uniform(3)
        np.testing.assert_array_equal(uniforms([stream], count)[0], oracle.uniform(count))

    def test_batched_draws_are_the_per_stream_draws_row_by_row(self):
        """One batched call over more streams than one chunk holds gives, row
        by row, what each stream draws on its own, spare included."""
        runs, count = 40, 2001  # 40 rows of 501 blocks: two chunks of streams
        assert runs * (count // 4) > streams_module._CHUNK
        batch = [derive_run_stream(98765, run) for run in range(runs)]
        single = [derive_run_stream(98765, run) for run in range(runs)]
        np.testing.assert_array_equal(standard_normals(batch, 13),
                                      [s.standard_normal(13) for s in single])
        np.testing.assert_array_equal(standard_normals(batch, count),
                                      [s.standard_normal(count) for s in single])
        np.testing.assert_array_equal(uniforms(batch, count),
                                      [uniforms([s], count)[0] for s in single])
        np.testing.assert_array_equal(standard_normals(batch, 2),
                                      [s.standard_normal(2) for s in single])

    def test_batched_draw_needs_streams_at_one_position(self):
        """``standard_normals`` judges the position; ``uniforms``, which it
        calls, trusts it."""
        spare = derive_run_stream(1, 1)
        spare.standard_normal(1)
        with pytest.raises(ValueError, match="same position"):
            standard_normals([derive_run_stream(1, 0), spare], 4)

    def test_sampled_ground_truth_is_unchanged(self, monkeypatch):
        """A sampled_ncv trajectory drawn from the package's stream equals
        the one drawn from the oracle, bit for bit."""
        mapping = yaml.safe_load(DESK_SCENARIO.read_text())
        mapping["trajectory"] = {"kind": "sampled_ncv", "n_steps": 40,
                                 "position": [1.0, 1.0], "velocity": [0.5, 0.2]}
        scenario = scenario_from_mapping(mapping)
        drawn = ground_truth(scenario)
        monkeypatch.setattr(scenario_module, "trajectory_stream",
                            lambda seed: OracleStream(seed, GROUND_TRUTH_STREAM))
        expected = ground_truth(scenario)
        np.testing.assert_array_equal(drawn, expected)
        assert not np.array_equal(drawn[1], drawn[2])
