from fractions import Fraction

import numpy as np
import pytest

from trajlab import bernoulli
from trajlab.bernoulli import (orbit_bits, orbit_rate, BernoulliTrajectory,
                               biased_measure, lebesgue_ensemble_rate)
from trajlab.core import BUILD_BLOCK, evaluate_rates, is_well_defined
from trajlab.rng import _WORDS_CHUNK, stream, trajectory_stream


def dyadic(row):
    """The dyadic rational whose binary digits are ``row``."""
    return Fraction(int("".join(map(str, row)), 2), 2 ** len(row))


class TestState:
    def test_float_states_forbidden(self):
        for x in (0.3, np.float64(0.3)):
            with pytest.raises(TypeError):
                orbit_bits(x, 8)
            with pytest.raises(TypeError):
                orbit_rate(x, 8)
            with pytest.raises(TypeError):
                BernoulliTrajectory(x, 8)

    def test_leading_bit_thresholds(self):
        assert orbit_bits(Fraction(2, 7), 1)[0] == 0
        assert orbit_bits(Fraction(4, 7), 1)[0] == 1
        assert orbit_bits(Fraction(1, 2), 1)[0] == 1

    def test_wraps_into_unit_interval(self):
        assert BernoulliTrajectory(Fraction(9, 7), 1).x0 == Fraction(2, 7)
        assert BernoulliTrajectory(Fraction(-5, 7), 1).x0 == Fraction(2, 7)

    def test_accepts_int_and_string_starts(self):
        assert orbit_rate("2/7", 3) == Fraction(1, 3)
        assert orbit_rate(3, 5) == 0


class TestOrbitRate:
    def test_two_sevenths_is_one_third_exactly(self):
        assert orbit_rate(Fraction(2, 7), 3000) == Fraction(1, 3)

    def test_rate_is_exact_fraction(self):
        # period-3 orbit: rate over any multiple of 3 steps is exactly 1/3
        for n in (3, 6, 300, 2997):
            assert orbit_rate(Fraction(2, 7), n) == Fraction(1, 3)

    def test_dyadic_rational_hits_zero(self):
        # 1/4 -> 1/2 -> 0 -> 0 ...; yes appears exactly once
        assert orbit_rate(Fraction(1, 4), 100) == Fraction(1, 100)

    @pytest.mark.parametrize("x", [Fraction(2, 7), Fraction(5, 13),
                                   Fraction(0), Fraction(1, 2),
                                   Fraction(9, 7), Fraction(1, 1024)])
    def test_integer_orbit_matches_state_steps(self, x):
        # step the map on whole Fractions, reading x >= 1/2 each time
        state, expected = x % 1, []
        for _ in range(64):
            expected.append(int(state >= Fraction(1, 2)))
            state = 2 * state % 1
        assert orbit_bits(x, 64).tolist() == expected
        assert orbit_rate(x, 64) == Fraction(sum(expected), 64)


class TestTrajectory:
    def test_threshold_outcomes_match_bits(self):
        bits = [1, 0, 0, 1, 1]
        tr = BernoulliTrajectory(dyadic(bits), len(bits))
        assert list(orbit_bits(tr.x0, tr.n_steps)) == bits
        # the leading bit is the threshold observation x >= 1/2
        assert [int(tr.evaluate(k)[0] >= 0.5)
                for k in range(tr.n_steps)] == bits

    def test_rational_trajectory_needs_horizon(self):
        with pytest.raises(TypeError):
            BernoulliTrajectory(Fraction(2, 7))

    def test_rates_via_core(self):
        rr = evaluate_rates(orbit_bits(dyadic([1, 1, 0, 1]), 4), 2)
        assert rr.rates[1] == pytest.approx(0.75)


class TestMeasures:
    def test_bit_measure_shape_and_range(self):
        m = biased_measure(0.5, 16)
        pts = m.sampler([stream(0)], 10)
        assert pts.shape == (10, 16)
        assert set(np.unique(pts)) <= {0, 1}

    def test_bias_controls_frequency(self):
        m = biased_measure(0.8, 2000)
        pts = m.sampler([stream(1)], 50)
        assert abs(pts.mean() - 0.8) < 0.02

    def test_bias_bounds_checked(self):
        with pytest.raises(ValueError):
            biased_measure(1.5, 8)

    def test_biased_measure_is_bit_measure(self):
        m = biased_measure(0.3, 64)
        assert m.dimension == 64


class TestEnsembleRates:
    def test_lebesgue_rate_concentrates(self):
        stats = lebesgue_ensemble_rate(400, 400, seed=11)
        assert abs(float(stats.mean[1]) - 0.5) < 0.05
        # i.i.d. bits: rate variance is p(1-p)/n
        assert float(stats.variance[1]) == pytest.approx(0.25 / 400,
                                                         rel=0.35)
        assert is_well_defined(stats)

    def test_same_dynamics_different_measure(self):
        target = 0.8
        stats = lebesgue_ensemble_rate(
            400, 400, seed=12, measure=biased_measure(target, 400))
        assert abs(float(stats.mean[1]) - target) < 0.05

    def test_reproducible(self):
        a = lebesgue_ensemble_rate(50, 100, seed=3)
        b = lebesgue_ensemble_rate(50, 100, seed=3)
        assert np.array_equal(a.mean, b.mean)

    def test_matches_per_trajectory_rates(self):
        # the rates of each trajectory's orbit, one row at a time and
        # reduced the same way, give bitwise the same statistics
        n_steps, measure = 60, biased_measure(0.7, 80)
        stats = lebesgue_ensemble_rate(300, n_steps, seed=5, measure=measure)
        R = np.asarray([evaluate_rates(orbit_bits(dyadic(
            measure.sampler([trajectory_stream(5, i)], 1)[0]), n_steps),
            2).rates for i in range(300)])
        mean = R.mean(axis=0)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.variance,
                              np.mean((R - mean) ** 2, axis=0))

    def test_outcome_block_equals_rows_built_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bernoulli, "ensemble_statistics",
                            lambda *args, **kw: calls.append(args))
        lebesgue_ensemble_rate(10, 30, measure=biased_measure(0.5, 40))
        builder = calls[0][1]
        points = biased_measure(0.5, 40).sampler([stream(2)], 16)
        block = builder(points)
        assert block.shape == (16, 30)
        for bits, row in zip(points, block):
            alone = orbit_bits(dyadic(bits), 30)
            assert np.array_equal(row, alone)

    def test_measure_must_cover_steps(self):
        with pytest.raises(ValueError):
            lebesgue_ensemble_rate(10, 100, seed=0,
                                   measure=biased_measure(0.5, 50))


def numpy_seeded_statistics(n_traj, n_steps, p, seed):
    """Rate mean and variance with row i drawn as ``random(n_steps) < p``
    from numpy's own ``SeedSequence(seed, spawn_key=(i,))`` stream, one
    trajectory at a time."""
    R = np.empty((n_traj, 2))
    for i in range(n_traj):
        g = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(seed, spawn_key=(i,))))
        ones = int(np.count_nonzero(g.random(n_steps) < p))
        R[i] = (n_steps - ones) / n_steps, ones / n_steps
    mean = R.mean(axis=0)
    variance = np.mean((R - mean) ** 2, axis=0)
    variance[variance < 1e-30] = 0.0
    return mean, variance


class TestBitsPinnedToNumpySeeding:
    """The ensemble's bits are numpy's PCG64 draws under its own SeedSequence
    seeding, whatever trajlab does to derive the streams and fill the rows."""

    @pytest.mark.parametrize("n_traj, p, seed", [
        (2 * BUILD_BLOCK + 7, p, seed)
        for p in (0.0, 0.3, 0.5, 0.8, 1.0) for seed in (0, 2 ** 70 + 3)
    ] + [
        # seed words are hashed a chunk of blocks at a time
        (_WORDS_CHUNK * BUILD_BLOCK + 3, 0.8, seed)
        for seed in (0, 2 ** 70 + 3)
    ])
    def test_statistics_bitwise_equal(self, n_traj, p, seed):
        stats = lebesgue_ensemble_rate(n_traj, 1001, seed=seed,
                                       measure=biased_measure(p, 1001))
        mean, variance = numpy_seeded_statistics(n_traj, 1001, p, seed)
        assert stats.n_trajectories == n_traj
        assert stats.mean.tobytes() == mean.tobytes()
        assert stats.variance.tobytes() == variance.tobytes()
