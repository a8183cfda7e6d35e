import math
from fractions import Fraction

import numpy as np
import pytest

from trajlab import bernoulli
from trajlab.bernoulli import (BernoulliState, orbit_bits,
                               orbit_rate, BernoulliTrajectory,
                               bit_sequence_measure,
                               biased_measure, lebesgue_ensemble_rate)
from trajlab.core import evaluate_rates, is_well_defined
from trajlab.errors import PrecisionExhaustedError
from trajlab.rng import stream, trajectory_stream


class TestState:
    def test_float_states_forbidden(self):
        with pytest.raises(TypeError):
            BernoulliState(fraction=0.3)

    def test_leading_bit_thresholds(self):
        assert BernoulliState.from_rational(Fraction(2, 7)).leading_bit() == 0
        assert BernoulliState.from_rational(Fraction(4, 7)).leading_bit() == 1
        assert BernoulliState.from_rational(Fraction(1, 2)).leading_bit() == 1

    def test_bit_state_steps_by_shifting(self):
        s = BernoulliState.from_bits([1, 0, 1])
        assert s.leading_bit() == 1
        s = BernoulliState(bits=s.bits, pos=s.pos + 1)
        assert s.leading_bit() == 0
        assert s.remaining_bits == 2

    def test_bit_state_exhausts(self):
        s = BernoulliState.from_bits([1])
        s = BernoulliState(bits=s.bits, pos=s.pos + 1)
        with pytest.raises(PrecisionExhaustedError):
            s.leading_bit()

    def test_bit_state_value(self):
        s = BernoulliState.from_bits([1, 0, 1])
        assert s.value() == Fraction(5, 8)

    def test_wraps_into_unit_interval(self):
        s = BernoulliState.from_rational(Fraction(9, 7))
        assert s.value() == Fraction(2, 7)


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

    def test_bit_state_rate_counts_bits(self):
        bits = [1, 1, 0, 1]
        assert orbit_rate(BernoulliState.from_bits(bits), 4) == Fraction(3, 4)

    @pytest.mark.parametrize("x", [Fraction(2, 7), Fraction(5, 13),
                                   Fraction(0), Fraction(1, 2),
                                   Fraction(9, 7), Fraction(1, 1024)])
    def test_integer_orbit_matches_state_steps(self, x):
        state, expected = BernoulliState.from_rational(x), []
        for _ in range(64):
            expected.append(state.leading_bit())
            state = BernoulliState.from_rational(2 * state.value())
        assert orbit_bits(x, 64).tolist() == expected
        assert orbit_rate(x, 64) == Fraction(sum(expected), 64)

    def test_bit_state_runs_out(self):
        with pytest.raises(PrecisionExhaustedError):
            orbit_rate(BernoulliState.from_bits([1, 0]), 5)


class TestTrajectory:
    def test_threshold_outcomes_match_bits(self):
        bits = [1, 0, 0, 1, 1]
        tr = BernoulliTrajectory(BernoulliState.from_bits(bits))
        seq = orbit_bits(tr.state, tr.n_steps)
        assert list(seq) == bits
        # the leading bit is the threshold observation x >= 1/2
        assert [int(tr.evaluate(k)[0] >= 0.5)
                for k in range(tr.n_steps)] == bits

    def test_rational_trajectory_needs_horizon(self):
        with pytest.raises(ValueError):
            BernoulliTrajectory(BernoulliState.from_rational(Fraction(2, 7)))

    def test_rational_and_bit_paths_agree(self):
        # the same dyadic start expressed both ways gives the same outcomes
        bits = [0, 1, 1, 0, 1, 0, 0, 1]
        frac = sum(Fraction(b, 2 ** (k + 1)) for k, b in enumerate(bits))
        tr_bits = BernoulliTrajectory(BernoulliState.from_bits(bits))
        tr_frac = BernoulliTrajectory(BernoulliState.from_rational(frac),
                                      n_steps=len(bits))
        assert list(orbit_bits(tr_bits.state, tr_bits.n_steps)) == \
            list(orbit_bits(tr_frac.state, tr_frac.n_steps))

    def test_rates_via_core(self):
        rr = evaluate_rates(orbit_bits(BernoulliState.from_bits([1, 1, 0, 1]),
                                       4), 2)
        assert rr.rates[1] == pytest.approx(0.75)


class TestMeasures:
    def test_bit_measure_shape_and_range(self):
        m = bit_sequence_measure(16, 0.5)
        pts = m.sampler(stream(0), 10)
        assert pts.shape == (10, 16)
        assert set(np.unique(pts)) <= {0, 1}

    def test_bias_controls_frequency(self):
        m = bit_sequence_measure(2000, 0.8)
        pts = m.sampler(stream(1), 50)
        assert abs(pts.mean() - 0.8) < 0.02

    def test_bias_bounds_checked(self):
        with pytest.raises(ValueError):
            bit_sequence_measure(8, 1.5)

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
        R = np.asarray([evaluate_rates(orbit_bits(BernoulliState.from_bits(
            measure.sampler(trajectory_stream(5, i), 1)[0]), n_steps),
            2).rates for i in range(300)])
        mean = R.mean(axis=0)
        assert np.array_equal(stats.mean, mean)
        assert np.array_equal(stats.variance,
                              np.mean((R - mean) ** 2, axis=0))

    def test_outcome_block_equals_rows_built_alone(self, monkeypatch):
        calls = []
        monkeypatch.setattr(bernoulli, "ensemble_statistics",
                            lambda *args, **kw: calls.append(args))
        lebesgue_ensemble_rate(10, 30, measure=bit_sequence_measure(40))
        builder = calls[0][1]
        points = bit_sequence_measure(40).sampler(stream(2), 16)
        block = builder(points)
        assert block.shape == (16, 30)
        for bits, row in zip(points, block):
            alone = orbit_bits(BernoulliState.from_bits(bits), 30)
            assert np.array_equal(row, alone)

    def test_measure_must_cover_steps(self):
        with pytest.raises(ValueError):
            lebesgue_ensemble_rate(10, 100, seed=0,
                                   measure=bit_sequence_measure(50, 0.5))
