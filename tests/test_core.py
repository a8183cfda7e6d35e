import math

import numpy as np
import pytest

from trajlab.core import (ConfigurationPoint, Event, SampledTrajectory,
                          Segment, PiecewiseTrajectory, Experiment,
                          evaluate_rates, ensemble_statistics,
                          is_well_defined, MeasureSpec, point_mass,
                          HistogramMeasure, BoundaryMap, validate_jacobian,
                          pushforward, check_determinism)
from trajlab.errors import (NoTrialsError, EmptyEnsembleError,
                            DegenerateMeasureError, PushforwardError)
from trajlab.rng import stream, trajectory_stream


class TestConfigurationPoint:
    def test_distance_is_max_abs(self):
        a = ConfigurationPoint(np.array([1.0, 2.0, 3.0]))
        b = ConfigurationPoint(np.array([1.5, 2.0, 1.0]))
        assert a.distance(b) == 2.0

    def test_sector_mismatch_is_infinite(self):
        a = ConfigurationPoint(np.array([0.0]), sector="parent")
        b = ConfigurationPoint(np.array([0.0]), sector="products")
        assert a.distance(b) == math.inf

    def test_shape_mismatch_is_infinite(self):
        a = ConfigurationPoint(np.array([0.0, 1.0]))
        b = ConfigurationPoint(np.array([0.0, 1.0, 2.0]))
        assert a.distance(b) == math.inf

    def test_same_point_zero(self):
        a = ConfigurationPoint(np.array([0.3, -0.7]))
        assert a.distance(a) == 0.0


class TestSampledTrajectory:
    def test_linear_interpolation(self):
        times = np.array([0.0, 1.0, 2.0])
        pts = np.array([[0.0], [2.0], [2.0]])
        tr = SampledTrajectory(times, pts)
        assert tr.evaluate(0.5).coords[0] == pytest.approx(1.0)
        assert tr.evaluate(2.0).coords[0] == 2.0

    def test_domain_enforced(self):
        tr = SampledTrajectory(np.array([0.0, 1.0]), np.array([[0.], [1.]]))
        with pytest.raises(ValueError):
            tr.evaluate(1.5)


class TestPiecewiseTrajectory:
    def _traj(self):
        return PiecewiseTrajectory(
            [Segment(0.0, 1.0, lambda t: np.array([t, 0.0])),
             Segment(1.0, 2.0, lambda t: np.array([1.0, t - 1.0]))],
            branch_id="demo")

    def test_segment_ownership(self):
        tr = self._traj()
        # the boundary time belongs to the later segment
        assert np.allclose(tr.evaluate(1.0).coords, [1.0, 0.0])
        assert np.allclose(tr.evaluate(0.5).coords, [0.5, 0.0])
        assert np.allclose(tr.evaluate(2.0).coords, [1.0, 1.0])

    def test_domain(self):
        tr = self._traj()
        assert tr.domain == (0.0, 2.0)
        with pytest.raises(ValueError):
            tr.evaluate(2.5)


class TestRates:
    def _experiment(self):
        return Experiment(n_outcomes=2, classify=lambda ev: ev.data,
                          name="parity")

    def _traj_with_events(self, bits):
        class T:
            branch_id = None
            native_step = 1.0
            domain = (0.0, float(len(bits)))

            def evaluate(self, t):
                return ConfigurationPoint(np.array([0.0]))

            def events(self, horizon=None):
                seq = bits if horizon is None else bits[:horizon]
                return [Event(time=float(k), point=None, data=b)
                        for k, b in enumerate(seq)]
        return T()

    def test_rates_count_outcomes(self):
        tr = self._traj_with_events([0, 1, 1, 0, 1])
        rr = evaluate_rates(tr, self._experiment())
        assert rr.n_trials == 5
        assert np.allclose(rr.rates, [2 / 5, 3 / 5])

    def test_no_trials_raises(self):
        tr = self._traj_with_events([])
        with pytest.raises(NoTrialsError):
            evaluate_rates(tr, self._experiment())

    def test_trial_floor_flags(self):
        tr = self._traj_with_events([1, 1])
        rr = evaluate_rates(tr, self._experiment(), n_min_trials=10)
        assert rr.flagged

    def test_horizon_caps_trials(self):
        tr = self._traj_with_events([1, 1, 0, 0])
        rr = evaluate_rates(tr, self._experiment(), horizon=2)
        assert rr.n_trials == 2
        assert rr.rates[1] == 1.0

    def test_out_of_range_outcome_rejected(self):
        tr = self._traj_with_events([0, 5])
        with pytest.raises(ValueError):
            evaluate_rates(tr, self._experiment())


class TestEnsemble:
    def _setup(self, n_events=40):
        measure = MeasureSpec(
            dimension=1,
            sampler=lambda rng, n: rng.random((n, 1)))

        def build_one(point):
            p = float(point[0])

            class T:
                branch_id = None
                native_step = 1.0
                domain = (0.0, float(n_events))

                def evaluate(self, t):
                    return ConfigurationPoint(np.array([p]))

                def events(self, horizon=None):
                    n = n_events if horizon is None else min(horizon,
                                                             n_events)
                    # deterministic bits from the boundary point
                    rng = np.random.default_rng(int(p * 2 ** 40))
                    bits = (rng.random(n) < 0.5).astype(int)
                    return [Event(time=float(k), point=None, data=int(b))
                            for k, b in enumerate(bits)]
            return T()

        def builder(points):
            return [build_one(point) for point in points]

        exp = Experiment(n_outcomes=2, classify=lambda ev: ev.data)
        return measure, builder, exp

    def test_statistics_reproducible(self):
        measure, builder, exp = self._setup()
        s1 = ensemble_statistics(measure, builder, exp, 50, seed=9)
        s2 = ensemble_statistics(measure, builder, exp, 50, seed=9)
        assert np.array_equal(s1.mean, s2.mean)
        assert np.array_equal(s1.variance, s2.variance)

    def test_seed_changes_draws(self):
        measure, builder, exp = self._setup()
        s1 = ensemble_statistics(measure, builder, exp, 50, seed=9)
        s2 = ensemble_statistics(measure, builder, exp, 50, seed=10)
        assert not np.array_equal(s1.mean, s2.mean)

    def test_trial_floor_excludes_all(self):
        measure, builder, exp = self._setup(n_events=3)
        with pytest.raises(EmptyEnsembleError):
            ensemble_statistics(measure, builder, exp, 10, seed=1,
                                n_min_trials=100)

    def test_well_defined_threshold(self):
        measure, builder, exp = self._setup()
        stats = ensemble_statistics(measure, builder, exp, 50, seed=2)
        assert is_well_defined(stats, tolerance=1.0)
        assert not is_well_defined(stats, tolerance=1e-12)


class TestMeasures:
    def test_degenerate_mass_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            MeasureSpec(dimension=1, sampler=lambda rng, n: None,
                        total_mass=0.0)
        with pytest.raises(DegenerateMeasureError):
            MeasureSpec(dimension=1, sampler=lambda rng, n: None,
                        total_mass=math.inf)

    def test_point_mass_sampler(self):
        m = point_mass([1.0, -2.0])
        pts = m.sampler(stream(0), 7)
        assert pts.shape == (7, 2)
        assert np.all(pts == [1.0, -2.0])

    def test_histogram_sampling_stays_in_support(self):
        edges = [np.array([0.0, 1.0, 2.0])]
        m = HistogramMeasure(edges, np.array([0.0, 3.0]))
        pts = m.sampler(stream(1), 500)
        assert np.all((pts >= 1.0) & (pts < 2.0))
        assert m.total_mass == 1.0

    def test_histogram_density(self):
        edges = [np.array([0.0, 1.0, 3.0])]
        m = HistogramMeasure(edges, np.array([1.0, 1.0]))
        d = m.density(np.array([[0.5], [2.0], [5.0]]))
        assert d[0] == pytest.approx(0.5)
        assert d[1] == pytest.approx(0.25)
        assert d[2] == 0.0

    def test_histogram_zero_mass_rejected(self):
        with pytest.raises(DegenerateMeasureError):
            HistogramMeasure([np.array([0.0, 1.0])], np.array([0.0]))


class TestBoundaryMaps:
    def _affine(self):
        A = np.array([[2.0, 0.0], [1.0, 3.0]])

        def forward(pts):
            return np.asarray(pts) @ A.T + np.array([1.0, -1.0])

        def jac(pts):
            return np.tile(A, (len(pts), 1, 1))

        return BoundaryMap(source_dimension=2, target_dimension=2,
                           forward=forward, jacobian=jac, name="affine")

    def test_jacobian_validates(self):
        pts = stream(3).normal(size=(5, 2))
        worst = validate_jacobian(self._affine(), pts)
        assert worst < 1e-6

    def test_wrong_jacobian_caught(self):
        m = self._affine()
        bad = BoundaryMap(source_dimension=2, target_dimension=2,
                          forward=m.forward,
                          jacobian=lambda pts: np.tile(np.eye(2),
                                                       (len(pts), 1, 1)))
        with pytest.raises(ValueError):
            validate_jacobian(bad, np.zeros((1, 2)))

    def test_missing_jacobian_rejected(self):
        m = BoundaryMap(source_dimension=1, target_dimension=1,
                        forward=lambda p: p)
        with pytest.raises(ValueError):
            validate_jacobian(m, np.zeros((1, 1)))

    def test_pushforward_shifts_mean(self):
        source = MeasureSpec(dimension=1,
                             sampler=lambda rng, n: rng.normal(0.0, 1.0,
                                                               (n, 1)))
        bmap = BoundaryMap(source_dimension=1, target_dimension=1,
                           forward=lambda p: np.asarray(p) + 5.0)
        hist = pushforward(source, bmap, n_samples=20_000, seed=4, bins=50)
        centers = 0.5 * (hist.edges[0][1:] + hist.edges[0][:-1])
        mean = float((centers * hist.masses).sum() / hist.masses.sum())
        assert abs(mean - 5.0) < 0.05
        assert hist.total_mass == pytest.approx(1.0)

    def test_pushforward_rejects_mass_loss(self):
        source = MeasureSpec(dimension=1,
                             sampler=lambda rng, n: rng.random((n, 1)))

        def half_defined(pts):
            pts = np.asarray(pts, dtype=float)
            out = pts.copy()
            out[pts[:, 0] > 0.5] = np.nan
            return out

        bmap = BoundaryMap(source_dimension=1, target_dimension=1,
                           forward=half_defined)
        with pytest.raises(PushforwardError):
            pushforward(source, bmap, n_samples=2000, seed=5)


class TestDeterminism:
    def _line(self, slope, branch=None):
        return PiecewiseTrajectory(
            [Segment(0.0, 10.0, lambda t, s=slope: np.array([s * t]))],
            branch_id=branch)

    def test_distinct_pasts_no_witness(self):
        # two lines through the origin with different slopes agree nowhere
        # over a window, so the family shows no indeterminism
        trs = [self._line(1.0), self._line(2.0)]
        for tr in trs:
            tr.native_step = 0.1
        assert check_determinism(trs, match_window=1.0, tolerance=1e-9)

    def test_split_pair_is_witnessed(self):
        def f(t):
            return np.array([0.0]) if t < 5.0 else np.array([t - 5.0])

        def g(t):
            return np.array([0.0]) if t < 5.0 else np.array([5.0 - t])

        a = PiecewiseTrajectory([Segment(0.0, 10.0, f)], branch_id="a")
        b = PiecewiseTrajectory([Segment(0.0, 10.0, g)], branch_id="b")
        a.native_step = b.native_step = 0.1
        assert not check_determinism([a, b], match_window=1.0,
                                     tolerance=1e-9)


class TestRng:
    def test_streams_reproducible(self):
        assert stream(7).random() == stream(7).random()
        assert stream(7, 1, 2).random() == stream(7, 1, 2).random()

    def test_paths_decorrelate(self):
        assert stream(7, 1).random() != stream(7, 2).random()
        assert stream(7).random() != stream(8).random()

    def test_string_path_elements(self):
        a = stream(7, "mean-life").random()
        b = stream(7, "mean-life").random()
        c = stream(7, "other").random()
        assert a == b and a != c

    def test_trajectory_stream_matches_indexed(self):
        assert trajectory_stream(3, 11).random() == \
            trajectory_stream(3, 11).random()
