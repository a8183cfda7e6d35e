"""Least-action decay: solver against a brute-force scan, closed forms,
conservation residuals, life measures, and the indeterminism witness."""

import math

import numpy as np
import pytest

from trajlab.core import MeasureSpec, check_determinism, point_mass
from trajlab.decay import (
    DecayBoundary,
    DecayMasses,
    action_gradient,
    action_hessian,
    boundary_measure,
    conservation_residuals,
    decay_action,
    decay_trajectory,
    exponential_life_measure,
    mean_life,
    rest_decay_family,
    sample_boundary,
    solve_decay_vertex,
    symmetric_decay_time,
    uniform_life_measure,
)
from trajlab.errors import DegenerateMeasureError, NoSolutionError
from trajlab.rng import stream

MASSES = DecayMasses(4.0, 1.0, 2.0)


def brute_force_minimum(masses, boundary, n_grid=4001):
    """Scan the split time on a dense grid, minimising over x in closed form.

    Everything here is recomputed from first principles: at fixed t the
    action is quadratic in x, so its minimiser solves the normal equation
    (m1/tau1 + (m2+m3)/tau2) x = m1 x_a/tau1 + (m2 x_b2 + m3 x_b3)/tau2,
    and the scanned value is the two-segment free action at that point.
    """
    m1, m2, m3, c = masses.m1, masses.m2, masses.m3, masses.c
    span = boundary.t_b - boundary.t_a
    ts = boundary.t_a + span * np.linspace(1e-4, 1.0 - 1e-4, n_grid)
    best_s, best_t = math.inf, None
    for t in ts:
        tau1 = t - boundary.t_a
        tau2 = boundary.t_b - t
        w = m1 / tau1 + (m2 + m3) / tau2
        rhs = (m1 * boundary.x_a / tau1
               + (m2 * boundary.x_b2 + m3 * boundary.x_b3) / tau2)
        x = rhs / w
        s = 0.5 * m1 * float((x - boundary.x_a) @ (x - boundary.x_a)) / tau1
        s += 0.5 * m2 * float((boundary.x_b2 - x) @ (boundary.x_b2 - x)) / tau2
        s += 0.5 * m3 * float((boundary.x_b3 - x) @ (boundary.x_b3 - x)) / tau2
        s -= m1 * c * c * tau1 + (m2 + m3) * c * c * tau2
        if s < best_s:
            best_s, best_t = s, float(t)
    return best_t, best_s, span / (n_grid - 1)


def finite_difference_gradient(masses, boundary, x_d, t_d, h=1e-6):
    g = np.empty(4)
    z = np.concatenate([np.asarray(x_d, dtype=float), [t_d]])
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (decay_action(masses, boundary, zp[:3], zp[3])
                - decay_action(masses, boundary, zm[:3], zm[3])) / (2 * h)
    return g


class TestMassValidation:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            DecayMasses(4.0, -1.0, 2.0)
        with pytest.raises(ValueError):
            DecayMasses(4.0, 1.0, 2.0, c=0.0)

    def test_rejects_no_release(self):
        with pytest.raises(ValueError):
            DecayMasses(3.0, 1.0, 2.0)

    def test_derived_quantities(self):
        assert MASSES.released_energy == 1.0
        assert MASSES.product_mass == 3.0
        assert MASSES.reduced_mass == pytest.approx(2.0 / 3.0)


class TestBoundaryValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DecayBoundary(np.zeros(2), 0.0, np.ones(3), np.ones(3), 1.0)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            DecayBoundary(np.zeros(3), 1.0, np.ones(3), np.ones(3), 1.0)

    def test_vector_roundtrip(self):
        b = DecayBoundary(np.array([1.0, 2, 3]), 0.5,
                          np.array([4.0, 5, 6]), np.array([7.0, 8, 9]), 2.5)
        b2 = DecayBoundary.from_vector(b.as_vector())
        assert np.array_equal(b2.x_a, b.x_a)
        assert b2.t_a == b.t_a and b2.t_b == b.t_b
        with pytest.raises(ValueError):
            DecayBoundary.from_vector(np.zeros(10))

    @pytest.mark.parametrize("entry", [0, 3, 4, 9, 10])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, entry, value):
        vec = np.array([0.0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 10])
        vec[entry] = value
        with pytest.raises(ValueError):
            DecayBoundary.from_vector(vec)


class TestActionCalculus:
    # generic interior point, nowhere near the minimum
    BOUNDARY = DecayBoundary(np.array([0.2, -0.1, 0.4]), 0.0,
                             np.array([3.0, 1.0, -0.5]),
                             np.array([-2.0, 0.5, 0.25]), 10.0)

    def test_gradient_matches_finite_differences(self):
        x, t = np.array([0.5, 0.3, -0.2]), 4.0
        g = action_gradient(MASSES, self.BOUNDARY, x, t)
        fd = finite_difference_gradient(MASSES, self.BOUNDARY, x, t)
        assert np.allclose(g, fd, atol=5e-7)

    def test_hessian_matches_finite_differences(self):
        x, t = np.array([0.5, 0.3, -0.2]), 4.0
        h = action_hessian(MASSES, self.BOUNDARY, x, t)
        hd = np.empty((4, 4))
        z = np.concatenate([x, [t]])
        step = 1e-5
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += step
            zm[i] -= step
            hd[i] = (action_gradient(MASSES, self.BOUNDARY, zp[:3], zp[3])
                     - action_gradient(MASSES, self.BOUNDARY, zm[:3], zm[3])
                     ) / (2 * step)
        assert np.allclose(h, hd, atol=1e-5)
        assert np.allclose(h, h.T)

    def test_action_rejects_exterior_time(self):
        with pytest.raises(ValueError):
            decay_action(MASSES, self.BOUNDARY, np.zeros(3), 10.5)
        with pytest.raises(ValueError):
            decay_action(MASSES, self.BOUNDARY, np.zeros(3), 0.0)


class TestSolverAgainstBruteForce:
    def test_random_feasible_boundaries(self):
        rng = stream(42, "decay-oracle")
        for _ in range(50):
            boundary, td_true = sample_boundary(MASSES, rng)
            vertex = solve_decay_vertex(MASSES, boundary)
            # forward kinematics generated this data, so the generating
            # split time is the unique minimum and must be recovered
            assert vertex.t_d == pytest.approx(td_true, abs=1e-9)
            t_scan, s_scan, dt = brute_force_minimum(MASSES, boundary)
            assert abs(vertex.t_d - t_scan) <= dt
            assert vertex.action <= s_scan + 1e-12 * abs(s_scan)
            dp, de = conservation_residuals(MASSES, vertex)
            assert dp < 1e-9 and de < 1e-9
            fd = finite_difference_gradient(MASSES, boundary,
                                            vertex.x_d, vertex.t_d)
            assert float(np.max(np.abs(fd))) < 1e-6
            eigs = np.linalg.eigvalsh(
                action_hessian(MASSES, boundary, vertex.x_d, vertex.t_d))
            assert float(eigs.min()) > -1e-8

    def test_other_mass_splits(self):
        rng = stream(9, "decay-oracle-masses")
        for masses in (DecayMasses(2.0, 0.5, 0.5), DecayMasses(10.0, 1.0, 7.0)):
            boundary, td_true = sample_boundary(masses, rng)
            vertex = solve_decay_vertex(masses, boundary)
            assert vertex.t_d == pytest.approx(td_true, abs=1e-9)

    def test_moving_parent(self):
        rng = stream(11, "decay-moving")
        boundary, td_true = sample_boundary(MASSES, rng, speed_fraction=0.9,
                                            x_a=np.array([1.0, -2.0, 0.5]))
        vertex = solve_decay_vertex(MASSES, boundary)
        assert vertex.t_d == pytest.approx(td_true, abs=1e-9)
        # parent leaves x_a with the velocity the vertex implies
        assert np.allclose(boundary.x_a + vertex.v1 * vertex.t_d, vertex.x_d,
                           atol=1e-9)


class TestSolverPrecision:
    """The vertex time is a root of the reduced action's slope found to
    rounding, so conservation holds and the generating split time comes
    back to within 1e-13."""

    def test_oracle_boundaries_and_closed_forms(self):
        cases = []
        rng = stream(42, "decay-oracle")  # TestSolverAgainstBruteForce's data
        for _ in range(50):
            boundary, td_true = sample_boundary(MASSES, rng)
            cases.append((MASSES, boundary, td_true))
        # criterion 07's closed forms, and one split at t = 0 after t_a < 0
        sym = DecayMasses(4.0, 1.5, 1.5)
        flight = -symmetric_decay_time(sym, 1.0, 0.0, t_a=-5.0)
        for d, t_a, t_b in ((0.5, 0.0, 10.0), (1.0, 0.0, 10.0),
                            (2.0, 0.0, 10.0), (1.0, -5.0, flight)):
            boundary = DecayBoundary(np.zeros(3), t_a, np.array([d, 0.0, 0.0]),
                                     np.array([-d, 0.0, 0.0]), t_b)
            cases.append((sym, boundary,
                           symmetric_decay_time(sym, d, t_b, t_a=t_a)))
        assert cases[-1][2] == 0.0
        for masses, boundary, td_true in cases:
            vertex = solve_decay_vertex(masses, boundary)
            dp, de = conservation_residuals(masses, vertex)
            assert dp <= 1e-13 and de <= 1e-13
            assert abs(vertex.t_d - td_true) <= 1e-13


class TestSymmetricClosedForm:
    def test_matches_solver(self):
        masses = DecayMasses(4.0, 1.5, 1.5)
        d, t_b = 2.0, 10.0
        t_ref = symmetric_decay_time(masses, d, t_b)
        boundary = DecayBoundary(np.zeros(3), 0.0,
                                 np.array([d, 0.0, 0.0]),
                                 np.array([-d, 0.0, 0.0]), t_b)
        vertex = solve_decay_vertex(masses, boundary)
        assert vertex.t_d == pytest.approx(t_ref, abs=1e-9)
        assert np.allclose(vertex.x_d, 0.0, atol=1e-9)
        assert np.allclose(vertex.v1, 0.0, atol=1e-9)

    def test_flight_time_formula(self):
        masses = DecayMasses(4.0, 1.5, 1.5)
        # products share the released energy: m_prod v^2 / 2 = released
        v = math.sqrt(2.0 * masses.released_energy / masses.product_mass)
        assert symmetric_decay_time(masses, 3.0, 10.0) == pytest.approx(
            10.0 - 3.0 / v, rel=1e-12)

    def test_rejects_unequal_masses(self):
        with pytest.raises(ValueError):
            symmetric_decay_time(MASSES, 1.0, 10.0)

    def test_unreachable_distance(self):
        masses = DecayMasses(4.0, 1.5, 1.5)
        with pytest.raises(NoSolutionError):
            symmetric_decay_time(masses, 100.0, 10.0)


class TestInfeasibleBoundaries:
    def test_products_too_far(self):
        boundary = DecayBoundary(np.zeros(3), 0.0,
                                 np.array([100.0, 0.0, 0.0]),
                                 np.array([-100.0, 0.0, 0.0]), 1.0)
        with pytest.raises(NoSolutionError):
            solve_decay_vertex(MASSES, boundary)

    def test_coincident_endpoints_still_split(self):
        # both products detected at the start point: the split happens,
        # products fly out and come back is impossible for free motion,
        # so the minimum sits at a genuine interior vertex anyway
        boundary = DecayBoundary(np.zeros(3), 0.0, np.zeros(3),
                                 np.zeros(3), 10.0)
        with pytest.raises(NoSolutionError):
            # zero separation leaves the relative motion without a scale;
            # the action decreases all the way to t_d -> t_b
            solve_decay_vertex(MASSES, boundary)


class TestDecayTrajectory:
    def test_sector_change_at_split(self):
        rng = stream(3, "decay-traj")
        boundary, _ = sample_boundary(MASSES, rng)
        vertex = solve_decay_vertex(MASSES, boundary)
        traj = decay_trajectory(MASSES, boundary, vertex)
        t_before = 0.5 * (boundary.t_a + vertex.t_d)
        t_after = 0.5 * (vertex.t_d + boundary.t_b)
        before, after = traj.evaluate(t_before), traj.evaluate(t_after)
        parent, products = traj.segments
        assert parent.t1 == vertex.t_d == products.t0
        assert parent.sector == "parent" and before.shape == (3,)
        assert products.sector == "products" and after.shape == (6,)
        # one array of configurations cannot span the split
        with pytest.raises(ValueError, match="widths"):
            traj.evaluate(np.array([t_before, t_after]))

    def test_endpoints_hit(self):
        rng = stream(4, "decay-traj-ends")
        boundary, _ = sample_boundary(MASSES, rng)
        traj = decay_trajectory(MASSES, boundary)
        start = traj.evaluate(boundary.t_a)
        end = traj.evaluate(boundary.t_b)
        assert np.allclose(start, boundary.x_a, atol=1e-12)
        assert np.allclose(end[:3], boundary.x_b2, atol=1e-9)
        assert np.allclose(end[3:], boundary.x_b3, atol=1e-9)


class TestIndeterminismWitness:
    def test_same_past_different_splits(self):
        family = rest_decay_family(MASSES, [2.0, 5.0], t_b=10.0)
        assert check_determinism(family, match_window=1.0, tolerance=1e-9,
                                 time_step=0.05) is False

    def test_single_member_witnesses_via_time_shift(self):
        # a parent at rest is stationary before the split, so the
        # trajectory matches its own time translate and then diverges
        family = rest_decay_family(MASSES, [5.0], t_b=10.0)
        assert check_determinism(family, match_window=1.0, tolerance=1e-9,
                                 time_step=0.05) is False

    @pytest.mark.parametrize("time_step", [0.05, 0.3, 0.45, 0.6, 0.7])
    def test_steps_that_do_not_divide_the_span(self, time_step):
        # 10 / 0.6 is not whole: the grid stops short of t_b, not past it
        family = rest_decay_family(MASSES, [2.0, 5.0], t_b=10.0)
        assert check_determinism(family, match_window=1.0, tolerance=1e-9,
                                 time_step=time_step) is False

    def test_rejects_split_outside_window(self):
        with pytest.raises(ValueError):
            rest_decay_family(MASSES, [11.0], t_b=10.0)


class TestLifeMeasures:
    def test_exponential_density_normalised(self):
        spec = exponential_life_measure(1.5)
        t = np.linspace(0.0, 60.0, 200001)
        assert np.trapezoid(spec.density(t), t) == pytest.approx(1.0, abs=1e-6)
        assert spec.density(np.array([-1.0]))[0] == 0.0

    def test_exponential_mean_within_errors(self):
        est, se = mean_life(exponential_life_measure(1.5), n_samples=20000,
                            seed=1)
        assert se > 0
        assert abs(est - 1.5) < 4.0 * se

    def test_uniform_mean(self):
        est, se = mean_life(uniform_life_measure(0.0, 2.0), n_samples=20000,
                            seed=2)
        assert abs(est - 1.0) < 4.0 * se

    def test_point_mass_exact(self):
        est, se = mean_life(point_mass([1.25]), n_samples=500, seed=0)
        assert est == 1.25 and se == 0.0

    def test_rejects_unnormalised(self):
        bad = MeasureSpec(dimension=1,
                          sampler=lambda rng, n: rng.random((n, 1)),
                          total_mass=0.5)
        with pytest.raises(DegenerateMeasureError):
            mean_life(bad)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            mean_life(point_mass([1.0, 2.0]))

    def test_rejects_negative_times(self):
        bad = MeasureSpec(dimension=1,
                          sampler=lambda rng, n: -np.ones((n, 1)))
        with pytest.raises(ValueError):
            mean_life(bad, n_samples=10)

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            exponential_life_measure(0.0)
        with pytest.raises(ValueError):
            uniform_life_measure(2.0, 1.0)

    def test_reproducible(self):
        a = mean_life(exponential_life_measure(1.5), n_samples=100, seed=7)
        b = mean_life(exponential_life_measure(1.5), n_samples=100, seed=7)
        assert a == b


class TestBoundaryMeasure:
    def test_samples_feasible_boundaries(self):
        spec = boundary_measure(MASSES)
        assert spec.dimension == 11
        rows = spec.sampler(stream(6, "bnd"), 3)
        assert rows.shape == (3, 11)
        for row in rows:
            boundary = DecayBoundary.from_vector(row)
            vertex = solve_decay_vertex(MASSES, boundary)
            dp, de = conservation_residuals(MASSES, vertex)
            assert dp < 1e-9 and de < 1e-9
