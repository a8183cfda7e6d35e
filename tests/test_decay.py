"""Least-action decay: solver against a brute-force scan, closed forms,
conservation residuals, life measures, and the indeterminism witness."""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from trajlab import decay
from trajlab.core import MeasureSpec, check_determinism
from trajlab.decay import (
    DecayBoundary,
    DecayMasses,
    action_gradient,
    action_hessian,
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
from trajlab.errors import NoSolutionError
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

    def test_tiny_masses_sample_and_conserve(self):
        # m2 * m3 underflows to 0 here; the reduced mass must not
        masses = DecayMasses(4e-165, 1e-165, 2e-165)
        assert masses.reduced_mass > 0
        rng = stream(5, "tiny-masses")
        for _ in range(100):
            boundary, td_true = sample_boundary(masses, rng)
            vertex = solve_decay_vertex(masses, boundary)
            dp, de = conservation_residuals(masses, vertex)
            p_scale = sum(m * float(np.linalg.norm(v)) for m, v in (
                (masses.m1, vertex.v1), (masses.m2, vertex.v2),
                (masses.m3, vertex.v3)))
            assert dp <= 1e-12 * p_scale
            assert de <= 1e-12 * masses.m1 * masses.c ** 2
            assert vertex.t_d == pytest.approx(td_true, rel=1e-12)

    def test_huge_masses_give_a_finite_momentum_residual(self):
        # squaring momenta near 1e290 overflowed the residual's length to inf
        masses = DecayMasses(4.0e290, 1.0e290, 2.0e290)
        boundary = DecayBoundary(np.zeros(3), 9.999999,
                                 np.array([1.0e-7, 0.0, 0.0]),
                                 np.array([-1.0e-7, 0.0, 0.0]), 10.0)
        vertex = solve_decay_vertex(masses, boundary)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dp, _ = conservation_residuals(masses, vertex)
        p_scale = sum(m * float(np.linalg.norm(v)) for m, v in (
            (masses.m1, vertex.v1), (masses.m2, vertex.v2),
            (masses.m3, vertex.v3)))
        assert math.isfinite(dp) and math.isfinite(p_scale)
        assert dp <= 1e-12 * p_scale


class TestBoundaryValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            DecayBoundary(np.zeros(2), 0.0, np.ones(3), np.ones(3), 1.0)

    def test_rejects_bad_times(self):
        with pytest.raises(ValueError):
            DecayBoundary(np.zeros(3), 1.0, np.ones(3), np.ones(3), 1.0)

    @pytest.mark.parametrize("entry", [0, 3, 4, 9, 10])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_nonfinite(self, entry, value):
        vec = np.array([0.0, 0, 0, 0, 1, 0, 0, -1, 0, 0, 10])
        vec[entry] = value
        with pytest.raises(ValueError):
            DecayBoundary(vec[0:3], vec[3], vec[4:7], vec[7:10], vec[10])


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


def _slope_root_problem(masses, boundary):
    """The reduced-action slope, bracket and tolerance solve_decay_vertex uses."""
    span = boundary.t_b - boundary.t_a
    eps = 1e-9 * span
    return (decay._reduced_slope(masses, boundary),
            boundary.t_a + eps, boundary.t_b - eps,
            4 * np.finfo(float).eps * span)


class TestConvexRoot:
    """The bisect-then-Newton root lands within scipy brentq's tolerance of
    brentq's root in a few slope evaluations."""

    @staticmethod
    def cases():
        rng = stream(42, "decay-oracle")  # TestSolverAgainstBruteForce's data
        out = [(MASSES, sample_boundary(MASSES, rng)[0]) for _ in range(50)]
        sym = DecayMasses(4.0, 1.5, 1.5)
        flight = -symmetric_decay_time(sym, 1.0, 0.0, t_a=-5.0)
        # criterion 07's closed forms, then the exact split at t = 0
        for d, t_a, t_b in ((0.5, 0.0, 10.0), (1.0, 0.0, 10.0),
                            (2.0, 0.0, 10.0), (1.0, -5.0, flight)):
            out.append((sym, DecayBoundary(np.zeros(3), t_a,
                                           np.array([d, 0.0, 0.0]),
                                           np.array([-d, 0.0, 0.0]), t_b)))
        rng = stream(12, "brent-port")
        # spans much shorter than |t_a| make an ulp of t exceed 4 eps span,
        # and masses of 1e-150 shrink the slope and its derivative as much
        for masses in (MASSES, DecayMasses(10.0, 1.0, 7.0),
                       DecayMasses(2.0, 0.5, 0.5), DecayMasses(3.0, 1.0, 1.2),
                       DecayMasses(50.0, 20.0, 29.0),
                       DecayMasses(4e-150, 1e-150, 2e-150)):
            for _ in range(100):
                t_a = float(rng.uniform(-20.0, 20.0))
                out.append((masses, sample_boundary(
                    masses, rng, t_a=t_a,
                    t_b=t_a + float(rng.uniform(0.1, 50.0)),
                    x_a=rng.normal(size=3),
                    speed_fraction=float(rng.uniform(0.0, 0.99)))[0]))
        return out

    def test_within_brentq_tolerance(self):
        cases = self.cases()
        assert len(cases) == 654
        for masses, boundary in cases:
            slope, lo, hi, xtol = _slope_root_problem(masses, boundary)
            calls = []

            def counted(t):
                calls.append(t)
                return slope(t)

            root, converged = decay._convex_root(counted, lo, hi, xtol)
            assert converged and len(calls) <= 16
            ref = brentq(lambda t: slope(t)[0], lo, hi, xtol=xtol)
            assert abs(root - ref) <= xtol + 4 * np.finfo(float).eps * abs(root)
            assert solve_decay_vertex(masses, boundary).t_d == root

    def test_root_where_the_derivative_overflows(self):
        # masses near 1e300 over a short span: no Newton step can start,
        # so bisection alone brackets the closed-form split time
        masses = DecayMasses(4e300, 1.5e300, 1.5e300)
        boundary = DecayBoundary(np.zeros(3), 5.0, np.array([1e-10, 0.0, 0.0]),
                                 np.array([-1e-10, 0.0, 0.0]), 5.001)
        t_d = solve_decay_vertex(masses, boundary).t_d
        assert decay._reduced_slope(masses, boundary)(t_d)[1] == math.inf
        ref = symmetric_decay_time(masses, 1e-10, 5.001, t_a=5.0)
        assert abs(t_d - ref) <= 4 * np.finfo(float).eps * (0.001 + abs(ref))

    def test_iteration_cap_raises(self, monkeypatch):
        boundary = sample_boundary(MASSES, stream(42, "decay-oracle"))[0]
        monkeypatch.setattr(decay, "_ROOT_MAXITER", 1)
        with pytest.raises(NoSolutionError, match="did not converge"):
            solve_decay_vertex(MASSES, boundary)


class TestClosedFormKernel:
    """The closed forms solve_decay_vertex runs on agree with the general
    gradient and Hessian they replace."""

    def test_slope_matches_time_gradient(self):
        for masses, boundary in TestConvexRoot.cases():
            slope = decay._reduced_slope(masses, boundary)
            span = boundary.t_b - boundary.t_a
            for k in range(1, 10):
                t = boundary.t_a + span * k / 10
                x = decay._best_x(masses, boundary, t)
                _, _, v1, v2, v3 = decay._velocities(boundary, x, t)
                # every term of E2 + E3 - E1, rest energies included
                scale = sum(m * (0.5 * float(v @ v) + masses.c ** 2)
                            for m, v in ((masses.m1, v1), (masses.m2, v2),
                                         (masses.m3, v3)))
                ref = action_gradient(masses, boundary, x, t)[3]
                assert abs(slope(t)[0] - ref) <= 1e-12 * scale

    def test_slope_derivative_is_the_schur_complement(self):
        # minimising the action over x_d leaves d - |b|^2 / a as the
        # reduced action's second derivative
        for masses, boundary in TestConvexRoot.cases():
            slope = decay._reduced_slope(masses, boundary)
            span = boundary.t_b - boundary.t_a
            for k in range(1, 10):
                t = boundary.t_a + span * k / 10
                h = action_hessian(masses, boundary,
                                   decay._best_x(masses, boundary, t), t)
                a, b, d = h[0, 0], h[:3, 3], h[3, 3]
                ref = d - float(b @ b) / a
                assert abs(slope(t)[1] - ref) <= 1e-14 * abs(d)


def scalar_best_x(masses, boundary, t):
    """``_best_x`` as one split time took it, its weights on plain floats."""
    tau1, tau2 = t - boundary.t_a, boundary.t_b - t
    w1, w23 = masses.m1 / tau1, (masses.m2 + masses.m3) / tau2
    num = (w1 * boundary.x_a
           + (masses.m2 * boundary.x_b2 + masses.m3 * boundary.x_b3) / tau2)
    return num / (w1 + w23)


def scalar_action(masses, boundary, x, t):
    """``decay_action`` as one split time took it: ``float(v @ v)`` per leg
    and the sum on plain floats."""
    tau1, tau2 = t - boundary.t_a, boundary.t_b - t
    v1 = (x - boundary.x_a) / tau1
    v2 = (boundary.x_b2 - x) / tau2
    v3 = (boundary.x_b3 - x) / tau2
    c2 = masses.c ** 2
    s = 0.5 * masses.m1 * float(v1 @ v1) * tau1 - masses.m1 * c2 * tau1
    s += 0.5 * masses.m2 * float(v2 @ v2) * tau2 - masses.m2 * c2 * tau2
    s += 0.5 * masses.m3 * float(v3 @ v3) * tau2 - masses.m3 * c2 * tau2
    return s


def per_row_profile(masses, boundary, n):
    """The ``decay`` scenario's action profile one split time at a time."""
    span = boundary.t_b - boundary.t_a
    ts = boundary.t_a + span * np.linspace(0.002, 0.998, n)
    return [(float(t), scalar_action(masses, boundary,
                                     scalar_best_x(masses, boundary, float(t)),
                                     float(t))) for t in ts]


def bits(values):
    return np.asarray(values, dtype=float).tobytes()


class TestArrayProfile:
    """The action profile as one array pass, bitwise the per-row loop."""

    @pytest.mark.parametrize("n", [400, 0, 1, 2, 37])
    def test_scenario_table_matches_per_row_loop(self, n):
        from trajlab.scenarios import SCENARIOS, OutputBundle, validate_params
        scenario = SCENARIOS["decay"]
        p = validate_params(scenario.schema, {"n_profile": n,
                                              "n_life_samples": 10})
        out = OutputBundle()
        scenario.run(p, 1, out)
        boundary = DecayBoundary(np.array(p["x_a"]), p["t_a"],
                                 np.array(p["x_b2"]), np.array(p["x_b3"]),
                                 p["t_b"])
        masses = DecayMasses(p["m1"], p["m2"], p["m3"], p["c"])
        want = OutputBundle()
        want.add_dat("action_profile.dat",
                     ["least action over the split position at each split "
                      "time", "columns: split time, action"],
                     per_row_profile(masses, boundary, n))
        assert (dict(out.files())["action_profile.dat"]
                == dict(want.files())["action_profile.dat"])

    def test_random_boundaries(self):
        rng = stream(11, "decay-profile")
        for trial in range(40):
            m2, m3 = rng.uniform(0.2, 2.0, size=2)
            masses = DecayMasses(m2 + m3 + float(rng.uniform(0.1, 3.0)),
                                 float(m2), float(m3),
                                 float(rng.uniform(0.5, 2.0)))
            t_a = float(rng.uniform(-5.0, 5.0))
            boundary, _ = sample_boundary(
                masses, rng, t_b=t_a + float(rng.uniform(0.5, 20.0)), t_a=t_a,
                x_a=rng.normal(size=3),
                speed_fraction=float(rng.uniform(0.0, 0.9)))
            n = int(rng.integers(0, 300))
            span = boundary.t_b - boundary.t_a
            ts = boundary.t_a + span * np.linspace(0.002, 0.998, n)
            x = decay._best_x(masses, boundary, ts)
            action = decay_action(masses, boundary, x, ts)
            assert x.shape == (n, 3) and action.shape == (n,)
            want = per_row_profile(masses, boundary, n)
            assert bits(action) == bits([s for _, s in want])
            assert bits(x) == bits([scalar_best_x(masses, boundary, float(t))
                                    for t in ts])

    def test_scalar_entry_points_keep_their_bits(self):
        rng = stream(12, "decay-scalar")
        for _ in range(40):
            boundary, t_true = sample_boundary(MASSES, rng)
            x = decay._best_x(MASSES, boundary, t_true)
            assert bits(x) == bits(scalar_best_x(MASSES, boundary, t_true))
            action = decay_action(MASSES, boundary, x, t_true)
            assert type(action) is float
            assert action == scalar_action(MASSES, boundary, x, t_true)
            vertex = solve_decay_vertex(MASSES, boundary)
            assert type(vertex.action) is float
            assert vertex.action == scalar_action(MASSES, boundary,
                                                  vertex.x_d, vertex.t_d)

    def test_any_exterior_time_refused(self):
        boundary = TestActionCalculus.BOUNDARY
        ts = np.array([1.0, 5.0, 10.0])
        with pytest.raises(ValueError, match="strictly inside"):
            decay_action(MASSES, boundary, np.zeros((3, 3)), ts)
        ts[2] = math.nan
        with pytest.raises(ValueError, match="strictly inside"):
            decay_action(MASSES, boundary, np.zeros((3, 3)), ts)


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
        traj = decay_trajectory(MASSES, boundary,
                                solve_decay_vertex(MASSES, boundary))
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
        point = MeasureSpec(dimension=1,
                            sampler=lambda streams, n: np.full(
                                (len(streams) * n, 1), 1.25))
        est, se = mean_life(point, n_samples=500, seed=0)
        assert est == 1.25 and se == 0.0

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            mean_life(MeasureSpec(
                dimension=2,
                sampler=lambda streams, n: np.tile([1.0, 2.0],
                                                (len(streams) * n, 1))))

    def test_rejects_negative_times(self):
        bad = MeasureSpec(dimension=1,
                          sampler=lambda streams, n: -np.ones(
                              (len(streams) * n, 1)))
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
