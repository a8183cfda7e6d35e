import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from trajlab import scattering
from trajlab.scattering import (Potential, HardSphere, RepulsivePower,
                                ScreenedCoulomb,
                                DeflectionFunction, transfer_density,
                                solid_angle_mass, FlipperScene, random_scene,
                                trace_flipper, bin_edges,
                                entry_measure, flipper_outcome_builder,
                                angle_bins, EncounterRecord, _trace_batch,
                                flipper_cross_section, _turning_u)
from trajlab.core import ensemble_statistics
from trajlab.errors import IntegrationError
from trajlab.rng import stream, trajectory_stream
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

_ODE_RTOL, _ODE_ATOL = 1e-11, 1e-13


def closest_approach(potential, energy, s):
    """Distance of closest approach of each row of the 1-d ``s``."""
    return 1.0 / _turning_u(potential, energy, np.asarray(s, dtype=float))


def planar_motion_deflection(potential, energy, s):
    """Reference deflection from integrating the planar equations of motion.

    Intended for short-range potentials where a finite start/exit radius
    captures the whole interaction; the package's quadrature is checked
    against it.
    """
    mass = 1.0
    v0 = math.sqrt(2.0 * energy / mass)
    # quiet radius: tail energy below integrator tolerance
    r_start = max(closest_approach(potential, energy, [0.0])[0], s, 1e-6)
    while float(potential(r_start)) / energy >= 1e-13:
        r_start *= 1.5
    r_start *= 1.5
    if s >= r_start:
        return 0.0

    x0 = -math.sqrt(max(r_start ** 2 - s ** 2, 0.0))
    state0 = [x0, s, v0, 0.0]

    def rhs(t, y):
        x, yy, vx, vy = y
        r = math.hypot(x, yy)
        f = -float(potential.derivative(r)) / mass  # outward radial accel
        return [vx, vy, f * x / r, f * yy / r]

    def escaped(t, y):
        x, yy, vx, vy = y
        r = math.hypot(x, yy)
        return r - r_start * (1.0 + 1e-9) if (x * vx + yy * vy) > 0 else -1.0

    escaped.terminal = True
    escaped.direction = 1.0
    t_max = 10.0 * (2.0 * r_start / v0)
    # cap the step so the interaction region cannot be straddled unseen
    sol = solve_ivp(rhs, (0.0, t_max), state0, rtol=_ODE_RTOL, atol=_ODE_ATOL,
                    method="DOP853", events=escaped, dense_output=False,
                    max_step=r_start / (30.0 * v0))
    assert sol.success and len(sol.t_events[0])
    vx, vy = sol.y[2, -1], sol.y[3, -1]
    return float(np.arccos(np.clip(vx / math.hypot(vx, vy), -1.0, 1.0)))


class TestTurningRadius:
    def test_free_limit(self):
        # negligible potential: the turning radius approaches s
        pot = ScreenedCoulomb(1e-12, 1.0)
        assert closest_approach(pot, 1.0, [2.0])[0] == pytest.approx(2.0,
                                                                   rel=1e-9)

    def test_energy_balance_at_turn(self):
        pot = ScreenedCoulomb(0.7, 1.3)
        E, s = 1.1, 0.8
        r0 = closest_approach(pot, E, [s])[0]
        # definition: E = V(r0) + E s^2 / r0^2
        assert float(pot(r0)) + E * s * s / (r0 * r0) == pytest.approx(
            E, rel=1e-10)


class TestDeflection:
    def test_hard_sphere_reflection_law(self):
        dfl = DeflectionFunction(HardSphere(1.0), 1.0)
        for s in np.linspace(0.05, 0.95, 10):
            assert dfl(float(s)) == pytest.approx(2.0 * math.acos(s),
                                                  abs=1e-12)

    def test_miss_is_no_deflection(self):
        assert DeflectionFunction(HardSphere(1.0), 1.0)(1.5) == 0.0

    def test_head_on_is_backscatter(self):
        assert DeflectionFunction(HardSphere(1.0), 1.0)(0.0) == \
            pytest.approx(math.pi)

    def test_negative_impact_parameter_raises(self):
        for pot in (HardSphere(1.0), RepulsivePower(1.0, 1.0)):
            with pytest.raises(ValueError, match="nonnegative"):
                DeflectionFunction(pot, 1.0)(np.array([0.5, -0.1]))

    def test_inverse_square_analytic(self):
        # k/r potential: s = (k / 2E) cot(theta/2)
        k, E = 1.0, 1.0
        dfl = DeflectionFunction(RepulsivePower(k, 1.0), E)
        s = np.geomspace(1e-3, 1e3, 50)
        expected = 2.0 * np.arctan2(k, 2.0 * E * s)
        assert dfl(s) == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_inverse_cube_force_analytic(self):
        # k/r^2 potential: theta = pi (1 - s / sqrt(s^2 + k/E)), written
        # without the cancelling subtraction
        k, E = 0.7, 1.3
        dfl = DeflectionFunction(RepulsivePower(k, 2.0), E)
        s = np.geomspace(1e-3, 1e3, 50)
        root = np.sqrt(s * s + k / E)
        expected = math.pi * (k / E) / (root * (root + s))
        assert np.max(np.abs(dfl(s) - expected)) <= 1e-14

    def test_integral_matches_ode(self):
        pot = ScreenedCoulomb(1.0, 2.0)
        dfl = DeflectionFunction(pot, 1.0)
        for s in (0.3, 0.8, 1.5):
            ode = planar_motion_deflection(pot, 1.0, s)
            assert dfl(s) == pytest.approx(ode, abs=2e-6)

    def test_screening_weakens_deflection(self):
        strong = DeflectionFunction(ScreenedCoulomb(1.0, 10.0), 1.0)(1.0)
        weak = DeflectionFunction(ScreenedCoulomb(1.0, 0.5), 1.0)(1.0)
        assert weak < strong


class TestTinyImpactParameters:
    POTENTIALS = [RepulsivePower(0.3), RepulsivePower(0.8, 2.5),
                  ScreenedCoulomb(1.0, 0.02)]
    TINY = [1e-100, 1e-200, 1e-300]

    @pytest.mark.parametrize("pot", POTENTIALS, ids=repr)
    def test_near_head_on_backscatter(self, pot):
        dfl = DeflectionFunction(pot, 1.0)
        u_head = _turning_u(pot, 1.0, np.zeros(1))
        for s in self.TINY:
            assert math.pi - dfl(s) <= 1e-12
        assert _turning_u(pot, 1.0, np.array(self.TINY), u_head[0]) == \
            pytest.approx(np.repeat(u_head, len(self.TINY)), rel=1e-12)

    @pytest.mark.parametrize("pot", POTENTIALS, ids=repr)
    def test_tiny_rows_alone_equal_batch(self, pot):
        dfl = DeflectionFunction(pot, 1.0)
        s = np.array(self.TINY + [0.0, 0.5])
        assert np.array_equal(dfl(s), [dfl(float(v)) for v in s])


class _Ramped(DeflectionFunction):
    """theta(s) + height * s, which rises where the true theta has fallen
    to 0 (the far probe points of a short screening length)."""

    def __init__(self, pot, energy, height):
        self.height = height
        super().__init__(pot, energy)

    def __call__(self, s):
        return super().__call__(s) + self.height * np.asarray(s)


class TestMonotoneProbe:
    def test_rise_above_noise_raises(self):
        with pytest.raises(IntegrationError, match="strictly decreasing"):
            _Ramped(ScreenedCoulomb(1.0, 0.02), 1.0, 1e-7)

    def test_small_rise_raises(self):
        # the ramp tops out near 3e-11, far above theta's 1e-15 rounding
        with pytest.raises(IntegrationError, match="strictly decreasing"):
            _Ramped(ScreenedCoulomb(1.0, 0.02), 1.0, 1e-11)

    def test_rise_within_noise_passes(self):
        _Ramped(ScreenedCoulomb(1.0, 0.02), 1.0, 1e-16)


class _PlainPower(Potential):
    """A user potential with only V and V': its radicand takes the base
    class's plain difference."""

    def __init__(self, strength, exponent):
        self.strength, self.exponent = strength, exponent

    def __call__(self, r):
        return self.strength / np.asarray(r, dtype=float) ** self.exponent

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        return -self.exponent * self.strength / r ** (self.exponent + 1.0)


class TestRadicand:
    SHIPPED = [ScreenedCoulomb(1.0, 2.0), RepulsivePower(0.8, 2.5)]

    def test_user_potential_takes_plain_difference(self):
        s = np.geomspace(1e-2, 20.0, 40)
        plain = DeflectionFunction(_PlainPower(0.8, 2.5), 1.3)
        split = DeflectionFunction(RepulsivePower(0.8, 2.5), 1.3)
        assert np.max(np.abs(plain(s) - split(s))) <= 1e-7

    @pytest.mark.parametrize("pot", SHIPPED, ids=repr)
    def test_drop_matches_plain_difference_away_from_turn(self, pot):
        u_max = _turning_u(pot, 1.0, np.geomspace(1e-2, 20.0, 9))[:, None]
        x2 = np.linspace(0.1, 0.999, 50)
        plain = Potential.drop(pot, u_max, x2)
        assert np.all(plain > 0)
        assert pot.drop(u_max, x2) == pytest.approx(plain, rel=1e-13,
                                                    abs=0.0)

    # the non-integer exponent converges slowest: 1.5e-13 at 64 nodes, so
    # it is held to the 1e-12 the node count is chosen for
    @pytest.mark.parametrize("pot, bound", [
        (RepulsivePower(1.0, 1.0), 1e-13), (RepulsivePower(0.7, 2.0), 1e-13),
        (ScreenedCoulomb(1.0, 1.0), 1e-13), (ScreenedCoulomb(1.0, 2.0), 1e-13),
        (ScreenedCoulomb(1.0, 0.02), 1e-13), (RepulsivePower(0.8, 2.5), 1e-12),
    ], ids=repr)
    def test_node_count_is_converged(self, pot, bound, monkeypatch):
        dfl = DeflectionFunction(pot, 1.0)
        s = dfl.inverse(np.linspace(0.05, 3.0, 40))
        theta = dfl(s)
        monkeypatch.setattr(scattering, "_N_NODES", 4 * scattering._N_NODES)
        assert np.max(np.abs(DeflectionFunction(pot, 1.0)(s) - theta)) \
            <= bound


class TestDeflectionFunction:
    def test_inverse_roundtrip(self):
        dfl = DeflectionFunction(ScreenedCoulomb(1.0, 2.0), 1.0)
        for s in (0.2, 0.7, 1.4):
            assert dfl.inverse(dfl(s)) == pytest.approx(s, rel=1e-8)

    def test_hard_sphere_inverse_vs_closed_form(self):
        dfl = DeflectionFunction(HardSphere(1.0), 1.0)
        for th in (0.5, 1.5, 2.8):
            assert dfl.inverse(th) == pytest.approx(math.cos(th / 2.0),
                                                    rel=1e-9)

    def test_derivative_matches_finite_differences(self):
        dfl = DeflectionFunction(ScreenedCoulomb(1.0, 2.0), 1.0)
        th = 1.1
        s = dfl.inverse(th)
        h = 1e-5
        fd = (dfl.inverse(th + h) - dfl.inverse(th - h)) / (2 * h)
        s_th, slope = dfl._inverse_and_slope(th)
        assert s_th == s
        assert slope == pytest.approx(fd, rel=1e-4)

    def test_inverse_domain_checked(self):
        dfl = DeflectionFunction(HardSphere(1.0), 1.0)
        with pytest.raises(ValueError):
            dfl.inverse(0.0)
        with pytest.raises(ValueError):
            dfl.inverse(math.pi)


class TestTransfer:
    def test_hard_sphere_transfer_is_constant(self):
        # unit-density beam through a hard sphere: rho_b = R^2 / 4 everywhere
        R = 1.3
        dfl = DeflectionFunction(HardSphere(R), 1.0)
        grid = np.linspace(0.2, 3.0, 40)
        rho = transfer_density(lambda s: 1.0, dfl, grid)
        assert np.allclose(rho, R * R / 4.0, rtol=1e-6)

    def test_inverse_square_shape(self):
        # k/r transfer of a unit beam follows 1/sin^4(theta/2)
        k, E = 1.0, 1.0
        dfl = DeflectionFunction(RepulsivePower(k, 1.0), E)
        grid = np.linspace(0.3, 2.8, 25)
        rho = transfer_density(lambda s: 1.0, dfl, grid)
        ref = (k / (4.0 * E)) ** 2 / np.sin(grid / 2.0) ** 4
        assert np.allclose(rho, ref, rtol=1e-5)

    def test_mass_preserved_through_transfer(self):
        R = 1.0
        dfl = DeflectionFunction(HardSphere(R), 1.0)
        disk = 1.0 / (math.pi * R * R)
        rho_a = lambda s: disk if 0.0 < s <= R else 0.0
        s = np.linspace(0.0, R, 4096)[1:]
        m_in = 2.0 * math.pi * float(np.trapezoid([rho_a(v) * v for v in s], s))
        grid = np.linspace(1e-3, math.pi - 1e-3, 2001)
        rho_b = transfer_density(rho_a, dfl, grid)
        m_out = solid_angle_mass(rho_b, grid)
        assert m_in == pytest.approx(1.0, rel=1e-6)
        assert m_out == pytest.approx(m_in, rel=1e-3)


def brentq_inverse(dfl, theta):
    """Scalar reference inverse: brentq on the forward map."""
    scale = closest_approach(dfl.potential, dfl.energy, [0.0])[0]
    hi = scale
    while dfl(hi) >= theta:
        hi *= 2.0
    return brentq(lambda s: dfl(s) - theta, 1e-9 * scale, hi, xtol=1e-300,
                  rtol=1e-13)


class TestArrayKernel:
    SMOOTH = [RepulsivePower(1.0, 1.0), RepulsivePower(0.8, 2.5),
              ScreenedCoulomb(1.0, 2.0)]

    @pytest.mark.parametrize("pot", SMOOTH, ids=repr)
    def test_inverse_matches_scalar_brentq(self, pot):
        dfl = DeflectionFunction(pot, 1.3)
        grid = np.linspace(0.1, 3.0, 200)
        ref = np.array([brentq_inverse(dfl, float(t)) for t in grid])
        assert np.allclose(dfl.inverse(grid), ref, rtol=1e-9, atol=0.0)

    def test_hard_sphere_inverse_is_closed_form(self):
        dfl = DeflectionFunction(HardSphere(1.0), 1.0)
        grid = np.linspace(1e-3, math.pi - 1e-3, 200)
        assert np.allclose(dfl.inverse(grid), np.cos(grid / 2.0), rtol=1e-12,
                           atol=0.0)

    @pytest.mark.parametrize("pot", [HardSphere(1.3)] + SMOOTH, ids=repr)
    def test_grid_point_alone_is_bitwise_equal(self, pot):
        dfl = DeflectionFunction(pot, 1.0)
        grid = np.linspace(0.2, 3.0, 57)
        beam = lambda s: 1.0 / (1.0 + s * s)
        full = transfer_density(beam, dfl, grid)
        for i in range(0, len(grid), 8):
            alone = transfer_density(beam, dfl, grid[i:i + 1])
            assert alone[0] == full[i]
            assert dfl.inverse(float(grid[i])) == dfl.inverse(grid)[i]

    def test_scalars_in_scalars_out(self):
        pot = ScreenedCoulomb(1.0, 2.0)
        dfl = DeflectionFunction(pot, 1.0)
        for value in (dfl(0.5), dfl.inverse(1.0),
                      *dfl._inverse_and_slope(1.0),
                      DeflectionFunction(HardSphere(1.0), 1.0)(0.5)):
            assert type(value) is float
        s = np.array([[0.2, 0.5], [1.0, 2.0]])
        assert dfl(s).shape == s.shape
        assert dfl.inverse(dfl(s)) == pytest.approx(s, rel=1e-8)
        assert np.array_equal(closest_approach(pot, 1.0, s.ravel()),
                              [closest_approach(pot, 1.0, [v])[0]
                               for v in s.ravel()])

    @pytest.mark.parametrize("bad", [0.0, math.pi, -0.5, 4.0, math.nan])
    def test_angle_outside_open_interval_raises(self, bad):
        dfl = DeflectionFunction(RepulsivePower(1.0, 1.0), 1.0)
        grid = np.array([0.5, bad, 1.5])
        with pytest.raises(ValueError):
            dfl.inverse(grid)
        with pytest.raises(ValueError):
            transfer_density(lambda s: 1.0, dfl, grid)

    def test_backscatter_limit_raises(self):
        # theta(1e-9 * r_min) = pi - 4e-9 for k = E = 1
        dfl = DeflectionFunction(RepulsivePower(1.0, 1.0), 1.0)
        grid = np.array([0.5, math.pi - 1e-12, 1.5])
        with pytest.raises(IntegrationError, match="backscatter"):
            dfl.inverse(grid)
        with pytest.raises(IntegrationError, match="backscatter"):
            transfer_density(lambda s: 1.0, dfl, grid)


def reference_placement(n_centers, action_range, seed):
    """The placement loop of random_scene before its cell grid: each
    candidate against every kept center, one ``rng.random(3)`` per try.
    Returns the centers and the number of tries."""
    d_min = scattering._MIN_SPACING * action_range
    L = (n_centers * d_min ** 3 / scattering._PACKING) ** (1.0 / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    placed = np.empty((0, 3))
    tries = 0
    while len(placed) < n_centers:
        tries += 1
        cand = rng.random(3) * L
        if len(placed):
            d = (placed - cand + L / 2.0) % L - L / 2.0
            if np.min((d ** 2).sum(-1)) < d_min ** 2:
                continue
        placed = np.vstack([placed, cand])
    return placed, tries


class TestFlipperScene:
    # 1 and 8 centers give a grid of 1 and 2 cells a side, where every
    # cell is a neighbour; 27 and up give 3 or more. The reference takes
    # 0.06 s a scene at 216 centers and 0.17 s at 400 on a 2-core box, so
    # those sizes run fewer seeds.
    @pytest.mark.parametrize("n_centers,seeds", [
        (1, 20), (8, 20), (27, 20), (64, 20), (216, 8), (400, 3)])
    def test_grid_placement_matches_reference(self, n_centers, seeds):
        for action_range in (0.05, 0.0123, 1.7):
            for seed in range(seeds):
                want, _ = reference_placement(n_centers, action_range, seed)
                got = random_scene(n_centers, action_range, 1.0,
                                   seed=seed).centers
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64),
                                      want.view(np.int64)), (action_range,
                                                             seed)

    def test_try_limit_counts_every_candidate(self, monkeypatch):
        # the cap is per center: a rate of tries / 216 allows exactly tries
        want, tries = reference_placement(216, 0.05, 3)
        monkeypatch.setattr(scattering, "_TRIES_PER_CENTER",
                            Fraction(tries, 216))
        assert np.array_equal(random_scene(216, 0.05, 1.0, seed=3).centers,
                              want)
        monkeypatch.setattr(scattering, "_TRIES_PER_CENTER",
                            Fraction(tries - 1, 216))
        with pytest.raises(IntegrationError,
                           match=f"did not converge in {tries - 1} "
                                 f"candidates; change scene_seed"):
            random_scene(216, 0.05, 1.0, seed=3)

    def test_large_scene_places(self):
        # 9,000 centers need 105,135 candidates, past the fixed cap of
        # 100,000 that once refused every scene from about 8,500 centers on
        scene = random_scene(9000, 0.05, 1.0, seed=3)
        assert scene.centers.shape == (9000, 3)

    @pytest.mark.parametrize("n_centers,action_range", [
        (8, 0.0), (8, -0.05), (8, 1e-300), (0, 0.05)])
    def test_no_cell_refused(self, n_centers, action_range):
        # a negative range made a complex cell size and a TypeError, and a
        # cube that underflows to 0 a cell of size 0
        with pytest.raises(ValueError, match="must be positive"):
            random_scene(n_centers, action_range, 1.0)

    def test_spacing_respected(self):
        scene = random_scene(27, 0.05, 1.0, seed=5)
        c = scene.centers
        L = scene.cell_size
        # minimum periodic image distance across all pairs
        best = math.inf
        for i in range(len(c)):
            d = c[i + 1:] - c[i]
            d -= L * np.round(d / L)
            if len(d):
                best = min(best, float(np.sqrt((d ** 2).sum(-1)).min()))
        assert best >= 10.0 * 0.05 - 1e-12

    def test_reproducible_placement(self):
        a = random_scene(27, 0.05, 1.0, seed=5)
        b = random_scene(27, 0.05, 1.0, seed=5)
        assert np.array_equal(a.centers, b.centers)

    def test_nan_sizes_refused(self):
        # a NaN slipped past "<= 0" guards and the tracer never stopped
        nan = float("nan")
        with pytest.raises(ValueError):
            random_scene(8, nan, 1.0)
        for pot in (lambda: HardSphere(nan), lambda: RepulsivePower(nan),
                    lambda: ScreenedCoulomb(1.0, nan)):
            with pytest.raises(ValueError):
                pot()
        with pytest.raises(ValueError):
            random_scene(8, 0.05, nan)

    @pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 4), (1, 1, 3)])
    def test_wrong_centers_shape_refused(self, shape):
        with pytest.raises(ValueError, match=r"\(N, 3\)"):
            FlipperScene(4.0, np.full(shape, 1.0), 1.0, 0.05)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_bad_cell_size_or_range_refused(self, bad):
        centers = [[1.0, 1.0, 1.0]]
        with pytest.raises(ValueError, match="positive and finite"):
            FlipperScene(bad, centers, 1.0, 0.05)
        with pytest.raises(ValueError, match="positive and finite"):
            FlipperScene(4.0, centers, 1.0, bad)

    @pytest.mark.parametrize("outside", [
        [-1e-300, 1.0, 1.0], [1.0, 4.0, 1.0], [1.0, 1.0, 1e300],
        [math.nan, 1.0, 1.0], [1.0, math.inf, 1.0]])
    def test_center_outside_cell_refused(self, outside):
        # a NaN center passed "< 0 or >= cell_size" and no ray met it
        with pytest.raises(ValueError, match="inside"):
            FlipperScene(4.0, [outside, [2.0, 2.0, 2.0]], 1.0, 0.05)

    @pytest.mark.parametrize("second", [
        [0.4, 0.1, 0.1], [3.9, 0.1, 0.1], [3.9, 3.9, 3.9]],
        ids=["direct", "across-face", "across-corner"])
    def test_spacing_violation_refused(self, second):
        # 0.5 apart is required; each second center is nearer to the first
        # in the min-image metric of a cell of 4
        with pytest.raises(ValueError, match="spacing"):
            FlipperScene(4.0, [[0.1, 0.1, 0.1], second], 1.0, 0.05)

    @pytest.mark.parametrize("action_range", [1e-300, 1e160])
    def test_spacing_squared_out_of_float_range_refused(self, action_range):
        # (10 * 1e-300)^2 underflows to 0, and no pair would be nearer
        with pytest.raises(ValueError, match="positive and finite"):
            FlipperScene(4.0, [[1.0, 1.0, 1.0]], 1.0, action_range)

    def test_cell_of_1e310_spacings_checked(self):
        # L / d overflows to inf; the grid stops at 2^20 cells a side
        FlipperScene(1e300, [[0.0, 0.0, 0.0], [1e299, 0.0, 0.0]], 1.0, 1e-11)
        with pytest.raises(ValueError, match="spacing"):
            FlipperScene(1e300, [[0.0, 0.0, 0.0], [0.0, 1e-11, 0.0]],
                         1.0, 1e-11)

    @pytest.mark.parametrize("seed", range(40))
    def test_spacing_check_matches_every_pair(self, seed):
        # random centers and a spacing near their least min-image distance,
        # on grids of 3 to 37 cells a side: the scene is refused exactly
        # when one pair, compared as p_i - p_j for i < j, is too near
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        L = float(rng.uniform(0.5, 5.0))
        c = (rng.random((n, 3)) * L).tolist()
        pairs = [sum(((a - b + L / 2) % L - L / 2) ** 2 for a, b in zip(p, q))
                 for j, q in enumerate(c) for p in c[:j]]
        action_range = math.sqrt(min(pairs)) / scattering._MIN_SPACING
        action_range *= (1.0, 1.0 - 1e-15, 1.0 + 1e-15, 0.5)[seed % 4]
        d2 = (scattering._MIN_SPACING * action_range) ** 2
        if min(pairs) < d2:
            with pytest.raises(ValueError, match="spacing"):
                FlipperScene(L, c, 1.0, action_range)
        else:
            FlipperScene(L, c, 1.0, action_range)

    @staticmethod
    def _lattice(scale):
        # 16^3 centers spaced exactly _MIN_SPACING * 0.05 = 0.5 apart
        s = scattering._MIN_SPACING * 0.05
        assert s == 0.5
        centers = np.indices((16, 16, 16)).reshape(3, -1).T * s
        return 16 * s * scale, centers * scale

    def test_lattice_at_the_spacing_accepted(self):
        import tracemalloc
        L, centers = self._lattice(1.0)
        tracemalloc.start()
        try:
            scene = FlipperScene(L, centers, 1.0, 0.05)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(scene.centers) == 4096
        # an n x n min-image array would need 403 MB per temporary
        assert peak < 16 * 2 ** 20

    def test_lattice_below_the_spacing_refused(self):
        L, centers = self._lattice(1.0 - 1e-12)
        with pytest.raises(ValueError, match="spacing"):
            FlipperScene(L, centers, 1.0, 0.05)

    def test_grid_margin_covers_a_cell_boundary(self):
        # L / d is just above 26. Cells exactly d wide (g = 26) put the
        # first point at x / (L / g) = 3.999..., cell 3, and the second at
        # 5.0, cell 5, so the pair would never be compared; the cells at
        # least d (1 + 1e-9) wide (g = 25) make them neighbours
        L, d = 16.33266435968526, 0.628179398449433
        points = [(2.5127175937977317, 0.5, 0.5),
                  (3.140896992247165, 0.5, 0.5)]
        assert int(L / d) == 26
        FlipperScene(L, points[:1], 1.0, d / 10)
        with pytest.raises(ValueError, match="spacing"):
            FlipperScene(L, points, 1.0, d / 10)

    @staticmethod
    def _reference_images(centers, L, r0):
        """The image loop FlipperScene ran before its broadcast: every
        nonzero shift in meshgrid order, each keeping its centers in
        order."""
        images, originals = [centers], [np.arange(len(centers))]
        shifts = np.array(np.meshgrid(*([[-L, 0.0, L]] * 3))).T.reshape(-1, 3)
        for sh in shifts:
            if np.any(sh):
                keep = np.all((centers + sh > -r0) & (centers + sh < L + r0),
                              axis=1)
                images.append((centers + sh)[keep])
                originals.append(np.flatnonzero(keep))
        return np.concatenate(images), np.concatenate(originals)

    @pytest.mark.parametrize("n_centers,action_range,seed", [
        (1, 0.05, 0), (8, 0.05, 7), (27, 0.3, 5), (216, 0.05, 3)])
    def test_images_match_the_reference_loop(self, n_centers, action_range,
                                             seed):
        scene = random_scene(n_centers, action_range, 1.0, seed=seed)
        ext, index = self._reference_images(
            scene.centers, scene.cell_size, action_range * (1.0 + 1e-9))
        assert np.array_equal(scene.centers_ext.view(np.int64),
                              ext.view(np.int64))
        assert np.array_equal(scene.center_index, index)
        assert scene.center_index.dtype == np.intp


def _brute_r2(c, x, L):
    """Min-image squared distance of c - x, one component at a time."""
    d = [(a - b + L / 2.0) % L - L / 2.0 for a, b in zip(c, x)]
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2]


def _brute_entry(scene, rng):
    """One entry row drawn from ``rng`` and drawn again while its start lies
    within action_range of any center, each center tested alone."""
    L, r0sq = scene.cell_size, scene.action_range ** 2
    while True:
        pos = rng.random((1, 3)) * L
        vec = rng.normal(size=(1, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        if not any(_brute_r2(c, pos[0].tolist(), L) <= r0sq
                   for c in scene.centers.tolist()):
            return np.concatenate([pos, vec], axis=1)[0]


class _FirstStart(np.random.Generator):
    """A generator whose first ``random`` fill is ``u``, the start over the
    cell size; every later draw is its own."""

    def __init__(self, u, seed):
        super().__init__(np.random.PCG64(seed))
        self.u = u

    def random(self, size=None, dtype=np.float64, out=None):
        r = super().random(size, dtype, out)
        if self.u is not None:
            r[...], self.u = self.u, None
        return r


class TestNeighbourPairs:
    """The spacing and entry checks of the cell-list pair pass against
    every pair tested alone."""

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("cells", [1, 2])
    def test_spacing_on_grids_of_one_and_two_cells(self, cells, seed):
        # 2 to 5 centers with a spacing near their least min-image
        # distance, drawn until that spacing puts 1 or 2 cells on a side,
        # where every cell is a neighbour of every other
        rng = np.random.default_rng(seed)
        L = 3.0
        while True:
            c = (rng.random((int(rng.integers(2, 6)), 3)) * L).tolist()
            least = min(_brute_r2(p, q, L) for j, q in enumerate(c)
                        for p in c[:j])
            r0 = math.sqrt(least) / scattering._MIN_SPACING
            r0 *= (1.0, 1.0 - 1e-15, 1.0 + 1e-15)[seed % 3]
            d = scattering._MIN_SPACING * r0
            if int(L / (d * (1.0 + 1e-9))) == cells:
                break
        if least < d ** 2:
            with pytest.raises(ValueError, match="spacing"):
                FlipperScene(L, c, 1.0, r0)
        else:
            FlipperScene(L, c, 1.0, r0)

    @pytest.mark.parametrize("centers,r0,cells", [
        ([[1.0, 2.0, 3.0]], 1.5, 1),
        ((np.indices((2, 2, 2)).reshape(3, -1).T * 2.0 + 0.5).tolist(),
         0.19, 2)], ids=["1-cell", "2-cells"])
    def test_entry_on_grids_of_one_and_two_cells(self, centers, r0, cells):
        scene = FlipperScene(4.0, centers, 1.0, r0)
        assert max(1, int(4.0 / (10.0 * r0 * (1.0 + 1e-9)))) == cells
        sampler = entry_measure(scene).sampler
        block = sampler([trajectory_stream(5, i) for i in range(1500)], 1)
        want = np.array([_brute_entry(scene, trajectory_stream(5, i))
                         for i in range(1500)])
        assert np.array_equal(block.view(np.uint64), want.view(np.uint64))
        first = np.concatenate([trajectory_stream(5, i).random((1, 3))
                                for i in range(1500)]) * 4.0
        assert np.any(block[:, :3] != first)

    # a cell of 4 and r0 = 0.25 or 0.375: each start sits exactly r0 from a
    # center's image across a face, or across a corner along (1, 2, 2) / 3,
    # every difference and square exact
    @pytest.mark.parametrize("center,start,r0", [
        ([0.125, 1.0, 1.0], [3.875, 1.0, 1.0], 0.25),
        ([0.0625, 0.125, 0.125], [3.9375, 3.875, 3.875], 0.375)],
        ids=["across-face", "across-corner"])
    def test_entry_at_the_sphere_boundary(self, center, start, r0):
        L = 4.0
        scene = FlipperScene(L, [center], 1.0, r0)
        sampler = entry_measure(scene).sampler
        assert _brute_r2(center, start, L) == r0 ** 2
        # one ulp farther from the image along x
        out = [math.nextafter(start[0], 0.0)] + start[1:]
        assert _brute_r2(center, out, L) > r0 ** 2
        for x, inside in ((start, True), (out, False)):
            row = sampler([_FirstStart(np.array([x]) / L, 3)], 1)[0]
            kept = np.array_equal(row[:3], x)
            assert kept != inside
            want = _brute_entry(scene, _FirstStart(np.array([x]) / L, 3))
            assert np.array_equal(row, want)

    def test_no_centers_keep_every_first_draw(self):
        scene = FlipperScene(4.0, np.empty((0, 3)), 1.0, 0.05)
        streams = [trajectory_stream(2, i) for i in range(100)]
        block = entry_measure(scene).sampler(streams, 2)
        want = []
        for i in range(100):
            rng = trajectory_stream(2, i)
            pos, vec = rng.random((2, 3)) * 4.0, rng.normal(size=(2, 3))
            vec /= np.linalg.norm(vec, axis=1, keepdims=True)
            want.append(np.hstack([pos, vec]))
        assert np.array_equal(block, np.concatenate(want))

    def test_spacing_and_entry_memory(self):
        import tracemalloc
        scene = random_scene(16384, 0.05, 1.0, seed=3)
        streams = [trajectory_stream(1, i) for i in range(256)]
        tracemalloc.start()
        try:
            FlipperScene(scene.cell_size, scene.centers, 1.0, 0.05)
            _, check = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            entry_measure(scene).sampler(streams, 1)
            _, entry = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a (rows, N, 3) min-image array would need 101 MB for the entry
        # block and 6.4 GB for the spacing check
        assert check < 16 * 2 ** 20
        assert entry < 16 * 2 ** 20

    @pytest.mark.parametrize("gap", [1.0, 1.0 - 1e-6], ids=["at", "below"])
    def test_one_crowded_cell_checked_in_bounded_memory(self, gap):
        # a cell 2^24 spacings wide has cells 16 spacings wide, so a 10^3
        # lattice at the spacing sits in one cell and its 10^6 pairs are
        # all compared; at 2048 points a chunk they would take ~100 MB
        import tracemalloc
        centers = np.indices((10, 10, 10)).reshape(3, -1).T * gap
        tracemalloc.start()
        try:
            if gap < 1.0:
                with pytest.raises(ValueError, match="spacing"):
                    FlipperScene(2.0 ** 24, centers, 1.0, 0.1)
            else:
                FlipperScene(2.0 ** 24, centers, 1.0, 0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestTraceFlipper:
    def _scene(self):
        return random_scene(64, 0.05, 1.0, seed=2)

    def test_encounter_invariants(self):
        scene = self._scene()
        rng = stream(21)
        pos = rng.random(3) * scene.cell_size
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        tr = trace_flipper(scene, pos, u, 12)
        assert len(tr.encounters) == 12
        lengths = [e.path_length for e in tr.encounters]
        assert all(b > a for a, b in zip(lengths, lengths[1:]))
        for e in tr.encounters:
            assert 0.0 <= e.impact_parameter < scene.action_range
            assert -math.pi < e.theta_signed <= math.pi
            assert abs(e.theta_signed) == pytest.approx(e.theta, abs=1e-12)

    def test_axis_aligned_direction_stays_finite(self):
        # directions with zero components must not poison the wall search
        scene = self._scene()
        for u in ([1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0],
                  [0.6, 0.8, 0.0]):
            tr = trace_flipper(scene, np.array([0.1, 0.2, 0.3]),
                               np.asarray(u), 8)
            assert np.isfinite(tr.vertices).all()
            assert np.all((tr.vertices >= 0.0)
                          & (tr.vertices <= scene.cell_size))

    def test_record_path_off_keeps_statistics(self):
        scene = self._scene()
        pos = np.array([0.15, 0.45, 0.8])
        u = np.array([0.6, 0.64, 0.48])
        u /= np.linalg.norm(u)
        a = trace_flipper(scene, pos, u, 10, record_path=True)
        b = trace_flipper(scene, pos, u, 10, record_path=False)
        for ea, eb in zip(a.encounters, b.encounters):
            assert ea.center_index == eb.center_index
            assert ea.theta_signed == eb.theta_signed
            assert ea.path_length == eb.path_length

    def test_max_path_length_stops_early(self):
        scene = self._scene()
        tr = trace_flipper(scene, np.array([0.1, 0.2, 0.3]),
                           np.array([1.0, 0.0, 0.0]), 50,
                           max_path_length=scene.cell_size)
        assert len(tr.encounters) < 50

    def test_empty_scene_flies_free(self):
        # a cell with no center: every cull array has zero columns
        scene = FlipperScene(4.0, np.empty((0, 3)), 1.0, 0.05)
        tr = trace_flipper(scene, [0.1, 0.2, 0.3], [1.0, 2.0, 3.0], 2,
                           max_path_length=30.0)
        assert not tr.encounters
        assert len(tr.vertices) > 2
        assert np.all((tr.vertices >= 0.0) & (tr.vertices < 4.0))

    # one sphere of radius 0.1 at the middle of a cell of 4; each ray
    # starts 1 before it along its axis, offset by (x, y, z)
    @pytest.mark.parametrize("u,offset,positive", [
        ((1.0, 0.0, 0.0), (0.0, 0.0, 0.05), True),
        ((1.0, 0.0, 0.0), (0.0, 0.0, -0.05), False),
        ((-1.0, 0.0, 0.0), (0.0, 0.0, 0.05), True),
        ((-1.0, 0.0, 0.0), (0.0, 0.0, -0.05), False),
        ((0.0, 0.0, 1.0), (0.05, 0.0, 0.0), True),
        ((0.0, 0.0, 1.0), (-0.05, 0.0, 0.0), False),
        ((0.0, 0.0, -1.0), (0.05, 0.0, 0.0), True),
        ((0.0, 0.0, -1.0), (-0.05, 0.0, 0.0), False),
        ((1.0, 0.0, 0.0), (0.0, 0.0, 0.0), True),
        ((0.0, -1.0, 0.0), (0.0, 0.0, 0.0), True),
        ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), True),
        ((0.0, 0.0, -1.0), (0.0, 0.0, 0.0), True)],
        ids=["x+z", "x-z", "-x+z", "-x-z", "z+x", "z-x", "-z+x", "-z-x",
             "x-head-on", "-y-head-on", "z-head-on", "-z-head-on"])
    def test_signed_angle_rule(self, u, offset, positive):
        # the sign is that of the impact direction's z component, or of
        # its x component for a ray along z; a head-on hit counts +theta
        center = np.array([2.0, 2.0, 2.0])
        scene = FlipperScene(4.0, [center], 1.0, 0.1)
        u = np.array(u)
        tr = trace_flipper(scene, center - u + offset, u, 1,
                           max_path_length=2.0)
        (enc,) = tr.encounters
        s = math.hypot(*offset)
        assert enc.impact_parameter == pytest.approx(s, abs=1e-15)
        assert enc.theta == 2.0 * math.acos(enc.impact_parameter / 0.1)
        assert enc.theta_signed == (enc.theta if positive else -enc.theta)
        if not s:
            assert enc.theta_signed == math.pi

    @staticmethod
    def _free_channel(scene):
        """A start whose ray along +x passes every sphere at more than
        2 r0: a ray that flies forever without an encounter."""
        L, r0 = scene.cell_size, scene.action_range
        for y in np.linspace(0.0, L, 40, endpoint=False):
            for z in np.linspace(0.0, L, 40, endpoint=False):
                d = (scene.centers[:, 1:] - [y, z] + L / 2.0) % L - L / 2.0
                if (d * d).sum(axis=1).min() > 4.0 * r0 * r0:
                    return np.array([0.0, y, z])
        raise AssertionError("no free channel")

    @pytest.mark.parametrize("position,direction,max_path_length,name", [
        (None, [0.0, 0.0, 0.0], None, "directions"),
        ([math.nan, 1.0, 1.0], [1.0, 0.0, 0.0], None, "positions"),
        (None, [1.0, math.inf, 0.0], None, "directions"),
        (None, [1.0, 0.0, 0.0], math.nan, "max_path_length"),
        (None, [1.0, 0.0, 0.0], math.inf, "max_path_length")],
        ids=["zero-direction", "nan-position", "inf-direction",
             "nan-budget", "inf-budget"])
    def test_ray_without_an_end_refused(self, position, direction,
                                        max_path_length, name):
        # each of these traced forever on a 27-center scene
        scene = random_scene(27, 0.05, 1.0, seed=5)
        start = self._free_channel(scene)
        tr = trace_flipper(scene, start, [1.0, 0.0, 0.0], 1,
                           max_path_length=1e3 * scene.cell_size)
        assert not tr.encounters
        if position is not None:
            start = np.array(position)
        with pytest.raises(ValueError, match=f"^{name} must"):
            trace_flipper(scene, start, np.array(direction), 1,
                          max_path_length=max_path_length)

    # its largest component is a power of two
    U_POW2 = np.array([0.2718281828, 0.5, -0.3141592654])

    @pytest.mark.parametrize("direction,reference", [
        (2.0 ** 600 * U_POW2, U_POW2),
        (2.0 ** -530 * U_POW2, U_POW2),
        # u.u = 5e-320 is subnormal: its bare norm was 1.0000056 too long
        ([1e-160, 2e-160, 0.0], [0.5, 1.0, 0.0])],
        ids=["overflowing", "subnormal", "subnormal-norm"])
    def test_direction_scale_is_free(self, direction, reference):
        """Each direction is its reference times a factor exact in every
        component, with u.u overflowing or subnormal; it traces bitwise the
        reference's encounters, and numpy warns of nothing."""
        scene = random_scene(27, 0.05, 1.0, seed=5)
        # aimed about 0.01 off a center, so the ray meets it
        start = scene.centers[0] - 0.2 * np.array(reference) + [0, 0, 0.01]
        ref = trace_flipper(scene, start, reference, 8)
        assert ref.encounters[0].center_index == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = trace_flipper(scene, start, direction, 8)
        assert tr.encounters == ref.encounters
        assert np.array_equal(tr.vertices, ref.vertices)


def _gate_scene():
    # criterion 06's scene: 216 centers, 21 periodic images in centers_ext
    return random_scene(216, 0.05, 1.0, seed=3)


def _brute_first_encounter(scene, p, u, max_len):
    """First sphere the unwrapped ray enters, over every periodic image.

    Returns (distance to closest approach, impact parameter, original
    center index), or None if no sphere is entered within ``max_len``.
    """
    L, r0 = scene.cell_size, scene.action_range
    K = int(math.ceil(max_len / L)) + 1
    ks = np.arange(-K, K + 1)
    shifts = L * np.array(np.meshgrid(ks, ks, ks)).reshape(3, -1).T
    images = (scene.centers[None, :, :] + shifts[:, None, :]).reshape(-1, 3)
    owner = np.tile(np.arange(len(scene.centers)), len(shifts))
    w = images - p
    t_ca = w @ u
    perp = w - t_ca[:, None] * u
    s2 = (perp * perp).sum(axis=1)
    t_enter = np.where(s2 < r0 * r0,
                       t_ca - np.sqrt(np.maximum(r0 * r0 - s2, 0.0)), np.inf)
    t_enter[t_enter <= 0.0] = np.inf
    i = int(np.argmin(t_enter))
    if t_enter[i] > max_len:
        return None
    return float(t_ca[i]), math.sqrt(float(s2[i])), int(owner[i])


def _min_image_distance(scene, x, j=slice(None)):
    """Min-image distance from point ``x`` to center(s) ``j`` (all by
    default)."""
    L = scene.cell_size
    d = (scene.centers[j] - x + L / 2.0) % L - L / 2.0
    return np.sqrt((d * d).sum(axis=-1))


def _d(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _reference_trace(scene, p, u, n_encounters, max_path_length):
    """One ray, one wall crossing at a time, every center tested exactly.

    The arithmetic of each wall-to-wall step and each encounter is that of
    the one-segment lockstep kernel, written for a single ray in float64
    with no float32 cull. Returns the path vertices and the encounters.
    """
    L, r0 = scene.cell_size, scene.action_range
    r0sq, push = r0 * r0, 1e-9 * L
    cx, cy, cz = scene.centers_ext.T
    P = np.asarray(p, dtype=float) % L
    U = np.array(u, dtype=float)
    U /= math.sqrt(_d(U, U))
    travelled, vertices, encounters = 0.0, [P], []
    while len(encounters) < n_encounters and travelled < max_path_length:
        to_wall = [(L - P[i] if U[i] > 0 else -P[i]) / U[i] if U[i] else
                   math.inf for i in range(3)]
        t_bound = min(to_wall)
        wx, wy, wz = cx - P[0], cy - P[1], cz - P[2]
        t_ca = wx * U[0] + wy * U[1] + wz * U[2]
        gap = r0sq - (wx * wx + wy * wy + wz * wz - t_ca * t_ca)
        t_enter = t_ca - np.sqrt(np.maximum(gap, 0.0))
        ok = np.flatnonzero((gap > 0) & (t_enter > push)
                            & (t_enter <= t_bound))
        if not ok.size:
            P = (P + (t_bound + push) * U) % L
            travelled += t_bound + push
            vertices.append(P)
            continue
        k = min(ok.tolist(), key=lambda j: (t_enter[j], j))
        x_ca = P + t_ca[k] * U
        at_encounter = travelled + t_ca[k]
        delta = x_ca - scene.centers_ext[k]
        beta = delta - _d(delta, U) * U
        s = math.sqrt(_d(beta, beta))
        head_on = s < 1e-12 * r0
        theta = (math.pi if head_on else
                 scene.deflection(min(s, r0 * (1 - 1e-15))))
        ux, uy, uz = U
        e1 = (np.array([0.0, -uz, uy]) if ux * ux + uy * uy < 1e-24
              else np.array([-uy, ux, 0.0]))
        e1 /= math.sqrt(_d(e1, e1))
        e2 = np.array([uy * e1[2] - uz * e1[1], uz * e1[0] - ux * e1[2],
                       ux * e1[1] - uy * e1[0]])
        n_hat = e1 if head_on else beta / s
        phi = math.atan2(_d(n_hat, e2), _d(n_hat, e1))
        U = math.cos(theta) * U + math.sin(theta) * n_hat
        U /= math.sqrt(_d(U, U))
        encounters.append(EncounterRecord(
            at_encounter, int(scene.center_index[k]), s, theta,
            theta if phi >= 0.0 else -theta))
        b = _d(delta, U)
        t_leave = -b + math.sqrt(max(b * b + r0sq - _d(delta, delta), 0.0))
        P = (x_ca + (t_leave + push) * U) % L
        travelled = at_encounter + (t_leave + push)
        vertices += [x_ca % L, P]
    return np.array(vertices), encounters


class TestLockstepKernel:
    def _rays(self, scene):
        """Rays aimed near centers: half along a coordinate axis, a quarter
        grazing their target sphere, where a coarse search would miss."""
        rng = np.random.default_rng(17)
        L, r0 = scene.cell_size, scene.action_range
        starts = entry_measure(scene).sampler([rng], 12)[:, :3]
        rays = []
        for i, p in enumerate(starts):
            c = scene.centers[rng.integers(len(scene.centers))]
            if i % 2:
                axis = i % 3
                u = np.zeros(3)
                u[axis] = 1.0 if i % 4 == 1 else -1.0
                # start one unit before the center, offset inside r0
                offset = rng.uniform(-0.6, 0.6, 3) * r0
                offset[axis] = 0.0
                p = (c - u + offset) % L
            elif i % 4 == 2:
                # the line passes (1 - 1e-7) r0 from the center
                a = (c - p) / np.linalg.norm(c - p)
                e = np.cross(a, rng.normal(size=3))
                e /= np.linalg.norm(e)
                sin = (1.0 - 1e-7) * r0 / np.linalg.norm(c - p)
                u = math.sqrt(1.0 - sin * sin) * a + sin * e
            else:
                u = c + rng.uniform(-0.5, 0.5, 3) * r0 - p
                u /= np.linalg.norm(u)
            rays.append((p, u))
        return rays

    def test_first_encounter_matches_brute_force(self):
        scene = _gate_scene()
        r0 = scene.action_range
        for p, u in self._rays(scene):
            assert _min_image_distance(scene, p).min() > r0
            oracle = _brute_first_encounter(scene, p, u, 3.0 * scene.cell_size)
            assert oracle is not None
            length, s, owner = oracle
            tr = trace_flipper(scene, p, u, 1, record_path=False)
            enc = tr.encounters[0]
            assert abs(enc.path_length - length) < 1e-12
            assert abs(enc.impact_parameter - s) < 1e-12
            assert enc.center_index == owner
            assert enc.theta == 2.0 * math.acos(enc.impact_parameter / r0)

    def test_lookahead_equals_one_crossing_at_a_time(self):
        scene = _gate_scene()
        L, r0 = scene.cell_size, scene.action_range
        n = len(scene.centers)
        rng = np.random.default_rng(23)
        # path budgets of about 16 and 160 wall crossings: the short ones
        # run out inside a lookahead window
        rays = [(p[:3], p[3:], 6, 40.0 if i % 2 else 400.0)
                for i, p in enumerate(entry_measure(scene).sampler([rng], 8))]
        rays += [(p, u, 4, 100.0) for p, u in self._rays(scene)[:4]]
        # from the far corner, past the nearest images at (1 - 1e-7) r0:
        # |p| and |c| are largest there, the worst case of the float32 cull
        p = np.full(3, L * (1.0 - 1e-12))
        grazed = []
        for j in np.argsort(np.linalg.norm(scene.centers_ext[n:] - p,
                                           axis=1))[:4]:
            c = scene.centers_ext[n + j]
            a = (c - p) / np.linalg.norm(c - p)
            e = np.cross(a, rng.normal(size=3))
            e /= np.linalg.norm(e)
            sin = (1.0 - 1e-7) * r0 / np.linalg.norm(c - p)
            rays.append((p, math.sqrt(1.0 - sin * sin) * a + sin * e, 3,
                         200.0))
            grazed.append(scene.center_index[n + j])
        assert _min_image_distance(scene, p).min() > r0

        short = 0
        for i, (p, u, k, budget) in enumerate(rays):
            vertices, encounters = _reference_trace(scene, p, u, k, budget)
            tr = trace_flipper(scene, p, u, k, max_path_length=budget)
            assert np.array_equal(tr.vertices, vertices)
            assert tr.encounters == encounters
            short += len(encounters) < k
            if i >= 12:
                first = encounters[0]
                assert first.center_index == grazed[i - 12]
                assert first.impact_parameter == pytest.approx(
                    (1.0 - 1e-7) * r0, rel=1e-12)
        assert short >= 2

        # the same rays in one batch, with a shallower lookahead
        count, fields, log = _trace_batch(
            scene, np.array([r[0] for r in rays]),
            np.array([r[1] for r in rays]), 6, 100.0, True)
        for i, (p, u, _, _) in enumerate(rays):
            vertices, encounters = _reference_trace(scene, p, u, 6, 100.0)
            assert np.array_equal(
                np.concatenate([q[rows == i] for rows, q in log]), vertices)
            assert [EncounterRecord(*e) for e in zip(
                *(f[i, :count[i]].tolist() for f in fields))] == encounters

    def test_batch_rows_equal_rays_traced_alone(self):
        scene = _gate_scene()
        points = entry_measure(scene).sampler([stream(4)], 64)
        count, fields, log = _trace_batch(scene, points[:, :3], points[:, 3:],
                                          20, None, False)
        assert len(count) == 64
        for i, point in enumerate(points):
            vertices = np.concatenate([p[rows == i] for rows, p in log])
            encounters = [EncounterRecord(*e) for e in zip(
                *(f[i, :count[i]].tolist() for f in fields))]
            alone = trace_flipper(scene, point[:3], point[3:], 20,
                                  record_path=False)
            assert np.array_equal(vertices, alone.vertices)
            assert encounters == alone.encounters

    def test_widest_step_after_the_first(self):
        # in the gate scene 36 live rays look 10 crossings ahead (360 rows
        # of the cull) and 35 look 12 (420 rows), below the cap of 13. One
        # ray meets its sphere within 10 crossings and leaves after the
        # first step; the other 35 need 10 to 21, so the second step is
        # the widest and still holds their hits
        scene = _gate_scene()
        points = entry_measure(scene).sampler([stream(4)], 200)
        alone = [trace_flipper(scene, p[:3], p[3:], 1) for p in points]
        # the vertices are the start, the wall crossings, the closest
        # approach and the exit from the sphere
        crossings = [len(tr.vertices) - 3 if tr.encounters else -1
                     for tr in alone]
        quick = [i for i, n in enumerate(crossings) if 0 <= n < 10]
        slow = [i for i, n in enumerate(crossings) if 10 <= n < 22]
        pick = quick[:1] + slow[:35]
        assert len(pick) == 36
        count, fields, log = _trace_batch(scene, points[pick, :3],
                                          points[pick, 3:], 1, None, True)
        for i, j in enumerate(pick):
            vertices = np.concatenate([p[rows == i] for rows, p in log])
            encounters = [EncounterRecord(*e) for e in zip(
                *(f[i, :count[i]].tolist() for f in fields))]
            assert np.array_equal(vertices, alone[j].vertices)
            assert encounters == alone[j].encounters

    def test_axis_aligned_batch_stays_finite(self):
        scene = random_scene(64, 0.05, 1.0, seed=2)
        dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        starts = stream(5).random((6, 3)) * scene.cell_size
        count, fields, log = _trace_batch(scene, starts, dirs, 8, None, True)
        vertices = np.concatenate([p for _, p in log])
        assert np.isfinite(vertices).all()
        assert np.all((vertices >= 0.0) & (vertices <= scene.cell_size))
        length, _, s, theta, signed = fields
        for i, m in enumerate(count):
            assert np.isfinite([length[i, :m], s[i, :m], theta[i, :m],
                                signed[i, :m]]).all()

    def test_image_hit_names_its_original_center(self):
        scene = _gate_scene()
        L, r0 = scene.cell_size, scene.action_range
        n = len(scene.centers)
        images = scene.centers_ext[n:]
        # an image that pokes through exactly one face, by less than r0 / 2
        outside = (images < 0.0) | (images >= L)
        depth = np.where(images < 0.0, -images, images - L)
        pick = [i for i in range(len(images)) if outside[i].sum() == 1
                and depth[i][outside[i]][0] < 0.5 * r0]
        assert pick
        img = images[pick[0]]
        axis = int(np.flatnonzero(outside[pick[0]])[0])
        # fly at the image from inside the cell, along the face normal
        u = np.zeros(3)
        u[axis] = -1.0 if img[axis] < 0.0 else 1.0
        p = img - 0.3 * u
        p[(axis + 1) % 3] += 0.1 * r0
        tr = trace_flipper(scene, p, u, 1, record_path=False)
        enc = tr.encounters[0]
        expected = int(np.argmin(_min_image_distance(scene, img)))
        assert enc.center_index == expected
        assert enc.path_length == pytest.approx(0.3, abs=1e-12)
        assert _min_image_distance(scene, tr.vertices[1],
                                   enc.center_index) <= r0


class TestAngleBins:
    def test_edges_partition(self):
        e = bin_edges(8)
        assert e[0] == -math.pi and e[-1] == math.pi
        assert len(e) == 9

    def test_classification(self):
        th = [-math.pi + 1e-9, -1e-9, 1e-9, math.pi]
        assert angle_bins(th, 4).tolist() == [0, 1, 2, 3]


class TestFlipperPipeline:
    def test_cross_sections_scale_rates(self):
        scene = random_scene(27, 0.05, 1.0, seed=1)
        res = flipper_cross_section(scene, n_outcomes=2, n_traj=20, seed=3,
                                    n_encounters=5)
        assert np.array_equal(res.cross_sections,
                              res.stats.mean * math.pi * 0.05 ** 2)

    def test_entry_measure_samples(self):
        scene = random_scene(27, 0.05, 1.0, seed=1)
        pts = entry_measure(scene).sampler([stream(2)], 40)
        assert pts.shape == (40, 6)
        assert np.all((pts[:, :3] >= 0) & (pts[:, :3] < scene.cell_size))
        norms = np.sqrt((pts[:, 3:] ** 2).sum(-1))
        assert np.allclose(norms, 1.0, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("make_scene", [
        _gate_scene, lambda: random_scene(16, 0.3, 1.0, seed=1)],
        ids=["gate", "16-centers"])
    def test_block_equals_streams_drawn_alone(self, n, make_scene):
        # the block is checked against the centers a chunk at a time and
        # only streams with a start inside a sphere draw again; 2,400 rows
        # put several starts inside the 2.1e-3 of the cell the spheres fill
        scene = make_scene()
        L = scene.cell_size
        sampler = entry_measure(scene).sampler
        streams = [trajectory_stream(9, i) for i in range(2400 // n)]
        block = sampler(streams, n)
        alone = np.concatenate([sampler([trajectory_stream(9, i)], n)
                                for i in range(len(streams))])
        assert block.shape == (2400, 6)
        assert np.array_equal(block.view(np.uint64), alone.view(np.uint64))
        first = np.concatenate([trajectory_stream(9, i).random((n, 3)) * L
                                for i in range(len(streams))])
        assert np.any(block[:, :3] != first)

    def test_entry_points_lie_outside_action_spheres(self):
        scene = _gate_scene()
        L, r0 = scene.cell_size, scene.action_range
        sampler = entry_measure(scene).sampler
        moved = 0
        for i in range(3000):
            pt = sampler([trajectory_stream(6, i)], 1)[0]
            assert _min_image_distance(scene, pt[:3]).min() > r0
            # a start outside every sphere keeps its first draw
            rng = trajectory_stream(6, i)
            pos = rng.random((1, 3)) * L
            vec = rng.normal(size=(1, 3))
            vec /= np.linalg.norm(vec, axis=1, keepdims=True)
            first = np.concatenate([pos, vec], axis=1)[0]
            if not np.array_equal(pt, first):
                moved += 1
                assert _min_image_distance(scene, first[:3]).min() <= r0
        # about 2.1e-3 of the cell lies inside a sphere
        assert 1 <= moved <= 20

    def test_small_ensemble_roughly_isotropic(self):
        scene = random_scene(64, 0.05, 1.0, seed=3)
        res = flipper_cross_section(scene, n_outcomes=4, n_traj=150,
                                    seed=8, n_encounters=15)
        assert res.stats.n_trajectories + res.stats.n_excluded == 150
        # four equal angle bins each carry isotropic mass 1/4 exactly
        mean = res.stats.mean
        sigma = np.sqrt(res.stats.variance / res.stats.n_trajectories)
        assert np.all(np.abs(mean - 0.25) < 4.0 * sigma + 1e-12)
        assert np.allclose(res.cross_sections,
                           mean * math.pi * 0.05 ** 2)

    def test_builder_matches_pipeline(self):
        scene = random_scene(64, 0.05, 1.0, seed=3)
        res = flipper_cross_section(scene, n_outcomes=4, n_traj=40, seed=8,
                                    n_encounters=10)
        stats = ensemble_statistics(
            entry_measure(scene),
            flipper_outcome_builder(scene, 4, 10),
            4, 40, seed=8)
        assert np.array_equal(res.stats.mean, stats.mean)

    def test_outcome_block_equals_rays_binned_alone(self):
        scene = random_scene(64, 0.05, 1.0, seed=3)
        points = entry_measure(scene).sampler([stream(9)], 48)
        # the spheres' shadows cover about 8% of a cell face, so most rays
        # along an axis never meet one and use up the path budget with no
        # encounter
        points[-6:, 3:] = np.vstack([np.eye(3), -np.eye(3)])
        block = flipper_outcome_builder(scene, 5, 12)(points)
        assert block.shape == (48, 12)
        short = 0
        for point, row in zip(points, block):
            tr = trace_flipper(scene, point[:3], point[3:], 12,
                               record_path=False)
            alone = angle_bins([e.theta_signed for e in tr.encounters], 5)
            assert np.array_equal(row[:len(alone)], alone)
            assert np.all(row[len(alone):] == -1)
            short += len(alone) < 12
        assert 0 < short < 48

    def test_angle_bins_match_scalar_binning(self):
        th = np.concatenate([stream(3).uniform(-math.pi, math.pi, 500),
                             bin_edges(8), [-math.pi, math.pi]])
        width = 2.0 * math.pi / 8
        expected = [min(max(int(math.floor((t + math.pi) / width)), 0), 7)
                    for t in th.tolist()]
        assert angle_bins(th, 8).tolist() == expected
