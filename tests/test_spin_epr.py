"""Spin branching through a gradient slab and the pair statistics built on
the 16-cell outcome measure."""

import math

import numpy as np
import pytest

from trajlab.errors import (
    IntegrationError,
    UnconditionedSettingError,
)
from trajlab.spin_epr import (
    PhysicalConstants,
    SGDevice,
    SpinVariable,
    branch_weights,
    chsh_estimate,
    chsh_of_strategy,
    chsh_optimal_angles,
    chsh_value,
    correlator,
    deterministic_strategies,
    epr_conditional_probabilities,
    global_epr_measure,
    planar_setting,
    propagate_sg,
    sample_epr_counts,
    singlet_measure,
)

UP = SpinVariable(np.array([1.0 + 0j, 0.0 + 0j]))

DEVICE = SGDevice(entry_x=1.0, exit_x=2.0, base_field=0.5, gradient=2.0,
                  screen_x=4.0)
CONSTANTS = PhysicalConstants(mu=1.0, m=1.0)
BEAM_V = np.array([5.0, 0.0, 0.0])


class TestSpinVariable:
    def test_requires_unit_norm(self):
        with pytest.raises(ValueError):
            SpinVariable(np.array([2.0 + 0j, 0.0]))
        with pytest.raises(ValueError):
            SpinVariable(np.zeros(2, dtype=complex))

    def test_requires_two_components(self):
        with pytest.raises(ValueError):
            SpinVariable(np.array([1.0, 0.0, 0.0], dtype=complex))


class TestBranchWeights:
    def test_equal_split(self):
        assert branch_weights("equal") == (0.5, 0.5)

    def test_quantum_aligned_ray_is_certain(self):
        p = branch_weights("quantum", psi=UP)
        assert p == (1.0, 0.0)

    def test_quantum_tilted_axis(self):
        # rays tilted by theta against the device axis z, at two azimuths
        theta = math.radians(60.0)
        for phi in (0.0, 1.1):
            psi = SpinVariable(np.array(
                [math.cos(theta / 2.0), math.sin(theta / 2.0)
                 * complex(math.cos(phi), math.sin(phi))]))
            p_plus, p_minus = branch_weights("quantum", psi=psi)
            assert p_plus == pytest.approx(math.cos(theta / 2.0) ** 2,
                                           abs=1e-12)
            assert p_plus + p_minus == 1.0

    def test_quantum_needs_ray(self):
        with pytest.raises(ValueError):
            branch_weights("quantum")

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            branch_weights("thermal")


class TestPropagateSG:
    def propagate(self):
        return propagate_sg(np.zeros(3), BEAM_V, DEVICE, CONSTANTS)

    def test_branches_coincide_before_entry(self):
        plus, minus = self.propagate()
        t_entry = DEVICE.entry_x / BEAM_V[0]
        for t in np.linspace(0.0, t_entry, 37):
            a = plus.evaluate(float(t))
            b = minus.evaluate(float(t))
            assert np.array_equal(a, b)

    def test_transit_times_from_energy_steps(self):
        plus, minus = self.propagate()
        L = DEVICE.exit_x - DEVICE.entry_x
        mag = DEVICE.base_field  # beam enters on the axis
        for traj, sign in ((plus, +1), (minus, -1)):
            v_long = math.sqrt(BEAM_V[0] ** 2
                               - sign * 2.0 * CONSTANTS.mu * mag / CONSTANTS.m)
            assert traj.transit_time == pytest.approx(L / v_long, rel=1e-12)

    def test_exit_deflection_closed_form(self):
        plus, minus = self.propagate()
        t_entry = DEVICE.entry_x / BEAM_V[0]
        rate = CONSTANTS.mu * DEVICE.gradient / CONSTANTS.m
        for traj, sign in ((plus, +1), (minus, -1)):
            tau = traj.transit_time
            z_exit = traj.evaluate(t_entry + tau)[2]
            assert z_exit == pytest.approx(-sign * 0.5 * rate * tau * tau,
                                           abs=1e-15)

    def test_energy_restored_outside(self):
        plus, minus = self.propagate()
        for traj in (plus, minus):
            t1 = traj.screen_time
            t2 = traj.domain[1]
            v = (traj.evaluate(t2) - traj.evaluate(t1)) / (t2 - t1)
            assert float(v @ v) == pytest.approx(float(BEAM_V @ BEAM_V),
                                                 rel=1e-12)

    def test_attached_rays_are_the_eigenrays(self):
        # the field points along +z, so the branches carry sigma_z's rays
        plus, minus = self.propagate()
        assert np.array_equal(plus.spin.components, [1.0, 0.0])
        assert np.array_equal(minus.spin.components, [0.0, 1.0])
        sigma_z = np.diag([1.0, -1.0])
        assert np.array_equal(sigma_z @ plus.spin.components,
                              plus.spin.components)
        assert np.array_equal(sigma_z @ minus.spin.components,
                              -minus.spin.components)

    def test_inside_acceleration_second_difference(self):
        plus, minus = self.propagate()
        t_entry = DEVICE.entry_x / BEAM_V[0]
        rate = CONSTANTS.mu * DEVICE.gradient / CONSTANTS.m
        h = 1e-5
        for traj, sign in ((plus, +1), (minus, -1)):
            t = t_entry + 0.5 * traj.transit_time
            a = (traj.evaluate(t + h) - 2.0 * traj.evaluate(t)
                 + traj.evaluate(t - h)) / (h * h)
            assert a[2] == pytest.approx(-sign * rate, abs=1e-4)
            assert abs(a[1]) < 1e-4

    def test_slow_beam_cannot_climb_entry_step(self):
        with pytest.raises(IntegrationError):
            propagate_sg(np.zeros(3), np.array([0.9, 0.0, 0.0]),
                         DEVICE, CONSTANTS)

    def test_nonpositive_field_at_entry(self):
        with pytest.raises(IntegrationError):
            propagate_sg(np.array([0.0, 0.0, -1.0]), BEAM_V,
                         DEVICE, CONSTANTS)

    def test_rejects_start_inside_device(self):
        with pytest.raises(ValueError):
            propagate_sg(np.array([1.5, 0.0, 0.0]), BEAM_V,
                         DEVICE, CONSTANTS)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
    def test_base_field_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="base_field"):
            SGDevice(entry_x=1.0, exit_x=2.0, base_field=bad, gradient=2.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_gradient_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="gradient"):
            SGDevice(entry_x=1.0, exit_x=2.0, base_field=0.5, gradient=bad)

    def test_screen_defaults_one_slab_past_exit(self):
        device = SGDevice(entry_x=1.0, exit_x=2.0, base_field=0.5,
                          gradient=2.0)
        assert device.screen_x == 3.0

    def test_screen_at_origin(self):
        # planes at -3 and -1 leave x = 0 downstream of the exit
        device = SGDevice(entry_x=-3.0, exit_x=-1.0, base_field=0.5,
                          gradient=2.0, screen_x=0.0)
        assert device.screen_x == 0.0
        for traj in propagate_sg(np.array([-4.0, 0.0, 0.0]), BEAM_V,
                                 device, CONSTANTS):
            assert traj.evaluate(traj.screen_time)[0] == pytest.approx(
                0.0, abs=1e-12)

    @pytest.mark.parametrize("screen_x", [0.0, 1.999, math.inf, math.nan])
    def test_rejects_screen_before_exit_or_not_finite(self, screen_x):
        with pytest.raises(ValueError, match="exit plane"):
            SGDevice(entry_x=1.0, exit_x=2.0, base_field=0.5, gradient=2.0,
                     screen_x=screen_x)

    def test_rejects_backward_beam(self):
        with pytest.raises(ValueError):
            propagate_sg(np.zeros(3), np.array([-5.0, 0.0, 0.0]),
                         DEVICE, CONSTANTS)


def slab_fields(device, v0, sign):
    """Closed-form |B| along one branch of a beam from the origin: at the
    entry, at the exit, and where it turns if that is inside the slab.

    With M the entry field and k = mu/m, |B|(t) = M + g v_z t
    - sign k g^2 t^2 / 2 at t after entry.
    """
    g, k = device.gradient, CONSTANTS.mu / CONSTANTS.m
    mag = device.base_field + g * v0[2] * device.entry_x / v0[0]
    tau = device.length / math.sqrt(v0[0] ** 2 - sign * 2.0 * k * mag)

    def field(t):
        return mag + g * v0[2] * t - sign * 0.5 * k * g * g * t * t

    t_turn = sign * v0[2] / (k * g)
    return field(0.0), field(tau), (field(t_turn) if 0.0 < t_turn < tau
                                    else None)


class TestSlabFieldCheck:
    """|B| = base_field + gradient * z must stay positive in the slab."""

    @pytest.mark.parametrize("gradient", [12.0, -12.0])
    def test_zero_at_exit_raises(self, gradient):
        # entry field 4.5 on the axis: v_long = 4, tau = 1/4, and the +
        # branch leaves at z = -+0.375, where 4.5 + gradient * z is 0
        device = SGDevice(entry_x=1.0, exit_x=2.0, base_field=4.5,
                          gradient=gradient)
        assert slab_fields(device, BEAM_V, +1)[1] == 0.0
        with pytest.raises(IntegrationError, match="crossed zero"):
            propagate_sg(np.zeros(3), BEAM_V, device, CONSTANTS)

    @pytest.mark.parametrize("gradient", [4.0, -4.0])
    def test_dip_at_turn_raises(self, gradient):
        # entry field 1: the - branch turns half way through its unit
        # transit, at a field of 1 - 2 = -1, and leaves at a field of 1.
        # The + branch, pushed down the gradient, has reached zero by its
        # own exit, which is what refuses the beam
        v0 = np.array([5.0, 0.0, -8.0 / gradient])
        device = SGDevice(entry_x=1.0, exit_x=1.0 + math.sqrt(27.0),
                          base_field=2.6, gradient=gradient)
        entry, exit_, turn = slab_fields(device, v0, -1)
        assert entry > 0 and exit_ > 0 and turn < 0
        assert slab_fields(device, v0, +1)[1] < 0
        with pytest.raises(IntegrationError, match="crossed zero"):
            propagate_sg(np.zeros(3), v0, device, CONSTANTS)

    @pytest.mark.parametrize("gradient", [4.0, -4.0])
    def test_turn_past_exit_passes(self, gradient):
        # the same beam through a slab 1/20 as long: the - branch would
        # turn at a field of -1 ten transits on, but leaves first
        v0 = np.array([5.0, 0.0, -8.0 / gradient])
        device = SGDevice(entry_x=1.0, exit_x=1.0 + 0.05 * math.sqrt(27.0),
                          base_field=2.6, gradient=gradient)
        for sign in (+1, -1):
            entry, exit_, turn = slab_fields(device, v0, sign)
            assert entry > 0 and exit_ > 0 and turn is None
        plus, minus = propagate_sg(np.zeros(3), v0, device, CONSTANTS)
        assert minus.transit_time == pytest.approx(0.05, rel=1e-12)

    @pytest.mark.parametrize("gradient", [1.0, -1.0])
    def test_branch_that_cannot_leave_raises(self, gradient):
        # entry field 5: the - branch gains 22 in field over its transit of
        # 2, more than its 12.5 of longitudinal kinetic energy per mass
        # outside, so it cannot climb the exit step
        v0 = np.array([5.0, 0.0, 10.0 * gradient])
        device = SGDevice(entry_x=1.0, exit_x=1.0 + 2.0 * math.sqrt(35.0),
                          base_field=3.0, gradient=gradient)
        assert all(f > 0 for f in slab_fields(device, v0, +1)[:2])
        entry, exit_, _ = slab_fields(device, v0, -1)
        assert exit_ - entry > 0.5 * v0[0] ** 2
        with pytest.raises(IntegrationError, match="cannot cross"):
            propagate_sg(np.zeros(3), v0, device, CONSTANTS)

    def test_raises_iff_the_field_reaches_zero(self):
        # the exits are the only points checked; the closed-form least
        # field over both branches, turns included, must agree with them
        rng = np.random.default_rng(19)
        outcomes = []
        for _ in range(400):
            gradient = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 10.0)
            device = SGDevice(entry_x=1.0, exit_x=1.0 + rng.uniform(0.05, 2.0),
                              base_field=rng.uniform(0.1, 3.0),
                              gradient=gradient)
            v0 = np.array([rng.uniform(3.0, 6.0), 0.0, rng.uniform(-3.0, 3.0)])
            # both branches enter: a positive entry field below the step
            mag = device.base_field + gradient * v0[2] / v0[0]
            if not 0.0 < 2.0 * mag < v0[0] ** 2 - 1.0:
                continue
            least = min(f for sign in (+1, -1)
                        for f in slab_fields(device, v0, sign)
                        if f is not None)
            # and the - branch can climb out of the exit step
            leave = v0[0] ** 2 - 2.0 * (slab_fields(device, v0, -1)[1] - mag)
            if abs(least) < 1e-9 or leave < 1.0:
                continue
            try:
                propagate_sg(np.zeros(3), v0, device, CONSTANTS)
                raised = False
            except IntegrationError:
                raised = True
            assert raised == (least <= 0)
            outcomes.append(raised)
        # both answers occur often enough to mean something
        assert 50 <= sum(outcomes) <= len(outcomes) - 50


class TestSingletMeasure:
    def test_weights_and_marginals(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            w = singlet_measure(a, b)
            assert w.shape == (2, 2)
            assert w.sum() == pytest.approx(1.0, abs=1e-15)
            # either wing's outcome rate is exactly one half
            assert float(w[0].sum()) == 0.5
            assert float(w[1].sum()) == 0.5
            assert float(w[:, 0].sum()) == 0.5
            assert float(w[:, 1].sum()) == 0.5
            assert correlator(w) == pytest.approx(-float(a @ b), abs=1e-12)

    def test_same_setting_anticorrelates(self):
        a = np.array([0.0, 0.0, 1.0])
        w = singlet_measure(a, a)
        assert w[0, 0] == 0.0 and w[1, 1] == 0.0
        assert w[0, 1] == 0.5 and w[1, 0] == 0.5

    def test_equal_settings_never_give_negative_weights(self):
        # a.b rounds to 1 + 2^-52 for some angles; an unclamped weight
        # (1 - a.b) / 4 would be negative, which conditioning refuses
        for angle in range(360):
            a = planar_setting(float(angle))
            assert np.all(singlet_measure(a, a) >= 0.0)
            s = chsh_value(a, planar_setting(angle + 90.0), a,
                           planar_setting(angle + 45.0))
            assert abs(s) <= 2.0 * math.sqrt(2.0) + 1e-12

    def test_rejects_non_unit_settings(self):
        with pytest.raises(ValueError):
            singlet_measure(np.array([0.0, 0.0, 2.0]),
                            np.array([0.0, 0.0, 1.0]))


def cell_form_chsh(a, a_prime, b, b_prime):
    """S as the 16-cell array gave it: ``float(a @ b)`` clamped per setting
    pair, each (2, 2) block of the cell array normalised by its numpy sum,
    and each correlator the numpy sum of the signed conditionals."""
    pairs = [[(0.25 * (1.0 - x), 0.25 * (1.0 + x))
              for x in (min(max(float(av @ bv), -1.0), 1.0)
                        for bv in (b, b_prime))]
             for av in (a, a_prime)]
    w = np.array([0.25 * pairs[i][j][ra != rb] for i in (0, 1)
                  for ra in (0, 1) for j in (0, 1)
                  for rb in (0, 1)]).reshape(2, 2, 2, 2)
    signs = np.array([[1.0, -1.0], [-1.0, 1.0]])
    e = [float((signs * (w[i, :, j, :] / float(w[i, :, j, :].sum()))).sum())
         for i in (0, 1) for j in (0, 1)]
    return e[0] + e[1] + e[2] - e[3]


class TestCHSH:
    def settings(self):
        return [planar_setting(x) for x in chsh_optimal_angles()]

    def test_optimal_value(self):
        s = chsh_value(*self.settings())
        assert s == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_bounded_by_quantum_maximum(self):
        rng = np.random.default_rng(2)
        cap = 2.0 * math.sqrt(2.0) + 1e-9
        for _ in range(40):
            angles = rng.uniform(0.0, 360.0, size=4)
            s = chsh_value(*[planar_setting(float(x)) for x in angles])
            assert abs(s) <= cap

    def test_value_is_the_checked_public_composition(self):
        # chsh_value checks each setting and the cell array once; S stays
        # bitwise the sum of the four checked conditionals' correlators
        rng = np.random.default_rng(3)
        for _ in range(200):
            vecs = [planar_setting(float(x))
                    for x in rng.uniform(-720.0, 720.0, size=4)]
            g = global_epr_measure(*vecs)
            e = [correlator(epr_conditional_probabilities(g, (i, j)))
                 for i in (0, 1) for j in (0, 1)]
            assert chsh_value(*vecs) == e[0] + e[1] + e[2] - e[3]

    def test_scalar_value_keeps_the_cell_form_bits(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            vecs = [planar_setting(float(x))
                    for x in rng.uniform(-720.0, 720.0, size=4)]
            s = chsh_value(*vecs)
            assert type(s) is float and s == cell_form_chsh(*vecs)

    def test_rows_match_the_per_row_cell_form(self):
        # every setting may carry rows, or be one vector for all rows
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(0, 200))
            rows = [np.array([planar_setting(float(x))
                              for x in rng.uniform(-720.0, 720.0, size=n)])
                    .reshape(n, 3) for _ in range(4)]
            for k in range(4):
                if trial % 5 == k:
                    rows[k] = rows[k][0] if n else planar_setting(30.0)
            s = chsh_value(*rows)
            assert s.shape == (n,)
            want = [cell_form_chsh(*[v if v.ndim == 1 else v[i]
                                     for v in rows]) for i in range(n)]
            assert s.tobytes() == np.array(want, dtype=float).tobytes()

    @pytest.mark.parametrize("n", [73, 0, 1, 2, 997])
    def test_scenario_scan_matches_per_row_loop(self, n):
        from trajlab.scenarios import (SCENARIOS, OutputBundle,
                                       validate_params)
        rng = np.random.default_rng(n)
        params = {"n_pairs": 10, "scan_points": n}
        if n > 100:
            params.update(zip(("angle_a", "angle_a_prime", "angle_b",
                               "angle_b_prime"),
                              rng.uniform(-360.0, 360.0, size=4).tolist()))
        scenario = SCENARIOS["epr"]
        p = validate_params(scenario.schema, params)
        out = OutputBundle()
        scenario.run(p, 1, out)
        a, ap = planar_setting(p["angle_a"]), planar_setting(p["angle_a_prime"])
        rows = [(float(off), cell_form_chsh(
                    a, ap, planar_setting(p["angle_b"] + off),
                    planar_setting(p["angle_b_prime"] + off)))
                for off in np.linspace(0.0, 360.0, n)]
        want = OutputBundle()
        want.add_dat("chsh_scan.dat",
                     ["four-correlator sum as both of B's settings rotate",
                      "columns: offset (degrees), S"], rows)
        assert (dict(out.files())["chsh_scan.dat"]
                == dict(want.files())["chsh_scan.dat"])

    def test_every_row_checked(self):
        b = np.array([planar_setting(float(x)) for x in range(0, 360, 10)])
        b[17] *= 1.5
        with pytest.raises(ValueError, match="setting b must be a unit"):
            chsh_value(planar_setting(0.0), planar_setting(90.0), b,
                       planar_setting(45.0))

    def test_every_setting_checked(self):
        unit = planar_setting(30.0)
        for k in range(4):
            vecs = [unit] * 4
            vecs[k] = np.array([0.0, 0.0, 2.0])
            with pytest.raises(ValueError, match="unit vector"):
                chsh_value(*vecs)

    def test_every_fixed_strategy_saturates_two(self):
        values = [chsh_of_strategy(st) for st in deterministic_strategies()]
        assert len(values) == 16
        assert all(abs(v) == 2.0 for v in values)
        assert max(values) == 2.0
        assert sum(1 for v in values if v == 2.0) == 8

    def test_sampled_estimate_consistent(self):
        counts = sample_epr_counts(*self.settings(), n_pairs=20000, seed=5)
        assert counts.sum() == 20000
        est, se = chsh_estimate(counts)
        assert se > 0
        assert abs(est - 2.0 * math.sqrt(2.0)) < 4.0 * se

    def test_sampling_reproducible(self):
        a = sample_epr_counts(*self.settings(), n_pairs=500, seed=9)
        b = sample_epr_counts(*self.settings(), n_pairs=500, seed=9)
        assert np.array_equal(a, b)

    def test_estimate_needs_every_setting_pair(self):
        counts = np.zeros((2, 2, 2, 2))
        counts[0, 0, 0, 0] = 10.0
        with pytest.raises(UnconditionedSettingError):
            chsh_estimate(counts)
        with pytest.raises(ValueError):
            chsh_estimate(np.zeros((2, 2)))


class TestCellsAndConditionals:
    def test_global_measure_normalised(self):
        vecs = [planar_setting(x) for x in chsh_optimal_angles()]
        g = global_epr_measure(*vecs)
        assert g.sum() == pytest.approx(1.0, abs=1e-15)
        # setting pairs are uniform, and conditioning on any of them leaves
        # singlet statistics
        for i in (0, 1):
            for j in (0, 1):
                assert np.array_equal(g[i, :, j, :], 0.25 * singlet_measure(
                    vecs[i], vecs[2 + j]))
                cond = epr_conditional_probabilities(g, (i, j))
                assert cond.sum() == pytest.approx(1.0, abs=1e-15)
                assert float(cond[0].sum()) == 0.5

    def test_zero_mass_pair_unconditioned(self):
        with pytest.raises(UnconditionedSettingError):
            epr_conditional_probabilities(np.zeros((2, 2, 2, 2)), (0, 1))

    def test_rejects_negative_weights(self):
        w = np.full((2, 2, 2, 2), 0.1)
        w[0, 0, 0, 0] = -0.1
        with pytest.raises(ValueError):
            epr_conditional_probabilities(w, (0, 0))


class TestSettingsHelpers:
    def test_planar_setting_unit(self):
        for deg in (0.0, 45.0, 90.0, 225.0):
            v = planar_setting(deg)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(planar_setting(0.0), [0.0, 0.0, 1.0], atol=1e-15)
