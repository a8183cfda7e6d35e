"""Acceptance gate: every headline behaviour at full scale.

Each criterion runs end to end with frozen seeds and grids and hands each
pass condition once to ``_gate``, with its wall-clock budget. ``_gate``
records one [PASS]/[FAIL] line, which conftest.py reprints after the run.
All randomness is seeded, so these numbers reproduce exactly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from trajlab import cli
from trajlab.bernoulli import (biased_measure, lebesgue_ensemble_rate,
                               orbit_rate)
from trajlab.core import check_determinism, is_well_defined
from trajlab.decay import (DecayBoundary, DecayMasses, action_hessian,
                           conservation_residuals, decay_action,
                           exponential_life_measure, mean_life,
                           rest_decay_family, sample_boundary,
                           solve_decay_vertex, symmetric_decay_time)
from trajlab.interference import (GaussianPairPotential, NBodySystem,
                                  asymptotic_velocity,
                                  emission_measure_from_screen,
                                  emission_tv_distance,
                                  envelope_target_density,
                                  estimate_fringe_spacing,
                                  free_quantum_momentum_measure,
                                  fringe_target_density, fringe_visibility,
                                  interference_decomposition,
                                  screen_density_from_emission,
                                  standard_bench)
from trajlab.scattering import (DeflectionFunction, HardSphere,
                                RepulsivePower, bin_edges,
                                flipper_cross_section, random_scene,
                                transfer_density)
from trajlab.spin_epr import (PhysicalConstants, SGDevice, SpinVariable,
                              branch_weights, chsh_estimate,
                              chsh_of_strategy, chsh_optimal_angles,
                              chsh_value, deterministic_strategies,
                              planar_setting, propagate_sg,
                              sample_epr_counts, singlet_measure)

REPORT = []


def _gate(number, name, detail, elapsed, budget, **checks):
    """Record criterion ``number``'s line, then fail naming each false
    check, and ``within budget`` when ``elapsed`` reached ``budget``."""
    failed = [key for key, ok in checks.items() if not ok]
    if not elapsed < budget:
        failed.append("within budget")
    line = (f"[{'FAIL' if failed else 'PASS'}] criterion {number:02d} "
            f"{name}: {detail} ({elapsed:.2f}s / budget {budget:g}s)")
    REPORT.append(line)
    print(line)
    assert not failed, f"criterion {number:02d} failed: {', '.join(failed)}"


def test_gate_names_every_failed_check(monkeypatch, capsys):
    monkeypatch.setitem(globals(), "REPORT", [])
    with pytest.raises(AssertionError, match="failed: exact, within budget"):
        _gate(99, "made-up", "x=1", 2.0, 1.0, holds=True, exact=False)
    line = "[FAIL] criterion 99 made-up: x=1 (2.00s / budget 1s)"
    assert REPORT == [line] and capsys.readouterr().out == line + "\n"


def test_criterion_01_uniform_bit_rate():
    t0 = time.perf_counter()
    stats = lebesgue_ensemble_rate(10_000, 1_000, seed=0)
    elapsed = time.perf_counter() - t0
    mean_err = abs(float(stats.mean[1]) - 0.5)
    spread = float(stats.variance[1])
    _gate(1, "uniform ensemble rate",
          f"|mean-0.5|={mean_err:.1e}, rate variance={spread:.1e}",
          elapsed, 30.0, mean=mean_err < 0.01, variance=spread < 0.01,
          well_defined=is_well_defined(stats),
          all_kept=stats.n_trajectories == 10_000)


def test_criterion_02_periodic_orbit_rate():
    t0 = time.perf_counter()
    rate = orbit_rate(Fraction(2, 7), 3_000)
    elapsed = time.perf_counter() - t0
    _gate(2, "periodic orbit rate",
          f"rate={rate} in exact arithmetic over 3000 steps",
          elapsed, 1.0, one_third=rate == Fraction(1, 3))


def test_criterion_03_biased_measure_rate():
    target = 0.8
    t0 = time.perf_counter()
    stats = lebesgue_ensemble_rate(10_000, 1_000, seed=0,
                                   measure=biased_measure(target, 1_000))
    elapsed = time.perf_counter() - t0
    mean_err = abs(float(stats.mean[1]) - target)
    spread = float(stats.variance[1])
    _gate(3, "biased ensemble rate",
          f"|mean-0.8|={mean_err:.1e}, rate variance={spread:.1e}",
          elapsed, 30.0, mean=mean_err < 0.01, variance=spread < 0.01,
          well_defined=is_well_defined(stats))


def test_criterion_04_cross_sections():
    r0, k, energy = 1.0, 1.0, 1.0
    grid = np.linspace(0.2, 3.0, 57)
    t0 = time.perf_counter()
    rho_hs = transfer_density(lambda s: 1.0,
                              DeflectionFunction(HardSphere(r0), energy),
                              grid)
    rho_c = transfer_density(lambda s: 1.0,
                             DeflectionFunction(RepulsivePower(k, 1.0),
                                                energy),
                             grid)
    elapsed = time.perf_counter() - t0
    err_hs = float(np.max(np.abs(rho_hs / (r0 * r0 / 4.0) - 1.0)))
    ref = (k / (4.0 * energy)) ** 2 / np.sin(grid / 2.0) ** 4
    err_c = float(np.max(np.abs(rho_c / ref - 1.0)))
    _gate(4, "beam transfer densities",
          f"hard-sphere rel err={err_hs:.1e}, inverse-square rel "
          f"err={err_c:.1e}", elapsed, 10.0,
          hard_sphere=err_hs < 1e-3, inverse_square=err_c < 1e-3)


def test_criterion_05_deflection_inversion():
    k, energy = 1.0, 1.0
    svals = np.geomspace(0.05, 20.0, 50)
    t0 = time.perf_counter()
    dfl = DeflectionFunction(RepulsivePower(k, 1.0), energy)
    worst = 0.0
    for s in svals:
        theta = dfl(float(s))
        back = (k / (2.0 * energy)) / math.tan(theta / 2.0)
        worst = max(worst, abs(back - float(s)) / float(s))
    elapsed = time.perf_counter() - t0
    _gate(5, "deflection closed form",
          f"max rel err={worst:.1e} over 50 impact parameters",
          elapsed, 10.0, closed_form=worst < 1e-6)


def test_criterion_06_flipper_isotropy():
    t0 = time.perf_counter()
    scene = random_scene(216, 0.05, 1.0, seed=3)
    res = flipper_cross_section(scene, n_outcomes=8, n_traj=10_000, seed=2,
                                n_encounters=20)
    elapsed = time.perf_counter() - t0
    edges = bin_edges(8)
    iso = np.abs(np.cos(edges[:-1]) - np.cos(edges[1:])) / 4.0
    sigma = np.sqrt(res.stats.variance / res.stats.n_trajectories)
    pulls = np.abs(res.stats.mean - iso) / sigma
    max_pull = float(pulls.max())
    var_max = float(res.stats.variance.max())
    _gate(6, "multi-centre isotropy",
          f"max pull={max_pull:.2f} sigma over 8 bins, max rate "
          f"variance={var_max:.1e}", elapsed, 120.0, isotropic=max_pull < 3.0,
          variance=var_max < 0.02, all_kept=res.stats.n_trajectories == 10_000)


def _fd_gradient(masses, boundary, x_d, t_d, h=1e-6):
    z = np.concatenate([np.asarray(x_d, dtype=float), [t_d]])
    g = np.empty(4)
    for i in range(4):
        zp, zm = z.copy(), z.copy()
        zp[i] += h
        zm[i] -= h
        g[i] = (decay_action(masses, boundary, zp[:3], zp[3])
                - decay_action(masses, boundary, zm[:3], zm[3])) / (2.0 * h)
    return g


def test_criterion_07_decay_vertices():
    masses = DecayMasses(4.0, 1.0, 2.0)
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    worst_resid = worst_grad = worst_recover = 0.0
    worst_eig = math.inf
    for _ in range(100):
        boundary, t_true = sample_boundary(masses, rng)
        vertex = solve_decay_vertex(masses, boundary)
        momentum, energy = conservation_residuals(masses, vertex)
        worst_resid = max(worst_resid, momentum, energy)
        worst_grad = max(worst_grad, float(np.max(np.abs(
            _fd_gradient(masses, boundary, vertex.x_d, vertex.t_d)))))
        eigs = np.linalg.eigvalsh(
            action_hessian(masses, boundary, vertex.x_d, vertex.t_d))
        worst_eig = min(worst_eig, float(eigs.min()))
        worst_recover = max(worst_recover, abs(vertex.t_d - t_true))
    sym = DecayMasses(4.0, 1.5, 1.5)
    sym_err = sym_rest = 0.0
    for d in (0.5, 1.0, 2.0):
        closed = symmetric_decay_time(sym, d, 10.0)
        boundary = DecayBoundary(x_a=np.zeros(3), t_a=0.0,
                                 x_b2=np.array([d, 0.0, 0.0]),
                                 x_b3=np.array([-d, 0.0, 0.0]), t_b=10.0)
        vertex = solve_decay_vertex(sym, boundary)
        sym_err = max(sym_err, abs(vertex.t_d - closed))
        # the parent stays at rest at the origin until it splits
        sym_rest = max(sym_rest, float(np.abs(vertex.x_d).max()),
                       float(np.abs(vertex.v1).max()))
    elapsed = time.perf_counter() - t0
    _gate(7, "least-action split vertices",
          f"100 boundaries: residuals<{worst_resid:.1e}, FD "
          f"grad<{worst_grad:.1e}, min eig={worst_eig:.1e}, closed "
          f"form err={sym_err:.1e}, at rest within {sym_rest:.1e}", elapsed,
          10.0, conserved=worst_resid < 1e-9, stationary=worst_grad < 1e-6,
          minimum=worst_eig > -1e-8, recovered=worst_recover < 1e-9,
          closed_form=sym_err < 1e-9 and sym_rest < 1e-9)


def test_criterion_08_indeterminism_witness():
    masses = DecayMasses(4.0, 1.0, 2.0)
    t0 = time.perf_counter()
    family = rest_decay_family(masses, [2.0, 5.0], t_b=10.0)
    deterministic = check_determinism(family, match_window=1.0,
                                      tolerance=1e-9, time_step=0.05)
    elapsed = time.perf_counter() - t0
    _gate(8, "indeterminism witness",
          f"check_determinism={deterministic} for a two-member rest "
          f"family", elapsed, 1.0, witnessed=deterministic is False)


def test_criterion_09_mean_life():
    tau0 = 1.5
    t0 = time.perf_counter()
    estimate, se = mean_life(exponential_life_measure(tau0),
                             n_samples=100_000, seed=9)
    elapsed = time.perf_counter() - t0
    pull = abs(estimate - tau0) / se
    _gate(9, "exponential mean life",
          f"estimate={estimate:.4f} vs {tau0}, {pull:.2f} standard "
          f"errors", elapsed, 5.0, pull=pull < 3.0)


def test_criterion_10_spin_splitting():
    device = SGDevice(entry_x=1.0, exit_x=2.0, base_field=0.5, gradient=2.0,
                      screen_x=4.0)
    constants = PhysicalConstants(mu=1.0, m=1.0)
    up = SpinVariable(np.array([1.0 + 0j, 0.0 + 0j]))
    v0 = np.array([5.0, 0.0, 0.0])
    t0 = time.perf_counter()
    plus, minus = propagate_sg(np.zeros(3), v0, device, constants)
    t_entry = device.entry_x / v0[0]
    pre_equal = all(
        np.array_equal(plus.evaluate(float(t)),
                       minus.evaluate(float(t)))
        for t in np.linspace(0.0, t_entry, 33))
    rate = constants.mu * device.gradient / constants.m
    defl_err = 0.0
    for traj, sign in ((plus, 1), (minus, -1)):
        tau = traj.transit_time
        z_exit = traj.evaluate(t_entry + tau)[2]
        defl_err = max(defl_err, abs(z_exit + sign * 0.5 * rate * tau * tau))
    weights = branch_weights("quantum", psi=up)
    elapsed = time.perf_counter() - t0
    _gate(10, "spin branch splitting",
          f"branches bitwise equal pre-entry, exit deflection "
          f"err={defl_err:.1e}, aligned weights={weights}",
          elapsed, 5.0, pre_entry_equal=pre_equal,
          deflection=defl_err < 1e-6, weights=weights == (1.0, 0.0))


def test_criterion_11_chsh():
    target = 2.0 * math.sqrt(2.0)
    t0 = time.perf_counter()
    a, a_prime, b, b_prime = [planar_setting(x)
                              for x in chsh_optimal_angles()]
    s_exact = chsh_value(a, a_prime, b, b_prime)
    counts = sample_epr_counts(a, a_prime, b, b_prime, n_pairs=100_000,
                               seed=11)
    s_hat, s_err = chsh_estimate(counts)
    pull = abs(s_hat - target) / s_err
    strategy_bound = max(abs(chsh_of_strategy(strategy))
                         for strategy in deterministic_strategies())
    marginals_exact = all(
        np.all(singlet_measure(av, bv).sum(axis=axis) == 0.5)
        for av in (a, a_prime) for bv in (b, b_prime) for axis in (0, 1))
    elapsed = time.perf_counter() - t0
    exact_err = abs(s_exact - target)
    _gate(11, "correlation bound violation",
          f"S={s_exact:.6f} (err {exact_err:.1e}), sampled pull="
          f"{pull:.2f} sigma, 16 strategies capped at "
          f"{strategy_bound:g}, marginals exactly 1/2",
          elapsed, 30.0, exact_s=exact_err < 1e-6, sampled_s=pull < 3.0,
          strategies_capped=strategy_bound <= 2.0, marginals=marginals_exact)


def test_criterion_12_fringe_bench():
    t0 = time.perf_counter()
    scene_on = standard_bench(True)
    scene_off = standard_bench(False)
    mu_on = emission_measure_from_screen(fringe_target_density(scene_on),
                                         scene_on)
    mu_off = emission_measure_from_screen(envelope_target_density(scene_off),
                                          scene_off)
    edges_on, dens_on = screen_density_from_emission(mu_on, scene_on,
                                                     bins=256)
    edges_off, dens_off = screen_density_from_emission(mu_off, scene_off,
                                                       bins=256)
    vis_on = fringe_visibility(edges_on, dens_on)
    vis_off = fringe_visibility(edges_off, dens_off)
    spacing = estimate_fringe_spacing(edges_on, dens_on)
    rel_spacing = (abs(spacing - scene_on.fringe_spacing)
                   / scene_on.fringe_spacing)
    tv = emission_tv_distance(mu_on, mu_off)
    elapsed = time.perf_counter() - t0
    _gate(12, "fringe bench",
          f"visibility on={vis_on:.3f} off={vis_off:.3f}, spacing rel "
          f"err={rel_spacing:.1e}, emission TV distance={tv:.10f}",
          elapsed, 30.0, fringes_on=vis_on > 0.9, smooth_off=vis_off < 0.05,
          spacing=rel_spacing < 0.02, measures_differ=0.1 < tv <= 1.0)


def test_criterion_13_asymptotic_velocities():
    masses = [1.5, 0.5]
    v0 = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
    t0 = time.perf_counter()
    free = asymptotic_velocity(NBodySystem(masses), v0, t_max=2.0 ** 13,
                               tolerance=0.0)
    flat = v0.ravel()
    free_exact = all(np.array_equal(ratio, flat)
                     for _, ratio in free.convergence_history)
    system = NBodySystem(masses,
                         pair_potential=GaussianPairPotential(2.0, 1.0))
    res = asymptotic_velocity(system, v0, t_max=2.0 ** 31, tolerance=1e-9)
    e0 = system.energy(v0 * 1.0, v0)
    m = np.asarray(masses)
    ke = 0.5 * float((m[:, None]
                      * np.asarray(res.v_plus).reshape(2, 3) ** 2).sum())
    ke_rel = abs(ke - e0) / abs(e0)
    elapsed = time.perf_counter() - t0
    _gate(13, "asymptotic velocities",
          f"free checkpoints bitwise exact "
          f"({len(free.convergence_history)} of them), two-body kinetic "
          f"energy rel err={ke_rel:.1e}", elapsed, 30.0,
          free_exact=free_exact, converged=res.converged, energy=ke_rel < 1e-6)


def test_criterion_14_momentum_measure():
    masses = [1.0, 1.0]
    t0 = time.perf_counter()
    unit = (np.zeros(6), np.ones(6))
    base = free_quantum_momentum_measure([unit], masses)
    ref = (2.0 * math.pi) ** -6
    box_a = (np.zeros(6), np.full(6, 0.7))
    box_b = (np.full(6, 2.0), np.full(6, 3.1))
    together = free_quantum_momentum_measure([box_a, box_b], masses)
    parts = (free_quantum_momentum_measure([box_a], masses)
             + free_quantum_momentum_measure([box_b], masses))
    # dyadic endpoints, so the shifted box has the bit-identical width
    box_t = (np.zeros(6), np.full(6, 0.5))
    translated = free_quantum_momentum_measure(
        [(box_t[0] + 2.0, box_t[1] + 2.0)], masses)
    original = free_quantum_momentum_measure([box_t], masses)
    scaled = free_quantum_momentum_measure([unit], [2.0, 2.0])
    elapsed = time.perf_counter() - t0
    err_base = abs(base - ref) / ref
    err_add = abs(together - parts) / parts
    err_scale = abs(scaled / base - 64.0) / 64.0
    _gate(14, "momentum measure",
          f"unit box err={err_base:.1e}, additivity err={err_add:.1e}, "
          f"translation bitwise, mass-cube scaling err={err_scale:.1e}",
          elapsed, 1.0, unit_box=err_base < 1e-12, additive=err_add < 1e-12,
          translation=translated == original, scaling=err_scale < 1e-12)


def test_criterion_15_interference_remainder():
    t0 = time.perf_counter()
    scene = standard_bench(True)
    target = fringe_target_density(scene)
    envelope = envelope_target_density(scene)
    lo, hi = target.window
    grid = np.linspace(lo, hi, 4097)
    deco = interference_decomposition(target(grid), envelope(grid), grid)
    elapsed = time.perf_counter() - t0
    _gate(15, "signed interference remainder",
          f"integral={deco.integral:.1e}, minimum={deco.minimum:.3f}",
          elapsed, 1.0, integral=abs(deco.integral) < 1e-6,
          signed=deco.minimum < 0.0, on_grid=deco.values.shape == grid.shape)


def test_criterion_16_cli_rerun_determinism(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("scenario: epr\nseed: 123\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    t0 = time.perf_counter()
    code_a = cli.main(["run", "epr", "--config", str(cfg),
                       "--out", str(out_a)])
    code_b = cli.main(["run", "epr", "--config", str(cfg),
                       "--out", str(out_b)])
    elapsed = time.perf_counter() - t0
    names_a = sorted(p.name for p in out_a.iterdir())
    # the manifest alone carries the run timestamp
    compared = [n for n in names_a if n != "manifest.json"]
    identical = all((out_a / n).read_bytes() == (out_b / n).read_bytes()
                    for n in compared)
    _gate(16, "scenario rerun determinism",
          f"{len(compared)} output files byte-identical across reruns",
          elapsed, 5.0, exits=code_a == code_b == 0,
          same_files=sorted(p.name for p in out_b.iterdir()) == names_a,
          compared=len(compared) >= 1, identical=identical)
