"""The benchmark's four workloads and the checks on their outputs.

A workload builds its inputs from the run seed when it is constructed
(that is its set-up) and exposes ``ops``: the fixed list of operations one
pass runs. An operation is one call into trajlab's public API (one
ensemble, one solver case, or one ``trajlab run``) plus a check of what the
call returned. ``call(k)`` gets the pass index: the ensembles draw pass k
from the seed ``pass_seed(seed, k)``, so a run's median pass time is taken
over many ensembles and does not hang on the cost of one (a flipper
trajectory that finds a free channel through the lattice can fly ten times
the mean path). Solver cases and catalog configs are the same in every
pass. Every check compares against a computation made here, apart
from the program, or against a property the method must have; none
compares against stored output.

Program functions are always looked up as module attributes at call time
(``scattering.trace_flipper``, not a name imported once), so the traced run
sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from fractions import Fraction
from functools import partial

import numpy as np
import yaml

from trajlab import bernoulli, cli, decay, interference, scattering

# Stochastic checks accept deviations below Z standard errors. Every pass
# draws fresh ensembles and a set of benchmark runs makes about 10^5 such
# comparisons, so a correct program must almost never fail one: at 3 sigma
# the eight flipper bins of one ensemble would fail one pass in fifty, at
# 6 sigma a comparison fails with probability 2e-9.
Z = 6.0


class CheckFailed(Exception):
    """An operation returned a result that fails its check."""


def expect(condition, message):
    if not condition:
        raise CheckFailed(message)


def pass_seed(seed, k):
    """Ensemble seed of pass ``k`` of a run with seed ``seed``."""
    return seed * 100_000 + k


class Op:
    """One checked call: ``call(k)`` is timed, ``check(result)`` is not.

    ``known_fault`` names the program fault that makes the operation fail
    today; such failures do not make the run incorrect.
    """

    __slots__ = ("label", "call", "check", "known_fault")

    def __init__(self, label, call, check, known_fault=None):
        self.label = label
        self.call = call
        self.check = check
        self.known_fault = known_fault


def _rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# flipper-ensemble
# ---------------------------------------------------------------------------

FLIPPER_TRAJ = 64
# the flipper pulls divide by a standard error estimated from the 64
# trajectories themselves, so the same false-alarm rate needs the Student-t
# quantile with 63 degrees of freedom:
# scipy.stats.t.isf(scipy.stats.norm.sf(6), 63) = 7.003
PULL_LIMIT = 7.0
FLIPPER_BINS = 8
FLIPPER_ENCOUNTERS = 20
N_RAYS = 8
PUSH = 1e-9  # the tracer's step past each cell wall, in cell lengths


def isotropic_signed_masses(n_bins):
    """|cos lo - cos hi| / 4 for the equal bins of (-pi, pi]."""
    edges = [-math.pi + 2.0 * math.pi * k / n_bins for k in range(n_bins + 1)]
    return np.array([abs(math.cos(lo) - math.cos(hi)) / 4.0
                     for lo, hi in zip(edges, edges[1:])])


def check_flipper_result(res, n_traj, action_range, n_bins):
    stats = res.stats
    expect(stats.n_trajectories + stats.n_excluded == n_traj,
           f"{stats.n_trajectories} kept + {stats.n_excluded} excluded "
           f"!= {n_traj} built")
    expect(abs(float(stats.mean.sum()) - 1.0) < 1e-12,
           f"rates sum to {stats.mean.sum()!r}")
    expected = stats.mean * math.pi * action_range ** 2
    expect(np.allclose(res.cross_sections, expected, rtol=1e-14, atol=0.0),
           "cross sections differ from mean * pi * r0^2")
    iso = isotropic_signed_masses(n_bins)
    sigma = np.sqrt(stats.variance / stats.n_trajectories)
    expect(np.all(sigma > 0), "zero rate variance in a bin")
    pulls = np.abs(stats.mean - iso) / sigma
    expect(float(pulls.max()) < PULL_LIMIT,
           f"max pull {pulls.max():.2f} sigma against isotropy")
    expect(float(stats.variance.max()) < 0.02,
           f"rate variance {stats.variance.max():.3g} >= 0.02")


def first_encounter_rays(scene, seed, n):
    """Fixed rays whose start lies outside every action sphere.

    A start inside a sphere is the entry-measure edge case whose behaviour
    is still to be decided, so it is not a kernel-agreement test.
    """
    rng = np.random.default_rng([seed, 6])
    L, r0 = scene.cell_size, scene.action_range
    rays = []
    while len(rays) < n:
        p = rng.random(3) * L
        u = rng.normal(size=3)
        u /= np.linalg.norm(u)
        d = (scene.centers - p + L / 2.0) % L - L / 2.0
        if np.sqrt((d * d).sum(axis=1)).min() > r0 * (1.0 + 1e-6):
            rays.append((p, u))
    return rays


def brute_first_encounter(scene, p, u, max_len):
    """First sphere the unwrapped ray enters, over all periodic images.

    Returns (path length to closest approach, impact parameter, theta by
    the hard-sphere reflection law, wall crossings before the encounter),
    or None when no sphere is entered within ``max_len``.
    """
    L, r0 = scene.cell_size, scene.action_range
    # cells along the ray, sampled every L/4, plus all their neighbours:
    # every point within r0 of the ray lies in one of them
    ts = np.arange(0.0, max_len + L, L / 4.0)
    cells = np.unique(np.floor((p + ts[:, None] * u) / L).astype(int), axis=0)
    shifts = np.array([(i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1)
                       for k in (-1, 0, 1)])
    cells = np.unique((cells[:, None, :] + shifts[None]).reshape(-1, 3),
                      axis=0)
    best = (math.inf, 0.0, 0.0)  # (t_enter, t_ca, s^2)
    # a few cells at a time, so the oracle adds little to peak memory
    for chunk in np.array_split(cells, max(1, len(cells) // 32)):
        images = (scene.centers[None] + L * chunk[:, None]).reshape(-1, 3)
        w = images - p
        t_ca = w @ u
        perp = w - t_ca[:, None] * u
        s2 = (perp * perp).sum(axis=1)
        t_enter = np.where(s2 < r0 * r0,
                           t_ca - np.sqrt(np.maximum(r0 * r0 - s2, 0.0)),
                           np.inf)
        t_enter[t_enter <= 0.0] = np.inf
        k = int(np.argmin(t_enter))
        if t_enter[k] < best[0]:
            best = (float(t_enter[k]), float(t_ca[k]), float(s2[k]))
    t_enter, t_ca, s2 = best
    if t_enter > max_len:
        return None
    s = math.sqrt(s2)
    theta = 2.0 * math.acos(min(s / r0, 1.0))
    x = p + t_ca * u
    walls = int(np.abs(np.floor(x / L) - np.floor(p / L)).sum())
    return t_ca, s, theta, walls


class FlipperEnsemble:
    name = "flipper-ensemble"

    def __init__(self, seed, workdir):
        self.seed = seed
        # criterion 06's scene
        self.scene = scattering.random_scene(216, 0.05, 1.0, seed=3)
        L, r0 = self.scene.cell_size, self.scene.action_range
        mfp = L ** 3 / len(self.scene.centers) / (math.pi * r0 * r0)
        self.max_len = 20.0 * mfp
        self.rays = first_encounter_rays(self.scene, seed, N_RAYS)
        self._oracle = {}
        self.ops = [Op("ensemble", self._ensemble, self._check_ensemble)]
        self.ops += [Op(f"first-encounter-{i}", partial(self._trace, ray),
                        partial(self._check_ray, i))
                     for i, ray in enumerate(self.rays)]

    def _ensemble(self, k):
        return scattering.flipper_cross_section(
            self.scene, n_outcomes=FLIPPER_BINS, n_traj=FLIPPER_TRAJ,
            seed=pass_seed(self.seed, k), n_encounters=FLIPPER_ENCOUNTERS)

    def _check_ensemble(self, res):
        check_flipper_result(res, FLIPPER_TRAJ, self.scene.action_range,
                             FLIPPER_BINS)

    def _trace(self, ray, k):
        p, u = ray
        return scattering.trace_flipper(self.scene, p, u, 1,
                                        max_path_length=self.max_len,
                                        record_path=False)

    def _check_ray(self, i, trajectory):
        if i not in self._oracle:
            p, u = self.rays[i]
            self._oracle[i] = brute_first_encounter(self.scene, p, u,
                                                    self.max_len)
        oracle = self._oracle[i]
        if oracle is None:
            expect(not trajectory.encounters,
                   "tracer found an encounter the brute force did not")
            return
        expect(len(trajectory.encounters) == 1,
               "tracer missed the first encounter")
        enc = trajectory.encounters[0]
        length, s, theta, walls = oracle
        r0 = self.scene.action_range
        # a kernel may place each wall crossing up to one push off
        tol = (walls + 1) * PUSH * self.scene.cell_size
        expect(abs(enc.path_length - length) <= tol,
               f"path length {enc.path_length!r} vs {length!r}")
        expect(abs(enc.impact_parameter - s) <= tol,
               f"impact parameter {enc.impact_parameter!r} vs {s!r}")
        # d theta / d s = -2 / sqrt(r0^2 - s^2) carries the s tolerance over
        tol_theta = 2.0 * tol / math.sqrt(max(r0 * r0 - s * s, tol * r0)) \
            + 1e-12
        expect(abs(enc.theta - theta) <= tol_theta,
               f"theta {enc.theta!r} vs {theta!r}")


# ---------------------------------------------------------------------------
# bernoulli-ensemble
# ---------------------------------------------------------------------------

BERNOULLI_TRAJ = 10_000
BERNOULLI_STEPS = 1_000


def check_bit_rates(stats, p, n_traj, n_steps):
    expect(stats.n_trajectories == n_traj and stats.n_excluded == 0,
           f"{stats.n_trajectories} kept, {stats.n_excluded} excluded")
    expect(abs(float(stats.mean.sum()) - 1.0) < 1e-12,
           f"rates sum to {stats.mean.sum()!r}")
    q = 1.0 - p
    sigma = math.sqrt(p * q / (n_traj * n_steps))
    mean = float(stats.mean[1])
    expect(abs(mean - p) < Z * sigma,
           f"yes-rate {mean:.6f} vs {p} ({abs(mean - p) / sigma:.1f} sigma)")
    # per-trajectory rate k/n with k ~ Binomial(n, p)
    var_r = p * q / n_steps
    mu4 = n_steps * p * q * (1.0 + 3.0 * (n_steps - 2) * p * q) / n_steps ** 4
    se_var = math.sqrt((mu4 - var_r ** 2) / n_traj)
    var = float(stats.variance[1])
    expect(abs(var - var_r) < Z * se_var,
           f"rate variance {var:.4g} vs {var_r:.4g} "
           f"({abs(var - var_r) / se_var:.1f} standard errors)")


class BernoulliEnsemble:
    name = "bernoulli-ensemble"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.biased = bernoulli.biased_measure(0.8, BERNOULLI_STEPS)
        self.ops = [
            Op("uniform", self._uniform,
               partial(self._check, 0.5)),
            Op("biased-0.8", self._biased,
               partial(self._check, 0.8)),
            Op("orbit-2/7", self._orbit, self._check_orbit),
        ]

    def _uniform(self, k):
        return bernoulli.lebesgue_ensemble_rate(BERNOULLI_TRAJ,
                                                BERNOULLI_STEPS,
                                                seed=pass_seed(self.seed, k))

    def _biased(self, k):
        return bernoulli.lebesgue_ensemble_rate(BERNOULLI_TRAJ,
                                                BERNOULLI_STEPS,
                                                seed=pass_seed(self.seed, k),
                                                measure=self.biased)

    @staticmethod
    def _orbit(k):
        return bernoulli.orbit_rate(Fraction(2, 7), 3000)

    def _check(self, p, stats):
        check_bit_rates(stats, p, BERNOULLI_TRAJ, BERNOULLI_STEPS)

    @staticmethod
    def _check_orbit(rate):
        # 2/7 = 0.(010) in binary: one yes in every three steps
        expect(rate == Fraction(1, 3), f"orbit rate {rate} != 1/3")
        expect(isinstance(rate, Fraction), "orbit rate is not exact")


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------

N_DECAY = 300
N_NBODY = 6


class Solvers:
    name = "solvers"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, 4])
        # criterion 04's grid; the two scales vary with the seed
        self.grid = np.linspace(0.2, 3.0, 57)
        self.radius = float(rng.uniform(0.75, 1.5))
        self.strength = float(rng.uniform(0.75, 1.5))
        self.masses = decay.DecayMasses(4.0, 1.0, 2.0)
        self.boundaries = [decay.sample_boundary(self.masses, rng)
                           for _ in range(N_DECAY)]
        self.pair_masses = [1.5, 0.5]
        self.velocities = []
        # the seed picks directions only: the integrator's work depends on
        # the speeds, which stay fixed so that it is the same on every seed
        for speed in np.linspace(0.6, 1.2, N_NBODY):
            d = rng.normal(size=3)
            v1 = d / np.linalg.norm(d) * speed
            # zero total momentum, as in criterion 13
            v2 = -self.pair_masses[0] / self.pair_masses[1] * v1
            self.velocities.append(np.array([v1, v2]))
        self.wavelength = 2e-5 * float(rng.uniform(0.85, 1.15))

        self.ops = [
            Op("transfer-hard-sphere", self._hard_sphere,
               self._check_hard_sphere),
            Op("transfer-inverse-square", self._inverse_square,
               self._check_rutherford),
        ]
        self.ops += [Op(f"decay-{i}", partial(self._decay, b),
                        partial(self._check_decay, t_true))
                     for i, (b, t_true) in enumerate(self.boundaries)]
        free = self.velocities[0]
        self.ops.append(Op("free-flight", partial(self._free, free),
                           partial(self._check_free, free)))
        self.ops += [Op(f"gaussian-pair-{i}", partial(self._pair, v),
                        partial(self._check_pair, v))
                     for i, v in enumerate(self.velocities)]
        self.ops.append(Op("two-slit", self._two_slit, self._check_two_slit))

    # density transfer ------------------------------------------------------

    def _hard_sphere(self, k):
        disk = 1.0 / (math.pi * self.radius ** 2)
        dfl = scattering.DeflectionFunction(
            scattering.HardSphere(self.radius), 1.0)
        return scattering.transfer_density(lambda s: disk, dfl, self.grid)

    def _check_hard_sphere(self, rho):
        # a unit-mass disk through a hard sphere covers the sphere evenly
        err = float(np.max(np.abs(rho * 4.0 * math.pi - 1.0)))
        expect(err < 1e-3, f"hard-sphere density rel err {err:.2e}")

    def _inverse_square(self, k):
        dfl = scattering.DeflectionFunction(
            scattering.RepulsivePower(self.strength, 1.0), 1.0)
        return scattering.transfer_density(lambda s: 1.0, dfl, self.grid)

    def _check_rutherford(self, rho):
        ref = (self.strength / 4.0) ** 2 / np.sin(self.grid / 2.0) ** 4
        err = float(np.max(np.abs(rho / ref - 1.0)))
        expect(err < 1e-3, f"Rutherford density rel err {err:.2e}")

    # decay vertices --------------------------------------------------------

    def _decay(self, boundary, k):
        return decay.solve_decay_vertex(self.masses, boundary)

    def _check_decay(self, t_true, vertex):
        m = self.masses
        dp = m.m1 * vertex.v1 - m.m2 * vertex.v2 - m.m3 * vertex.v3
        c2 = m.c ** 2
        de = (0.5 * m.m1 * vertex.v1 @ vertex.v1 + m.m1 * c2
              - 0.5 * m.m2 * vertex.v2 @ vertex.v2 - m.m2 * c2
              - 0.5 * m.m3 * vertex.v3 @ vertex.v3 - m.m3 * c2)
        expect(float(np.linalg.norm(dp)) < 1e-9,
               f"momentum residual {np.linalg.norm(dp):.2e}")
        expect(abs(float(de)) < 1e-9, f"energy residual {abs(de):.2e}")
        expect(abs(vertex.t_d - t_true) < 1e-9,
               f"split time {vertex.t_d!r} vs sampled {t_true!r}")

    # late-time velocities ---------------------------------------------------

    def _free(self, v, k):
        return interference.asymptotic_velocity(
            interference.NBodySystem(self.pair_masses), v, t_max=2.0 ** 13,
            tolerance=0.0)

    @staticmethod
    def _check_free(v, res):
        # x(t)/t at power-of-two times is exact in floating point
        flat = v.ravel()
        expect(all(np.array_equal(ratio, flat)
                   for _, ratio in res.convergence_history),
               "free flight is not bitwise exact")

    def _pair(self, v, k):
        system = interference.NBodySystem(
            self.pair_masses,
            pair_potential=interference.GaussianPairPotential(2.0, 1.0))
        return interference.asymptotic_velocity(system, v, t_max=2.0 ** 31,
                                                tolerance=1e-9)

    def _check_pair(self, v, res):
        expect(res.converged, "late-time velocity did not converge")
        m = np.asarray(self.pair_masses)[:, None]
        # start at t0 = 1 from positions v * t0
        r = float(np.linalg.norm(v[0] - v[1]))
        e0 = 0.5 * float((m * v * v).sum()) + 2.0 * math.exp(-r * r / 2.0)
        vp = np.asarray(res.v_plus).reshape(2, 3)
        ke = 0.5 * float((m * vp * vp).sum())
        expect(_rel(ke, e0) < 1e-6, f"energy rel err {_rel(ke, e0):.2e}")

    # two-slit bench --------------------------------------------------------

    def _two_slit(self, k):
        on = interference.BiprismScene(
            source_to_screen=1.0, source_to_wire=0.25, wire_radius=0.0,
            kick_angle=0.02, field_on=True, wavelength=self.wavelength,
            aperture=0.03)
        off = on.with_field(False)
        mu_on = interference.emission_measure_from_screen(
            interference.fringe_target_density(on), on)
        mu_off = interference.emission_measure_from_screen(
            interference.envelope_target_density(off), off)
        edges_on, dens_on = interference.screen_density_from_emission(
            mu_on, on, bins=256)
        edges_off, dens_off = interference.screen_density_from_emission(
            mu_off, off, bins=256)
        return (interference.fringe_visibility(edges_on, dens_on),
                interference.fringe_visibility(edges_off, dens_off),
                interference.estimate_fringe_spacing(edges_on, dens_on))

    def _check_two_slit(self, result):
        vis_on, vis_off, spacing = result
        # virtual sources 2 * d * kick apart, screen at D
        predicted = self.wavelength * 1.0 / (2.0 * 0.25 * 0.02)
        expect(_rel(spacing, predicted) < 0.02,
               f"fringe spacing {spacing:.4g} vs {predicted:.4g}")
        expect(vis_on > 0.9, f"visibility with field {vis_on:.3f}")
        expect(vis_off < 0.05, f"visibility without field {vis_off:.3f}")


# ---------------------------------------------------------------------------
# cli-catalog
# ---------------------------------------------------------------------------

# small ensembles; every other parameter at its default
CATALOG = (
    ("bernoulli", {"n_traj": 1000}),
    ("scattering", None),
    ("flipper", {"n_traj": 16}),
    ("decay", None),
    ("stern-gerlach", None),
    ("epr", None),
    ("two-slit", None),
    ("bigbang", None),
)
STOCHASTIC = ("bernoulli", "flipper", "decay", "epr")

# configs that end in an uncaught exception today instead of exiting 1 or 2
# with a one-line message; their seed does not depend on the run seed
FAULTS = (
    ("bernoulli-orbit-denominator-0", "bernoulli",
     {"n_traj": 200, "orbit_denominator": 0}, "ZeroDivisionError"),
    ("scattering-n-theta-0", "scattering", {"n_theta": 0}, "IndexError"),
    ("flipper-n-bins-0", "flipper", {"n_bins": 0, "n_traj": 16},
     "ZeroDivisionError"),
    ("flipper-n-centers-minus-1", "flipper", {"n_centers": -1, "n_traj": 16},
     "TypeError from a complex cube root in random_scene"),
    ("two-slit-bins-0", "two-slit", {"bins": 0}, "IndexError"),
    ("two-slit-fit-grid-0", "two-slit", {"fit_grid": 0}, "IndexError"),
    ("bigbang-one-mass-at-rest", "bigbang",
     {"masses": [1.0], "velocities": [[0.0, 0.0, 0.0]]},
     "ZeroDivisionError in energy_rel_error"),
)


def read_table(path):
    """quantity,value CSV as a dict of floats."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return {k: float(v) for k, v in (ln.split(",") for ln in lines[1:])}


def read_dat(path):
    with open(path, encoding="utf-8") as f:
        return np.array([[float(x) for x in ln.split()] for ln in f
                         if not ln.startswith("#")])


def _digests(out_dir):
    return {name: hashlib.sha256(
                open(os.path.join(out_dir, name), "rb").read()).hexdigest()
            for name in sorted(os.listdir(out_dir)) if name != "manifest.json"}


class CliCatalog:
    name = "cli-catalog"

    def __init__(self, seed, workdir):
        self.ops = []
        self._first = {}
        for scen, params in CATALOG:
            doc = {"scenario": scen}
            if scen in STOCHASTIC:
                doc["seed"] = seed
            if params:
                doc["parameters"] = params
            self.ops.append(self._op(workdir, scen, scen, doc,
                                     getattr(self, "_check_" +
                                             scen.replace("-", "_"))))
        for label, scen, params, fault in FAULTS:
            doc = {"scenario": scen, "parameters": params}
            if scen in STOCHASTIC:
                doc["seed"] = 1
            self.ops.append(self._op(workdir, label, scen, doc,
                                     self._check_refused, known_fault=fault))

    def _op(self, workdir, label, scen, doc, check, known_fault=None):
        config = os.path.join(workdir, f"{label}.yaml")
        with open(config, "w", encoding="utf-8") as f:
            yaml.safe_dump(doc, f)
        out = os.path.join(workdir, label)
        argv = ["run", scen, "--config", config, "--out", out]
        return Op(label, partial(self._run, argv),
                  partial(self._check_run, label, out, check),
                  known_fault=known_fault)

    @staticmethod
    def _run(argv, k):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, err.getvalue()

    def _check_run(self, label, out, check, result):
        code, stderr = result
        check(out, code, stderr)
        if code != 0:
            return
        # reruns of the same config are byte-identical except the manifest
        digests = _digests(out)
        first = self._first.setdefault(label, digests)
        expect(digests == first, "outputs differ from the first pass")

    @staticmethod
    def _check_refused(out, code, stderr):
        expect(code in (1, 2), f"exit code {code}, expected 1 or 2")
        expect(stderr.strip() and "\n" not in stderr.strip(),
               "error message is not one line")
        expect(not os.path.exists(out), "a refused run wrote files")

    @staticmethod
    def _ok(out, code, stderr):
        expect(code == 0, f"exit code {code}: {stderr.strip()}")
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as f:
            outputs = json.load(f)["outputs"]
        expect(sorted(outputs) == sorted(set(os.listdir(out))
                                         - {"manifest.json"}),
               "manifest outputs do not match the files written")

    def _results(self, out, code, stderr):
        self._ok(out, code, stderr)
        return read_table(os.path.join(out, "results.csv"))

    def _check_bernoulli(self, out, code, stderr):
        r = self._results(out, code, stderr)
        expect(r["orbit_rate_numerator"] == 1
               and r["orbit_rate_denominator"] == 3, "orbit rate of 2/7")
        n = r["n_trajectories_used"]
        expect(n == 1000 and r["n_excluded"] == 0, "ensemble size")
        sigma = math.sqrt(0.25 / (n * 1000))
        expect(abs(r["yes_rate_mean"] - 0.5) < Z * sigma,
               f"yes-rate {r['yes_rate_mean']}")

    def _check_scattering(self, out, code, stderr):
        self._ok(out, code, stderr)
        s, theta = read_dat(os.path.join(out, "deflection.dat")).T
        expect(np.allclose(theta, 2.0 * np.arccos(s), rtol=0.0, atol=1e-12),
               "hard-sphere theta != 2 arccos(s/R)")
        rho = read_dat(os.path.join(out, "transfer.dat"))[:, 1]
        err = float(np.max(np.abs(rho * 4.0 * math.pi - 1.0)))
        expect(err < 1e-3, f"unit disk density rel err {err:.2e}")

    def _check_flipper(self, out, code, stderr):
        self._ok(out, code, stderr)
        with open(os.path.join(out, "results.csv"), encoding="utf-8") as f:
            rows = np.array([[float(x) for x in ln.split(",")]
                             for ln in f.read().splitlines()[1:]])
        mean, iso, sigma = rows[:, 3], rows[:, 5], rows[:, 6]
        expect(abs(mean.sum() - 1.0) < 1e-12, "rates do not sum to 1")
        expect(np.allclose(iso, isotropic_signed_masses(len(rows)),
                           rtol=1e-12, atol=0.0), "isotropic masses")
        expect(np.allclose(sigma, mean * math.pi * 0.05 ** 2, rtol=1e-14,
                           atol=0.0), "cross sections != mean * pi * r0^2")

    def _check_decay(self, out, code, stderr):
        r = self._results(out, code, stderr)
        expect(r["momentum_residual"] < 1e-9 and r["energy_residual"] < 1e-9,
               "conservation residuals")
        expect(abs(r["mean_life"] - 1.5) < Z * r["mean_life_stderr"],
               f"mean life {r['mean_life']}")

    def _check_stern_gerlach(self, out, code, stderr):
        r = self._results(out, code, stderr)
        # defaults: mu = m = 1, speed 5, slab [1, 2], |B| = 0.5 on the axis,
        # gradient 2, incoming ray at 60 degrees from the device axis
        expect(_rel(r["weight_plus"], math.cos(math.radians(30)) ** 2) < 1e-12
               and _rel(r["weight_minus"],
                        math.sin(math.radians(30)) ** 2) < 1e-12,
               "Born weights")
        for label, sign in (("plus", 1), ("minus", -1)):
            tau = 1.0 / math.sqrt(25.0 - sign * 2.0 * 0.5)
            expect(_rel(r[f"tau_{label}"], tau) < 1e-12, f"tau_{label}")
            defl = -sign * 0.5 * 2.0 * tau * tau
            expect(_rel(r[f"deflection_{label}"], defl) < 1e-9,
                   f"deflection_{label}")

    def _check_epr(self, out, code, stderr):
        r = self._results(out, code, stderr)
        target = 2.0 * math.sqrt(2.0)
        expect(abs(r["S_analytic"] - target) < 1e-12, "S != 2 sqrt 2")
        expect(abs(r["S_sampled"] - target) < Z * r["S_sampled_stderr"],
               f"sampled S {r['S_sampled']}")
        expect(r["S_deterministic_max"] == 2.0, "deterministic bound")

    def _check_two_slit(self, out, code, stderr):
        r = self._results(out, code, stderr)
        predicted = 2e-5 * 1.0 / (2.0 * 0.25 * 0.02)
        expect(_rel(r["fringe_spacing"], predicted) < 0.02, "fringe spacing")
        expect(r["visibility_on"] > 0.9 and r["visibility_off"] < 0.05,
               "visibilities")

    def _check_bigbang(self, out, code, stderr):
        r = self._results(out, code, stderr)
        expect(r["converged"] == 1, "did not converge")
        m = np.array([1.5, 0.5])[:, None]
        v = np.array([[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]])
        dist = float(np.linalg.norm(v[0] - v[1]))
        e0 = 0.5 * float((m * v * v).sum()) + 2.0 * math.exp(-dist ** 2 / 2.0)
        vp = np.array([[r[f"v{i}{c}"] for c in "xyz"] for i in (1, 2)])
        ke = 0.5 * float((m * vp * vp).sum())
        expect(_rel(ke, e0) < 1e-6, f"energy rel err {_rel(ke, e0):.2e}")


WORKLOADS = {cls.name: cls for cls in
             (FlipperEnsemble, BernoulliEnsemble, Solvers, CliCatalog)}
