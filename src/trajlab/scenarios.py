"""Runnable scenario catalog behind the command-line driver.

Each scenario pairs a strict parameter schema with a run function that
fills an :class:`OutputBundle` entirely in memory. The driver writes the
buffered files only after a run finishes, so a failed run leaves no
partial output on disk.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from .errors import SchemaError, UnsupportedInputError
from .core import is_well_defined
from .bernoulli import orbit_bits, biased_measure, lebesgue_ensemble_rate
from .scattering import (HardSphere, RepulsivePower, ScreenedCoulomb,
                         DeflectionFunction, transfer_density,
                         solid_angle_mass, random_scene, bin_edges,
                         flipper_cross_section)
from .decay import (DecayMasses, DecayBoundary, solve_decay_vertex,
                    conservation_residuals, decay_action, _best_x,
                    exponential_life_measure, uniform_life_measure, mean_life)
from .spin_epr import (SpinVariable, PhysicalConstants, SGDevice,
                       propagate_sg, branch_weights, planar_setting,
                       global_epr_measure, epr_conditional_probabilities,
                       correlator, chsh_value, sample_epr_counts,
                       chsh_estimate,
                       deterministic_strategies, chsh_of_strategy)
from .interference import (BiprismScene, fringe_target_density,
                           envelope_target_density,
                           emission_measure_from_screen,
                           screen_density_from_emission, fringe_visibility,
                           estimate_fringe_spacing, emission_tv_distance,
                           _SPACING_FRACTION,
                           interference_decomposition, GaussianPairPotential,
                           CompactBumpPotential, NBodySystem,
                           asymptotic_velocity)


@dataclass(frozen=True)
class Param:
    """One schema entry: a kind tag, a default, and help text.

    ``min`` and ``max`` bound a number, and ``above`` names a parameter
    the value must exceed; runs that break any of them are refused before
    they start rather than failing inside the scenario.
    """

    kind: str
    default: Any
    help: str = ""
    choices: tuple[str, ...] | None = None
    min: float | None = None
    max: float | None = None
    above: str | None = None


def _check_value(spec: Param, value, path: tuple[str, ...], lines):
    def fail(msg):
        raise SchemaError(msg, key_path=".".join(path), line=lines.get(path))

    def as_number(v, what):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            fail(f"{what} must be a number, got {v!r}")
        try:
            x = float(v)
        except OverflowError:  # an integer beyond the float range
            x = math.inf
        if not math.isfinite(x):
            fail(f"{what} must be finite, got {v!r}")
        return x

    k = spec.kind
    if k in ("int", "float"):
        if k == "int" and (isinstance(value, bool)
                           or not isinstance(value, int)):
            fail(f"expected an integer, got {value!r}")
        x = int(value) if k == "int" else as_number(value, "value")
        if spec.min is not None and x < spec.min:
            fail(f"must be >= {spec.min}, got {value!r}")
        if spec.max is not None and x > spec.max:
            fail(f"must be <= {spec.max}, got {value!r}")
        return x
    if k == "str":
        if not isinstance(value, str):
            fail(f"expected a string, got {value!r}")
        if spec.choices and value not in spec.choices:
            fail(f"must be one of {list(spec.choices)}, got {value!r}")
        return value
    if k == "vec3":
        if not isinstance(value, list) or len(value) != 3:
            fail(f"expected a list of 3 numbers, got {value!r}")
        return [as_number(v, "component") for v in value]
    if k == "floats":
        if not isinstance(value, list) or not value:
            fail(f"expected a nonempty list of numbers, got {value!r}")
        return [as_number(v, "entry") for v in value]
    if k == "vectors":
        if not isinstance(value, list) or not value:
            fail(f"expected a nonempty list of 3-vectors, got {value!r}")
        out = []
        for row in value:
            if not isinstance(row, list) or len(row) != 3:
                fail(f"each entry must be a list of 3 numbers, got {row!r}")
            out.append([as_number(v, "component") for v in row])
        return out
    raise AssertionError(f"unhandled schema kind {k!r}")


def validate_params(schema: dict[str, Param], data, lines=None) -> dict:
    """Resolve a raw parameter mapping against a schema.

    Unknown keys and type mismatches raise :class:`SchemaError` carrying
    the key path and, when the mapping came from a file, the offending
    line.
    """
    lines = lines or {}
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise SchemaError("parameters must be a mapping", key_path="parameters",
                          line=lines.get(("parameters",)))
    for key in data:
        if key not in schema:
            raise SchemaError(f"unknown parameter {key!r}",
                              key_path=f"parameters.{key}",
                              line=lines.get(("parameters", key)))
    resolved = {}
    for key, spec in schema.items():
        if key not in data:
            resolved[key] = spec.default
        else:
            resolved[key] = _check_value(spec, data[key],
                                         ("parameters", key), lines)
    for key, spec in schema.items():
        if spec.above is not None and not resolved[key] > resolved[spec.above]:
            raise SchemaError(f"must be > {spec.above} "
                              f"({resolved[spec.above]!r}), got "
                              f"{resolved[key]!r}",
                              key_path=f"parameters.{key}",
                              line=lines.get(("parameters", key)))
    return resolved


# ---------------------------------------------------------------------------
# buffered file outputs
# ---------------------------------------------------------------------------


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


class OutputBundle:
    """In-memory collection of output files, written by the driver at the end."""

    def __init__(self):
        self._files: list[tuple[str, str]] = []

    def add_csv(self, name: str, header, rows):
        lines = [",".join(str(h) for h in header)]
        for row in rows:
            lines.append(",".join(_fmt(c) for c in row))
        self._files.append((name, "\n".join(lines) + "\n"))

    def add_dat(self, name: str, comments, rows):
        """A numeric table, a sequence of equal-length rows, filled into one
        ``%.17g`` template: each cell prints as :func:`_fmt` prints it, an
        integer below 2**53 included."""
        table = np.asarray(rows, dtype=float)
        text = "".join(f"# {c}\n" for c in comments)
        if len(table):
            n, k = table.shape
            text += ((" ".join(["%.17g"] * k) + "\n") * n
                     % tuple(table.ravel().tolist()))
        self._files.append((name, text))

    def files(self) -> list[tuple[str, str]]:
        return list(self._files)


# ---------------------------------------------------------------------------
# scenario implementations
# ---------------------------------------------------------------------------


def _named(p, *keys: str) -> str:
    return ", ".join(f"{key} = {p[key]!r}" for key in keys)


@contextmanager
def _in_float_range(p, what: str, *keys: str):
    """Re-raise an overflow or a division by zero naming ``keys``."""
    try:
        yield
    except ArithmeticError as exc:
        raise type(exc)(f"{what} is out of float range for "
                        f"{_named(p, *keys)}") from exc


def _finite(x: float) -> float:
    """``x``, or an OverflowError where it rounded to inf or nan."""
    if not math.isfinite(x):
        raise OverflowError
    return x


def _run_bernoulli(p, seed, out: OutputBundle):
    n_steps = p["n_steps"]
    stats = lebesgue_ensemble_rate(
        p["n_traj"], n_steps, seed=seed,
        measure=biased_measure(p["bias"], n_steps))
    x0 = Fraction(p["orbit_numerator"], p["orbit_denominator"])
    bits = orbit_bits(x0, p["orbit_steps"])
    frac = Fraction(int(bits.sum(dtype=np.int64)), p["orbit_steps"])
    out.add_csv("results.csv", ("quantity", "value"), [
        ("yes_rate_mean", float(stats.mean[1])),
        ("yes_rate_spread", math.sqrt(float(stats.variance[1]))),
        ("no_rate_mean", float(stats.mean[0])),
        ("well_defined", int(is_well_defined(stats))),
        ("n_trajectories_used", stats.n_trajectories),
        ("n_excluded", stats.n_excluded),
        ("orbit_rate", float(frac)),
        ("orbit_rate_numerator", frac.numerator),
        ("orbit_rate_denominator", frac.denominator),
    ])
    cum = np.cumsum(bits)
    ks = np.arange(1, len(bits) + 1)
    step = max(1, len(bits) // 500)
    out.add_dat("orbit_rate.dat",
                ["orbit partial yes-rate of the rational start point",
                 "columns: step, rate"],
                np.column_stack((ks[::step], cum[::step] / ks[::step])))


def _run_scattering(p, seed, out: OutputBundle):
    kind = p["potential"]
    if kind == "hard-sphere":
        pot = HardSphere(p["radius"])
    elif kind == "inverse-square":
        pot = RepulsivePower(p["strength"], 1.0)
    else:
        pot = ScreenedCoulomb(p["strength"], p["screening_length"])
    dfl = DeflectionFunction(pot, p["energy"])
    # theta falls as s grows, so a smooth potential's beam is the disk that
    # reaches down to theta_min; a hard sphere's is the sphere's shadow
    s_beam = (dfl.s_max if kind == "hard-sphere"
              else dfl.inverse(p["theta_min"]))

    n_s = p["n_s"]
    s_grid = s_beam * (np.arange(n_s) + 0.5) / n_s
    thetas = dfl(s_grid)
    out.add_dat("deflection.dat",
                [f"deflection angle for the {kind} potential at energy "
                 f"{_fmt(p['energy'])}",
                 "columns: impact parameter s, deflection angle theta"],
                np.column_stack((s_grid, thetas)))

    theta_grid = np.linspace(p["theta_min"], p["theta_max"], p["n_theta"])
    with _in_float_range(p, "the beam disk density 1/(pi s_max^2)",
                         "radius" if kind == "hard-sphere" else "theta_min"):
        disk = 1.0 / (math.pi * s_beam ** 2)
    # s / sin theta overflows, and the slope's difference step underflows,
    # as theta_min nears 0
    with _in_float_range(p, "the transfer density", "theta_min"):
        rho_b = transfer_density(lambda s: disk if 0.0 < s <= s_beam else 0.0,
                                 dfl, theta_grid)
        _finite(float(np.abs(rho_b).max()))
    out.add_dat("transfer.dat",
                ["solid-angle density transferred from a uniform disk beam",
                 "columns: theta, rho_b(theta)"],
                np.column_stack((theta_grid, rho_b)))

    rows = [
        ("energy", p["energy"]),
        ("s_max", s_beam),
        ("theta_min", p["theta_min"]),
        ("theta_max", p["theta_max"]),
        ("rho_b_mid", float(rho_b[len(rho_b) // 2])),
        ("solid_angle_mass", solid_angle_mass(rho_b, theta_grid)),
    ]
    if kind == "hard-sphere":
        # unit-mass disk through a hard sphere covers the sphere evenly
        rows.append(("isotropic_reference", 1.0 / (4.0 * math.pi)))
    out.add_csv("results.csv", ("quantity", "value"), rows)


def _signed_isotropic_mass(lo: float, hi: float) -> float:
    # cumulative from 0 of the signed-angle density |sin(t)|/4 on (-pi, pi]
    g = lambda t: math.copysign(1.0 - math.cos(t), t) / 4.0
    return g(hi) - g(lo)


def _run_flipper(p, seed, out: OutputBundle):
    with _in_float_range(p, "the periodic cell", "action_range"):
        scene = random_scene(p["n_centers"], p["action_range"], 1.0,
                             seed=p["scene_seed"])
    res = flipper_cross_section(scene, n_outcomes=p["n_bins"],
                                n_traj=p["n_traj"], seed=seed,
                                n_encounters=p["n_encounters"],
                                n_min_trials=p["min_encounters"])
    edges = bin_edges(p["n_bins"])
    stats = res.stats
    rows = []
    dat_rows = []
    for i in range(p["n_bins"]):
        lo, hi = float(edges[i]), float(edges[i + 1])
        iso = _signed_isotropic_mass(lo, hi)
        sigma = float(res.cross_sections[i])
        rows.append((i, lo, hi, float(stats.mean[i]),
                     math.sqrt(float(stats.variance[i])), iso, sigma))
        dat_rows.append((0.5 * (lo + hi), sigma,
                         iso * math.pi * p["action_range"] ** 2))
    out.add_csv("results.csv",
                ("bin", "theta_lo", "theta_hi", "mean_rate", "rate_spread",
                 "isotropic_rate", "cross_section"), rows)
    out.add_dat("cross_section.dat",
                ["per-bin cross sections against the isotropic prediction",
                 "columns: bin midpoint angle, cross section, isotropic"],
                dat_rows)


def _run_decay(p, seed, out: OutputBundle):
    masses = DecayMasses(p["m1"], p["m2"], p["m3"], p["c"])
    with _in_float_range(p, "the released energy (m1 - m2 - m3) c^2", "c"):
        released = masses.released_energy
    boundary = DecayBoundary(np.array(p["x_a"]), p["t_a"],
                             np.array(p["x_b2"]), np.array(p["x_b3"]),
                             p["t_b"])
    vertex = solve_decay_vertex(masses, boundary)
    dp, de = conservation_residuals(masses, vertex)
    if p["life_distribution"] == "exponential":
        life, keys = exponential_life_measure(p["tau0"]), ("tau0",)
    else:
        life = uniform_life_measure(p["life_low"], p["life_high"])
        keys = ("life_low", "life_high")
    with _in_float_range(p, "the mean life or its standard error", *keys):
        est, err = map(_finite, mean_life(life, p["n_life_samples"],
                                          seed=seed))

    rows = [("t_d", vertex.t_d),
            ("x_d_x", float(vertex.x_d[0])),
            ("x_d_y", float(vertex.x_d[1])),
            ("x_d_z", float(vertex.x_d[2])),
            ("action", vertex.action),
            ("momentum_residual", dp),
            ("energy_residual", de),
            ("released_energy", released),
            ("mean_life", est),
            ("mean_life_stderr", err)]
    for label, v in (("v1", vertex.v1), ("v2", vertex.v2), ("v3", vertex.v3)):
        for c, comp in zip("xyz", v):
            rows.append((f"{label}_{c}", float(comp)))
    out.add_csv("results.csv", ("quantity", "value"), rows)

    span = boundary.t_b - boundary.t_a
    ts = boundary.t_a + span * np.linspace(0.002, 0.998, p["n_profile"])
    action = decay_action(masses, boundary, _best_x(masses, boundary, ts), ts)
    out.add_dat("action_profile.dat",
                ["least action over the split position at each split time",
                 "columns: split time, action"], np.column_stack((ts, action)))


def _run_stern_gerlach(p, seed, out: OutputBundle):
    th = math.radians(p["spin_theta_deg"])
    s_in = SpinVariable(np.array([math.cos(0.5 * th), math.sin(0.5 * th)],
                                 dtype=complex))
    device = SGDevice(entry_x=p["entry_x"], exit_x=p["exit_x"],
                      base_field=p["base_field"], gradient=p["gradient"],
                      screen_x=p["screen_x"])
    constants = PhysicalConstants(mu=p["mu"], m=p["mass"])
    r0 = np.zeros(3)
    v0 = np.array([p["speed"], 0.0, 0.0])
    with _in_float_range(p, "the flight time to the entry plane", "speed"):
        t_plus, t_minus = propagate_sg(r0, v0, device, constants)
    w_plus, w_minus = branch_weights(p["weight_model"], psi=s_in)

    t_entry = device.entry_x / p["speed"]
    with _in_float_range(p, "the squared speed", "speed"):
        vv = _finite(float(v0 @ v0))
    with _in_float_range(p, "the kinetic energy", "speed", "mass"):
        e_in = _finite(0.5 * p["mass"] * vv)
    rows = [("weight_plus", w_plus), ("weight_minus", w_minus)]
    for traj, label in ((t_plus, "plus"), (t_minus, "minus")):
        tau = traj.transit_time
        t_exit = t_entry + tau
        t_scr = traj.screen_time
        r_entry, r_exit, r_scr = traj.evaluate(
            np.array([t_entry, t_exit, t_scr]))
        # transverse velocity is untouched by the entry kick, so the drift
        # term uses v0's component along the device axis z
        defl = float(r_exit[2]) - (float(r_entry[2]) + float(v0[2]) * tau)
        sign = 1.0 if label == "plus" else -1.0
        pred = -sign * 0.5 * (p["mu"] * p["gradient"] / p["mass"]) * tau ** 2
        # from positions, not the library's exit velocity: this checks it
        v_after = (r_scr - r_exit) / (t_scr - t_exit)
        e_out = 0.5 * p["mass"] * float(v_after @ v_after)
        rows += [(f"tau_{label}", tau),
                 (f"deflection_{label}", defl),
                 (f"predicted_{label}", pred),
                 (f"screen_z_{label}", float(r_scr[2])),
                 (f"energy_drift_{label}", abs(e_out - e_in))]
        times = np.linspace(0.0, t_scr, p["n_table"])
        path = traj.evaluate(times)
        out.add_dat(f"branch_{label}.dat",
                    [f"branch {traj.branch_id} path through the device",
                     "columns: t, x (beam axis), z (device axis)"],
                    np.column_stack((times, path[:, 0], path[:, 2])))
    out.add_csv("results.csv", ("quantity", "value"), rows)


def _run_epr(p, seed, out: OutputBundle):
    angles = (p["angle_a"], p["angle_a_prime"], p["angle_b"],
              p["angle_b_prime"])
    a, ap, b, bp = (planar_setting(x) for x in angles)
    s_exact = chsh_value(a, ap, b, bp)
    counts = sample_epr_counts(a, ap, b, bp, p["n_pairs"], seed=seed)
    s_hat, s_err = chsh_estimate(counts)
    det_max = max(abs(chsh_of_strategy(st)) for st in
                  deterministic_strategies())

    weights = global_epr_measure(a, ap, b, bp)
    out.add_csv("cells.csv",
                ("setting_a", "result_a", "setting_b", "result_b", "weight"),
                [(i, 1 - 2 * ra, j, 1 - 2 * rb, float(weights[i, ra, j, rb]))
                 for i, ra, j, rb in np.ndindex(2, 2, 2, 2)])

    conds = {ij: epr_conditional_probabilities(weights, ij)
             for ij in np.ndindex(2, 2)}
    out.add_csv("conditionals.csv",
                ("setting_a", "setting_b", "p_pp", "p_pm", "p_mp", "p_mm",
                 "correlator"), [(i, j, *c.ravel().tolist(), correlator(c))
                                 for (i, j), c in conds.items()])
    marg = float(conds[1, 1][0, 0] + conds[1, 1][0, 1])

    out.add_csv("results.csv", ("quantity", "value"), [
        ("S_analytic", s_exact),
        ("S_sampled", s_hat),
        ("S_sampled_stderr", s_err),
        ("S_deterministic_max", det_max),
        ("marginal_a_plus", marg),
        ("n_pairs", p["n_pairs"]),
    ])

    offs = np.linspace(0.0, 360.0, p["scan_points"])
    bo, bpo = (np.array([planar_setting(angle + off) for off in offs])
               .reshape(-1, 3) for angle in (p["angle_b"], p["angle_b_prime"]))
    out.add_dat("chsh_scan.dat",
                ["four-correlator sum as both of B's settings rotate",
                 "columns: offset (degrees), S"],
                np.column_stack((offs, chsh_value(a, ap, bo, bpo))))


def _run_two_slit(p, seed, out: OutputBundle):
    scene_on = BiprismScene(field_on=True, **{k: v for k, v in p.items()
                                              if k != "bins"})
    scene_off = scene_on.with_field(False)

    target_on = fringe_target_density(scene_on)
    target_env = envelope_target_density(scene_on)
    target_off = envelope_target_density(scene_off)

    mu_on = emission_measure_from_screen(target_on, scene_on)
    mu_off = emission_measure_from_screen(target_off, scene_off)
    lo, hi = target_on.window
    need = 2.0 * (hi - lo) / scene_on.fringe_spacing
    if p["bins"] < need:  # a bin over half a fringe aliases the fringes
        raise UnsupportedInputError(
            f"{p['bins']} screen bins are fewer than the {math.ceil(need)} "
            "that put two in each fringe spacing; raise bins")
    # estimate_fringe_spacing finds the peaks at +-1 spacing in its window
    # only with the bin beyond each inside too: up to 1.5 bins past a peak
    bin_width = (hi - lo) / p["bins"]
    if (_SPACING_FRACTION * (hi - lo)
            < 2.0 * scene_on.fringe_spacing + 3.0 * bin_width):
        raise UnsupportedInputError(
            "fewer than two fringes of the predicted spacing "
            f"{scene_on.fringe_spacing!r} fall in the middle of the screen "
            "window where the spacing is measured, for "
            + _named(p, "wavelength", "source_to_wire", "kick_angle"))

    edges_on, dens_on = screen_density_from_emission(mu_on, scene_on,
                                                     bins=p["bins"])
    edges_off, dens_off = screen_density_from_emission(mu_off, scene_off,
                                                       bins=p["bins"])

    vis_on = fringe_visibility(edges_on, dens_on)
    vis_off = fringe_visibility(edges_off, dens_off)
    spacing = estimate_fringe_spacing(edges_on, dens_on)
    predicted = scene_on.fringe_spacing
    tv = emission_tv_distance(mu_on, mu_off)

    grid = np.linspace(lo, hi, 4097)
    deco = interference_decomposition(target_on(grid), target_env(grid), grid)

    out.add_csv("results.csv", ("quantity", "value"), [
        ("visibility_on", vis_on),
        ("visibility_off", vis_off),
        ("fringe_spacing", spacing),
        ("fringe_spacing_predicted", predicted),
        ("spacing_rel_error", abs(spacing - predicted) / predicted),
        ("tv_distance", tv),
        ("interference_integral", deco.integral),
        ("interference_min", deco.minimum),
    ])

    for name, edges, dens, state in (("screen_on.dat", edges_on, dens_on,
                                      "on"),
                                     ("screen_off.dat", edges_off, dens_off,
                                      "off")):
        mids = 0.5 * (edges[1:] + edges[:-1])
        out.add_dat(name, [f"screen density, field {state}",
                           "columns: x, density"],
                    np.column_stack((mids, dens)))
    alphas = np.linspace(-scene_on.aperture, scene_on.aperture, 4001)
    for name, mu, state in (("emission_on.dat", mu_on, "on"),
                            ("emission_off.dat", mu_off, "off")):
        out.add_dat(name, [f"emission angle density, field {state}",
                           "columns: angle, density"],
                    np.column_stack((alphas, mu.density(alphas))))
    out.add_dat("interference.dat",
                ["fringe density minus its smooth envelope",
                 "columns: x, difference"],
                np.column_stack((grid, deco.values)))


def _refuse_bound(p, system: NBodySystem, vel, e0: float):
    """Refuse a start whose energy forbids escape. Both potentials vanish
    at infinity, so once every body has escaped the energy is kinetic, not
    negative; pair forces keep the internal energy, and the bump each
    body's own. A bound body oscillates for ever and has no limit."""
    m = system.masses
    if system.pair_potential is not None:
        total = m @ vel
        energies = {"the internal energy":
                    e0 - float(total @ total) / (2.0 * float(m.sum()))}
        keys = ("width",)
    else:
        energies = {f"body {i + 1}'s energy": NBodySystem(
            [mass], external_potential=system.external_potential).energy(
                v * p["t0"], v) for i, (mass, v) in enumerate(zip(m, vel))}
        keys = ("bump_radius", "bump_center")
    for what, energy in energies.items():
        if energy < 0:
            raise ValueError(
                f"{what} {energy!r} is below 0, so the start is bound and has "
                "no late-time velocity, for " + _named(
                    p, "masses", "velocities", "amplitude", *keys))


def _run_bigbang(p, seed, out: OutputBundle):
    masses = p["masses"]
    vel = np.array(p["velocities"], dtype=float)
    if vel.shape != (len(masses), 3):
        raise ValueError(f"need one velocity 3-vector per mass, got "
                         f"{vel.shape[0]} vectors for {len(masses)} masses: "
                         + _named(p, "masses", "velocities"))
    kind = p["interaction"]
    if kind == "none":
        system = NBodySystem(masses)
    elif kind == "gaussian":
        system = NBodySystem(masses, pair_potential=GaussianPairPotential(
            p["amplitude"], p["width"]))
    else:
        system = NBodySystem(masses, external_potential=CompactBumpPotential(
            p["amplitude"], p["bump_radius"], tuple(p["bump_center"])))

    with _in_float_range(p, "the N-body motion", "bump_radius"
                         if kind == "bump" else "width"):
        e0 = system.energy(vel * p["t0"], vel)
        if e0 == 0.0:
            raise ValueError("initial energy is zero, so the relative energy "
                             "error is undefined, for "
                             + _named(p, "masses", "velocities"))
        if kind != "none":
            _refuse_bound(p, system, vel, e0)
        res = asymptotic_velocity(system, vel, t_max=p["t_max"],
                                  tolerance=p["tolerance"], t0=p["t0"],
                                  growth=p["growth"])
    vp = res.v_plus.reshape(len(masses), 3)
    ke = 0.5 * float(np.sum(np.asarray(masses)[:, None] * vp * vp))

    rows = [("converged", int(res.converged)),
            ("n_checkpoints", len(res.convergence_history)),
            ("t_final", float(res.convergence_history[-1][0])),
            ("energy_initial", e0),
            ("kinetic_final", ke),
            ("energy_rel_error", abs(ke - e0) / abs(e0))]
    for i in range(len(masses)):
        for c, val in zip("xyz", vp[i]):
            rows.append((f"v{i + 1}{c}", float(val)))
    out.add_csv("results.csv", ("quantity", "value"), rows)

    header = ["t"] + [f"v{i + 1}{c}" for i in range(len(masses))
                      for c in "xyz"]
    hist_rows = [[t] + [float(x) for x in h]
                 for t, h in res.convergence_history]
    out.add_csv("history.csv", header, hist_rows)
    out.add_dat("convergence.dat",
                ["distance of the running velocity estimate from its limit",
                 "columns: t, max-norm distance"],
                [(t, float(np.max(np.abs(h - res.v_plus))))
                 for t, h in res.convergence_history])


# ---------------------------------------------------------------------------
# the catalog
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    name: str
    summary: str
    stochastic: bool
    schema: dict[str, Param]
    run: Callable[[dict, int, OutputBundle], None]


SCENARIOS: dict[str, Scenario] = {}


def _register(name, summary, stochastic, schema, run):
    SCENARIOS[name] = Scenario(name, summary, stochastic, schema, run)


_register(
    "bernoulli",
    "doubling-map ensemble rates and the exact rational orbit",
    True,
    {
        "n_traj": Param("int", 10_000, "trajectories in the ensemble",
                         min=1, max=2 ** 32),
        "n_steps": Param("int", 1000, "steps (bits) per trajectory", min=1),
        "bias": Param("float", 0.5, "P(bit = 1) of the product measure",
                      min=0, max=1),
        "orbit_numerator": Param("int", 2, "rational start: numerator"),
        "orbit_denominator": Param("int", 7, "rational start: denominator",
                                   min=1),
        "orbit_steps": Param("int", 3000, "steps of the exact orbit", min=1),
    },
    _run_bernoulli)

_register(
    "scattering",
    "single-center deflection and solid-angle density transfer",
    False,
    {
        "potential": Param("str", "hard-sphere", "scattering center type",
                           choices=("hard-sphere", "inverse-square",
                                    "screened-coulomb")),
        "energy": Param("float", 1.0, "beam kinetic energy"),
        "radius": Param("float", 1.0, "hard-sphere radius"),
        "strength": Param("float", 1.0, "potential strength constant"),
        "screening_length": Param("float", 1.0, "screening length"),
        "theta_min": Param("float", 0.2, "transfer table lower angle"),
        "theta_max": Param("float", 3.0, "transfer table upper angle",
                           above="theta_min"),
        "n_theta": Param("int", 100, "transfer table size", min=1),
        "n_s": Param("int", 50, "deflection table size", min=1),
    },
    _run_scattering)

_register(
    "flipper",
    "cross sections from encounter rates in a periodic array of centers",
    True,
    {
        "n_centers": Param("int", 216, "centers per periodic cell", min=1,
                           max=16_384),
        "action_range": Param("float", 0.05, "hard-sphere radius r0"),
        "scene_seed": Param("int", 3, "placement seed for the cell"),
        "n_traj": Param("int", 300, "trajectories in the ensemble", min=1,
                        max=2 ** 32),
        "n_encounters": Param("int", 20, "encounters followed per trajectory",
                               min=1),
        "n_bins": Param("int", 8, "equal angle bins over (-pi, pi]", min=1),
        "min_encounters": Param("int", 1, "trial floor below which a "
                                          "trajectory is excluded"),
    },
    _run_flipper)

_register(
    "decay",
    "least-action split vertex, conservation residuals, and mean life",
    True,
    {
        "m1": Param("float", 4.0, "parent mass"),
        "m2": Param("float", 1.0, "first product mass"),
        "m3": Param("float", 2.0, "second product mass"),
        "c": Param("float", 1.0, "speed scale in the rest term"),
        "x_a": Param("vec3", [0.0, 0.0, 0.0], "parent position at t_a"),
        "t_a": Param("float", 0.0, "start time"),
        "x_b2": Param("vec3", [3.0, 1.0, -0.5], "product 2 position at t_b"),
        "x_b3": Param("vec3", [-2.0, 0.5, 0.25], "product 3 position at t_b"),
        "t_b": Param("float", 10.0, "detection time"),
        "life_distribution": Param("str", "exponential",
                                   "measure over split times",
                                   choices=("exponential", "uniform")),
        "tau0": Param("float", 1.5, "exponential time constant"),
        "life_low": Param("float", 0.0, "uniform lower bound"),
        "life_high": Param("float", 2.0, "uniform upper bound"),
        "n_life_samples": Param("int", 100_000, "mean-life sample count",
                                 min=1),
        "n_profile": Param("int", 400, "points in the action profile table",
                           min=0),
    },
    _run_decay)

_register(
    "stern-gerlach",
    "branch pair through a uniform-gradient slab with spin alignment",
    False,
    {
        "mu": Param("float", 1.0, "magnetic moment"),
        "mass": Param("float", 1.0, "particle mass"),
        "speed": Param("float", 5.0, "beam speed along x"),
        "entry_x": Param("float", 1.0, "slab entry plane"),
        "exit_x": Param("float", 2.0, "slab exit plane"),
        "base_field": Param("float", 0.5, "field magnitude on the axis"),
        "gradient": Param("float", 2.0, "field gradient along the device "
                                        "axis"),
        "screen_x": Param("float", 4.0, "detection plane"),
        "spin_theta_deg": Param("float", 60.0, "incoming ray polar angle"),
        "weight_model": Param("str", "quantum", "branch weight rule",
                              choices=("quantum", "equal")),
        "n_table": Param("int", 201, "rows per branch table", min=1),
    },
    _run_stern_gerlach)

_register(
    "epr",
    "singlet pair statistics: 16-cell measure, conditionals, and the "
    "four-correlator sum",
    True,
    {
        "angle_a": Param("float", 0.0, "wing A first setting (degrees)"),
        "angle_a_prime": Param("float", 90.0, "wing A second setting"),
        "angle_b": Param("float", 225.0, "wing B first setting"),
        "angle_b_prime": Param("float", 135.0, "wing B second setting"),
        "n_pairs": Param("int", 100_000, "sampled pairs", min=1),
        "scan_points": Param("int", 73, "points in the rotation scan", min=0),
    },
    _run_epr)

_register(
    "two-slit",
    "biprism bench: fringe reproduction, emission measures, and the "
    "signed interference remainder",
    False,
    {
        "source_to_screen": Param("float", 1.0, "source-screen distance"),
        "source_to_wire": Param("float", 0.25, "source-wire distance"),
        "wire_radius": Param("float", 0.0, "absorbing wire radius"),
        "kick_angle": Param("float", 0.02, "inward deflection when on"),
        "wavelength": Param("float", 2e-5, "wavelength setting the fringe "
                                           "scale"),
        "aperture": Param("float", 0.03, "half-angle of the source fan"),
        "bins": Param("int", 256, "screen bins", min=1),
    },
    _run_two_slit)

_register(
    "bigbang",
    "late-time velocity limits for expanding point systems",
    False,
    {
        "masses": Param("floats", [1.5, 0.5], "particle masses"),
        "velocities": Param("vectors", [[0.8, 0.1, 0.0], [-2.4, -0.3, 0.0]],
                            "initial velocity per particle"),
        "interaction": Param("str", "gaussian", "interaction type",
                             choices=("none", "gaussian", "bump")),
        "amplitude": Param("float", 2.0, "potential amplitude"),
        "width": Param("float", 1.0, "gaussian pair width"),
        "bump_radius": Param("float", 2.0, "compact bump support radius"),
        "bump_center": Param("vec3", [0.0, 0.0, 0.0], "compact bump center"),
        "t_max": Param("float", 16_777_216.0, "integration horizon"),
        "tolerance": Param("float", 1e-8, "checkpoint convergence tolerance"),
        "t0": Param("float", 1.0, "first checkpoint time"),
        "growth": Param("float", 2.0, "checkpoint time ratio"),
    },
    _run_bigbang)
