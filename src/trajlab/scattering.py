"""Classical scattering: deflection laws, density transfer, and the flipper.

A repulsive central potential turns an incoming impact parameter s into an
outgoing polar deflection theta(s). That map carries a transverse source
density rho_a(s) into a solid-angle density rho_b(theta) with the exact
Jacobian

    rho_b(theta) = rho_a(s(theta)) * (s / sin theta) * |ds/dtheta|,

which is the dual, density-level route to the sampling pushforward in
:mod:`trajlab.core`; both are kept and cross-checked rather than collapsed.

The flipper is a statistically homogeneous medium of identical centers. A
trajectory flies straight between encounters and is deflected by theta(s) at
each one, so its speed never changes and each encounter is one trial of the
"which angular bin" experiment.

Polar deflections live in [0, pi]. A signed angle in (-pi, pi] is used only
for flipper outcome binning; the sign is the side of the encounter's impact
direction in a fixed frame perpendicular to the incoming ray, which is +/-
symmetric for isotropic scenes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.integrate import solve_ivp

from .core import MeasureSpec
from .errors import IntegrationError

__all__ = [
    "Potential",
    "HardSphere",
    "RepulsivePower",
    "ScreenedCoulomb",
    "turning_radius",
    "deflection_angle",
    "DeflectionFunction",
    "transfer_density",
    "inverse_transfer_density",
    "isotropic_source_density",
    "transverse_mass",
    "solid_angle_mass",
    "FlipperScene",
    "random_scene",
    "trace_flipper",
    "FlipperTrajectory",
    "EncounterRecord",
    "bin_edges",
    "angle_bins",
    "entry_measure",
    "flipper_outcome_builder",
    "flipper_cross_section",
]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


class Potential:
    """Repulsive central potential V(r), decaying to 0 at infinity."""

    name = "potential"

    def __call__(self, r):
        raise NotImplementedError

    def derivative(self, r):
        raise NotImplementedError


@dataclass(frozen=True)
class HardSphere(Potential):
    """Impenetrable sphere: V = +inf inside ``radius``, 0 outside."""

    radius: float
    name = "hard-sphere"

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        return np.where(r < self.radius, np.inf, 0.0)

    def derivative(self, r):
        return np.zeros_like(np.asarray(r, dtype=float))


@dataclass(frozen=True)
class RepulsivePower(Potential):
    """V(r) = strength / r**exponent; exponent 1 is the inverse-square force."""

    strength: float
    exponent: float = 1.0
    name = "repulsive-power"

    def __post_init__(self):
        if not (self.strength > 0 and self.exponent > 0):
            raise ValueError("strength and exponent must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return self.strength / r ** self.exponent

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return -self.exponent * self.strength / r ** (self.exponent + 1.0)


@dataclass(frozen=True)
class ScreenedCoulomb(Potential):
    """V(r) = strength * exp(-r/screening_length) / r."""

    strength: float
    screening_length: float
    name = "screened-coulomb"

    def __post_init__(self):
        if not (self.strength > 0 and self.screening_length > 0):
            raise ValueError("strength and screening_length must be positive")

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            v = self.strength * np.exp(-r / self.screening_length) / r
        return np.where(np.isfinite(r), v, 0.0)

    def derivative(self, r):
        r = np.asarray(r, dtype=float)
        a = self.screening_length
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            d = -self.strength * np.exp(-r / a) * (1.0 / r ** 2 + 1.0 / (a * r))
        return np.where(np.isfinite(r), d, 0.0)


# ---------------------------------------------------------------------------
# single-center deflection
# ---------------------------------------------------------------------------


_RTOL = 8.9e-16  # root finders stop within four ulps
_N_NODES = 256  # Gauss-Legendre nodes of the deflection integral
_ODE_RTOL, _ODE_ATOL = 1e-11, 1e-13  # planar-motion reference path
_DIFF_STEP = 1e-6  # relative step of the central differences in theta and s
_MIN_SPACING = 10.0  # least flipper center spacing, in action ranges
_PACKING = 0.5  # n_centers * d_min^3 / cell volume of a random scene
_MAX_TRIES = 100_000  # placement attempts before a random scene gives up


def _flat(x):
    """``x`` as a 1-d float array, and the map back to ``x``'s shape. A
    scalar runs as a one-element array: numpy's power of a 0-d array can
    differ in the last bit from the same element of an array."""
    a = np.asarray(x, dtype=float)
    return a.reshape(-1), (lambda res: float(res[0]) if a.ndim == 0
                           else res.reshape(a.shape))


def turning_radius(potential: Potential, energy: float, s):
    """Distance of closest approach: largest root of 1 - (s/r)^2 - V(r)/E.

    ``s`` may be an array; see :func:`_turning_u` for the method.
    """
    if not energy > 0:
        raise ValueError("energy must be positive")
    s, back = _flat(s)
    if np.any(s < 0):
        raise ValueError("impact parameter must be nonnegative")
    if isinstance(potential, HardSphere):
        return back(np.maximum(s, potential.radius))
    u_head = _turning_u(potential, energy, np.zeros(1))[0]
    return back(1.0 / _turning_u(potential, energy, s, u_head))


def _turning_u(potential, energy, s, u_head=math.inf):
    """1/r_min for each row of the 1-d ``s``: the zero of the falling
    G(u) = 1 - s^2 u^2 - V(1/u)/E, bracketed from above by min(1/s, u_head)
    (G(1/s) = -V(s)/E and G(u_head) = -s^2 u_head^2 for the head-on root
    u_head; the cap keeps a tiny s from overflowing V'), doubled while G > 0
    (from 1 for s = 0 without a cap) and polished by Newton steps kept
    inside the bracket.
    """
    def G(u, s):  # G and dG/du
        r, su = 1.0 / u, s * u
        return (1.0 - su * su - potential(r) / energy,
                potential.derivative(r) * r * r / energy - 2.0 * s * su)

    with np.errstate(divide="ignore"):
        hi = np.minimum(1.0 / s, u_head)
    hi[np.isinf(hi)] = 1.0
    idx = np.arange(len(s))
    for _ in range(2000):
        idx = idx[G(hi[idx], s[idx])[0] > 0]
        if not idx.size:
            break
        hi[idx] *= 2.0
    else:
        raise IntegrationError("failed to bracket turning point from above")
    lo, u, idx = np.zeros_like(hi), hi.copy(), np.arange(len(s))
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(200):
            ui = u[idx]
            g, slope = G(ui, s[idx])
            lo[idx] = lo_i = np.where(g > 0, ui, lo[idx])
            hi[idx] = hi_i = np.where(g > 0, hi[idx], ui)
            new = ui - g / slope
            u[idx] = new = np.where(g == 0, ui, np.where(
                (new >= lo_i) & (new <= hi_i), new, 0.5 * (lo_i + hi_i)))
            idx = idx[np.abs(new - ui) > _RTOL * new]
            if not idx.size:
                return u
    raise IntegrationError("turning point did not converge")


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n):
    if n not in _GL_CACHE:
        x, w = leggauss(n)
        _GL_CACHE[n] = (0.5 * (x + 1.0), 0.5 * w)  # map to [0, 1]
    return _GL_CACHE[n]


def _deflection_integral(potential, energy, s, u_head):
    """Quadrature of theta = pi - 2 s \\int_0^{u_max} du / sqrt(F(u)).

    ``s`` is a 1-d array; all rows are one ``(len(s), _N_NODES)`` array, and
    ``u_head`` is the head-on root that caps each turning-point bracket. The
    turning-point square-root singularity is removed by u = u_max*(1 - x^2),
    after which the integrand is smooth and Gauss-Legendre converges at
    machine precision for the shipped potentials.
    """
    u_max = _turning_u(potential, energy, s, u_head)
    x, w = _gl_nodes(_N_NODES)
    u = u_max[:, None] * (1.0 - x * x)
    su = s[:, None] * u
    F = 1.0 - su * su - np.asarray(potential(1.0 / u), dtype=float) / energy
    if np.any(F <= 0):
        raise IntegrationError("radicand vanished at an interior node")
    theta = math.pi - 4.0 * s * u_max * np.sum(w * x / np.sqrt(F), axis=1)
    return np.clip(theta, 0.0, math.pi)


def _deflection_ode(potential, energy, s):
    """Deflection from integrating the planar equations of motion.

    Intended for short-range potentials where a finite start/exit radius
    captures the whole interaction; the quadrature path is preferred for
    slowly decaying tails.
    """
    mass = 1.0
    v0 = math.sqrt(2.0 * energy / mass)
    # quiet radius: tail energy below integrator tolerance
    r_start = max(turning_radius(potential, energy, 0.0), s, 1e-6)
    for _ in range(200):
        if float(potential(r_start)) / energy < 1e-13:
            break
        r_start *= 1.5
    else:
        raise IntegrationError(
            "potential tail decays too slowly for the planar-motion "
            "path; use the quadrature method")
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
    if not sol.success or not len(sol.t_events[0]):
        raise IntegrationError("planar integration did not escape the potential")
    vx, vy = sol.y[2, -1], sol.y[3, -1]
    cosang = vx / math.hypot(vx, vy)
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


def deflection_angle(potential: Potential, energy: float, s,
                     method: str = "integral"):
    """Polar scattering angle theta(s) in [0, pi]; ``s`` may be an array.

    Hard spheres use the reflection law theta = 2*arccos(s/R), element by
    element in scalar libm (the flipper's per-encounter call). Smooth
    potentials default to the deflection-integral quadrature; pass
    ``method="ode"`` to integrate the planar equations of motion instead.
    """
    if not energy > 0:
        raise ValueError("energy must be positive")
    if isinstance(potential, HardSphere) and np.ndim(s) == 0 and not s < 0:
        return 2.0 * math.acos(min(s / potential.radius, 1.0))
    s, back = _flat(s)
    if np.any(s < 0):
        raise ValueError("impact parameter must be nonnegative")
    if isinstance(potential, HardSphere):
        R = potential.radius
        return back(np.array([2.0 * math.acos(min(v / R, 1.0))
                              for v in s.tolist()]))
    if method == "integral":
        u_head = _turning_u(potential, energy, np.zeros(1))[0]
        return back(_deflection_integral(potential, energy, s, u_head))
    if method == "ode":
        return back(np.array([_deflection_ode(potential, energy, v)
                              for v in s.tolist()]))
    raise ValueError(f"unknown method {method!r}")


class DeflectionFunction:
    """theta(s) for one (potential, energy), with inverse and derivative.

    Every method takes a float or an array, and a row gets the same bits
    alone as in any batch. The map is strictly decreasing for the shipped
    repulsive potentials; this is spot-checked on a grid at construction.
    The inverse brackets each angle in one coarse theta(s) table (s from
    1e-9 to about 2^200 head-on turning radii in steps of 2; linear on
    [0, R] for a hard sphere) and polishes all angles at once by Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 1971) to four ulps in s.
    """

    def __init__(self, potential: Potential, energy: float,
                 check_monotone: bool = True):
        if not energy > 0:
            raise ValueError("energy must be positive")
        self.potential = potential
        self.energy = float(energy)
        if isinstance(potential, HardSphere):
            self.s_max = potential.radius
            s_tab = np.linspace(0.0, potential.radius, 33)
        else:
            self.s_max = math.inf
            self._u_head = _turning_u(potential, energy, np.zeros(1))[0]
            scale = 1.0 / self._u_head
            s_tab = scale * 1e-9 * 2.0 ** np.arange(231)
            if check_monotone:
                # only a rise to above 1e-9 counts, a hundredfold margin
                # over theta's 1e-11 jitter; the far tail clips to 0
                th = self(scale * np.geomspace(0.05, 50.0, 24))
                if np.any((np.diff(th) >= 0) & (th[1:] > 1e-9)):
                    raise IntegrationError(
                        "deflection function is not strictly decreasing")
        self._table = s_tab, self(s_tab)

    def __call__(self, s):
        if isinstance(self.potential, HardSphere):
            return deflection_angle(self.potential, self.energy, s)
        s, back = _flat(s)
        if np.any(s < 0):
            raise ValueError("impact parameter must be nonnegative")
        return back(_deflection_integral(self.potential, self.energy, s,
                                         self._u_head))

    def inverse(self, theta):
        """Impact parameter with deflection ``theta`` in (0, pi)."""
        theta, back = _flat(theta)
        if not np.all((theta > 0.0) & (theta < math.pi)):
            raise ValueError("theta must lie strictly inside (0, pi)")
        s_tab, th_tab = self._table
        j = np.searchsorted(-th_tab, -theta)  # first entry at or below theta
        if np.any(j == 0):
            raise IntegrationError(f"theta={theta[j == 0][0]} out of reach "
                                   "(backscatter limit)")
        if np.any(j == len(s_tab)):
            raise IntegrationError("failed to bracket inverse deflection")
        a, b = s_tab[j - 1], s_tab[j]
        fa, fb = th_tab[j - 1] - theta, th_tab[j] - theta  # fa > 0 >= fb
        side = np.zeros(len(theta))  # +1: a moved last, -1: b moved last
        idx = np.flatnonzero(fb < 0)
        for _ in range(200):
            if not idx.size:
                return back(b)
            ai, bi, fai, fbi, si = a[idx], b[idx], fa[idx], fb[idx], side[idx]
            c = bi - fbi * (bi - ai) / (fbi - fai)
            fc = self(c) - theta[idx]
            # c replaces the end of its sign; an end left behind twice
            # running has its value halved (Illinois)
            left = fc > 0
            a[idx], b[idx] = np.where(left, c, ai), np.where(left, bi, c)
            fa[idx] = np.where(left, fc, np.where(si < 0, 0.5 * fai, fai))
            fb[idx] = np.where(left, np.where(si > 0, 0.5 * fbi, fbi), fc)
            side[idx] = np.where(left, 1.0, -1.0)
            # done when the bracket or the step is within four ulps
            step = np.abs(c - np.where(si > 0, ai, bi))
            done = (fc == 0) | (np.minimum(b[idx] - a[idx], step) <= _RTOL * c)
            b[idx[done]] = c[done]
            idx = idx[~done]
        raise IntegrationError("inverse deflection did not converge")

    def ds_dtheta(self, theta):
        """d s / d theta by central differences on the inverse."""
        return self._inverse_and_slope(theta)[1]

    def _inverse_and_slope(self, theta):
        theta, back = _flat(theta)  # s and ds/dtheta from one inverse call
        h = _DIFF_STEP * np.maximum(np.maximum(theta, math.pi - theta), 0.1)
        h = np.minimum(np.minimum(h, 0.49 * theta), 0.49 * (math.pi - theta))
        s, sp, sm = np.split(self.inverse(
            np.concatenate([theta, theta + h, theta - h])), 3)
        return back(s), back((sp - sm) / (2.0 * h))


# ---------------------------------------------------------------------------
# density transfer (boundary statistics a -> b)
# ---------------------------------------------------------------------------


def transfer_density(source_density: Callable[[float], float],
                     deflection: DeflectionFunction,
                     theta_grid: np.ndarray) -> np.ndarray:
    """Exact-Jacobian transfer of a transverse density to solid angle.

    ``source_density(s)`` is the incoming density per transverse area
    (azimuthally symmetric); the result is the outgoing density per solid
    angle on ``theta_grid``, via rho_b = rho_a(s) * (s/sin theta) * |ds/dtheta|.
    The whole grid and its difference steps are inverted in one call.
    """
    theta = np.asarray(theta_grid, dtype=float)
    s, dsdth = deflection._inverse_and_slope(theta)
    rho_a = np.array([float(source_density(v)) for v in s.tolist()])
    return rho_a * (s / np.sin(theta)) * np.abs(dsdth)


def inverse_transfer_density(target_density: Callable[[float], float],
                             deflection: DeflectionFunction,
                             s_grid: np.ndarray) -> np.ndarray:
    """Pull a solid-angle density back to the transverse plane.

    Inverse Jacobian of :func:`transfer_density`; the round trip reproduces
    the source density (tested), which is what licenses using either route.
    """
    s = np.asarray(s_grid, dtype=float)
    h = _DIFF_STEP * np.maximum(1.0, s)
    th, th_p, th_m = np.split(deflection(
        np.concatenate([s, s + h, np.maximum(s - h, 0.0)])), 3)
    dthds = (th_p - th_m) / (h + np.minimum(h, s))
    rho_b = np.array([float(target_density(v)) for v in th.tolist()])
    return rho_b * (np.sin(th) / s) * np.abs(dthds)


def isotropic_source_density(deflection: DeflectionFunction) -> Callable:
    """Transverse density whose transfer is uniform on the sphere.

    Returns rho_a with unit total mass: rho_a(s) = (sin theta / s) *
    |dtheta/ds| / (4 pi). For a hard sphere this is the uniform disk
    1/(pi R^2).
    """

    def rho_a(s: float) -> float:
        s = float(s)
        if s <= 0.0 or s >= deflection.s_max:
            return 0.0
        h = 1e-6 * max(1.0, s)
        lo = max(s - h, 1e-12)
        dthds = (deflection(s + h) - deflection(lo)) / (s + h - lo)
        th = deflection(s)
        return math.sin(th) / s * abs(dthds) / (4.0 * math.pi)

    return rho_a


def transverse_mass(density: Callable[[float], float], s_max: float,
                    n: int = 4096) -> float:
    """Total mass 2 pi \\int rho(s) s ds on (0, s_max]."""
    s = np.linspace(0.0, s_max, n)[1:]
    vals = np.array([float(density(si)) for si in s])
    return 2.0 * math.pi * float(np.trapezoid(vals * s, s))


def solid_angle_mass(density_on_grid: np.ndarray, theta_grid: np.ndarray) -> float:
    """Total mass 2 pi \\int rho(theta) sin theta dtheta on the grid."""
    theta_grid = np.asarray(theta_grid, dtype=float)
    vals = np.asarray(density_on_grid, dtype=float)
    return 2.0 * math.pi * float(np.trapezoid(vals * np.sin(theta_grid), theta_grid))


# ---------------------------------------------------------------------------
# the flipper: many centers, sequential encounters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncounterRecord:
    path_length: float
    center_index: int
    impact_parameter: float
    theta: float
    theta_signed: float


class FlipperScene:
    """Periodic cubic cell of identical repulsive centers.

    The cell tiles space, realizing a statistically homogeneous medium large
    enough that every trajectory keeps encountering centers. Centers must
    keep a minimum mutual spacing of ``_MIN_SPACING * action_range``
    (min-image metric), so encounters are isolated single-center scattering
    events.
    """

    def __init__(self, cell_size: float, centers: np.ndarray,
                 potential: Potential, energy: float, action_range: float):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError("centers must be an (N, 3) array")
        if not (cell_size > 0 and action_range > 0):
            raise ValueError("cell_size and action_range must be positive")
        if np.any(centers < 0) or np.any(centers >= cell_size):
            raise ValueError("centers must lie inside [0, cell_size)^3")
        L = float(cell_size)
        d = centers[:, None, :] - centers[None, :, :]
        d = (d + L / 2.0) % L - L / 2.0
        dist = np.sqrt((d ** 2).sum(-1))
        np.fill_diagonal(dist, np.inf)
        d_min = float(dist.min()) if len(centers) > 1 else math.inf
        if d_min < _MIN_SPACING * action_range:
            raise ValueError(
                f"minimum center spacing {d_min:.4g} violates the required "
                f"{_MIN_SPACING} * action_range = "
                f"{_MIN_SPACING * action_range:.4g}")
        self.cell_size = L
        self.centers = centers
        self.potential = potential
        self.energy = float(energy)
        self.action_range = float(action_range)
        self.min_spacing = d_min
        self.deflection = DeflectionFunction(potential, energy,
                                             check_monotone=False)
        # replicate centers whose action sphere pokes through a cell face,
        # so straight segments inside the cell see every reachable sphere;
        # center_index maps each row of centers_ext to its original center
        r0 = self.action_range * (1.0 + 1e-9)
        images = [centers]
        originals = [np.arange(len(centers))]
        shifts = np.array(np.meshgrid(*([[-L, 0.0, L]] * 3))).T.reshape(-1, 3)
        for sh in shifts:
            if not np.any(sh):
                continue
            img = centers + sh
            keep = np.all((img > -r0) & (img < L + r0), axis=1)
            if keep.any():
                images.append(img[keep])
                originals.append(np.flatnonzero(keep))
        self.centers_ext = np.concatenate(images, axis=0)
        self.center_index = np.concatenate(originals)


def random_scene(n_centers: int, action_range: float, energy: float,
                 potential: Potential | None = None,
                 seed: int = 0) -> FlipperScene:
    """Random sequential placement of centers in a periodic cell.

    The cell is sized so that n_centers * d_min^3 / cell volume is
    ``_PACKING``; 0.5 leaves room for rejection sampling to finish quickly.
    """
    if potential is None:
        potential = HardSphere(action_range)
    d_min = _MIN_SPACING * action_range
    L = (n_centers * d_min ** 3 / _PACKING) ** (1.0 / 3.0)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    placed = np.empty((0, 3))
    tries = 0
    while len(placed) < n_centers:
        tries += 1
        if tries > _MAX_TRIES:
            raise IntegrationError("center placement did not converge; "
                                   "lower packing or n_centers")
        cand = rng.random(3) * L
        if len(placed):
            d = (placed - cand + L / 2.0) % L - L / 2.0
            if np.min((d ** 2).sum(-1)) < d_min ** 2:
                continue
        placed = np.vstack([placed, cand])
    return FlipperScene(L, placed, potential, energy, action_range)


@dataclass(frozen=True)
class FlipperTrajectory:
    """Unit-speed polyline through the scene and its encounters."""

    vertices: np.ndarray
    encounters: list[EncounterRecord]


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (n, 3) arrays, written out per component."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _trace_batch(scene: FlipperScene, positions, directions,
                 n_encounters: int, max_path_length: float | None,
                 record_path: bool):
    """Trace n rays in lockstep; see :func:`trace_flipper` for the physics.

    Each step lays out, for every live ray, its next ``depth`` free-flight
    segments (cell wall to cell wall, as if no sphere were met) and tests
    them all against ``scene.centers_ext`` at once. A ray with a hit goes to
    the first sphere entered along its own segments and is deflected there;
    a ray without one moves to the end of its last segment. ``depth`` is
    ``64 // isqrt(live)``, at least 1: a deeper step shares its fixed cost
    among more crossings but lays out more of them past a ray's hit, and
    the two balance near a depth proportional to 1 / sqrt(live). A full
    block of 256 rays looks 4 crossings ahead, its last ray 64.

    Rays leave the batch once they have ``n_encounters`` encounters or have
    used up ``max_path_length``. A float32 cull may keep extra ray-center
    pairs but drops none that can hit; every pair it keeps is decided in
    float64, and every float64 operation acts on each row alone (dot
    products are written out per component, not left to BLAS), so a ray
    traced by itself gives bitwise the same trajectory as in any batch and
    at any depth. Returns each ray's encounter count, the
    ``(n, n_encounters)`` arrays of the :class:`EncounterRecord` fields (a
    row's first ``count`` valid), and the path vertices as ``(rows,
    points)`` pairs, each row's in the order made.
    """
    L = scene.cell_size
    r0 = scene.action_range
    r0sq = r0 * r0
    push = 1e-9 * L
    if max_path_length is None:
        # a few mean free paths per requested encounter
        mfp = L ** 3 / max(len(scene.centers), 1) / (math.pi * r0sq)
        max_path_length = 20.0 * mfp * n_encounters
    centers = scene.centers_ext
    n_ext = len(centers)
    cx, cy, cz = (np.ascontiguousarray(c) for c in centers.T)
    # Candidate pairs are found in float32 and tested exactly in float64.
    # The cull takes the squared distance from c to a segment's line as
    # |c - q|^2 - (u.c)^2, where q = p - (u.p) u is the line's point
    # nearest the origin, so u.q = 0: one product [q, 1, |q|^2] @
    # [-2c; |c|^2; 1] per segment and one u @ c per ray. With |q| <= |p|
    # <= sqrt(3) L and |c| <= sqrt(3) (L + r0), the terms of the first sum
    # to at most 12 (L + r0)^2 in absolute value and |u.c| <= sqrt(3)
    # (L + r0); float32 rounding of the inputs, the sums, the square and
    # the difference then moves the result by at most about
    # 140 * 2^-24 (L + r0)^2. The cull keeps every pair within a margin
    # some thirty-five times wider than that.
    cull = np.float32(r0sq + 3e-4 * (L + r0) ** 2)
    c32 = np.vstack([-2.0 * centers.T, _dot(centers, centers),
                     np.ones(n_ext)]).astype(np.float32)
    cT32 = centers.T.astype(np.float32)

    P = np.asarray(positions, dtype=float) % L
    U = np.array(directions, dtype=float)
    U /= np.sqrt(_dot(U, U))[:, None]
    n = len(P)
    rows = np.arange(n)  # original row of each live ray
    travelled = np.zeros(n)
    count = np.zeros(n, dtype=np.intp)
    enc_length = np.empty((n, n_encounters))
    enc_center = np.empty((n, n_encounters), dtype=np.intp)
    enc_s = np.empty((n, n_encounters))
    enc_theta = np.empty((n, n_encounters))
    enc_signed = np.empty((n, n_encounters))
    # path vertices as (original rows, points), in the order they were made
    log = [(rows, P.copy())]

    while True:
        done = (count[rows] >= n_encounters) | (travelled >= max_path_length)
        if done.any():
            if not record_path:
                log.append((rows[done], P[done]))
            live = ~done
            rows, P, U, travelled = rows[live], P[live], U[live], \
                travelled[live]
        m = len(rows)
        if not m:
            break
        depth = max(1, 64 // math.isqrt(m))

        # segment i runs from starts[i] to the next cell wall, t_bound[i]
        # away, and ends just past it at starts[i + 1]. An axis with no
        # motion meets its wall at (inf - p) / 1 = inf. For a wall at 0,
        # 0 - p and -p differ only in the sign of a zero, which neither the
        # minimum nor the step can see.
        starts = np.empty((depth + 1, m, 3))
        at = np.empty((depth + 1, m))
        t_bound = np.empty((depth, m))
        starts[0], at[0] = P, travelled
        wall = np.where(U > 0, L, np.where(U < 0, 0.0, np.inf))
        speed = np.where(U != 0, U, 1.0)
        buf = np.empty(U.shape)
        for i in range(depth):
            np.subtract(wall, starts[i], out=buf)
            buf /= speed
            t_i = t_bound[i]
            np.minimum(buf[:, 0], buf[:, 1], out=t_i)
            np.minimum(t_i, buf[:, 2], out=t_i)
            step = t_i + push
            np.multiply(step[:, None], U, out=buf)
            buf += starts[i]
            np.remainder(buf, L, out=starts[i + 1])
            np.add(at[i], step, out=at[i + 1])
        # a segment is flown only if the path budget is left at its start
        n_flown = (at[:-1] < max_path_length).sum(axis=0)
        reach = np.where(np.arange(depth)[:, None] < n_flown, t_bound,
                         -np.inf).reshape(-1)

        # rows of the cull are segments, segment-major: row = i * m + ray
        seg_p = starts[:-1].reshape(-1, 3)
        q = (starts[:-1] - (starts[:-1] * U).sum(axis=2)[:, :, None] * U
             ).reshape(-1, 3)
        d2 = (np.column_stack([q, np.ones(len(q)), (q * q).sum(axis=1)])
              .astype(np.float32) @ c32).reshape(depth, m, n_ext)
        d2 -= np.square(U.astype(np.float32) @ cT32)
        # flat indices: 2-d nonzero is several times slower here
        row, c = np.divmod(np.flatnonzero(d2 < cull), n_ext)
        r = row % m
        wx = cx[c] - seg_p[row, 0]
        wy = cy[c] - seg_p[row, 1]
        wz = cz[c] - seg_p[row, 2]
        t_ca = wx * U[r, 0] + wy * U[r, 1] + wz * U[r, 2]
        gap = r0sq - (wx * wx + wy * wy + wz * wz - t_ca * t_ca)
        t_enter = t_ca - np.sqrt(np.maximum(gap, 0.0))
        # the flown segment to the wall enters the sphere
        ok = (gap > 0) & (t_enter > push) & (t_enter <= reach[row])
        row, r, c, t_ca, t_enter = row[ok], r[ok], c[ok], t_ca[ok], \
            t_enter[ok]
        # first sphere entered by each ray: earliest segment, then earliest
        # entry (ties go to the lower index)
        order = np.lexsort((t_enter, row // m, r))
        h, first = np.unique(r[order], return_index=True)
        k, t_k = c[order][first], t_ca[order][first]
        # segments flown to their end: all flown ones, or those before the
        # hit
        n_free = n_flown.copy()
        n_free[h] = row[order][first] // m
        ray = np.arange(m)
        P, travelled = starts[n_free, ray], at[n_free, ray]
        if record_path:
            # the wall crossings, in each ray's own order
            crossed = np.arange(1, depth + 1) <= n_free[:, None]
            log.append((np.broadcast_to(rows[:, None], crossed.shape)[crossed],
                        starts[1:].swapaxes(0, 1)[crossed]))

        if h.size:
            u = U[h]
            x_ca = P[h] + t_k[:, None] * u
            at_encounter = travelled[h] + t_k
            delta = x_ca - centers[k]
            # impact offset perpendicular to u (remove roundoff component)
            beta = delta - _dot(delta, u)[:, None] * u
            s = np.sqrt(_dot(beta, beta))
            head_on = s < 1e-12 * r0
            # one array call; a smooth potential's quadrature cannot take
            # the head-on rows' vanishing s
            theta = np.full(len(h), math.pi)
            theta[~head_on] = scene.deflection(
                np.minimum(s[~head_on], r0 * (1 - 1e-15)))
            # scalar cos and sin: a row's value cannot depend on its batch
            turns = theta.tolist()
            cos_t = np.array([math.cos(t) for t in turns])
            sin_t = np.array([math.sin(t) for t in turns])

            # fixed frame about u: e1 = z x u, or x x u near the poles;
            # e2 = u x e1
            ux, uy, uz = u.T
            zero = np.zeros(len(h))
            pole = (ux * ux + uy * uy < 1e-24)[:, None]
            e1 = np.where(pole, np.column_stack([zero, -uz, uy]),
                          np.column_stack([-uy, ux, zero]))
            e1 /= np.sqrt(_dot(e1, e1))[:, None]
            e2 = np.column_stack([uy * e1[:, 2] - uz * e1[:, 1],
                                  uz * e1[:, 0] - ux * e1[:, 2],
                                  ux * e1[:, 1] - uy * e1[:, 0]])
            n_hat = np.where(head_on[:, None], e1,
                             beta / np.where(head_on, 1.0, s)[:, None])
            # the sign is the side of the impact direction in that frame
            phi = np.arctan2(_dot(n_hat, e2), _dot(n_hat, e1))
            u_new = cos_t[:, None] * u + sin_t[:, None] * n_hat
            u_new /= np.sqrt(_dot(u_new, u_new))[:, None]

            hit_rows = rows[h]
            j = count[hit_rows]
            enc_length[hit_rows, j] = at_encounter
            enc_center[hit_rows, j] = scene.center_index[k]
            enc_s[hit_rows, j] = s
            enc_theta[hit_rows, j] = theta
            enc_signed[hit_rows, j] = np.where(phi >= 0.0, theta, -theta)
            count[hit_rows] += 1
            log.append((hit_rows, x_ca % L))

            # leave the action sphere along the new direction
            b = _dot(delta, u_new)
            t_leave = -b + np.sqrt(np.maximum(
                b * b + r0sq - _dot(delta, delta), 0.0))
            leave_step = t_leave + push
            P[h] = (x_ca + leave_step[:, None] * u_new) % L
            travelled[h] = at_encounter + leave_step
            U[h] = u_new
            if record_path:
                log.append((hit_rows, P[h]))

    return count, (enc_length, enc_center, enc_s, enc_theta, enc_signed), log


def trace_flipper(scene: FlipperScene, position, direction,
                  n_encounters: int,
                  max_path_length: float | None = None,
                  record_path: bool = True) -> FlipperTrajectory:
    """Integrate one trajectory through ``n_encounters`` encounters.

    Straight free flight, deflection by theta(s) at each closest approach,
    speed preserved exactly. Stops early (fewer encounters) if
    ``max_path_length`` is exhausted; callers exclude short trajectories via
    the trial-count floor. ``record_path=False`` keeps only encounter
    vertices (statistics unchanged, geometry coarse) for large ensembles.
    This is the lockstep kernel with a batch of one ray.
    """
    count, fields, log = _trace_batch(
        scene, np.reshape(position, (1, 3)), np.reshape(direction, (1, 3)),
        n_encounters, max_path_length, record_path)
    return FlipperTrajectory(
        np.concatenate([p for _, p in log]),
        [EncounterRecord(*e) for e in zip(*(f[0, :count[0]].tolist()
                                            for f in fields))])


def bin_edges(n_bins: int) -> np.ndarray:
    """Edges of the n equal outcome bins partitioning (-pi, pi]."""
    return -math.pi + 2.0 * math.pi * np.arange(n_bins + 1) / n_bins


def angle_bins(theta_signed, n_bins: int) -> np.ndarray:
    """Index of the equal bin of (-pi, pi] each signed angle falls in."""
    i = np.floor((np.asarray(theta_signed) + math.pi) / (2.0 * math.pi / n_bins))
    return np.clip(i, 0, n_bins - 1).astype(np.intp)


def entry_measure(scene: FlipperScene) -> MeasureSpec:
    """Uniform entry point in the cell, isotropic direction (6-vector).

    Starts within ``action_range`` of a center (min-image) are drawn again
    from the same stream: a hard sphere's interior (V = +inf) cannot be
    reached, and the tracer deflects only rays that enter a sphere from
    outside. Rows that start outside keep their first draw.
    """

    L = scene.cell_size
    r0sq = scene.action_range ** 2

    def draw(rng, n):
        pos = rng.random((n, 3)) * L
        vec = rng.normal(size=(n, 3))
        vec /= np.linalg.norm(vec, axis=1, keepdims=True)
        return np.concatenate([pos, vec], axis=1)

    def sampler(rng, n):
        out = draw(rng, n)
        redraw = np.arange(n)
        while True:
            d = (scene.centers[None, :, :] - out[redraw, None, :3]
                 + L / 2.0) % L - L / 2.0
            redraw = redraw[((d * d).sum(-1) <= r0sq).any(axis=1)]
            if not redraw.size:
                return out
            out[redraw] = draw(rng, redraw.size)

    return MeasureSpec(dimension=6, sampler=sampler, density=None,
                       total_mass=1.0, name="flipper-entry")


def flipper_outcome_builder(scene: FlipperScene, n_bins: int,
                            n_encounters: int,
                            max_path_length: float | None = None):
    """Outcome builder for :func:`trajlab.core.ensemble_statistics`.

    Entry points ``(n, 6)`` go to the ``(n, n_encounters)`` angle bins of
    each ray's signed deflections, padded with -1 past a ray that stopped
    early. A block (``core.BUILD_BLOCK`` rows) is one lockstep batch; each
    step looks ``64 // isqrt(live)`` wall crossings ahead, so a full block
    steps 4 crossings at a time and its last ray 64.
    """

    def build(points):
        count, (*_, theta_signed), _ = _trace_batch(
            scene, points[:, :3], points[:, 3:6], n_encounters,
            max_path_length, False)
        outcomes = np.full((len(points), n_encounters), -1, dtype=np.intp)
        valid = np.arange(n_encounters) < count[:, None]
        outcomes[valid] = angle_bins(theta_signed[valid], n_bins)
        return outcomes

    return build


def cross_sections_from_rates(rates: np.ndarray, action_range: float) -> np.ndarray:
    """Per-outcome cross sections sigma_i = f_i * pi * r0^2."""
    return np.asarray(rates, dtype=float) * math.pi * action_range ** 2


@dataclass(frozen=True)
class FlipperResult:
    """Ensemble rate statistics plus the cross sections they normalise to."""

    stats: "RateStatistics"
    cross_sections: np.ndarray
    n_outcomes: int


def flipper_cross_section(scene: FlipperScene, source_measure=None,
                          n_outcomes: int = 8, n_traj: int = 1000,
                          n_min_trials: int = 1, seed: int = 0,
                          n_encounters: int = 20,
                          max_path_length: float | None = None) -> FlipperResult:
    """Binned encounter rates over an ensemble, scaled to cross sections.

    Draws entry states from ``source_measure`` (isotropic over the cell by
    default), integrates each trajectory through ``n_encounters``
    encounters, classifies every signed deflection into ``n_outcomes``
    equal angle bins, and reports mean rates, their spread, and the
    per-bin cross sections ``f_i * pi * r0^2``. Trajectories with fewer
    than ``n_min_trials`` encounters are excluded from the statistics.
    """
    from .core import ensemble_statistics

    if source_measure is None:
        source_measure = entry_measure(scene)
    stats = ensemble_statistics(
        source_measure,
        flipper_outcome_builder(scene, n_outcomes, n_encounters,
                                max_path_length),
        n_outcomes, n_trajectories=n_traj, n_min_trials=n_min_trials,
        seed=seed)
    sigma = cross_sections_from_rates(stats.mean, scene.action_range)
    return FlipperResult(stats=stats, cross_sections=sigma,
                         n_outcomes=n_outcomes)
