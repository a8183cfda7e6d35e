"""Source statistics that depend on a distant device, and late-time motion.

The centerpiece is a biprism bench: a point source emits at an angle, the
ray passes a charged wire and lands on a screen. With the wire's field on,
each ray gets a fixed angular kick toward the axis on whichever side it
passes, so two overlapping virtual beams form and the screen shows
fringes. The emission measure is CONSTRUCTED by pulling the desired screen
density back through the deflection map, one Jacobian factor per branch.
Doing this for the fringe pattern (field on) and for the smooth envelope
(field off) yields two different angular densities at the same source,
which is the point: the source statistics cannot be fixed independently of
the downstream device. The total-variation distance between the two
pullbacks quantifies that dependence.

The same module hosts the late-time machinery: asymptotic velocity
lim x(t)/t for bounded interactions probed at geometric checkpoints, the
free momentum-box measure with its mass-cube scaling, and the pointwise
decomposition of a density into a smooth part plus a signed interference
remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .core import BoundaryMap, MeasureSpec
from .errors import (
    AbsorbedRayError,
    IntegrationError,
    UnsupportedInputError,
)

__all__ = [
    "BiprismScene", "ScreenDensity", "standard_bench",
    "biprism_deflection", "fringe_target_density", "envelope_target_density",
    "uniform_target_density", "emission_measure_from_screen",
    "screen_density_from_emission", "fringe_visibility",
    "estimate_fringe_spacing", "emission_tv_distance",
    "GaussianPairPotential", "CompactBumpPotential", "NBodySystem",
    "AsymptoticVelocityResult", "asymptotic_velocity", "velocity_boundary_map",
    "free_quantum_momentum_measure",
    "InterferenceDecomposition", "interference_decomposition",
]

_FLAT_FRACTION = 0.6  # flat share of the targets' flat-top envelope
_VISIBILITY_FRACTION = 1.0 / 3.0  # central window share fringe_visibility reads
_SPACING_FRACTION = 0.55  # central window share estimate_fringe_spacing reads
_NBODY_RTOL, _NBODY_ATOL = 1e-10, 1e-12  # DOP853 tolerances of integrate


# ---------------------------------------------------------------------------
# biprism bench
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BiprismScene:
    """Point source, charged wire, screen; all lengths from the source.

    ``kick_angle`` is the inward angular deflection a passing ray receives
    when the field is on. The two virtual sources then sit at transverse
    offsets +-(source_to_wire * kick_angle), so their separation is
    ``2 * source_to_wire * kick_angle`` and the fringe spacing on the
    screen is ``wavelength * source_to_screen / separation``.
    """

    source_to_screen: float
    source_to_wire: float
    wire_radius: float
    kick_angle: float
    field_on: bool
    wavelength: float
    aperture: float

    def __post_init__(self):
        if not 0 < self.source_to_wire < self.source_to_screen:
            raise ValueError("need 0 < source_to_wire < source_to_screen")
        if self.wire_radius < 0:
            raise ValueError("wire_radius must be nonnegative")
        if self.field_on and self.kick_angle <= 0:
            raise ValueError("field on needs a positive kick angle")
        if self.kick_angle < 0:
            raise ValueError("kick angle must be nonnegative")
        if not 0 < self.aperture < 0.5:
            raise ValueError("aperture must be a small positive angle (rad)")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if self.shadow_angle >= self.aperture:
            raise ValueError("wire shadow swallows the whole aperture")

    @property
    def shadow_angle(self) -> float:
        """Half-angle of the wire's geometric shadow seen from the source."""
        return math.atan2(self.wire_radius, self.source_to_wire)

    @property
    def separation(self) -> float:
        """Virtual two-source separation (field on)."""
        return 2.0 * self.source_to_wire * self.kick_angle

    @property
    def fringe_spacing(self) -> float:
        return self.wavelength * self.source_to_screen / self.separation

    def with_field(self, on: bool) -> "BiprismScene":
        return BiprismScene(self.source_to_screen, self.source_to_wire,
                            self.wire_radius, self.kick_angle, on,
                            self.wavelength, self.aperture)


def standard_bench(field_on: bool = True) -> BiprismScene:
    """The stock bench: unit source-screen length, wire a quarter in.

    The kick gives a virtual-source separation of 0.01 and a fringe
    spacing of 0.002, about fourteen fringes across the overlap window.
    Zero wire radius keeps the field-off screen density smooth at the
    axis (a finite radius casts a geometric shadow there).
    """
    return BiprismScene(source_to_screen=1.0, source_to_wire=0.25,
                        wire_radius=0.0, kick_angle=0.02, field_on=field_on,
                        wavelength=2e-5, aperture=0.03)


def _deflect_array(angles: np.ndarray, scene: BiprismScene) -> np.ndarray:
    """Vectorized deflection map; absorbed rays come back NaN."""
    a = np.asarray(angles, dtype=float)
    d = scene.source_to_wire
    rest = scene.source_to_screen - d
    x_wire = d * np.tan(a)
    out = np.empty_like(x_wire)
    absorbed = (np.abs(x_wire) <= scene.wire_radius) & (scene.wire_radius > 0)
    if scene.field_on:
        side = np.sign(x_wire)
        out = x_wire + rest * np.tan(a - side * scene.kick_angle)
    else:
        out = x_wire + rest * np.tan(a)
    out[absorbed] = np.nan
    out[np.abs(a) > scene.aperture] = np.nan
    return out


def biprism_deflection(emission_angle: float, scene: BiprismScene) -> float:
    """Screen coordinate reached by a ray emitted at the given angle.

    Field off: straight flight. Field on: straight to the wire plane, a
    fixed angular kick toward the axis on the side of passage, straight
    to the screen.
    """
    if abs(emission_angle) > scene.aperture:
        raise ValueError(f"emission angle {emission_angle} beyond the "
                         f"aperture {scene.aperture}")
    x = _deflect_array(np.array([emission_angle]), scene)[0]
    if math.isnan(x):
        raise AbsorbedRayError(
            f"ray at angle {emission_angle} hits the wire "
            f"(radius {scene.wire_radius}) and is absorbed")
    return float(x)


def _branch_ranges(scene: BiprismScene) -> list[tuple[float, float]]:
    """Angle intervals that actually reach the screen, per passage side."""
    lo = scene.shadow_angle
    pad = 1e-9 + lo * 1e-9
    return [(-scene.aperture, -(lo + pad)), (lo + pad, scene.aperture)]


def _overlap_window(scene: BiprismScene) -> tuple[float, float]:
    """Screen interval covered by both passage sides (field on)."""
    ranges = _branch_ranges(scene)
    images = []
    for a0, a1 in ranges:
        x0, x1 = _deflect_array(np.array([a0, a1]), scene)
        images.append((min(x0, x1), max(x0, x1)))
    lo = max(img[0] for img in images)
    hi = min(img[1] for img in images)
    if not hi > lo:
        raise UnsupportedInputError(
            "the two passage sides do not overlap on the screen; increase "
            "the kick angle or the aperture")
    return lo, hi


@dataclass(frozen=True)
class ScreenDensity:
    """Normalised density on a screen window, with a smooth taper to zero."""

    window: tuple[float, float]
    profile: Callable[[np.ndarray], np.ndarray]
    fringe_spacing: float | None = None
    name: str = ""
    _norm: float = 1.0

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.window
        inside = (x >= lo) & (x <= hi)
        out = np.zeros_like(x, dtype=float)
        if np.any(inside):
            out[inside] = self.profile(x[inside]) / self._norm
        return out

    @staticmethod
    def normalized(window, profile, fringe_spacing=None, name="",
                   n_grid: int = 32769) -> "ScreenDensity":
        xs = np.linspace(window[0], window[1], n_grid)
        mass = float(np.trapezoid(profile(xs), xs))
        if not (math.isfinite(mass) and mass > 0):
            raise ValueError("screen profile must have positive finite mass")
        return ScreenDensity(window=tuple(window), profile=profile,
                             fringe_spacing=fringe_spacing, name=name,
                             _norm=mass)


def _flat_top_envelope(half_width: float):
    """1 on the flat middle, cosine taper to 0 at +-half_width."""
    def env(x):
        x = np.abs(np.asarray(x, dtype=float))
        flat = _FLAT_FRACTION * half_width
        out = np.ones_like(x)
        taper = (x > flat) & (x <= half_width)
        out[taper] = 0.5 * (1.0 + np.cos(
            math.pi * (x[taper] - flat) / (half_width - flat)))
        out[x > half_width] = 0.0
        return out
    return env


def _screen_window(scene: BiprismScene) -> tuple[float, float]:
    if scene.field_on:
        lo, hi = _overlap_window(scene)
        half = 0.98 * min(-lo, hi)
    else:
        half = 0.5 * scene.source_to_screen * math.tan(scene.aperture)
    return -half, half


def fringe_target_density(scene: BiprismScene) -> ScreenDensity:
    """Two-source interference target on the overlap window (field on).

    Unit-contrast cosine of spacing wavelength*L/separation under a
    flat-top envelope; maximum at the axis, first null half a spacing out.
    """
    if not scene.field_on:
        raise ValueError("fringe target is defined for the field-on state")
    lo, hi = _screen_window(scene)
    half = hi
    spacing = scene.fringe_spacing
    env = _flat_top_envelope(half)

    def profile(x):
        return env(x) * (1.0 + np.cos(2.0 * math.pi * x / spacing))

    return ScreenDensity.normalized((lo, hi), profile,
                                    fringe_spacing=spacing, name="fringes")


def envelope_target_density(scene: BiprismScene) -> ScreenDensity:
    """The same flat-top envelope without modulation (the smooth target)."""
    lo, hi = _screen_window(scene)
    env = _flat_top_envelope(hi)
    return ScreenDensity.normalized((lo, hi), env, name="envelope")


def uniform_target_density(scene: BiprismScene) -> ScreenDensity:
    lo, hi = _screen_window(scene)
    return ScreenDensity.normalized(
        (lo, hi), lambda x: np.ones_like(np.asarray(x, dtype=float)),
        name="uniform")


def _jacobian(angles: np.ndarray, scene: BiprismScene) -> np.ndarray:
    """d(screen position)/d(angle), positive on each branch."""
    a = np.asarray(angles, dtype=float)
    d = scene.source_to_wire
    rest = scene.source_to_screen - d
    if scene.field_on:
        side = np.sign(a)
        return d / np.cos(a) ** 2 + rest / np.cos(a - side * scene.kick_angle) ** 2
    return d / np.cos(a) ** 2 + rest / np.cos(a) ** 2


def emission_measure_from_screen(target: ScreenDensity, scene: BiprismScene,
                                 n_grid: int = 8192) -> MeasureSpec:
    """Angular measure whose pushforward through the bench is the target.

    Per passage side the map is strictly monotone, so the pullback is the
    Jacobian transfer of the target; where both sides reach the same
    screen point the mass is split evenly between them. Pushing the
    result forward reproduces the target.
    """
    ranges = _branch_ranges(scene)
    images = []
    grids = []
    for a0, a1 in ranges:
        alphas = np.linspace(a0, a1, n_grid)
        xs = _deflect_array(alphas, scene)
        if np.any(np.isnan(xs)):
            raise UnsupportedInputError("branch range crosses the wire shadow")
        diffs = np.diff(xs)
        if not (np.all(diffs > 0) or np.all(diffs < 0)):
            raise UnsupportedInputError(
                "deflection map is not monotone on a passage side; the "
                "pullback needs piecewise invertibility")
        grids.append(alphas)
        images.append((float(min(xs[0], xs[-1])), float(max(xs[0], xs[-1]))))

    def coverage(x):
        x = np.asarray(x, dtype=float)
        k = np.zeros_like(x)
        for lo, hi in images:
            k += ((x >= lo) & (x <= hi)).astype(float)
        return k

    def density(alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.zeros_like(alpha)
        valid = np.zeros_like(alpha, dtype=bool)
        for a0, a1 in ranges:
            valid |= (alpha >= a0) & (alpha <= a1)
        if not np.any(valid):
            return out
        av = alpha[valid]
        xs = _deflect_array(av, scene)
        k = coverage(xs)
        w = np.where(k > 0, 1.0 / np.maximum(k, 1.0), 0.0)
        out[valid] = target(xs) * _jacobian(av, scene) * w
        return out

    # dense tabulation for the inverse-CDF sampler, then exact renormalization
    alpha_all = np.concatenate(grids)
    q_all = density(alpha_all)
    cdf = np.concatenate([[0.0], np.cumsum(
        0.5 * (q_all[1:] + q_all[:-1]) * np.diff(alpha_all))])
    # the joint grid has a gap at the shadow; the segment crossing it gets
    # the trapezoid of its endpoints, both of which carry zero density
    mass = float(cdf[-1])
    if mass <= 0:
        raise UnsupportedInputError("target density places no mass on the "
                                    "reachable screen region")

    def normalized_density(alpha):
        return density(alpha) / mass

    def sampler(rng, n):
        u = rng.random(n) * mass
        return np.interp(u, cdf, alpha_all).reshape(n, 1)

    state = "on" if scene.field_on else "off"
    return MeasureSpec(dimension=1, sampler=sampler,
                       density=normalized_density, total_mass=1.0,
                       name=f"emission[{target.name or 'target'}, field {state}]")


def screen_density_from_emission(measure: MeasureSpec, scene: BiprismScene,
                                 bins: int = 256,
                                 window: tuple[float, float] | None = None,
                                 n_grid: int = 200_001):
    """Deterministic pushforward of an angular density onto screen bins.

    Returns (bin edges, per-bin density). Quadrature masses of a dense
    angle grid are routed through the deflection map and histogrammed, so
    the result is noise-free and converges with the grid.
    """
    if window is None:
        window = _screen_window(scene)
    edges = np.linspace(window[0], window[1], bins + 1)
    masses = np.zeros(bins)
    for a0, a1 in _branch_ranges(scene):
        alphas = np.linspace(a0, a1, n_grid)
        mids = 0.5 * (alphas[1:] + alphas[:-1])
        dq = measure.density(mids) * np.diff(alphas)
        xs = _deflect_array(mids, scene)
        ok = ~np.isnan(xs)
        masses += np.histogram(xs[ok], bins=edges, weights=dq[ok])[0]
    width = edges[1] - edges[0]
    return edges, masses / width


def fringe_visibility(edges: np.ndarray, density: np.ndarray) -> float:
    """(max - min) / (max + min) over the central part of the window."""
    centers = 0.5 * (edges[1:] + edges[:-1])
    half = _VISIBILITY_FRACTION * 0.5 * (edges[-1] - edges[0])
    mid = np.abs(centers - 0.5 * (edges[0] + edges[-1])) <= half
    vals = np.asarray(density, dtype=float)[mid]
    hi, lo = float(vals.max()), float(max(vals.min(), 0.0))
    if hi + lo == 0:
        return 0.0
    return (hi - lo) / (hi + lo)


def estimate_fringe_spacing(edges: np.ndarray, density: np.ndarray) -> float:
    """Mean distance between interior peaks, refined by local parabolas."""
    centers = 0.5 * (edges[1:] + edges[:-1])
    half = _SPACING_FRACTION * 0.5 * (edges[-1] - edges[0])
    mid = np.abs(centers - 0.5 * (edges[0] + edges[-1])) <= half
    x = centers[mid]
    y = np.asarray(density, dtype=float)[mid]
    if len(y) < 5:
        raise ValueError("too few bins to locate fringes")
    peaks = []
    thresh = 0.5 * y.max()
    for i in range(1, len(y) - 1):
        if y[i] >= y[i - 1] and y[i] > y[i + 1] and y[i] > thresh:
            denom = y[i - 1] - 2 * y[i] + y[i + 1]
            shift = 0.0 if denom == 0 else 0.5 * (y[i - 1] - y[i + 1]) / denom
            peaks.append(x[i] + shift * (x[1] - x[0]))
    if len(peaks) < 2:
        raise ValueError("fewer than two fringe peaks found")
    return float(np.mean(np.diff(peaks)))


def emission_tv_distance(measure_a: MeasureSpec, measure_b: MeasureSpec,
                         angle_window: tuple[float, float],
                         n_grid: int = 200_001) -> float:
    """Total-variation distance between two angular densities."""
    alphas = np.linspace(angle_window[0], angle_window[1], n_grid)
    qa = measure_a.density(alphas)
    qb = measure_b.density(alphas)
    return 0.5 * float(np.trapezoid(np.abs(qa - qb), alphas))


# ---------------------------------------------------------------------------
# bounded interactions and late-time velocities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GaussianPairPotential:
    """Bounded repulsive pair potential A exp(-r^2 / (2 w^2))."""

    amplitude: float
    width: float

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.amplitude * np.exp(-0.5 * (r / self.width) ** 2)

    def dvdr(self, r):
        r = np.asarray(r, dtype=float)
        return -self.amplitude * (r / self.width ** 2) * np.exp(
            -0.5 * (r / self.width) ** 2)


@dataclass(frozen=True)
class CompactBumpPotential:
    """Smooth potential that is exactly zero beyond ``radius``."""

    amplitude: float
    radius: float
    center: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float))

    def _profile(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.radius
        u = (r[inside] / self.radius) ** 2
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u))
        return out

    def value(self, x):
        r = float(np.linalg.norm(np.asarray(x, dtype=float) - self.center))
        return float(self._profile(np.array([r]))[0])

    def force(self, x):
        x = np.asarray(x, dtype=float)
        delta = x - self.center
        r = float(np.linalg.norm(delta))
        if r >= self.radius or r == 0.0:
            return np.zeros(3)
        f = 1.0 - (r / self.radius) ** 2
        v = self.amplitude * math.exp(1.0 - 1.0 / f)
        dvdr = v * (-2.0 * r / (self.radius ** 2 * f ** 2))
        return -dvdr * delta / r


class NBodySystem:
    """N particles with an optional bounded pair potential and external field."""

    def __init__(self, masses, pair_potential: GaussianPairPotential | None = None,
                 external_potential: CompactBumpPotential | None = None):
        self.masses = np.asarray(masses, dtype=float)
        if self.masses.ndim != 1 or np.any(self.masses <= 0):
            raise ValueError("masses must be a 1-D array of positive reals")
        self.n = len(self.masses)
        self.pair_potential = pair_potential
        self.external_potential = external_potential

    @property
    def is_free(self) -> bool:
        return self.pair_potential is None and self.external_potential is None

    def accelerations(self, positions: np.ndarray) -> np.ndarray:
        pos = positions.reshape(self.n, 3)
        acc = np.zeros_like(pos)
        if self.pair_potential is not None:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    delta = pos[i] - pos[j]
                    r = float(np.linalg.norm(delta))
                    if r == 0.0:
                        continue
                    f = -float(self.pair_potential.dvdr(r)) * delta / r
                    acc[i] += f / self.masses[i]
                    acc[j] -= f / self.masses[j]
        if self.external_potential is not None:
            for i in range(self.n):
                acc[i] += self.external_potential.force(pos[i]) / self.masses[i]
        return acc

    def energy(self, positions, velocities) -> float:
        pos = np.asarray(positions, dtype=float).reshape(self.n, 3)
        vel = np.asarray(velocities, dtype=float).reshape(self.n, 3)
        e = 0.5 * float(np.sum(self.masses[:, None] * vel * vel))
        if self.pair_potential is not None:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    r = float(np.linalg.norm(pos[i] - pos[j]))
                    e += float(self.pair_potential.value(r))
        if self.external_potential is not None:
            for i in range(self.n):
                e += self.external_potential.value(pos[i])
        return e

    def integrate(self, positions, velocities, t0: float, t1: float):
        """Propagate the state from t0 to t1; free systems go analytically."""
        pos = np.asarray(positions, dtype=float).reshape(self.n, 3)
        vel = np.asarray(velocities, dtype=float).reshape(self.n, 3)
        if self.is_free:
            return pos + vel * (t1 - t0), vel.copy()

        def rhs(_t, y):
            p = y[:3 * self.n].reshape(self.n, 3)
            v = y[3 * self.n:]
            return np.concatenate([v, self.accelerations(p).ravel()])

        sol = solve_ivp(rhs, (t0, t1),
                        np.concatenate([pos.ravel(), vel.ravel()]),
                        method="DOP853", rtol=_NBODY_RTOL, atol=_NBODY_ATOL)
        if not sol.success:
            raise IntegrationError(f"propagation {t0} -> {t1} failed: "
                                   f"{sol.message}")
        y = sol.y[:, -1]
        return y[:3 * self.n].reshape(self.n, 3), y[3 * self.n:].reshape(self.n, 3)


@dataclass(frozen=True)
class AsymptoticVelocityResult:
    """Late-time velocity estimate with its convergence record."""

    v_plus: np.ndarray
    convergence_history: list
    converged: bool


def asymptotic_velocity(system: NBodySystem, velocities, t_max: float,
                        tolerance: float = 1e-8, t0: float = 1.0,
                        growth: float = 2.0) -> AsymptoticVelocityResult:
    """Track position/time at geometric checkpoints until it settles.

    All particles leave one point: the run starts at t0 > 0 from
    positions velocity * t0, which bounded interactions cannot tell from
    the exact coincident start. Convergence means the last two
    checkpoints of x(t)/t differ by less than ``tolerance`` in max norm.
    With no interactions the flight is analytic and x(t)/t returns the
    velocities bit for bit at power-of-two times.
    """
    vel = np.asarray(velocities, dtype=float).reshape(system.n, 3)
    if not (t_max > t0 > 0 and growth > 1):
        raise ValueError("need t_max > t0 > 0 and growth > 1")
    pos = vel * t0
    t = t0
    history = [(t0, (pos / t0).ravel().copy())]
    converged = False
    cur_vel = vel
    while t < t_max:
        t_next = min(t * growth, t_max)
        pos, cur_vel = system.integrate(pos, cur_vel, t, t_next)
        t = t_next
        history.append((t, (pos / t).ravel().copy()))
        diff = float(np.max(np.abs(history[-1][1] - history[-2][1])))
        if diff < tolerance:
            converged = True
            break
    return AsymptoticVelocityResult(v_plus=history[-1][1].copy(),
                                    convergence_history=history,
                                    converged=converged)


def velocity_boundary_map(system: NBodySystem, horizon: float,
                          t0: float = 1.0) -> BoundaryMap:
    """Map initial velocities to positions at a fixed later time.

    Realizes final-position boundary data: a measure on velocities pushes
    through this map to a measure on configurations at the horizon.
    """
    dim = 3 * system.n

    def forward(batch):
        batch = np.atleast_2d(np.asarray(batch, dtype=float))
        out = np.empty_like(batch)
        for k, v in enumerate(batch):
            pos, _ = system.integrate(v.reshape(system.n, 3) * t0,
                                      v.reshape(system.n, 3), t0, horizon)
            out[k] = pos.ravel()
        return out

    return BoundaryMap(source_dimension=dim, target_dimension=dim,
                       forward=forward, name=f"velocity->position@{horizon}")


def free_quantum_momentum_measure(boxes, masses,
                                  normalization: float | None = None) -> float:
    """Measure of a union of velocity boxes under mass scaling.

    Each particle's velocity block is scaled by its mass (velocity boxes
    become momentum boxes), the scaled volumes add, and the total is
    multiplied by ``normalization`` (default (2 pi)^(-3N)). The result is
    proportional to the momentum-space volume: additive over disjoint
    boxes, translation invariant, and scaling as the cube of each mass.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.ndim != 1 or np.any(masses <= 0):
        raise ValueError("masses must be a 1-D array of positive reals")
    n = len(masses)
    dim = 3 * n
    per_dim_mass = np.repeat(masses, 3)
    if normalization is None:
        normalization = (2.0 * math.pi) ** (-dim)

    parsed = []
    for k, (lo, hi) in enumerate(boxes):
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != (dim,) or hi.shape != (dim,):
            raise ValueError(f"box {k}: bounds must be {dim}-vectors")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError(f"box {k} is unbounded; only finite regions "
                             f"carry finite measure")
        if np.any(hi < lo):
            raise ValueError(f"box {k}: upper bounds below lower bounds")
        parsed.append((lo, hi))

    for i in range(len(parsed)):
        for j in range(i + 1, len(parsed)):
            lo_i, hi_i = parsed[i]
            lo_j, hi_j = parsed[j]
            if np.all(np.minimum(hi_i, hi_j) > np.maximum(lo_i, lo_j)):
                raise ValueError(f"boxes {i} and {j} overlap; pass disjoint "
                                 f"boxes so volumes add")

    total = 0.0
    for lo, hi in parsed:
        total += float(np.prod(per_dim_mass * (hi - lo)))
    return normalization * total


@dataclass(frozen=True)
class InterferenceDecomposition:
    """Signed remainder after removing a smooth part from a density."""

    values: np.ndarray
    integral: float
    minimum: float


def interference_decomposition(rho_q, rho_c, grid) -> InterferenceDecomposition:
    """Pointwise difference of two normalised densities on one grid.

    The integral of the difference vanishes by construction (both inputs
    carry unit mass); the minimum may be negative, which is exactly what
    distinguishes the remainder from any density.
    """
    q = np.asarray(rho_q, dtype=float)
    c = np.asarray(rho_c, dtype=float)
    x = np.asarray(grid, dtype=float)
    if not (q.shape == c.shape == x.shape) or q.ndim != 1:
        raise ValueError("densities and grid must be 1-D arrays of one shape")
    for name, arr in (("rho_q", q), ("rho_c", c)):
        mass = float(np.trapezoid(arr, x))
        if abs(mass - 1.0) > 1e-6:
            raise ValueError(f"{name} is not normalised on the grid "
                             f"(mass {mass!r})")
    diff = q - c
    return InterferenceDecomposition(
        values=diff,
        integral=float(np.trapezoid(diff, x)),
        minimum=float(diff.min()))
