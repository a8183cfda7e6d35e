"""Source statistics that depend on a distant device, and late-time motion.

The centerpiece is a biprism bench: a point source emits at an angle, the
ray passes a charged wire and lands on a screen. With the wire's field on,
each ray gets a fixed angular kick toward the axis on whichever side it
passes, so two overlapping virtual beams form and the screen shows
fringes. On each passage side the map from angle to screen point is
strictly increasing and inverts in closed form (one root of a quadratic in
tan(angle)). The emission measure is CONSTRUCTED by pulling the desired
screen density back through that map, one Jacobian factor per side; the
push-forward back onto the screen pulls each screen bin's edges back to
angles and integrates the emission density over them. Doing this for the
fringe pattern (field on) and for the smooth envelope (field off) yields
two different angular densities at the same source, which is the point:
the source statistics cannot be fixed independently of the downstream
device. The total-variation distance between the two pullbacks quantifies
that dependence. Every integral is one rule, a 32-node Gauss-Legendre
panel: one per screen bin's pulled-back interval, and for the screen and
emission normalisations and the distance, panels between the density's
breakpoints (and, for the distance, the two densities' crossings, located
first) that are halved until halving changes nothing at rounding level.

The same module hosts the late-time machinery: asymptotic velocity
lim x(t)/t for bounded interactions probed at geometric checkpoints, the
free momentum-box measure with its mass-cube scaling, and the pointwise
decomposition of a density into a smooth part plus a signed interference
remainder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field, replace
from typing import Callable

import numpy as np

from .core import _sorted_unique
from .errors import IntegrationError, UnsupportedInputError
from .scattering import _gl_nodes

__all__ = [
    "BiprismScene", "ScreenDensity", "standard_bench",
    "fringe_target_density", "envelope_target_density",
    "EmissionMeasure", "emission_measure_from_screen",
    "screen_density_from_emission", "fringe_visibility",
    "estimate_fringe_spacing", "emission_tv_distance",
    "GaussianPairPotential", "CompactBumpPotential", "NBodySystem",
    "AsymptoticVelocityResult", "asymptotic_velocity",
    "free_quantum_momentum_measure",
    "InterferenceDecomposition", "interference_decomposition",
]

_FLAT_FRACTION = 0.6  # flat share of the targets' flat-top envelope
_VISIBILITY_FRACTION = 1.0 / 3.0  # central window share fringe_visibility reads
_SPACING_FRACTION = 0.55  # central window share estimate_fringe_spacing reads
_NBODY_RTOL, _NBODY_ATOL = 1e-10, 1e-12  # DOP853 tolerances of integrate
_MAX_CHECKPOINTS = 100_000  # longest schedule asymptotic_velocity builds
_GAUSS_NODES = 32  # Gauss-Legendre nodes per emission-angle panel
_MAX_PANELS = 2 ** 14  # most unsettled panels _integral halves at once


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
    screen is ``wavelength * source_to_screen / separation``. The kick
    stays below pi/2 - aperture, so no ray turns past the screen's normal
    and the map is strictly increasing on each passage side.
    """

    source_to_screen: float
    source_to_wire: float
    wire_radius: float
    kick_angle: float
    field_on: bool
    wavelength: float
    aperture: float

    def __post_init__(self):
        if not 0 < self.source_to_wire < self.source_to_screen < math.inf:
            self._refuse("need 0 < source_to_wire < source_to_screen < inf, "
                         "got", "source_to_wire", "source_to_screen")
        if not self.wire_radius >= 0:
            self._refuse("need wire_radius >= 0, got", "wire_radius")
        if not 0 < self.aperture < 0.5:
            self._refuse("need 0 < aperture < 0.5 rad, got", "aperture")
        if self.field_on and not self.kick_angle > 0:
            self._refuse("need kick_angle > 0 for fringes, got", "kick_angle")
        if not 0 <= self.kick_angle < 0.5 * math.pi - self.aperture:
            self._refuse("need 0 <= kick_angle < pi/2 - aperture, got",
                         "kick_angle", "aperture")
        if not 0 < self.wavelength < math.inf:
            self._refuse("need 0 < wavelength < inf, got", "wavelength")
        if self.field_on and not (self.separation > 0
                                  and self.fringe_spacing < math.inf):
            self._refuse("the fringe spacing is out of float range for",
                         "wavelength", "source_to_wire", "kick_angle")
        if self.shadow_angle >= self.aperture:
            self._refuse("need atan(wire_radius / source_to_wire) < aperture, "
                         "got", "wire_radius", "source_to_wire", "aperture")
        # the pull-back's quadratic overflows (past source_to_screen 1.3e154
        # on the stock bench) first at an end of a side's image: angle 0 or NaN
        for side, ends in zip((-1, 1), _side_images(self)):
            if not np.all(np.abs(_pull_back(np.array(ends), self, side)) > 0):
                self._refuse("the screen-to-emission map is out of float "
                             "range for", "source_to_screen")

    def _refuse(self, text: str, *keys: str):
        """Raise ValueError: ``text``, then each of ``keys`` = its value."""
        raise ValueError(f"{text} " + ", ".join(
            f"{key} = {getattr(self, key)!r}" for key in keys))

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
        return replace(self, field_on=on)


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


def _kick(a, scene: BiprismScene):
    """Inward turn of a ray at emission angle ``a``: the kick toward the
    axis on its passage side with the field on, none with it off."""
    return np.sign(a) * scene.kick_angle if scene.field_on else 0.0


def _deflect_array(angles: np.ndarray, scene: BiprismScene) -> np.ndarray:
    """Vectorized deflection map; absorbed rays come back NaN."""
    a = np.asarray(angles, dtype=float)
    d = scene.source_to_wire
    x_wire = d * np.tan(a)
    out = x_wire + (scene.source_to_screen - d) * np.tan(a - _kick(a, scene))
    out[(np.abs(x_wire) <= scene.wire_radius) & (scene.wire_radius > 0)] = np.nan
    out[np.abs(a) > scene.aperture] = np.nan
    return out


def _pull_back(x, scene: BiprismScene, side: int) -> np.ndarray:
    """Emission angle that reaches screen point ``x`` on passage side +-1.

    Inverts ``_deflect_array`` on one side. With t = tan(angle) and k the
    tangent of the side's kick the map is the quadratic
    d k t^2 + (d + r - x k) t - (x + r k) = 0 (d source to wire, r wire to
    screen), whose small root is taken in the cancellation-free form
    2c / (-b - sign(b) sqrt(b^2 - 4ac)). With the field off, k = 0 and the
    root is exactly x/(d + r).
    """
    d = scene.source_to_wire
    r = scene.source_to_screen - d
    k = math.tan(_kick(side, scene))
    a, b, c = d * k, d + r - x * k, -(x + r * k)
    return np.arctan(2.0 * c / (-b - np.copysign(
        np.sqrt(b * b - 4.0 * a * c), b)))


def _branch_ranges(scene: BiprismScene) -> list[tuple[float, float]]:
    """Angle intervals that actually reach the screen, per passage side."""
    lo = scene.shadow_angle
    pad = 1e-9 + lo * 1e-9
    return [(-scene.aperture, -(lo + pad)), (lo + pad, scene.aperture)]


def _side_images(scene: BiprismScene) -> list[tuple[float, float]]:
    """Screen interval each passage side reaches, in ``_branch_ranges`` order.

    The map increases on each side, so an image runs from the image of its
    range's first angle to that of its last.
    """
    return [tuple(float(x) for x in _deflect_array(np.array(r), scene))
            for r in _branch_ranges(scene)]


@dataclass(frozen=True)
class ScreenDensity:
    """Density on a screen window, normalised by its panel integral between
    ``breaks``: the window's ends and, in order between them, every point
    where ``profile`` is not smooth."""

    window: tuple[float, float]
    profile: Callable[[np.ndarray], np.ndarray]
    breaks: tuple[float, ...]
    _norm: float = dataclass_field(init=False, repr=False)

    def __post_init__(self):
        mass = _integral(self.profile, np.array(self.breaks, dtype=float))
        if not (math.isfinite(mass) and mass > 0):
            raise ValueError("screen profile must have positive finite mass")
        object.__setattr__(self, "_norm", mass)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.window
        inside = (x >= lo) & (x <= hi)
        out = np.zeros_like(x, dtype=float)
        if np.any(inside):
            out[inside] = self.profile(x[inside]) / self._norm
        return out


def _screen_window(scene: BiprismScene) -> tuple[float, float]:
    """Symmetric window the targets live on: with the field on, most of
    the screen interval both passage sides reach; off, half the fan."""
    if not scene.field_on:
        half = 0.5 * scene.source_to_screen * math.tan(scene.aperture)
        return -half, half
    (lo0, hi0), (lo1, hi1) = _side_images(scene)
    lo, hi = max(lo0, lo1), min(hi0, hi1)
    if not hi > lo:
        raise UnsupportedInputError(
            "the passage sides do not overlap on the screen: the kick must "
            "turn rays beside the wire, not the outermost, across the axis")
    half = 0.98 * min(-lo, hi)
    return -half, half


def envelope_target_density(scene: BiprismScene) -> ScreenDensity:
    """Flat-top target: 1 on the middle ``_FLAT_FRACTION`` of the window,
    cosine taper to 0 at its ends (the smooth target)."""
    lo, hi = _screen_window(scene)
    flat = _FLAT_FRACTION * hi  # taper ends

    def profile(x):
        x = np.abs(np.asarray(x, dtype=float))
        out = np.ones_like(x)
        taper = (x > flat) & (x <= hi)
        out[taper] = 0.5 * (1.0 + np.cos(
            math.pi * (x[taper] - flat) / (hi - flat)))
        out[x > hi] = 0.0
        return out

    return ScreenDensity((lo, hi), profile, (lo, -flat, flat, hi))


def fringe_target_density(scene: BiprismScene) -> ScreenDensity:
    """Two-source interference target on the overlap window (field on).

    Unit-contrast cosine of spacing wavelength*L/separation under the
    envelope target; maximum at the axis, first null half a spacing out.
    """
    if not scene.field_on:
        raise ValueError("fringe target is defined for the field-on state")
    env = envelope_target_density(scene)
    spacing = scene.fringe_spacing

    def profile(x):
        return env.profile(x) * (1.0 + np.cos(2.0 * math.pi * x / spacing))

    return ScreenDensity(env.window, profile, env.breaks)


def _jacobian(angles: np.ndarray, scene: BiprismScene) -> np.ndarray:
    """d(screen position)/d(angle), positive on each branch."""
    a = np.asarray(angles, dtype=float)
    d = scene.source_to_wire
    return (d / np.cos(a) ** 2
            + (scene.source_to_screen - d) / np.cos(a - _kick(a, scene)) ** 2)


@dataclass(frozen=True)
class EmissionMeasure:
    """Normalised emission-angle density with the angles where it is not
    smooth; between consecutive ``breaks`` it is smooth (or zero)."""

    density: Callable[[np.ndarray], np.ndarray]
    breaks: np.ndarray


def _node_values(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """|f| at the Gauss-Legendre nodes of each [lo, hi], a row per panel."""
    x, _ = _gl_nodes(_GAUSS_NODES)  # on [0, 1]
    return np.abs(f(lo[:, None] + (hi - lo)[:, None] * x))


def _integral(f, edges: np.ndarray) -> float:
    """Integral of |f| over sorted ``edges``, between which ``f`` is smooth.

    A panel is kept once its halves change its integral by at most one
    rounding unit of the running estimate of the total (the kept panels
    and the halves of the others), and is halved otherwise. Where ``f``
    changes sign, |f| has a kink that keeps the panel around it from
    settling, so the halving bisects onto the crossing. More than
    ``_MAX_PANELS`` unsettled panels at once (structure finer than the
    pieces resolve, such as fringes at a tiny wavelength) is refused.
    ``f`` runs once on the pieces, then once a round on all halves, whose
    node values are the next round's panels. Each block of rows keeps its
    own BLAS product, as a row can round differently in another batch.
    """
    _, w = _gl_nodes(_GAUSS_NODES)
    lo, hi = edges[:-1], edges[1:]
    v_one, total = _node_values(f, lo, hi), 0.0
    while len(lo):
        if len(lo) > _MAX_PANELS:
            raise UnsupportedInputError(
                f"the density needs more than {_MAX_PANELS} "
                "Gauss-Legendre panels at once; its structure is too fine "
                "for the bench (a tiny wavelength gives too many fringes)")
        n, mid = len(lo), 0.5 * (lo + hi)
        v = _node_values(f, np.concatenate([lo, mid]),
                         np.concatenate([mid, hi]))
        v_lo, v_hi = v[:n], v[n:]
        one = (hi - lo) * (v_one @ w)
        two = (mid - lo) * (v_lo @ w) + (hi - mid) * (v_hi @ w)
        tol = np.finfo(float).eps * (total + two.sum())
        # a panel two floats wide, or with a NaN, is kept as it is
        keep = ~(np.abs(one - two) > tol) | (mid <= lo) | (mid >= hi)
        total += two[keep].sum()
        lo, hi, v_one = (np.concatenate([lo[~keep], mid[~keep]]),
                         np.concatenate([mid[~keep], hi[~keep]]),
                         np.concatenate([v_lo[~keep], v_hi[~keep]]))
    return float(total)


def emission_measure_from_screen(target: ScreenDensity,
                                 scene: BiprismScene) -> EmissionMeasure:
    """Angular measure whose pushforward through the bench is the target.

    Per passage side the map is strictly increasing, so the pullback is
    the Jacobian transfer of the target; where both sides reach the same
    screen point the mass is split evenly between them. The density is
    smooth except at its ``breaks``: the branch-range ends, and on each
    side the pull-backs of the target's breaks and both sides' image ends.
    Gauss-Legendre panels between the breaks, halved until they agree
    with their halves, give the normalisation. The halving alone misses
    the window and taper kinks: with the range ends as the only breaks
    the stock field-off measure integrates to 1 - 7e-11.
    """
    ranges = _branch_ranges(scene)
    images = _side_images(scene)

    def density(alpha):
        alpha = np.asarray(alpha, dtype=float)
        out = np.zeros_like(alpha)
        valid = np.zeros_like(alpha, dtype=bool)
        for a0, a1 in ranges:
            valid |= (alpha >= a0) & (alpha <= a1)
        av = alpha[valid]
        xs = _deflect_array(av, scene)
        k = sum(((xs >= lo) & (xs <= hi)).astype(float) for lo, hi in images)
        w = np.where(k > 0, 1.0 / np.maximum(k, 1.0), 0.0)
        out[valid] = target(xs) * _jacobian(av, scene) * w
        return out

    screen = np.array([*target.breaks, *np.ravel(images)])
    breaks = _sorted_unique(np.concatenate(
        [np.ravel(ranges)] + [_pull_back(np.clip(screen, x0, x1), scene, side)
                              for side, (x0, x1) in zip((-1, 1), images)]))
    mass = _integral(density, breaks)
    if mass <= 0:
        raise UnsupportedInputError("target density places no mass on the "
                                    "reachable screen region")
    return EmissionMeasure(lambda alpha: density(alpha) / mass, breaks)


def screen_density_from_emission(measure: EmissionMeasure,
                                 scene: BiprismScene, bins: int = 256):
    """Exact pushforward of an angular density onto screen bins.

    Returns (bin edges, per-bin density) over the scene's screen window.
    On each passage side the bin edges, clipped to that side's screen
    image, are pulled back to emission angles in closed form, and the
    density is integrated over every bin's angle interval by one
    Gauss-Legendre panel. A bin beyond a side's image (in the wire's
    shadow, say) gets an empty interval and exactly no mass from that side.
    """
    edges = np.linspace(*_screen_window(scene), bins + 1)
    masses, (_, w) = np.zeros(bins), _gl_nodes(_GAUSS_NODES)
    for side, (x0, x1) in zip((-1, 1), _side_images(scene)):
        alphas = _pull_back(np.clip(edges, x0, x1), scene, side)
        lo, hi = alphas[:-1], alphas[1:]
        masses += (hi - lo) * (_node_values(measure.density, lo, hi) @ w)
    return edges, masses / (edges[1] - edges[0])


def _central(edges: np.ndarray, density: np.ndarray, fraction: float):
    """Bin centres and densities in the window's middle ``fraction``."""
    centers = 0.5 * (edges[1:] + edges[:-1])
    half = fraction * 0.5 * (edges[-1] - edges[0])
    mid = np.abs(centers - 0.5 * (edges[0] + edges[-1])) <= half
    return centers[mid], np.asarray(density, dtype=float)[mid]


def fringe_visibility(edges: np.ndarray, density: np.ndarray) -> float:
    """(max - min) / (max + min) over the central part of the window."""
    _, vals = _central(edges, density, _VISIBILITY_FRACTION)
    hi, lo = float(vals.max()), float(max(vals.min(), 0.0))
    return (hi - lo) / (hi + lo) if hi + lo else 0.0


def estimate_fringe_spacing(edges: np.ndarray, density: np.ndarray) -> float:
    """Mean distance between interior peaks, refined by local parabolas."""
    x, y = _central(edges, density, _SPACING_FRACTION)
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


def _cut_at_crossings(f, edges: np.ndarray) -> np.ndarray:
    """Sorted ``edges`` and where ``f`` crosses 0 between the Gauss-Legendre
    nodes of their pieces: between nodes of opposite sign, or in a pair
    about a node where |f| is least if ``f`` changes sign at the vertex of
    the parabola through it and its neighbours. Illinois steps (Dowell and
    Jarratt, BIT 11, 1971) narrow each bracket to sqrt(eps) of its width."""
    x, _ = _gl_nodes(_GAUSS_NODES)
    nodes = edges[:-1, None] + np.diff(edges)[:, None] * x
    v = f(nodes)
    s, y = np.sign(v), np.abs(v)
    rows, k = np.nonzero(s[:, :-1] * s[:, 1:] < 0)
    r, j = np.nonzero((s[:, :-2] * s[:, 1:-1] > 0) & (s[:, 1:-1] * s[:, 2:]
                      > 0) & (y[:, 1:-1] < np.minimum(y[:, :-2], y[:, 2:])))
    (x0, x1, x2), (y0, y1, y2) = ([z[r, j + i] for i in range(3)]
                                  for z in (nodes, y))
    d01 = (y1 - y0) / (x1 - x0)
    u = 0.5 * (x0 + x1 - d01 * (x2 - x0) / ((y2 - y1) / (x2 - x1) - d01))
    fu = f(u) if len(u) else u
    r, j, u, fu = (z[s[r, j] * fu <= 0] for z in (r, j, u, fu))
    ends = [(nodes[rows, k], v[rows, k], nodes[rows, k + 1], v[rows, k + 1])]
    ends += [(nodes[r, j + i], v[r, j + i], u, fu) for i in (0, 2)]
    a, fa, b, fb = (np.concatenate(z) for z in zip(*ends))
    found, tol = [edges], math.sqrt(np.finfo(float).eps) * np.abs(b - a)
    while len(a):
        c = (a * fb - b * fa) / (fb - fa)
        fc = f(c)
        same = np.sign(fc) == np.sign(fb)  # then halve the value kept at a
        a, fa, b, fb = np.where(same, a, b), np.where(same, fa / 2, fb), c, fc
        done = ~(np.abs(b - a) > tol) | (fc == 0)
        found.append(c[done])
        a, b, fa, fb, tol = (z[~done] for z in (a, b, fa, fb, tol))
    return _sorted_unique(np.concatenate(found))


def emission_tv_distance(measure_a: EmissionMeasure,
                         measure_b: EmissionMeasure) -> float:
    """Total-variation distance between two angular densities.

    Half the integral of |q_a - q_b| over the pieces between both measures'
    breaks, cut at the crossings of q_a and q_b so that panels settle on
    smooth pieces (a crossing the nodes miss is still halved onto).
    """
    def diff(alpha):
        return measure_a.density(alpha) - measure_b.density(alpha)

    return 0.5 * _integral(diff, _cut_at_crossings(diff, _sorted_unique(
        np.concatenate([measure_a.breaks, measure_b.breaks]))))


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
        r = np.float64(r)  # past the float range numpy gives inf; floats raise
        return self.amplitude * np.exp(-0.5 * (r / self.width) ** 2)

    def dvdr(self, r):
        r = np.float64(r)
        return -self.amplitude * (r / self.width ** 2) * np.exp(
            -0.5 * (r / self.width) ** 2)


@dataclass(frozen=True)
class CompactBumpPotential:
    """Smooth radial field A exp(1 - 1/(1 - (r/R)^2)) about ``center``,
    exactly zero from ``radius`` R on."""

    amplitude: float
    radius: float
    center: np.ndarray = dataclass_field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center",
                           np.asarray(self.center, dtype=float))

    def value(self, r):
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        inside = r < self.radius
        u = (r[inside] / self.radius) ** 2
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u))
        return out

    def dvdr(self, r: float) -> float:
        if r >= self.radius:
            return 0.0
        f = 1.0 - (r / self.radius) ** 2
        v = self.amplitude * math.exp(1.0 - 1.0 / f)
        return v * (-2.0 * r / (self.radius ** 2 * f ** 2))


# The explicit Runge-Kutta pair of order 8(5,3) of Dormand & Prince,
# J. Comput. Appl. Math. 6 (1980) 19-26, and Prince & Dormand, ibid. 7 (1981)
# 67-75, with the 7th-order continuous extension of Hairer's dop853.f
# (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed., sections II.4-II.10),
# each entry the double nearest the published value. Row 12 of _A holds the
# 8th-order weights, rows 13-15 the stages the extension adds.
_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0, 1.0, 0.1, 0.2,
    0.7777777777777778,
])
_A = np.array([[0.0] * 16] + [r + [0.0] * (16 - len(r)) for r in [
    [0.05260015195876773],
    [0.0197250569845379, 0.0591751709536137],
    [0.02958758547680685, 0, 0.08876275643042054],
    [0.2413651341592667, 0, -0.8845494793282861, 0.924834003261792],
    [0.037037037037037035, 0, 0, 0.17082860872947386, 0.12546768756682242],
    [0.037109375, 0, 0, 0.17025221101954405, 0.06021653898045596,
     -0.017578125],
    [0.03709200011850479, 0, 0, 0.17038392571223998, 0.10726203044637328,
     -0.015319437748624402, 0.008273789163814023],
    [0.6241109587160757, 0, 0, -3.3608926294469414, -0.868219346841726,
     27.59209969944671, 20.154067550477894, -43.48988418106996],
    [0.47766253643826434, 0, 0, -2.4881146199716677, -0.590290826836843,
     21.230051448181193, 15.279233632882423, -33.28821096898486,
     -0.020331201708508627],
    [-0.9371424300859873, 0, 0, 5.186372428844064, 1.0914373489967295,
     -8.149787010746927, -18.52006565999696, 22.739487099350505,
     2.4936055526796523, -3.0467644718982196],
    [2.273310147516538, 0, 0, -10.53449546673725, -2.0008720582248625,
     -17.9589318631188, 27.94888452941996, -2.8589982771350235,
     -8.87285693353063, 12.360567175794303, 0.6433927460157636],
    [0.054293734116568765, 0, 0, 0, 0, 4.450312892752409, 1.8915178993145003,
     -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
     0.20136540080403034, 0.04471061572777259],
    [0.056167502283047954, 0, 0, 0, 0, 0, 0.25350021021662483,
     -0.2462390374708025, -0.12419142326381637, 0.15329179827876568,
     0.00820105229563469, 0.007567897660545699, -0.008298],
    [0.03183464816350214, 0, 0, 0, 0, 0.028300909672366776,
     0.053541988307438566, -0.05492374857139099, 0, 0, -0.00010834732869724932,
     0.0003825710908356584, -0.00034046500868740456, 0.1413124436746325],
    [-0.42889630158379194, 0, 0, 0, 0, -4.697621415361164, 7.683421196062599,
     4.06898981839711, 0.3567271874552811, 0, 0, 0, -0.0013990241651590145,
     2.9475147891527724, -9.15095847217987],
]])
_E5 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294, 0,
])
_BHH = (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
_D = np.array([
    [-8.428938276109013, 0, 0, 0, 0, 0.5667149535193777, -3.0689499459498917,
     2.38466765651207, 2.117034582445028, -0.871391583777973,
     2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
     18.148505520854727, -9.194632392478356, -4.436036387594894],
    [10.427508642579134, 0, 0, 0, 0, 242.28349177525817, 165.20045171727028,
     -374.5467547226902, -22.113666853125306, 7.733432668472264,
     -30.674084731089398, -9.332130526430229, 15.697238121770845,
     -31.139403219565178, -9.35292435884448, 35.81684148639408],
    [19.985053242002433, 0, 0, 0, 0, -387.0373087493518, -189.17813819516758,
     527.8081592054236, -11.57390253995963, 6.8812326946963,
     -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
     -60.19669523126412, 84.32040550667716, 11.99229113618279],
    [-25.69393346270375, 0, 0, 0, 0, -154.18974869023643, -231.5293791760455,
     357.6391179106141, 93.40532418362432, -37.45832313645163,
     104.0996495089623, 29.8402934266605, -43.53345659001114,
     96.32455395918828, -39.17726167561544, -149.72683625798564],
])
_B = _A[12, :12]
_E3 = np.append(_B, 0.0)  # 8th- less 3rd-order weights, the latter
_E3[[0, 8, 11]] -= _BHH  # being _BHH on stages 0, 8 and 11


def _dop853(rhs, t0: float, y0: np.ndarray, ends):
    """Yield the state at each of ``ends`` from one DOP853 run of
    y' = rhs(t, y) from y(t0) = y0 to the last of them.

    A step takes 12 stages, and the 13th (rhs at its end) opens the next.
    Steps are clipped to land on ``ends[-1]``, so the last state is the
    run's own end state; an earlier time is read from the 7th-order
    continuous extension, whose 3 extra stages are built once per step and
    only when needed. The error estimate joins the 5th- and 3rd-order
    embedded solutions; steps scale by 0.9 err^(-1/8), within 0.2 to 10
    and never up right after a rejection, and one below 10 ulp of t raises
    ``IntegrationError``. Sums, norms and factors are grouped as in the
    reference DOP853 the tests compare against, so the two agree to the bit.
    """
    def rms(x):
        return np.linalg.norm(x) / x.size ** 0.5

    t_end, rtol, atol = float(ends[-1]), _NBODY_RTOL, _NBODY_ATOL
    t, y, f = t0, y0, rhs(t0, y0)
    k = np.empty((16, y.size))  # stage derivatives, one per row
    h_abs = 0.0
    if t_end > t:  # the starting step of Solving ODEs I, section II.4
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1,
                 t_end - t)
        d2 = rms((rhs(t + h0, y + h0 * f) - f) / scale) / h0
        h1 = (max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15
              else (0.01 / max(d1, d2)) ** (1 / 8))
        h_abs = min(100 * h0, h1, t_end - t)
    for t_out in ends:
        while t < t_out:
            min_step = 10 * abs(np.nextafter(t, np.inf) - t)
            h_abs, rejected = max(h_abs, min_step), False
            while True:
                if h_abs < min_step:
                    raise IntegrationError(
                        f"propagation {t0} -> {t_end} failed: the step fell "
                        f"below 10 ulp of t = {t!r}")
                t_new = min(t + h_abs, t_end)
                h_abs = h = t_new - t
                k[0] = f
                for s in range(1, 12):
                    k[s] = rhs(t + _C[s] * h,
                               y + np.dot(k[:s].T, _A[s, :s]) * h)
                y_new = y + h * np.dot(k[:12].T, _B)
                k[12] = f_new = rhs(t + h, y_new)
                scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
                e5, e3 = (np.linalg.norm(np.dot(k[:13].T, e) / scale) ** 2
                          for e in (_E5, _E3))
                err = (h * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
                       if e5 or e3 else 0.0)
                grow = 0.9 * err ** -0.125 if err else math.inf
                if err < 1:
                    h_abs *= min(grow, 1 if rejected else 10)
                    break
                h_abs *= max(0.2, grow)
                rejected = True
            t_old, y_old, t, y, f, dense = t, y, t_new, y_new, f_new, None
        if t == t_out:
            yield y
            continue
        if dense is None:
            for s in (13, 14, 15):
                k[s] = rhs(t_old + _C[s] * h,
                           y_old + np.dot(k[:s].T, _A[s, :s]) * h)
            dy = y - y_old
            dense = [dy, h * k[0] - dy, 2 * dy - h * (f + k[0]),
                     *(h * np.dot(_D, k))]
        x = (t_out - t_old) / h
        out = np.zeros_like(y)
        for i, term in enumerate(reversed(dense)):
            out += term
            out *= x if i % 2 == 0 else 1 - x
        yield out + y_old


def _norm(v: list) -> float:
    """|v| for 3 floats as np.linalg.norm takes it, the square root of BLAS's
    dot product, which a plain sum of the squares does not always match."""
    a = np.array(v)
    return math.sqrt(a.dot(a))


def _masses(masses) -> np.ndarray:
    """``masses`` as a 1-d float array, refused unless positive and finite."""
    m = np.asarray(masses, dtype=float)
    if m.ndim != 1 or not np.all(np.isfinite(m) & (m > 0)):
        raise ValueError("masses must be a 1-D array of finite reals > 0")
    return m


class NBodySystem:
    """N particles with an optional bounded pair potential and external field."""

    def __init__(self, masses, pair_potential: GaussianPairPotential | None = None,
                 external_potential: CompactBumpPotential | None = None):
        self.masses = _masses(masses)
        self.n = len(self.masses)
        self.pair_potential = pair_potential
        self.external_potential = external_potential

    @property
    def is_free(self) -> bool:
        return self.pair_potential is None and self.external_potential is None

    def _terms(self, pos: list):
        """Yield each interaction term (i, j, delta, r, potential): every
        pair i < j, then each particle i in the external field with j None.
        ``pos`` lists the 3n coordinates; ``delta`` (3 floats) runs to i
        from j or from the field's centre, and r = |delta|."""
        pair, field = self.pair_potential, self.external_potential
        rows = [pos[k:k + 3] for k in range(0, 3 * self.n, 3)]
        if pair is not None:
            for i in range(self.n):
                for j in range(i + 1, self.n):
                    delta = [a - b for a, b in zip(rows[i], rows[j])]
                    yield i, j, delta, _norm(delta), pair
        if field is not None:
            center = field.center.tolist()
            for i in range(self.n):
                delta = [a - b for a, b in zip(rows[i], center)]
                yield i, None, delta, _norm(delta), field

    def accelerations(self, positions: np.ndarray) -> np.ndarray:
        m, acc = self.masses.tolist(), [0.0] * (3 * self.n)
        pos = positions.reshape(3 * self.n).tolist()
        for i, j, delta, r, pot in self._terms(pos):
            if r == 0.0:
                continue
            g = -float(pot.dvdr(r))
            for k in range(3):
                f = g * delta[k] / r
                acc[3 * i + k] += f / m[i]
                if j is not None:
                    acc[3 * j + k] -= f / m[j]
        return np.array(acc).reshape(self.n, 3)

    def energy(self, positions, velocities) -> float:
        pos = np.asarray(positions, dtype=float).reshape(3 * self.n)
        vel = np.asarray(velocities, dtype=float).reshape(self.n, 3)
        e = 0.5 * float(np.sum(self.masses[:, None] * vel * vel))
        for *_, r, pot in self._terms(pos.tolist()):
            e += float(pot.value(r))
        return e

    def integrate(self, positions, velocities, t0: float, times, until=None):
        """Propagate the state from t0 to each of ``times``.

        ``times`` is an increasing 1-d array of times from t0 on. The
        positions and velocities there come back stacked, (len(times), n, 3)
        each. Free systems take the closed form pos + vel * (t - t0) at
        every time. Interacting ones make one DOP853 run towards the last
        time: a state at an earlier time is read from the continuous
        extension of the step that passes it, and the state at the last
        time is the run's own end state, so it is bitwise what a call with
        that time alone returns.

        ``until(t, positions, velocities)``, if given, is called at each
        time in turn; the run stops after the first time it returns true,
        and the stacks end with that time.
        """
        pos = np.asarray(positions, dtype=float).reshape(self.n, 3)
        vel = np.asarray(velocities, dtype=float).reshape(self.n, 3)
        times = np.asarray(times, dtype=float)
        if not (times.ndim == 1 and len(times) and times[0] >= t0
                and np.all(np.diff(times) > 0)):
            raise ValueError("times must be an increasing 1-d array of times "
                             "from t0 on")
        if self.is_free:
            states = ((pos + vel * (t - t0), vel.copy()) for t in times)
        else:
            y0 = np.concatenate([pos.ravel(), vel.ravel()])
            states = ((y[:3 * self.n].reshape(self.n, 3),
                       y[3 * self.n:].reshape(self.n, 3))
                      for y in _dop853(self._rhs, t0, y0, times))
        ps, vs = [], []
        for t, (p, v) in zip(times, states):
            ps.append(p)
            vs.append(v)
            if until is not None and until(float(t), p, v):
                break
        return np.array(ps), np.array(vs)

    def _rhs(self, t, y):
        """The first-order form (positions, velocities)' of the motion."""
        acc = self.accelerations(y[:3 * self.n]).ravel()
        # the stepper would shrink its step on a NaN force until it gave up
        if not all(map(math.isfinite, acc.tolist())):
            raise IntegrationError(f"non-finite acceleration at t = {t}")
        return np.concatenate([y[3 * self.n:], acc])


@dataclass(frozen=True)
class AsymptoticVelocityResult:
    """Late-time velocity estimate with its convergence record."""

    v_plus: np.ndarray
    convergence_history: list
    converged: bool


def asymptotic_velocity(system: NBodySystem, velocities, t_max: float,
                        tolerance: float = 1e-8, t0: float = 1.0,
                        growth: float = 2.0) -> AsymptoticVelocityResult:
    """Track the velocity between geometric checkpoints until it settles.

    All particles leave one point: the run starts at t0 > 0 from
    positions velocity * t0, which bounded interactions cannot tell from
    the exact coincident start. The checkpoints are t0 * growth^k, clipped
    to ``t_max``; a schedule of more than ``_MAX_CHECKPOINTS`` of them is
    refused before it is built. One ``integrate`` call runs through the
    schedule, reading each checkpoint from the integrator's dense output,
    so the steps grow as the bodies separate rather than restarting at
    each checkpoint. The history starts at x(t0)/t0; each later entry is
    the mean velocity (x(t_k) - x(t_{k-1})) / (t_k - t_{k-1}) since the
    checkpoint before, which has the limit of x(t)/t without its 1/t bias.
    The run and the history stop at the first entry within ``tolerance``
    (max norm) of the one before, which is convergence. With no
    interactions the flight is analytic and every entry is the velocities
    bit for bit at power-of-two times from t0 = 1.
    """
    vel = np.asarray(velocities, dtype=float).reshape(system.n, 3)
    if not (t_max > t0 > 0 and growth > 1):
        raise ValueError("need t_max > t0 > 0 and growth > 1")
    count = (math.log(t_max) - math.log(t0)) / math.log(growth)
    if not count <= _MAX_CHECKPOINTS:
        raise ValueError(f"the checkpoint schedule from t0 = {t0!r} to "
                         f"t_max = {t_max!r} at growth {growth!r} needs "
                         f"{count:.6g} checkpoints, more than "
                         f"{_MAX_CHECKPOINTS}; raise growth or lower t_max")
    times = []
    t = t0
    while t < t_max:
        t = min(t * growth, t_max)
        times.append(t)
    pos = vel * t0
    history = [(t0, (pos / t0).ravel())]
    last = [t0, pos]  # the checkpoint before the next one

    def gap():
        return float(np.max(np.abs(history[-1][1] - history[-2][1])))

    def settled(t, positions, _velocities):
        t_prev, x_prev = last
        history.append((t, ((positions - x_prev) / (t - t_prev)).ravel()))
        last[:] = t, positions
        return gap() < tolerance

    system.integrate(pos, vel, t0, np.array(times), until=settled)
    return AsymptoticVelocityResult(v_plus=history[-1][1].copy(),
                                    convergence_history=history,
                                    converged=gap() < tolerance)


def free_quantum_momentum_measure(boxes, masses) -> float:
    """Measure of a union of velocity boxes under mass scaling.

    Each particle's velocity block is scaled by its mass (velocity boxes
    become momentum boxes), the scaled volumes add, and the total is
    multiplied by (2 pi)^(-3N). The result is proportional to the
    momentum-space volume: additive over disjoint boxes, translation
    invariant, and scaling as the cube of each mass.
    """
    masses = _masses(masses)
    dim = 3 * len(masses)
    box = np.asarray(boxes, dtype=float)
    if not len(box):
        return 0.0
    if box.shape[1:] != (2, dim):
        raise ValueError(f"boxes must be (lower, upper) pairs of {dim}-vectors")
    if not np.all(np.isfinite(box)):
        raise ValueError("boxes must be finite to carry finite measure")
    lo, hi = box[:, 0], box[:, 1]
    if np.any(hi < lo):
        raise ValueError("a box has upper bounds below lower bounds")
    i, j = np.triu_indices(len(box), 1)
    meet = (np.minimum(hi[i], hi[j]) > np.maximum(lo[i], lo[j])).all(axis=1)
    if meet.any():
        raise ValueError(f"boxes {i[meet][0]} and {j[meet][0]} overlap; "
                         "pass disjoint boxes so volumes add")
    volumes = np.prod(np.repeat(masses, 3) * (hi - lo), axis=1)
    # cumsum adds the boxes one after another, in the order given
    return (2.0 * math.pi) ** (-dim) * float(np.cumsum(volumes)[-1])


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
