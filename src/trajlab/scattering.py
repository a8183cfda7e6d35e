"""Classical scattering: deflection laws, density transfer, and the flipper.

A repulsive central potential turns an incoming impact parameter s into an
outgoing polar deflection theta(s), which :class:`DeflectionFunction`
gives for every potential: by the reflection law for a hard sphere, by the
deflection integral (Landau & Lifshitz, *Mechanics*, sec. 18) otherwise.
That map carries a transverse source density rho_a(s) into a solid-angle
density rho_b(theta) with the exact Jacobian

    rho_b(theta) = rho_a(s(theta)) * (s / sin theta) * |ds/dtheta|,

so boundary data given at the far side (a density over outgoing angles)
is carried deterministically, with no sampling.

The flipper is a statistically homogeneous medium of identical rigid
centers, hard spheres of radius ``action_range``. A trajectory flies
straight between encounters and is deflected by theta(s) at each one, so
its speed never changes and each encounter is one trial of the "which
angular bin" experiment.

Polar deflections live in [0, pi]. A signed angle in (-pi, pi] is used only
for flipper outcome binning: +theta when the impact direction n (from the
center to the closest approach, perpendicular to the incoming ray u) has
n_z >= 0, or n_x >= 0 when u runs along z. That is the side of n along the
fixed axis u x (z x u), or u x (x x u), so it is +/- symmetric for
isotropic scenes; a head-on hit, with no n of its own, counts +theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .core import MeasureSpec
from .errors import IntegrationError

__all__ = [
    "Potential",
    "HardSphere",
    "RepulsivePower",
    "ScreenedCoulomb",
    "DeflectionFunction",
    "transfer_density",
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
    "FlipperResult",
    "flipper_cross_section",
]


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------


class Potential:
    """Repulsive central potential V(r), decaying to 0 at infinity.

    A subclass gives ``__call__`` and ``derivative``; it may override
    :meth:`drop` with a form that does not cancel near x = 0.
    """

    def __call__(self, r):
        raise NotImplementedError

    def derivative(self, r):
        raise NotImplementedError

    def drop(self, u_max, x2):
        """V(1/u_max) - V(1/u) at u = u_max*(1 - x2), as a plain
        difference, which keeps only the absolute accuracy of V."""
        u = u_max * (1.0 - x2)
        return (np.asarray(self(1.0 / u_max), dtype=float)
                - np.asarray(self(1.0 / u), dtype=float))


@dataclass(frozen=True)
class HardSphere(Potential):
    """Impenetrable sphere: V = +inf inside ``radius``, 0 outside."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")


@dataclass(frozen=True)
class RepulsivePower(Potential):
    """V(r) = strength / r**exponent; exponent 1 is the inverse-square force."""

    strength: float
    exponent: float = 1.0

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

    def drop(self, u_max, x2):
        """k u_max^n (1 - (1 - x2)^n), to full relative accuracy."""
        n = self.exponent
        return -self.strength * u_max ** n * np.expm1(n * np.log1p(-x2))


@dataclass(frozen=True)
class ScreenedCoulomb(Potential):
    """V(r) = strength * exp(-r/screening_length) / r."""

    strength: float
    screening_length: float

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

    def drop(self, u_max, x2):
        """V(1/u_max) (1 - (1 - x2) exp(-c x2/(1 - x2))), c = 1/(a u_max),
        to full relative accuracy."""
        c = 1.0 / (self.screening_length * u_max)
        return -self.strength * u_max * np.exp(-c) * np.expm1(
            np.log1p(-x2) - c * x2 / (1.0 - x2))


# ---------------------------------------------------------------------------
# single-center deflection
# ---------------------------------------------------------------------------


_RTOL = 8.9e-16  # root finders stop within four ulps
_N_NODES = 64  # Gauss-Legendre nodes of the deflection integral
_DIFF_STEP = 1e-6  # relative step of the central differences in theta
_MIN_SPACING = 10.0  # least flipper center spacing, in action ranges
_PACKING = 0.5  # n_centers * d_min^3 / cell volume of a random scene
_TRIES_PER_CENTER = 100  # placement candidates per center of a random scene
_PLACE_BLOCK = 64  # placement candidates drawn in the first block
_PLACE_MAX = 2 ** 16  # placement candidates drawn in any block
_PAIR_ROWS = 2 ** 11  # query points of one neighbour-pair chunk
_PAIRS = 2 ** 16  # pairs of one neighbour-pair chunk of more than one point


def _flat(x):
    """``x`` as a 1-d float array, and the map back to ``x``'s shape. A
    scalar runs as a one-element array: numpy's power of a 0-d array can
    differ in the last bit from the same element of an array."""
    a = np.asarray(x, dtype=float)
    return a.reshape(-1), (lambda res: float(res[0]) if a.ndim == 0
                           else res.reshape(a.shape))


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
    """Quadrature of theta = pi - 2 s \\int_0^{u_max} du / sqrt(F(u)),
    F(u) = 1 - s^2 u^2 - V(1/u)/E.

    ``s`` is a 1-d array; all rows are one ``(len(s), _N_NODES)`` array, and
    ``u_head`` is the head-on root that caps each turning-point bracket. The
    turning-point square-root singularity is removed by u = u_max*(1 - x^2).
    As F(u_max) = 0, the radicand is then the sum of two terms that do not
    cancel,

        F = s^2 u_max^2 x^2 (2 - x^2) + (V(1/u_max) - V(1/u))/E,

    the second from :meth:`Potential.drop`; the plain 1 - s^2 u^2 - V/E
    loses about 7 digits at the nodes nearest x = 0, where F ~ x^2. With
    64 Gauss-Legendre nodes theta is within 1e-12 absolute of a 60-digit
    reference (3.6e-14 for ScreenedCoulomb(1, 2), 1.5e-13 for
    RepulsivePower(0.8, 2.5)). A long-range tail, a screening length of
    many turning radii or an exponent below 1, is not smooth at x = 1 and
    converges more slowly.
    """
    u_max = _turning_u(potential, energy, s, u_head)
    x, w = _gl_nodes(_N_NODES)
    x2 = x * x
    su = (s * u_max)[:, None]
    F = (su * su * (x2 * (2.0 - x2))
         + potential.drop(u_max[:, None], x2) / energy)
    if np.any(F <= 0):
        raise IntegrationError("radicand vanished at an interior node")
    theta = math.pi - 4.0 * s * u_max * np.sum(w * x / np.sqrt(F), axis=1)
    return np.clip(theta, 0.0, math.pi)


class DeflectionFunction:
    """theta(s) for one (potential, energy), with its inverse.

    A hard sphere reflects by theta = 2*arccos(s/R) in scalar libm, element
    by element (0 past R). A smooth potential goes through the quadrature of
    :func:`_deflection_integral`, its head-on turning point solved here once.

    Every method takes a float or an array, and a row gets the same bits
    alone as in any batch. The map is strictly decreasing for the shipped
    repulsive potentials; this is spot-checked on a grid at construction.
    The inverse brackets each angle in one coarse theta(s) table (s from
    1e-9 to about 2^200 head-on turning radii in steps of 2; linear on
    [0, R] for a hard sphere) and polishes all angles at once by Illinois
    regula falsi (Dowell & Jarratt, BIT 11, 1971) to four ulps in s.
    """

    def __init__(self, potential: Potential, energy: float):
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
            # only a rise to above 1e-13 counts, a hundredfold margin over
            # theta's rounding of about 1e-15 (a few ulps of pi); the far
            # tail clips to 0
            th = self(scale * np.geomspace(0.05, 50.0, 24))
            if np.any((np.diff(th) >= 0) & (th[1:] > 1e-13)):
                raise IntegrationError(
                    "deflection function is not strictly decreasing")
        self._table = s_tab, self(s_tab)

    def __call__(self, s):
        s, back = _flat(s)
        if (s < 0).any():
            raise ValueError("impact parameter must be nonnegative")
        if isinstance(self.potential, HardSphere):
            R = self.potential.radius
            return back(np.array([2.0 * math.acos(min(v / R, 1.0))
                                  for v in s.tolist()]))
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
    """Periodic cubic cell of identical hard spheres of radius
    ``action_range``.

    The cell tiles space, realizing a statistically homogeneous medium large
    enough that every trajectory keeps encountering centers. Centers must
    keep a minimum mutual spacing of ``_MIN_SPACING * action_range``
    (min-image metric), so encounters are isolated single-center scattering
    events. A hard sphere's deflection does not depend on ``energy``; it is
    only checked to be positive.
    """

    def __init__(self, cell_size: float, centers: np.ndarray,
                 energy: float, action_range: float):
        centers = np.asarray(centers, dtype=float)
        if centers.ndim != 2 or centers.shape[1] != 3:
            raise ValueError("centers must be an (N, 3) array")
        d_min = _MIN_SPACING * action_range
        # the spacing rule compares squares; a d_min^2 that underflows to 0
        # would accept every pair
        if not (0 < cell_size < math.inf and action_range > 0
                and 0 < d_min * d_min < math.inf):
            raise ValueError(f"cell_size, action_range and ({_MIN_SPACING:g} "
                             f"action_range)^2 must be positive and finite")
        if not np.all((centers >= 0) & (centers < cell_size)):
            raise ValueError("centers must lie inside [0, cell_size)^3")
        L = float(cell_size)
        d2 = d_min ** 2
        # every pair, the earlier center minus the later
        if any(np.any((j < i) & (r2 < d2))
               for i, j, r2 in _near_pairs(centers, centers, L, d_min)):
            raise ValueError(f"center spacing violates the required "
                             f"{_MIN_SPACING} * action_range = {d_min:.4g}")
        self.cell_size = L
        self.centers = centers
        self.action_range = float(action_range)
        self.deflection = DeflectionFunction(HardSphere(action_range), energy)
        # replicate centers whose action sphere pokes through a cell face, so
        # segments inside the cell see every reachable sphere; the zero shift
        # comes first, and center_index maps each image to its center
        r0 = self.action_range * (1.0 + 1e-9)
        shifts = np.array(np.meshgrid(*([[-L, 0.0, L]] * 3))).T.reshape(-1, 3)
        shifts = shifts[np.argsort(shifts.any(axis=1), kind="stable")]
        images = centers + shifts[:, None]
        keep = np.all((images > -r0) & (images < L + r0), axis=2)
        self.centers_ext = images[keep]
        self.center_index = np.nonzero(keep)[1]


def _near_pairs(a: np.ndarray, b: np.ndarray, L: float, d: float):
    """Every pair of a point ``a[i]`` and a point ``b[j]`` in neighbouring
    cells, yielded as arrays ``(i, j, r2)`` in ascending i, at most
    ``_PAIR_ROWS`` points of ``a`` at a time and, past one point, at most
    ``_PAIRS`` pairs: r2 is the min-image squared distance of b[j] - a[i]
    in the periodic cell [0, L)^3, each component taken as
    (x + L/2) % L - L/2 and summed as (x^2 + y^2) + z^2.

    A cell list (Allen & Tildesley, *Computer Simulation of Liquids*, 2nd
    ed., sec. 5.3): on a grid of g^3 cells no narrower than d (1 + 1e-9),
    only points in the cells around a point's own can be nearer than d; the
    margin covers a coordinate that rounds into the next cell, and at most
    2^20 cells a side keep that rounding inside it. The neighbours are the
    27 cells around a point's own, or every cell when g < 3. ``b`` is
    sorted by cell key modulo n = 2 len(b) + 1, so its table of where each
    residue starts holds n + 1 entries however many cells the grid has;
    when g^3 <= n each residue is one cell, and otherwise the points of a
    residue filed under another cell are dropped.
    """
    g = max(1, int(min(L / (d * (1.0 + 1e-9)), 2.0 ** 20)))
    cs, half, n = L / g, L / 2.0, 2 * len(b) + 1
    step = np.array((-1, 0, 1) if g >= 3 else range(g))

    def cell(p):
        return (p / cs).astype(np.int64) % g

    key = cell(b) @ np.array([g * g, g, 1])
    order = np.argsort(key % n, kind="stable")
    start = np.append(0, np.bincount(key % n, minlength=n).cumsum())
    key = key[order]

    def pairs(lo, hi):
        ci, cj, ck = ((cell(a[lo:hi])[:, :, None] + step) % g
                      ).transpose(1, 0, 2)
        near = ((ci[:, :, None, None] * g + cj[:, None, :, None]) * g
                + ck[:, None, None, :]).ravel()
        slot = near % n
        first, count = start[slot], start[slot + 1] - start[slot]
        if count.sum() > _PAIRS and hi - lo > 1:
            yield from pairs(lo, (lo + hi) // 2)
            yield from pairs((lo + hi) // 2, hi)
            return
        i = np.repeat(np.arange(lo, hi), count.reshape(hi - lo, -1).sum(1))
        k = np.arange(len(i)) - np.repeat(count.cumsum() - count - first,
                                          count)
        if g ** 3 > n:
            same = key[k] == np.repeat(near, count)
            i, k = i[same], k[same]
        j = order[k]
        x = b.take(j, 0) - a.take(i, 0)
        # in a cell wider than about 1e308 a far pair can overflow to inf or
        # nan, and neither compares as near
        with np.errstate(over="ignore", invalid="ignore"):
            x = (x + half) % L - half
            r2 = _dot(x, x)
        yield i, j, r2

    for lo in range(0, len(a), _PAIR_ROWS):
        yield from pairs(lo, min(lo + _PAIR_ROWS, len(a)))


def random_scene(n_centers: int, action_range: float, energy: float,
                 seed: int = 0) -> FlipperScene:
    """Random sequential placement of centers in a periodic cell.

    The cell is sized so that n_centers * d_min^3 / cell volume is
    ``_PACKING``; 0.5 leaves room for rejection sampling to finish quickly.
    A uniform candidate is kept when its min-image distance to every kept
    center is at least d_min; placement gives up after
    ``_TRIES_PER_CENTER`` candidates per center, about 9 times the need.
    The candidates come a block at a time, the same doubles in the same
    order as one ``rng.random(3) * L`` call each. One neighbour-pair pass
    (:func:`_near_pairs`) drops those too near a placed center, a second
    finds the pairs of the rest that are too near each other, and only
    those pairs are walked in order.
    """
    d_min = _MIN_SPACING * action_range
    L = (n_centers * d_min ** 3 / _PACKING) ** (1.0 / 3.0)
    # n_centers < 1 or action_range <= 0 leaves no cell (a negative one a
    # complex L), and so does a d_min^3 that underflows to 0
    if not (n_centers > 0 and action_range > 0 and L > 0):
        raise ValueError(f"n_centers = {n_centers!r}, action_range = "
                         f"{action_range!r} give no periodic cell: its size "
                         f"must be positive")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    tries = int(_TRIES_PER_CENTER * n_centers)
    d2 = d_min ** 2
    placed, drawn, block = np.empty((0, 3)), 0, _PLACE_BLOCK
    while len(placed) < n_centers and drawn < tries:
        m = min(block, tries - drawn)
        cand = rng.random((m, 3)) * L
        drawn += m
        free = np.ones(m, bool)
        for i, _, r2 in _near_pairs(cand, placed, L, d_min):
            free[i[r2 < d2]] = False
        cand = cand[free]
        # a free candidate is kept unless an earlier kept one is too near;
        # the pairs come in ascending i, so the earlier one is settled
        keep = [True] * len(cand)
        for i, j, r2 in _near_pairs(cand, cand, L, d_min):
            near = (j < i) & (r2 < d2)
            for later, earlier in zip(i[near].tolist(), j[near].tolist()):
                if keep[earlier]:
                    keep[later] = False
        new = cand[keep][:n_centers - len(placed)]
        placed = np.concatenate([placed, new])
        # enough candidates to finish at this block's yield, and a quarter
        # more
        block = min(math.ceil(1.25 * (n_centers - len(placed)) * m
                              / max(len(new), 1)), _PLACE_MAX)
    if len(placed) < n_centers:
        raise IntegrationError(f"center placement did not converge in "
                               f"{tries} candidates; change scene_seed")
    return FlipperScene(L, placed, energy, action_range)


@dataclass(frozen=True)
class FlipperTrajectory:
    """Unit-speed polyline through the scene and its encounters."""

    vertices: np.ndarray
    encounters: list[EncounterRecord]


#: the smallest normal float; a smaller u.u has lost bits to underflow
_TINY = np.finfo(float).tiny


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot product of (..., 3) arrays, summed per component."""
    ab = a * b
    return ab[..., 0] + ab[..., 1] + ab[..., 2]


def _segments(P, U, travelled, depth: int, L: float, push: float):
    """Each ray's next ``depth`` free flights in the cell [0, L)^3, as if no
    sphere were met: segment i runs from ``starts[i]``, at path length
    ``at[i]``, to the next cell wall ``t_bound[i]`` away, and ends ``push``
    past it at ``starts[i + 1]``. An axis with no motion meets its wall at
    (inf - p) / 1 = inf. For a wall at 0, 0 - p and -p differ only in the
    sign of a zero, which neither the minimum nor the step can see. The
    loop runs on (3, n) arrays, one minimum per wall time, and ``at`` sums
    the steps in order; ``starts`` is returned as a (depth + 1, n, 3) view."""
    starts = np.empty((depth + 1, 3, len(P)))
    at, t_bound = np.empty((depth + 1, len(P))), np.empty((depth, len(P)))
    starts[0], at[0], U = P.T, travelled, U.T
    wall = np.where(U > 0, L, np.where(U < 0, 0.0, np.inf))
    speed = np.where(U != 0, U, 1.0)
    buf = np.empty(U.shape)
    for i in range(depth):
        np.divide(np.subtract(wall, starts[i], out=buf), speed, out=buf)
        step = np.add(buf.min(axis=0, out=t_bound[i]), push, out=at[i + 1])
        np.add(np.multiply(step, U, out=buf), starts[i], out=buf)
        np.remainder(buf, L, out=starts[i + 1])
    return starts.transpose(0, 2, 1), np.cumsum(at, axis=0, out=at), t_bound


def _trace_batch(scene: FlipperScene, positions, directions,
                 n_encounters: int, max_path_length: float | None,
                 record_path: bool):
    """Trace n rays in lockstep; see :func:`trace_flipper` for the physics.

    Each step lays out, for every live ray, its next ``depth`` free-flight
    segments (:func:`_segments`) and tests them all against
    ``scene.centers_ext`` at once. A ray with a hit goes to the first
    sphere entered along its own segments and is deflected there; a ray
    without one moves to the end of its last segment. ``depth`` is
    ``64 // isqrt(live)``, at least 1: a deeper step shares its fixed cost
    among more crossings but lays out more of them past a ray's hit, and
    the two balance near a depth proportional to 1 / sqrt(live). It is
    capped at the wall crossings a ray flies per mean free path: 13 in the
    216-center gate scene, 38 with 8 centers, 3 with 16,384. The float32
    cull fills views of one workspace, grown to the widest step so far:
    depth * live is not monotone, 360 rows at 36 live rays but 420 at 35.

    Rays leave the batch once they have ``n_encounters`` encounters or have
    used up ``max_path_length``; a ray that never could (a non-finite
    position or budget, or a direction that is zero or has a non-finite
    component) raises ``ValueError``. A float32 cull may keep extra
    ray-center pairs but drops none that can hit; every pair it keeps is
    decided in float64, and every float64 operation acts on each row alone
    (dot products are written out per component, not left to BLAS), so a
    ray traced by itself gives bitwise the same trajectory as in any batch
    and at any depth.
    Returns each ray's encounter count, the ``(n, n_encounters)`` arrays of
    the :class:`EncounterRecord` fields (a row's first ``count`` valid), and
    the path vertices as ``(rows, points)`` pairs, each row's in the order
    made.
    """
    L, r0 = scene.cell_size, scene.action_range
    r0sq, push = r0 * r0, 1e-9 * L
    if max_path_length is None:
        # a few mean free paths per requested encounter
        mfp = L ** 3 / max(len(scene.centers), 1) / (math.pi * r0sq)
        max_path_length = 20.0 * mfp * n_encounters
    if not math.isfinite(max_path_length):
        raise ValueError("max_path_length must be finite")
    P = np.asarray(positions, dtype=float)
    U = np.array(directions, dtype=float)
    with np.errstate(over="ignore"):
        uu = _dot(U, U)
    # a row whose u.u overflows or is subnormal is first divided by its
    # largest component (exactly, when that is a power of two); every
    # other row keeps its bits
    odd = ~((uu >= _TINY) & (uu < math.inf))
    if odd.any():
        big = np.abs(U).max(axis=1)
        odd &= (big > 0) & (big < math.inf)
        U[odd] /= big[odd, None]
        uu[odd] = _dot(U[odd], U[odd])
    norm = np.sqrt(uu)
    if not np.isfinite(P).all():
        raise ValueError("positions must be finite")
    if not np.all((norm > 0) & (norm < math.inf)):
        raise ValueError("directions must have a positive finite norm")
    P = P % L
    U /= norm[:, None]
    centers = scene.centers_ext
    n_ext = len(centers)
    # an isotropic ray crosses 1.5 L^2 / (N pi r0^2) walls per mean free path
    cap = math.ceil(min(64.0, 1.5 * (L / r0) * (L / r0) / (
        max(len(scene.centers), 1) * math.pi)))
    # Candidate pairs are found in float32 and tested exactly in float64.
    # The cull takes the squared distance from c to a segment's line as
    # |c - q|^2 - (u.c)^2, where q = p - (u.p) u is the line's point
    # nearest the origin, so u.q = 0: one product [q, 1, |q|^2] @
    # [-2c; |c|^2; 1] per segment and one u @ c per ray, compared with
    # (u.c)^2 + cull. With |q| <= |p| <= sqrt(3) L and |c| <= sqrt(3)
    # (L + r0), the terms of the first sum to at most 12 (L + r0)^2 in
    # absolute value and |u.c| <= sqrt(3) (L + r0); float32 rounding of the
    # inputs, the sums, the square and the sum then moves the comparison by
    # at most about 140 * 2^-24 (L + r0)^2. The cull keeps every pair within
    # a margin some thirty-five times wider than that.
    cull = np.float32(r0sq + 3e-4 * (L + r0) ** 2)
    c32 = np.vstack([-2.0 * centers.T, _dot(centers, centers),
                     np.ones(n_ext)]).astype(np.float32)
    cT32 = centers.T.astype(np.float32)

    n = len(P)
    # the cull workspace: u.c per live ray, [q, 1, |q|^2], |c - q|^2, mask
    uc_ws = np.empty((n, n_ext), np.float32)
    d2_ws = np.empty((0, n_ext), np.float32)
    rows = np.arange(n)  # original row of each live ray
    travelled = np.zeros(n)
    count = np.zeros(n, dtype=np.intp)
    fields = tuple(np.empty((n, n_encounters), dtype)
                   for dtype in (float, np.intp, float, float, float))
    # path vertices as (original rows, points), in the order they were made
    log = [(rows, P.copy())]

    while True:
        done = (count[rows] >= n_encounters) | (travelled >= max_path_length)
        if done.any():
            if not record_path:
                log.append((rows[done], P[done]))
            rows, P, U, travelled = (a[~done] for a in (rows, P, U, travelled))
        m = len(rows)
        if not m:
            break
        depth = max(1, min(64 // math.isqrt(m), cap))
        if len(d2_ws) < depth * m:
            d2_ws = np.empty((depth * m, n_ext), np.float32)
            keep_ws = np.empty(d2_ws.shape, bool)
            q_ws = np.ones((depth * m, 5), np.float32)

        starts, at, t_bound = _segments(P, U, travelled, depth, L, push)
        # a segment is flown only if the path budget is left at its start;
        # path lengths grow along a ray, so the flown ones come first
        flown = at[:-1] < max_path_length
        n_flown = flown.sum(axis=0)
        reach = np.where(flown, t_bound, -np.inf).reshape(-1)

        # rows of the cull are segments, segment-major: row = i * m + ray
        q = (starts[:-1] - _dot(starts[:-1], U)[:, :, None] * U).reshape(-1, 3)
        d2 = d2_ws[:depth * m].reshape(depth, m, n_ext)
        keep, uc, q32 = (keep_ws[:depth * m].reshape(d2.shape), uc_ws[:m],
                         q_ws[:depth * m])
        q32[:, :3], q32[:, 4] = q, _dot(q, q)
        np.matmul(q32, c32, out=d2_ws[:depth * m])
        np.square(np.matmul(U.astype(np.float32), cT32, out=uc), out=uc)
        np.less(d2, np.add(uc, cull, out=uc), out=keep)
        # flat indices: 2-d nonzero is several times slower here
        row, c = np.divmod(np.flatnonzero(keep), n_ext)
        seg, r = np.divmod(row, m)
        w = centers[c] - starts[seg, r]
        u = U[r]
        t_ca = _dot(w, u)
        gap = r0sq - (_dot(w, w) - t_ca * t_ca)
        t_enter = t_ca - np.sqrt(np.maximum(gap, 0.0))
        # the flown segment to the wall enters the sphere
        ok = np.flatnonzero((gap > 0) & (t_enter > push)
                            & (t_enter <= reach[row]))
        # first sphere entered by each ray: earliest segment, then earliest
        # entry (ties go to the lower index)
        order = ok[np.lexsort((t_enter[ok], seg[ok], r[ok]))]
        lead = np.ones(len(order), bool)  # the first of each ray's pairs
        np.not_equal(r[order][1:], r[order][:-1], out=lead[1:])
        first = order[lead]
        h, k, t_k = r[first], c[first], t_ca[first]
        # segments flown to their end: all flown, or those before the hit
        n_free = n_flown.copy()
        n_free[h] = seg[first]
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
            theta = scene.deflection(s)
            # scalar cos and sin: a row's value cannot depend on its batch
            cos_t, sin_t = (np.array([f(t) for t in theta.tolist()])
                            for f in (math.cos, math.sin))
            head_on = s < 1e-12 * r0
            n_hat = beta / np.where(head_on, 1.0, s)[:, None]
            pole = u[:, 0] * u[:, 0] + u[:, 1] * u[:, 1] < 1e-24
            if head_on.any():
                # a head-on hit has no impact direction of its own: it
                # takes the fixed e1 = z x u, or x x u near the poles
                ux, uy, uz = u[head_on].T
                zero = np.zeros(len(ux))
                e1 = np.where(pole[head_on, None],
                              np.column_stack([zero, -uz, uy]),
                              np.column_stack([-uy, ux, zero]))
                n_hat[head_on] = e1 / np.sqrt(_dot(e1, e1))[:, None]
            # the sign is the side of n_hat along u x e1, which for n_hat
            # perpendicular to u is the sign of n_hat's z (x near the poles)
            side = np.where(pole, n_hat[:, 0], n_hat[:, 2]) >= 0.0
            u_new = cos_t[:, None] * u + sin_t[:, None] * n_hat
            u_new /= np.sqrt(_dot(u_new, u_new))[:, None]

            hit_rows = rows[h]
            for f, v in zip(fields, (at_encounter, scene.center_index[k], s,
                                     theta, np.where(side, theta, -theta))):
                f[hit_rows, count[hit_rows]] = v
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

    return count, fields, log


def trace_flipper(scene: FlipperScene, position, direction,
                  n_encounters: int,
                  max_path_length: float | None = None,
                  record_path: bool = True) -> FlipperTrajectory:
    """Integrate one trajectory through ``n_encounters`` encounters.

    Straight free flight, deflection by theta(s) at each closest approach,
    speed preserved exactly. Stops early (fewer encounters) if
    ``max_path_length`` (by default 20 mean free paths per requested
    encounter) is exhausted; callers exclude short trajectories via
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
    Each stream draws its first n points, one ``random`` and one ``normal``
    call; the block is then scaled, normalised and checked against the
    centers in one neighbour-pair pass (:func:`_near_pairs`), and only
    streams with a start inside draw again, those rows together, until none
    is inside.
    """

    L = scene.cell_size
    r0sq = scene.action_range ** 2
    d_min = _MIN_SPACING * scene.action_range

    def inside(points):
        hit = np.zeros(len(points), bool)
        for i, _, r2 in _near_pairs(points, scene.centers, L, d_min):
            hit[i[r2 <= r0sq]] = True
        return hit

    def draw(streams, n):
        p, vec = np.empty((2, len(streams) * n, 3))
        for k, rng in enumerate(streams):
            rng.random(out=p[k * n:k * n + n])
            vec[k * n:k * n + n] = rng.normal(size=(n, 3))
        return np.hstack([p * L, vec / np.sqrt(_dot(vec, vec))[:, None]])

    def sampler(streams, n):
        out = draw(streams, n)
        redraw = np.flatnonzero(inside(out[:, :3]))
        for k in dict.fromkeys((redraw // n).tolist()):
            rows = redraw[redraw // n == k]
            while rows.size:
                out[rows] = draw([streams[k]], len(rows))
                rows = rows[inside(out[rows, :3])]
        return out

    return MeasureSpec(dimension=6, sampler=sampler)


def flipper_outcome_builder(scene: FlipperScene, n_bins: int,
                            n_encounters: int):
    """Outcome builder for :func:`trajlab.core.ensemble_statistics`.

    Entry points ``(n, 6)`` go to the ``(n, n_encounters)`` angle bins of
    each ray's signed deflections, padded with -1 past a ray that used up
    the default path budget of :func:`trace_flipper` first. A block is one
    lockstep batch of :func:`_trace_batch`.
    """

    def build(points):
        count, (*_, theta_signed), _ = _trace_batch(
            scene, points[:, :3], points[:, 3:6], n_encounters, None, False)
        outcomes = np.full((len(points), n_encounters), -1, dtype=np.intp)
        valid = np.arange(n_encounters) < count[:, None]
        outcomes[valid] = angle_bins(theta_signed[valid], n_bins)
        return outcomes

    return build


@dataclass(frozen=True)
class FlipperResult:
    """Ensemble rate statistics plus the cross sections they normalise to."""

    stats: "RateStatistics"
    cross_sections: np.ndarray


def flipper_cross_section(scene: FlipperScene, n_outcomes: int = 8,
                          n_traj: int = 1000, n_min_trials: int = 1,
                          seed: int = 0,
                          n_encounters: int = 20) -> FlipperResult:
    """Binned encounter rates over an ensemble, scaled to cross sections.

    Draws entry states isotropically over the cell (:func:`entry_measure`),
    integrates each trajectory through ``n_encounters`` encounters,
    classifies every signed deflection into ``n_outcomes`` equal angle bins,
    and reports mean rates, their spread, and the per-bin cross sections
    ``f_i * pi * r0^2``. Trajectories with fewer than ``n_min_trials``
    encounters are excluded from the statistics.
    """
    from .core import ensemble_statistics

    stats = ensemble_statistics(
        entry_measure(scene),
        flipper_outcome_builder(scene, n_outcomes, n_encounters),
        n_outcomes, n_trajectories=n_traj, n_min_trials=n_min_trials,
        seed=seed)
    return FlipperResult(stats=stats, cross_sections=stats.mean * math.pi
                         * scene.action_range ** 2)
