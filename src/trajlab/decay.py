"""Decay of a particle at rest or in flight, resolved by least action.

A parent of mass ``m1`` travels freely, splits at an unknown vertex
``(x_d, t_d)`` into two products ``m2``, ``m3`` that travel freely to
prescribed endpoints at a common final time. Each free segment
contributes ``m |dx|^2 / (2 dt) - m c^2 dt`` to the action; rest energy
makes delaying the split cheaper, so the action selects a unique
interior vertex whenever the endpoint data leaves any energy for the
products' relative motion.

The total action is jointly convex in ``(x_d, t_d)`` on the open strip
``t_a < t_d < t_b`` (each kinetic term is a quadratic-over-linear form,
the rest-energy terms are linear). At fixed ``t_d`` it is quadratic in
``x_d`` with a closed-form minimiser, and minimising a jointly convex
function over some of its variables leaves a convex function of the rest
(Boyd & Vandenberghe, *Convex Optimization*, 2004, §3.2.5). So the vertex
time is the one sign change of the reduced action's nondecreasing,
convex slope, found by bisection then Newton steps from the root's right,
and the vertex is the global minimum. Conservation of momentum and energy
at the vertex are exactly the stationarity conditions and are reported as
residuals rather than imposed.

The slope has a closed form. By the envelope theorem it is ``E2 + E3 - E1``
at the best ``x_d``, where momentum balances; splitting the products'
kinetic energy into centre-of-mass and relative parts gives

    slope(t) = mu |r|^2 / (2 tau2^2)
               + (m1 - M) (M/m1) |D|^2 / (2 (tau2 + (M/m1) tau1)^2) - Q

with ``M = m2 + m3``, ``mu`` the products' reduced mass, ``Q`` the
released energy, ``r = x_b2 - x_b3``, ``D`` the products' final centre of
mass less ``x_a``, ``tau1 = t - t_a`` and ``tau2 = t_b - t``: the
relative-motion energy plus the centre-of-mass excess over the parent's
kinetic energy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import MeasureSpec, PiecewiseTrajectory, Segment
from .errors import NoSolutionError
from .rng import stream

__all__ = [
    "DecayMasses",
    "DecayBoundary",
    "DecayVertex",
    "decay_action",
    "action_gradient",
    "action_hessian",
    "solve_decay_vertex",
    "conservation_residuals",
    "symmetric_decay_time",
    "sample_boundary",
    "exponential_life_measure",
    "uniform_life_measure",
    "mean_life",
    "decay_trajectory",
    "rest_decay_family",
]


@dataclass(frozen=True)
class DecayMasses:
    """Masses of the parent and the two products, with the speed scale c."""

    m1: float
    m2: float
    m3: float
    c: float = 1.0

    def __post_init__(self):
        for name in ("m1", "m2", "m3", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.m1 <= self.m2 + self.m3:
            raise ValueError(
                f"parent mass {self.m1} must exceed the product masses "
                f"{self.m2} + {self.m3}; otherwise nothing is released")

    @property
    def released_energy(self) -> float:
        return (self.m1 - self.m2 - self.m3) * self.c ** 2

    @property
    def product_mass(self) -> float:
        return self.m2 + self.m3

    @property
    def reduced_mass(self) -> float:
        # divided first: the product m2 * m3 underflows for masses near 1e-165
        return self.m2 / (self.m2 + self.m3) * self.m3


@dataclass(frozen=True)
class DecayBoundary:
    """Endpoint data: parent start and both product endpoints."""

    x_a: np.ndarray
    t_a: float
    x_b2: np.ndarray
    x_b3: np.ndarray
    t_b: float

    def __post_init__(self):
        for name in ("x_a", "x_b2", "x_b3"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (3,) or not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be a finite 3-vector, got {arr}")
            object.__setattr__(self, name, arr)
        if not -math.inf < self.t_a < self.t_b < math.inf:
            raise ValueError(f"need finite t_a < t_b, got {self.t_a}, {self.t_b}")


@dataclass(frozen=True)
class DecayVertex:
    """Least-action split point with the velocities it implies."""

    x_d: np.ndarray
    t_d: float
    action: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray


def _velocities(boundary: DecayBoundary, x_d, t_d):
    """Leg durations and velocities, one row per entry of an array ``t_d``."""
    tau1 = t_d - boundary.t_a
    tau2 = boundary.t_b - t_d
    v1 = (x_d - boundary.x_a) / _column(tau1)
    v2 = (boundary.x_b2 - x_d) / _column(tau2)
    v3 = (boundary.x_b3 - x_d) / _column(tau2)
    return tau1, tau2, v1, v2, v3


def _column(t):
    """An array of times as a column that scales one 3-vector per row."""
    return t[..., None] if isinstance(t, np.ndarray) else t


def decay_action(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d):
    """Action of the broken path through vertex ``(x_d, t_d)``, or an array
    of actions for an array of split times with one row of ``x_d`` each."""
    x_d, t_d = np.asarray(x_d, dtype=float), np.asarray(t_d, dtype=float)
    if not ((boundary.t_a < t_d) & (t_d < boundary.t_b)).all():
        raise ValueError(f"t_d={t_d} must lie strictly inside "
                         f"({boundary.t_a}, {boundary.t_b})")
    s = _action(masses, *_velocities(boundary, x_d, t_d))
    return s if t_d.ndim else float(s)


def _action(masses: DecayMasses, tau1, tau2, v1, v2, v3):
    """Action of the broken path from its legs' durations and velocities."""
    c2 = masses.c ** 2
    s = 0.5 * masses.m1 * np.vecdot(v1, v1) * tau1 - masses.m1 * c2 * tau1
    s += 0.5 * masses.m2 * np.vecdot(v2, v2) * tau2 - masses.m2 * c2 * tau2
    s += 0.5 * masses.m3 * np.vecdot(v3, v3) * tau2 - masses.m3 * c2 * tau2
    return s


def _balance(masses: DecayMasses, v1, v2, v3):
    """Momentum mismatch and energy mismatch ``E2 + E3 - E1`` at the split."""
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    c2 = masses.c ** 2
    dp = m1 * v1 - m2 * v2 - m3 * v3
    e1 = 0.5 * m1 * float(v1 @ v1) + m1 * c2
    e2 = 0.5 * m2 * float(v2 @ v2) + m2 * c2
    e3 = 0.5 * m3 * float(v3 @ v3) + m3 * c2
    return dp, e2 + e3 - e1


def action_gradient(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d: float) -> np.ndarray:
    """Gradient in (x_d, t_d); its zeros are momentum and energy balance."""
    x_d = np.asarray(x_d, dtype=float)
    _, _, v1, v2, v3 = _velocities(boundary, x_d, t_d)
    dp, de = _balance(masses, v1, v2, v3)
    return np.concatenate([dp, [de]])


def action_hessian(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d: float) -> np.ndarray:
    """Hessian ``[[a I3, b], [b^T, d]]`` in (x_d, t_d)."""
    x_d = np.asarray(x_d, dtype=float)
    tau1, tau2, v1, v2, v3 = _velocities(boundary, x_d, t_d)
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    a = m1 / tau1 + (m2 + m3) / tau2
    b = -m1 * v1 / tau1 - (m2 * v2 + m3 * v3) / tau2
    d = (m1 * float(v1 @ v1) / tau1
         + (m2 * float(v2 @ v2) + m3 * float(v3 @ v3)) / tau2)
    return np.block([[a * np.eye(3), b[:, None]], [b, d]])


def _best_x(masses: DecayMasses, boundary: DecayBoundary, t_d) -> np.ndarray:
    # the action is quadratic in x_d at fixed t_d; this is its minimizer
    tau1 = _column(t_d - boundary.t_a)
    tau2 = _column(boundary.t_b - t_d)
    w1 = masses.m1 / tau1
    w23 = (masses.m2 + masses.m3) / tau2
    num = (w1 * boundary.x_a
           + (masses.m2 * boundary.x_b2 + masses.m3 * boundary.x_b3) / tau2)
    return num / (w1 + w23)


def _reduced_slope(masses: DecayMasses, boundary: DecayBoundary):
    """The reduced action's slope, the closed form in the module docstring,
    and its derivative, as a function of the split time on plain floats.

    By the envelope theorem the slope is ``E2 + E3 - E1`` at ``_best_x``.
    There momentum balances, ``m1 v1 = M V`` with ``V`` the products'
    centre-of-mass velocity, and ``x_d`` lies on the segment from ``x_a``
    to the products' final centre of mass, so ``V = D / (tau2 + (M/m1)
    tau1)``. The products' kinetic energy is ``M |V|^2 / 2`` plus the
    relative part ``mu |r|^2 / (2 tau2^2)``, and the parent's is
    ``(M/m1) M |V|^2 / 2``. Both terms rise with ``t``, so the slope does
    too unless ``r`` and ``D`` both vanish, and both are convex in ``t``.
    Each term divides by its flight time once per power, not once by the
    power, which can underflow.
    """
    m1, m_prod = masses.m1, masses.product_mass
    ratio = m_prod / m1
    centre = ((masses.m2 / m_prod) * boundary.x_b2
              + (masses.m3 / m_prod) * boundary.x_b3)
    r, dist = boundary.x_b2 - boundary.x_b3, centre - boundary.x_a
    kin = 0.5 * masses.reduced_mass * float(r @ r)
    excess = 0.5 * (m1 - m_prod) * float(dist @ dist) * ratio
    q, t_a, t_b = masses.released_energy, float(boundary.t_a), float(boundary.t_b)

    def slope(t):
        tau2 = t_b - t
        flight = tau2 + ratio * (t - t_a)
        rel, com = kin / tau2 / tau2, excess / flight / flight
        return rel + com - q, 2 * rel / tau2 + 2 * (1 - ratio) * com / flight

    return slope


_ROOT_MAXITER = 100  # slope evaluations of _convex_root before it gives up
_ROOT_RTOL = 4 * sys.float_info.epsilon  # relative part of its tolerance


def _convex_root(f, lo, hi, xtol):
    """``(root, converged)`` of an increasing convex ``f`` with ``f(lo) < 0
    < f(hi)``, where ``f(t)`` returns the value and the derivative at ``t``.

    Bisection shrinks ``[lo, hi]`` until a midpoint lies right of the root
    with a finite derivative, which overflows near ``hi`` for huge masses
    over short spans. A convex function lies above its tangents, so from
    there each Newton step lands between the root and its start, and the
    steps move down onto the root. The search stops at a step, or a
    bracket, within ``xtol`` plus ``_ROOT_RTOL |x|``, as no float step is
    shorter than an ulp of ``x``; a Newton step that rounding carries left
    of the root is negative and stops it too.
    """
    x, newton = 0.5 * (lo + hi), False
    for _ in range(_ROOT_MAXITER):
        s, ds = f(x)
        newton = newton or (s >= 0 and ds < math.inf)
        if newton:
            step = s / ds
            x -= step
        else:
            lo, hi = (x, hi) if s < 0 else (lo, x)
            step, x = hi - lo, 0.5 * (lo + hi)
        if step <= xtol + _ROOT_RTOL * abs(x):
            return x, True
    return x, False


def _endpoints(boundary: DecayBoundary) -> str:
    """The endpoint data as ``key = value``, each vector as a list."""
    return ", ".join(f"{key} = {np.asarray(getattr(boundary, key)).tolist()}"
                     for key in ("x_a", "t_a", "x_b2", "x_b3", "t_b"))


def solve_decay_vertex(masses: DecayMasses, boundary: DecayBoundary) -> DecayVertex:
    """Find the interior vertex minimising the action.

    The vertex time is the root (:func:`_convex_root`) of the reduced
    action's slope in closed form (:func:`_reduced_slope`): the products'
    relative-motion energy plus their centre-of-mass excess over the
    parent, less the released energy, from the envelope theorem at
    ``_best_x``. The slope is increasing and convex, so bisection then
    Newton steps from the root's right find it, and the action's joint
    convexity makes that stationary point its minimum. ``x_d``, the action
    and the velocities come from ``_best_x`` at that time.

    Raises NoSolutionError when the span is too short to bracket a time
    strictly inside it, or the slope overflows at the bracket, has no sign
    change inside the interval (the infimum sits on the time boundary) or
    its root search does not converge.
    """
    t_a, t_b = boundary.t_a, boundary.t_b
    span = t_b - t_a
    eps = 1e-9 * span
    lo, hi = t_a + eps, t_b - eps
    interval = f"t_a = {t_a!r}, t_b = {t_b!r}"
    if not t_a < lo < hi < t_b:
        raise NoSolutionError(
            f"time interval {interval} is too short to bracket a split time "
            "strictly inside it in floating point")
    slope = _reduced_slope(masses, boundary)
    (s_lo, _), (s_hi, _) = slope(lo), slope(hi)
    if not (math.isfinite(s_lo) and math.isfinite(s_hi)):
        raise NoSolutionError(
            "the reduced action's slope overflows at the ends of the time "
            f"interval {interval}: the endpoints are too far apart for its "
            "length")
    if not s_lo < 0:
        raise NoSolutionError(
            "endpoint data admits no interior split: the products would need "
            "more kinetic energy than the decay releases, so the action is "
            f"minimised by splitting immediately, for {_endpoints(boundary)}")
    if not s_hi > 0:
        raise NoSolutionError(
            "endpoint data admits no interior split: the action keeps falling "
            f"all the way to the final time, for {_endpoints(boundary)}")
    # scaled by the span, as t_a may be negative and the root may sit near 0
    t_d, converged = _convex_root(slope, lo, hi,
                                  xtol=4 * sys.float_info.epsilon * span)
    if not converged:
        raise NoSolutionError(
            f"split-time root search did not converge in {_ROOT_MAXITER} "
            "slope evaluations")
    if t_d - t_a < 10 * eps or t_b - t_d < 10 * eps:
        raise NoSolutionError(
            "least-action split time collapsed onto the interval boundary; "
            "the endpoint data admits no interior decay vertex")

    x_d = _best_x(masses, boundary, t_d)
    tau1, tau2, v1, v2, v3 = _velocities(boundary, x_d, t_d)
    return DecayVertex(x_d=x_d, t_d=float(t_d),
                       action=float(_action(masses, tau1, tau2, v1, v2, v3)),
                       v1=v1, v2=v2, v3=v3)


def conservation_residuals(masses: DecayMasses, vertex: DecayVertex) -> tuple[float, float]:
    """(|momentum mismatch|, |energy mismatch|) at the split."""
    dp, de = _balance(masses, vertex.v1, vertex.v2, vertex.v3)
    return math.hypot(*dp), abs(de)  # hypot scales: no overflow near 1e300


def symmetric_decay_time(masses: DecayMasses, distance: float, t_b: float,
                         t_a: float = 0.0) -> float:
    """Closed-form split time for a parent at rest with equal-mass products
    detected at +-distance from the start point at time t_b.
    """
    if not math.isclose(masses.m2, masses.m3, rel_tol=1e-12):
        raise ValueError("closed form requires equal product masses")
    if distance <= 0:
        raise ValueError("distance must be positive")
    tau2 = distance * math.sqrt(masses.product_mass / (2.0 * masses.released_energy))
    t_d = t_b - tau2
    if t_d <= t_a:
        raise NoSolutionError(
            f"products cannot reach distance {distance} by t_b={t_b}: the "
            f"released energy caps their speed (needed flight time {tau2})")
    return t_d


def _product_velocities(masses: DecayMasses, v1: np.ndarray, w_hat: np.ndarray):
    """Product velocities for parent velocity v1 and relative direction w_hat."""
    m_prod = masses.product_mass
    u = masses.m1 * v1 / m_prod
    spare = masses.released_energy + 0.5 * masses.m1 * float(v1 @ v1) * (1.0 - masses.m1 / m_prod)
    if spare <= 0:
        raise NoSolutionError(
            "parent moves too fast for this mass split: no energy is left "
            "for the products' relative motion")
    w = math.sqrt(2.0 * spare / masses.reduced_mass)
    v2 = u + (masses.m3 / m_prod) * w * w_hat
    v3 = u - (masses.m2 / m_prod) * w * w_hat
    return v2, v3


_T_MARGIN = 0.05  # share of [t_a, t_b] at each end sample_boundary avoids


def sample_boundary(masses: DecayMasses, rng: np.random.Generator,
                    t_b: float = 10.0, t_a: float = 0.0,
                    x_a=None, speed_fraction: float = 0.5,
                    ) -> tuple[DecayBoundary, float]:
    """Draw endpoint data by running a kinematically consistent decay forward.

    Returns the boundary and the split time that generated it; the least
    action solve must recover exactly that time (the minimum is unique).
    """
    if x_a is None:
        x_a = np.zeros(3)
    x_a = np.asarray(x_a, dtype=float)
    span = t_b - t_a
    v_cap = math.sqrt(2.0 * masses.product_mass * masses.c ** 2 / masses.m1)
    d1 = rng.normal(size=3)
    d1 /= np.linalg.norm(d1)
    v1 = d1 * (speed_fraction * v_cap * rng.random())
    w_hat = rng.normal(size=3)
    w_hat /= np.linalg.norm(w_hat)
    t_d = t_a + span * (_T_MARGIN + (1.0 - 2.0 * _T_MARGIN) * rng.random())
    x_d = x_a + v1 * (t_d - t_a)
    v2, v3 = _product_velocities(masses, v1, w_hat)
    tau2 = t_b - t_d
    boundary = DecayBoundary(x_a=x_a, t_a=t_a, x_b2=x_d + v2 * tau2,
                             x_b3=x_d + v3 * tau2, t_b=t_b)
    return boundary, t_d


def exponential_life_measure(tau0: float) -> MeasureSpec:
    """Normalised measure with density (1/tau0) exp(-t/tau0) on t >= 0."""
    if not (math.isfinite(tau0) and tau0 > 0):
        raise ValueError(f"tau0 must be positive, got {tau0}")
    return MeasureSpec(dimension=1, sampler=lambda streams, n: np.array(
        [rng.exponential(tau0, n) for rng in streams]).reshape(-1, 1))


def uniform_life_measure(low: float = 0.0, high: float = 2.0) -> MeasureSpec:
    """Normalised uniform measure over split times in [low, high)."""
    if not high > low >= 0:
        raise ValueError("need 0 <= low < high")
    return MeasureSpec(dimension=1, sampler=lambda streams, n: np.array(
        [rng.uniform(low, high, n) for rng in streams]).reshape(-1, 1))


def mean_life(decay_time_measure: MeasureSpec, n_samples: int = 1000,
              seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean of the split time under a measure over times.

    The measure lives on the one indeterminate coordinate of the
    trajectory family, the split time itself; the dynamics fixes all else
    once that time is drawn. Returns (estimate, standard error); a point
    mass comes back exact with zero error.
    """
    if decay_time_measure.dimension != 1:
        raise ValueError("mean life needs a one-dimensional measure over "
                         "split times")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = stream(seed, "mean-life")
    times = np.asarray(decay_time_measure.sampler([rng], n_samples),
                       dtype=float).reshape(n_samples)
    if np.any(times < 0):
        raise ValueError("split times must be nonnegative")
    mean = float(np.mean(times))
    if n_samples < 2:
        return mean, 0.0
    spread = float(np.std(times, ddof=1))
    return mean, spread / math.sqrt(n_samples)


def decay_trajectory(masses: DecayMasses, boundary: DecayBoundary,
                     vertex: DecayVertex,
                     branch_id: str | None = None) -> PiecewiseTrajectory:
    """Piecewise path: parent sector (3 coords) then products sector (6).

    The configuration space changes dimension at the split, so the two
    pieces carry different sector labels and are never comparable across
    the split time.
    """
    x_a, t_a = boundary.x_a, boundary.t_a
    x_d, t_d = vertex.x_d, vertex.t_d
    v1, v2, v3 = vertex.v1, vertex.v2, vertex.v3

    def parent(t):
        return x_a + v1 * (t - t_a)[:, None]

    def products(t):
        dt = (t - t_d)[:, None]
        return np.concatenate([x_d + v2 * dt, x_d + v3 * dt], axis=1)

    return PiecewiseTrajectory(
        [Segment(t_a, t_d, parent, sector="parent"),
         Segment(t_d, boundary.t_b, products, sector="products")],
        branch_id=branch_id)


def rest_decay_family(masses: DecayMasses, decay_times, t_b: float,
                      direction=(1.0, 0.0, 0.0)) -> list[PiecewiseTrajectory]:
    """Trajectories sharing one past and splitting at different times.

    A parent at rest sits at the origin from t = 0; each member splits at
    its own time with products flying apart along ``direction`` at the
    released-energy speed. All members agree exactly until the earliest
    split, then diverge: the set is indeterministic even though every
    member obeys the dynamics.
    """
    x_a = np.zeros(3)
    d_hat = np.asarray(direction, dtype=float)
    d_hat = d_hat / np.linalg.norm(d_hat)
    out = []
    for t_d in decay_times:
        if not 0.0 < t_d < t_b:
            raise ValueError(f"decay time {t_d} outside (0.0, {t_b})")
        v2, v3 = _product_velocities(masses, np.zeros(3), d_hat)
        tau2 = t_b - t_d
        boundary = DecayBoundary(x_a=x_a, t_a=0.0, x_b2=x_a + v2 * tau2,
                                 x_b3=x_a + v3 * tau2, t_b=t_b)
        vertex = DecayVertex(x_d=x_a.copy(), t_d=float(t_d),
                             action=decay_action(masses, boundary, x_a, t_d),
                             v1=np.zeros(3), v2=v2, v3=v3)
        out.append(decay_trajectory(masses, boundary, vertex,
                                    branch_id=f"split@{t_d:g}"))
    return out
