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
the rest-energy terms are linear), so the stationary point found by
Newton iteration is the global minimum. Conservation of momentum and
energy at the vertex are exactly the stationarity conditions and are
reported as residuals rather than imposed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MeasureSpec, PiecewiseTrajectory, Segment
from .errors import NoSolutionError, NotAMinimumError

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
    "boundary_measure",
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
        return self.m2 * self.m3 / (self.m2 + self.m3)


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
            if arr.shape != (3,):
                raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
            object.__setattr__(self, name, arr)
        if not self.t_b > self.t_a:
            raise ValueError(f"t_b={self.t_b} must exceed t_a={self.t_a}")

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.x_a, [self.t_a], self.x_b2, self.x_b3,
                               [self.t_b]])

    @classmethod
    def from_vector(cls, vec) -> "DecayBoundary":
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (11,):
            raise ValueError(f"boundary vector must have 11 entries, got {vec.shape}")
        return cls(vec[0:3], float(vec[3]), vec[4:7], vec[7:10], float(vec[10]))


@dataclass(frozen=True)
class DecayVertex:
    """Least-action split point with the velocities it implies."""

    x_d: np.ndarray
    t_d: float
    action: float
    v1: np.ndarray
    v2: np.ndarray
    v3: np.ndarray
    n_iterations: int


def _velocities(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d):
    tau1 = t_d - boundary.t_a
    tau2 = boundary.t_b - t_d
    v1 = (x_d - boundary.x_a) / tau1
    v2 = (boundary.x_b2 - x_d) / tau2
    v3 = (boundary.x_b3 - x_d) / tau2
    return tau1, tau2, v1, v2, v3


def decay_action(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d: float) -> float:
    """Action of the broken path through vertex ``(x_d, t_d)``."""
    x_d = np.asarray(x_d, dtype=float)
    if not boundary.t_a < t_d < boundary.t_b:
        raise ValueError(f"t_d={t_d} must lie strictly inside "
                         f"({boundary.t_a}, {boundary.t_b})")
    tau1, tau2, v1, v2, v3 = _velocities(masses, boundary, x_d, t_d)
    c2 = masses.c ** 2
    s = 0.5 * masses.m1 * float(v1 @ v1) * tau1 - masses.m1 * c2 * tau1
    s += 0.5 * masses.m2 * float(v2 @ v2) * tau2 - masses.m2 * c2 * tau2
    s += 0.5 * masses.m3 * float(v3 @ v3) * tau2 - masses.m3 * c2 * tau2
    return s


def action_gradient(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d: float) -> np.ndarray:
    """Gradient in (x_d, t_d); its zeros are momentum and energy balance."""
    x_d = np.asarray(x_d, dtype=float)
    tau1, tau2, v1, v2, v3 = _velocities(masses, boundary, x_d, t_d)
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    c2 = masses.c ** 2
    g_x = m1 * v1 - m2 * v2 - m3 * v3
    e1 = 0.5 * m1 * float(v1 @ v1) + m1 * c2
    e2 = 0.5 * m2 * float(v2 @ v2) + m2 * c2
    e3 = 0.5 * m3 * float(v3 @ v3) + m3 * c2
    return np.concatenate([g_x, [e2 + e3 - e1]])


def action_hessian(masses: DecayMasses, boundary: DecayBoundary, x_d, t_d: float) -> np.ndarray:
    x_d = np.asarray(x_d, dtype=float)
    tau1, tau2, v1, v2, v3 = _velocities(masses, boundary, x_d, t_d)
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    a = m1 / tau1 + (m2 + m3) / tau2
    b = -m1 * v1 / tau1 - (m2 * v2 + m3 * v3) / tau2
    d = (m1 * float(v1 @ v1) / tau1
         + (m2 * float(v2 @ v2) + m3 * float(v3 @ v3)) / tau2)
    h = np.zeros((4, 4))
    h[:3, :3] = a * np.eye(3)
    h[:3, 3] = b
    h[3, :3] = b
    h[3, 3] = d
    return h


def _best_x(masses: DecayMasses, boundary: DecayBoundary, t_d: float) -> np.ndarray:
    # the action is quadratic in x_d at fixed t_d; this is its minimizer
    tau1 = t_d - boundary.t_a
    tau2 = boundary.t_b - t_d
    w1 = masses.m1 / tau1
    w23 = (masses.m2 + masses.m3) / tau2
    num = (w1 * boundary.x_a
           + (masses.m2 * boundary.x_b2 + masses.m3 * boundary.x_b3) / tau2)
    return num / (w1 + w23)


def solve_decay_vertex(masses: DecayMasses, boundary: DecayBoundary,
                       tol: float = 1e-12, max_iter: int = 100) -> DecayVertex:
    """Find the interior vertex minimising the action.

    Damped Newton on the 4-variable gradient with the analytic Hessian.
    Raises NoSolutionError when the infimum sits on the time boundary
    (the endpoint data demands more kinetic energy than the split
    releases, so the best split is "immediately"), NotAMinimumError if
    the curvature check fails at the reported point.
    """
    span = boundary.t_b - boundary.t_a
    eps = 1e-9 * span

    # no interior stationary point exists when the time-derivative of the
    # x-minimised action is already >= 0 next to t_a (it only grows after)
    g_early = action_gradient(masses, boundary,
                              _best_x(masses, boundary, boundary.t_a + eps),
                              boundary.t_a + eps)[3]
    if g_early >= 0:
        raise NoSolutionError(
            "endpoint data admits no interior split: the products would need "
            "more kinetic energy than the decay releases, so the action is "
            "minimised by splitting immediately")

    t_d = boundary.t_a + 0.5 * span
    x_d = _best_x(masses, boundary, t_d)
    z = np.concatenate([x_d, [t_d]])
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        g = action_gradient(masses, boundary, z[:3], z[3])
        if float(np.max(np.abs(g))) < tol * max(1.0, masses.m1 * masses.c ** 2):
            break
        h = action_hessian(masses, boundary, z[:3], z[3])
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            step = -g / max(float(np.trace(h)) / 4.0, 1e-30)
        # damp so t_d stays strictly inside the interval
        alpha = 1.0
        t_new = z[3] + step[3]
        if t_new <= boundary.t_a + eps:
            alpha = (boundary.t_a + eps - z[3]) / step[3] * 0.5
        elif t_new >= boundary.t_b - eps:
            alpha = (boundary.t_b - eps - z[3]) / step[3] * 0.5
        s_old = decay_action(masses, boundary, z[:3], z[3])
        for _ in range(60):
            z_new = z + alpha * step
            if decay_action(masses, boundary, z_new[:3], z_new[3]) <= s_old + 1e-15 * abs(s_old):
                break
            alpha *= 0.5
        else:
            break
        z = z_new
    else:
        n_iter = max_iter

    g = action_gradient(masses, boundary, z[:3], z[3])
    if float(np.max(np.abs(g))) > 1e-6 * max(1.0, masses.m1 * masses.c ** 2):
        # damped Newton stalled; hand the problem to a derivative-free search
        from scipy.optimize import minimize

        def obj(p):
            t = min(max(p[3], boundary.t_a + eps), boundary.t_b - eps)
            return decay_action(masses, boundary, p[:3], t)

        best = None
        for frac in (0.25, 0.5, 0.75):
            t0 = boundary.t_a + frac * span
            start = np.concatenate([_best_x(masses, boundary, t0), [t0]])
            res = minimize(obj, start, method="Nelder-Mead",
                           options={"xatol": 1e-12, "fatol": 1e-14,
                                    "maxiter": 20000})
            if best is None or res.fun < best.fun:
                best = res
        z = best.x
        z[3] = min(max(z[3], boundary.t_a + eps), boundary.t_b - eps)
        g = action_gradient(masses, boundary, z[:3], z[3])
        if float(np.max(np.abs(g))) > 1e-5 * max(1.0, masses.m1 * masses.c ** 2):
            raise NoSolutionError(
                "no interior stationary point of the action was found for "
                "the given endpoint data")

    if z[3] - boundary.t_a < 10 * eps or boundary.t_b - z[3] < 10 * eps:
        raise NoSolutionError(
            "least-action split time collapsed onto the interval boundary; "
            "the endpoint data admits no interior decay vertex")

    h = action_hessian(masses, boundary, z[:3], z[3])
    eigs = np.linalg.eigvalsh(h)
    if float(eigs.min()) < -1e-8 * max(float(eigs.max()), 1.0):
        raise NotAMinimumError(
            f"stationary point has negative curvature (min eigenvalue "
            f"{eigs.min():.3e}); not an action minimum")

    tau1, tau2, v1, v2, v3 = _velocities(masses, boundary, z[:3], z[3])
    return DecayVertex(x_d=z[:3].copy(), t_d=float(z[3]),
                       action=decay_action(masses, boundary, z[:3], z[3]),
                       v1=v1, v2=v2, v3=v3, n_iterations=n_iter)


def conservation_residuals(masses: DecayMasses, vertex: DecayVertex) -> tuple[float, float]:
    """(|momentum mismatch|, |energy mismatch|) at the split."""
    m1, m2, m3 = masses.m1, masses.m2, masses.m3
    c2 = masses.c ** 2
    dp = m1 * vertex.v1 - m2 * vertex.v2 - m3 * vertex.v3
    e1 = 0.5 * m1 * float(vertex.v1 @ vertex.v1) + m1 * c2
    e2 = 0.5 * m2 * float(vertex.v2 @ vertex.v2) + m2 * c2
    e3 = 0.5 * m3 * float(vertex.v3 @ vertex.v3) + m3 * c2
    return float(np.linalg.norm(dp)), abs(e1 - e2 - e3)


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


def sample_boundary(masses: DecayMasses, rng: np.random.Generator,
                    t_b: float = 10.0, t_a: float = 0.0,
                    x_a=None, speed_fraction: float = 0.5,
                    t_margin: float = 0.05) -> tuple[DecayBoundary, float]:
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
    t_d = t_a + span * (t_margin + (1.0 - 2.0 * t_margin) * rng.random())
    x_d = x_a + v1 * (t_d - t_a)
    v2, v3 = _product_velocities(masses, v1, w_hat)
    tau2 = t_b - t_d
    boundary = DecayBoundary(x_a=x_a, t_a=t_a, x_b2=x_d + v2 * tau2,
                             x_b3=x_d + v3 * tau2, t_b=t_b)
    return boundary, t_d


def boundary_measure(masses: DecayMasses, t_b: float = 10.0, t_a: float = 0.0,
                     x_a=None, speed_fraction: float = 0.5,
                     t_margin: float = 0.05) -> MeasureSpec:
    """Normalised measure over endpoint data, sampled by forward kinematics."""

    def sampler(rng, n):
        out = np.empty((n, 11))
        for i in range(n):
            b, _ = sample_boundary(masses, rng, t_b=t_b, t_a=t_a, x_a=x_a,
                                   speed_fraction=speed_fraction,
                                   t_margin=t_margin)
            out[i] = b.as_vector()
        return out

    return MeasureSpec(dimension=11, sampler=sampler,
                       name=f"decay-boundary[t_b={t_b}]")


def exponential_life_measure(tau0: float) -> MeasureSpec:
    """Normalised measure with density (1/tau0) exp(-t/tau0) on t >= 0."""
    if not (math.isfinite(tau0) and tau0 > 0):
        raise ValueError(f"tau0 must be positive, got {tau0}")

    def density(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0, np.exp(-t / tau0) / tau0, 0.0)

    return MeasureSpec(dimension=1,
                       sampler=lambda rng, n: rng.exponential(tau0, (n, 1)),
                       density=density, total_mass=1.0,
                       name=f"exponential-life[{tau0}]")


def uniform_life_measure(low: float = 0.0, high: float = 2.0) -> MeasureSpec:
    """Normalised uniform measure over split times in [low, high)."""
    if not high > low >= 0:
        raise ValueError("need 0 <= low < high")
    width = high - low

    def density(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= low) & (t < high), 1.0 / width, 0.0)

    return MeasureSpec(dimension=1,
                       sampler=lambda rng, n: rng.uniform(low, high, (n, 1)),
                       density=density, total_mass=1.0,
                       name=f"uniform-life[{low},{high}]")


def mean_life(decay_time_measure: MeasureSpec, n_samples: int = 1000,
              seed: int = 0) -> tuple[float, float]:
    """Monte Carlo mean of the split time under a measure over times.

    The measure lives on the one indeterminate coordinate of the
    trajectory family, the split time itself; the dynamics fixes all else
    once that time is drawn. Returns (estimate, standard error); a point
    mass comes back exact with zero error.
    """
    from .errors import DegenerateMeasureError
    from .rng import stream

    if decay_time_measure.dimension != 1:
        raise ValueError("mean life needs a one-dimensional measure over "
                         "split times")
    if abs(decay_time_measure.total_mass - 1.0) > 1e-12:
        raise DegenerateMeasureError(
            f"mean life needs a normalised measure, total mass is "
            f"{decay_time_measure.total_mass!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = stream(seed, "mean-life")
    times = np.asarray(decay_time_measure.sampler(rng, n_samples),
                       dtype=float).reshape(n_samples)
    if np.any(times < 0):
        raise ValueError("split times must be nonnegative")
    mean = float(np.mean(times))
    if n_samples < 2:
        return mean, 0.0
    spread = float(np.std(times, ddof=1))
    return mean, spread / math.sqrt(n_samples)


def decay_trajectory(masses: DecayMasses, boundary: DecayBoundary,
                     vertex: DecayVertex | None = None,
                     branch_id: str | None = None) -> PiecewiseTrajectory:
    """Piecewise path: parent sector (3 coords) then products sector (6).

    The configuration space changes dimension at the split, so the two
    pieces carry different sector labels and are never comparable across
    the split time.
    """
    if vertex is None:
        vertex = solve_decay_vertex(masses, boundary)
    x_a, t_a = boundary.x_a, boundary.t_a
    x_d, t_d = vertex.x_d, vertex.t_d
    v1, v2, v3 = vertex.v1, vertex.v2, vertex.v3

    def parent(t):
        return x_a + v1 * (t - t_a)[:, None]

    def products(t):
        dt = (t - t_d)[:, None]
        return np.concatenate([x_d + v2 * dt, x_d + v3 * dt], axis=1)

    traj = PiecewiseTrajectory(
        [Segment(t_a, t_d, parent, sector="parent"),
         Segment(t_d, boundary.t_b, products, sector="products")],
        branch_id=branch_id)
    traj.native_step = (boundary.t_b - t_a) / 512.0
    return traj


def rest_decay_family(masses: DecayMasses, decay_times, t_b: float,
                      t_a: float = 0.0, x_a=None,
                      direction=(1.0, 0.0, 0.0)) -> list[PiecewiseTrajectory]:
    """Trajectories sharing one past and splitting at different times.

    A parent at rest sits at ``x_a``; each member splits at its own time
    with products flying apart along ``direction`` at the released-energy
    speed. All members agree exactly until the earliest split, then
    diverge: the set is indeterministic even though every member obeys
    the dynamics.
    """
    x_a = np.zeros(3) if x_a is None else np.asarray(x_a, dtype=float)
    d_hat = np.asarray(direction, dtype=float)
    d_hat = d_hat / np.linalg.norm(d_hat)
    out = []
    for t_d in decay_times:
        if not t_a < t_d < t_b:
            raise ValueError(f"decay time {t_d} outside ({t_a}, {t_b})")
        v2, v3 = _product_velocities(masses, np.zeros(3), d_hat)
        tau2 = t_b - t_d
        boundary = DecayBoundary(x_a=x_a, t_a=t_a, x_b2=x_a + v2 * tau2,
                                 x_b3=x_a + v3 * tau2, t_b=t_b)
        vertex = DecayVertex(x_d=x_a.copy(), t_d=float(t_d),
                             action=decay_action(masses, boundary, x_a, t_d),
                             v1=np.zeros(3), v2=v2, v3=v3, n_iterations=0)
        out.append(decay_trajectory(masses, boundary, vertex,
                                    branch_id=f"split@{t_d:g}"))
    return out
