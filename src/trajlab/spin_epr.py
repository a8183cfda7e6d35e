"""Spin-carrying trajectories in magnetic fields, and two-particle statistics.

The spin here is a dynamical variable attached to a trajectory, a unit ray
in C^2, not a quantum state. In a field region it snaps instantaneously to
one of the two eigenrays of sigma.B, with the sign left open: both signs
give allowed trajectories, so a beam entering a field region branches. The
branch choice is where indeterminism enters; measures over branches (not
dynamics) carry the statistics. Every device's field points along +z, so
the two rays are always sigma_z's (1, 0) and (0, 1).

A Stern-Gerlach device is modelled as a uniform-gradient slab: field
(B0 + g z) along the transverse axis z inside, zero outside. The force
on an aligned branch is -(sign) mu grad|B|, constant inside the slab, and
the field steps at the slab faces act as longitudinal potential kicks, so
total energy (kinetic plus (sign) mu |B|) is conserved exactly across the
boundaries.

Pair statistics live on a 16-cell measure over (setting A, result A,
setting B, result B). Conditional probabilities are ratios of cell masses.
The singlet weights reproduce the quantum correlator -a.b; deterministic
per-setting assignments cannot exceed |S| = 2 in the four-correlator
combination, while the singlet weights reach 2 sqrt 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PiecewiseTrajectory, Segment
from .errors import IntegrationError, UnconditionedSettingError
from .rng import stream

__all__ = [
    "SpinVariable", "PhysicalConstants", "SGDevice",
    "propagate_sg", "branch_weights",
    "singlet_measure", "global_epr_measure", "epr_conditional_probabilities",
    "correlator", "chsh_value", "planar_setting", "chsh_optimal_angles",
    "sample_epr_counts", "chsh_estimate",
    "deterministic_strategies", "chsh_of_strategy",
]


@dataclass(frozen=True)
class SpinVariable:
    """Unit ray in C^2 riding along a trajectory; global phase irrelevant."""

    components: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.components, dtype=complex)
        if arr.shape != (2,):
            raise ValueError(f"spin variable needs 2 complex components, got {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"spin variable must be unit norm, got |s| = {norm!r}")
        object.__setattr__(self, "components", arr)


@dataclass(frozen=True)
class PhysicalConstants:
    """Moment and mass; everything else enters only through mu."""

    mu: float
    m: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and self.mu > 0):
            raise ValueError(f"mu must be positive, got {self.mu}")
        if not (math.isfinite(self.m) and self.m > 0):
            raise ValueError(f"m must be positive, got {self.m}")


@dataclass(frozen=True)
class SGDevice:
    """Uniform-gradient slab between two planes normal to the beam axis x.

    Inside entry_x <= x <= exit_x the field is (base_field + gradient * z)
    along z; outside it is zero. ``screen_x`` is the detection plane
    downstream; None puts it one slab length past the exit plane.
    """

    entry_x: float
    exit_x: float
    base_field: float
    gradient: float
    screen_x: float | None = None

    def __post_init__(self):
        if not self.exit_x > self.entry_x:
            raise ValueError(f"exit plane {self.exit_x} must lie beyond entry "
                             f"plane {self.entry_x}")
        if not (math.isfinite(self.base_field) and self.base_field > 0):
            raise ValueError("base_field must be positive and finite inside "
                             "the slab")
        if not abs(self.gradient) < math.inf:
            raise ValueError("gradient must be finite")
        if self.screen_x is None:
            object.__setattr__(self, "screen_x",
                               self.exit_x + (self.exit_x - self.entry_x))
        if not self.exit_x <= self.screen_x < math.inf:
            raise ValueError(f"screen must sit at or beyond the exit plane, "
                             f"at a finite x; got screen_x = "
                             f"{self.screen_x!r}, exit_x = {self.exit_x!r}")

    @property
    def length(self) -> float:
        return self.exit_x - self.entry_x


_Z_HAT = np.array([0.0, 0.0, 1.0])  # the field axis of every device
# sigma_z's eigenrays, +1 first: each branch's spin from the entry plane on
_Z_RAYS = (SpinVariable(np.array([1.0, 0.0], dtype=complex)),
           SpinVariable(np.array([0.0, 1.0], dtype=complex)))


def branch_weights(weight_model: str,
                   psi: SpinVariable | None = None) -> tuple[float, float]:
    """Probabilities of the two branch signs along the device axis z.

    "equal" splits evenly; "quantum" projects a supplied ray psi onto the
    axis eigenrays, p_plus = |psi_0|^2 and p_minus its complement, so the
    two always sum to exactly one.
    """
    if weight_model == "equal":
        return 0.5, 0.5
    if weight_model == "quantum":
        if psi is None:
            raise ValueError("quantum weights need the ray psi")
        p_plus = abs(complex(psi.components[0])) ** 2
        p_plus = min(max(p_plus, 0.0), 1.0)
        return p_plus, 1.0 - p_plus
    raise ValueError(f"unknown weight model {weight_model!r}; "
                     f"use 'equal' or 'quantum'")


def _face_speed(v_sq: float, step: float) -> float:
    """Longitudinal speed past a slab face whose potential step takes
    ``step`` off the squared speed ``v_sq``."""
    if v_sq - step <= 0:
        raise IntegrationError(
            "beam kinetic energy along the axis is below the potential step "
            "at a slab face; the branch cannot cross it")
    return math.sqrt(v_sq - step)


def _path(r, v, t0, a=None):
    """r + v (t - t0), plus a (t - t0)^2 / 2 if ``a`` is given, at a 1-d
    array of times."""
    def path(t):
        dt = (t - t0)[:, None]
        x = r + v * dt
        return x if a is None else x + 0.5 * a * dt * dt
    return path


def propagate_sg(position, velocity, device: SGDevice,
                 constants: PhysicalConstants) -> tuple[PiecewiseTrajectory, PiecewiseTrajectory]:
    """Both branch trajectories through a slab device.

    Straight line to the entry plane (shared exactly by the branches),
    constant transverse force -(sign) mu g inside with the matching
    longitudinal kicks at the faces, straight line out to the screen
    plane. Branch ids are "+" and "-"; each branch's ``spin`` is the
    sigma_z eigenray it aligned to at the entry plane.
    """
    r0 = np.asarray(position, dtype=float).copy()
    v0 = np.asarray(velocity, dtype=float).copy()
    if r0.shape != (3,) or v0.shape != (3,):
        raise ValueError("position and velocity must be 3-vectors")
    if r0[0] >= device.entry_x:
        raise ValueError("initial state must sit in the field-free source "
                         "region before the entry plane")
    if v0[0] <= 0:
        raise ValueError("beam must move toward the device (v_x > 0)")

    mu, m = constants.mu, constants.m
    g, b0 = device.gradient, device.base_field
    t_entry = float(device.entry_x - r0[0]) / float(v0[0])
    if t_entry == math.inf:
        raise OverflowError("the flight time to the entry plane overflows")
    r_entry = r0 + v0 * t_entry
    mag_entry = b0 + g * float(r_entry[2])
    if mag_entry <= 0:
        raise IntegrationError(
            "field magnitude is not positive where the beam enters the slab; "
            "the aligned-branch picture needs a nonvanishing field")

    before = Segment(0.0, t_entry, _path(r0, v0, 0.0))
    legs = []
    for sign in (+1, -1):
        v_long = _face_speed(v0[0] * v0[0], sign * 2.0 * mu * mag_entry / m)
        v_in = v0.copy()
        v_in[0] = v_long
        accel = -sign * (mu * g / m) * _Z_HAT
        tau = device.length / v_long
        r_exit = r_entry + v_in * tau + 0.5 * accel * tau * tau
        mag_exit = b0 + g * float(r_exit[2])
        # |B| = mag_entry + g v_z t -+ (mu/m) g^2 t^2 / 2 on the +/- branch.
        # It is concave on +, so least at an end; on - it lies above the +
        # value at every t, and the - transit is the shorter. A positive +
        # exit thus keeps the field positive on both branches in the slab.
        if mag_exit <= 0:
            raise IntegrationError(
                "field magnitude crossed zero inside the slab; shrink the "
                "gradient or shift the beam")
        v_out = v_in + accel * tau
        v_out[0] = _face_speed(v_out[0] ** 2, -sign * 2.0 * mu * mag_exit / m)
        t_exit = t_entry + tau
        t_screen = t_exit + (device.screen_x - device.exit_x) / v_out[0]
        legs.append((tau, t_screen, Segment(
            t_entry, t_exit, _path(r_entry, v_in, t_entry, accel)),
            _path(r_exit, v_out, t_exit)))

    t_final = max(leg[1] for leg in legs) * 1.05 + 1e-12
    branches = []
    for label, ray, (tau, t_screen, inside, after) in zip("+-", _Z_RAYS, legs):
        traj = PiecewiseTrajectory(
            [before, inside, Segment(inside.t1, t_final, after)],
            branch_id=label)
        traj.spin = ray
        traj.transit_time = tau
        traj.screen_time = t_screen
        branches.append(traj)
    return branches[0], branches[1]


# ---------------------------------------------------------------------------
# pair statistics on the 16-cell measure
# ---------------------------------------------------------------------------

def planar_setting(angle_deg: float) -> np.ndarray:
    """Unit vector in the z-x plane at the given angle from the z axis."""
    a = math.radians(angle_deg)
    return np.array([math.sin(a), 0.0, math.cos(a)])


def chsh_optimal_angles() -> tuple[float, float, float, float]:
    """Angles (a, a', b, b') in degrees maximising the four-correlator sum."""
    return 0.0, 90.0, 225.0, 135.0


def singlet_measure(a, b) -> np.ndarray:
    """(2, 2) outcome weights at fixed settings, index 0 -> +1, 1 -> -1.

    p(r_a, r_b) = (1 - r_a r_b a.b) / 4. Marginals over either outcome are
    exactly one half for any settings: the weights (1-x)/4 and (1+x)/4 sum
    to exactly 1/2 in floating point for every |x| <= 1, so neither wing
    can see the other's setting choice in its own outcome rates. x = a.b
    is clamped to [-1, 1], which rounding can leave (a setting with itself
    at 82 degrees gives 1 + 2^-52), so no weight is negative.
    """
    anti, corr = _singlet(_setting("a", a), _setting("b", b))
    return np.array([[anti, corr], [corr, anti]])


def _setting(name: str, v) -> np.ndarray:
    """``v`` as a float array, refused unless each row is a unit vector."""
    v = np.asarray(v, dtype=float)
    # the 2-norm as np.linalg.norm computes it, without its dispatch
    if (np.abs(np.sqrt(np.vecdot(v, v)) - 1.0) > 1e-12).any():
        raise ValueError(f"setting {name} must be a unit vector")
    return v


def _singlet(a: np.ndarray, b: np.ndarray):
    """The (anticorrelated, correlated) weights of :func:`singlet_measure`
    at settings already checked, one pair per row they broadcast to."""
    x = np.minimum(np.maximum(np.vecdot(a, b), -1.0), 1.0)
    return 0.25 * (1.0 - x), 0.25 * (1.0 + x)


def _pairs(a, a_prime, b, b_prime) -> list:
    """:func:`_singlet` weights of the pairs (a, b), (a, b'), (a', b) and
    (a', b'), each setting checked once, where the pairs first meet it."""
    a, b, b_prime, a_prime = (_setting(name, v) for name, v in (
        ("a", a), ("b", b), ("b", b_prime), ("a", a_prime)))
    return [_singlet(av, bv) for av in (a, a_prime) for bv in (b, b_prime)]


def global_epr_measure(a, a_prime, b, b_prime) -> np.ndarray:
    """(2, 2, 2, 2) weights over (setting A, result A, setting B, result B),
    the four setting pairs drawn uniformly. Each setting is checked once."""
    pairs = _pairs(a, a_prime, b, b_prime)
    # cell (i, r_a, j, r_b) is a quarter of pair (i, j)'s anticorrelated
    # weight when r_a = r_b, of its correlated weight otherwise
    return np.array([0.25 * pairs[2 * i + j][ra != rb] for i, ra, j, rb
                     in np.ndindex(2, 2, 2, 2)]).reshape(2, 2, 2, 2)


def _cells(measure_weights) -> np.ndarray:
    """``measure_weights`` as a float array, refused unless it is a
    (2, 2, 2, 2) measure."""
    w = np.asarray(measure_weights, dtype=float)
    if w.shape != (2, 2, 2, 2):
        raise ValueError("measure must have shape (2, 2, 2, 2) over "
                         "(setting A, result A, setting B, result B)")
    if (w < 0).any():
        raise ValueError("measure weights must be nonnegative")
    return w


def epr_conditional_probabilities(measure_weights: np.ndarray,
                                  query: tuple[int, int]) -> np.ndarray:
    """Outcome probabilities given a setting pair, as ratios of cell masses."""
    w = _cells(measure_weights)
    i, j = query
    return _conditional(w, i, j)


def _conditional(w: np.ndarray, i: int, j: int) -> np.ndarray:
    """:func:`epr_conditional_probabilities` of a measure already checked."""
    block = w[i, :, j, :]
    total = float(block.sum())
    if total <= 0:
        raise UnconditionedSettingError(
            f"setting pair ({i}, {j}) has zero mass; conditioning on it is "
            f"undefined")
    return block / total


_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])  # r_a r_b per outcome cell


def correlator(conditional: np.ndarray) -> float:
    """E = sum over outcomes of r_a r_b p(r_a, r_b | settings)."""
    p = np.asarray(conditional, dtype=float)
    return float((_SIGNS * p).sum())


def _chsh(cells: np.ndarray) -> tuple[float, list[float]]:
    """S = E(a,b) + E(a,b') + E(a',b) - E(a',b') from (2, 2, 2, 2) cell
    masses, and the four E(i, j) it sums, each from its normalised block."""
    w = _cells(cells)
    e = [correlator(_conditional(w, i, j)) for i in (0, 1) for j in (0, 1)]
    return e[0] + e[1] + e[2] - e[3], e


def chsh_value(a, a_prime, b, b_prime):
    """S for the singlet weights at settings (a, a') and (b, b'), or one S
    per row of settings given as arrays of rows: :func:`_chsh` of the
    cells, each block's sums in the order numpy adds its four cells."""
    e = []
    for anti, corr in _pairs(a, a_prime, b, b_prime):
        p, q = 0.25 * anti, 0.25 * corr  # each block is (p, q, q, p)
        total = ((p + q) + q) + p
        p, q = p / total, q / total
        e.append(((p - q) - q) + p)
    s = e[0] + e[1] + e[2] - e[3]
    return s if np.ndim(s) else float(s)


def sample_epr_counts(a, a_prime, b, b_prime, n_pairs: int,
                      seed: int = 0) -> np.ndarray:
    """Sample pairs (uniform settings, singlet outcomes) into cell counts."""
    rng = stream(seed, "epr-pairs")
    n_settings = rng.multinomial(n_pairs, [0.25] * 4)
    counts = np.zeros((2, 2, 2, 2))
    vecs = ((a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime))
    idx = ((0, 0), (0, 1), (1, 0), (1, 1))
    for n_ij, (av, bv), (i, j) in zip(n_settings, vecs, idx):
        if n_ij == 0:
            continue
        cells = rng.multinomial(int(n_ij), singlet_measure(av, bv).ravel())
        counts[i, :, j, :] = cells.reshape(2, 2)
    return counts


def chsh_estimate(counts: np.ndarray) -> tuple[float, float]:
    """(S estimate, standard error) from sampled cell counts."""
    c = np.asarray(counts, dtype=float)
    if c.shape != (2, 2, 2, 2):
        raise ValueError("counts must have shape (2, 2, 2, 2)")
    s, e = _chsh(c)
    n = c.sum(axis=(1, 3)).ravel()
    return s, math.sqrt(sum((1.0 - x * x) / k for x, k in zip(e, n)))


def deterministic_strategies():
    """All 16 ways to fix both wings' outcomes per setting in advance."""
    for ra0 in (1, -1):
        for ra1 in (1, -1):
            for rb0 in (1, -1):
                for rb1 in (1, -1):
                    yield ((ra0, ra1), (rb0, rb1))


def chsh_of_strategy(strategy) -> float:
    """S for outcomes fixed per setting: E(i, j) = A_i B_j."""
    (ra0, ra1), (rb0, rb1) = strategy
    e = lambda i, j: (ra0, ra1)[i] * (rb0, rb1)[j]
    return float(e(0, 0) + e(0, 1) + e(1, 0) - e(1, 1))
