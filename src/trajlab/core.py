"""Trajectory sets, rate statistics, and measure transfer.

A dynamical system is represented extensionally as a set of trajectories
through a configuration space; statistics enter only as a measure over the
set. Outcome probabilities are relative rates along single trajectories,
aggregated over an ensemble drawn from the measure. The measure can be
carried from one boundary description to another by pushing samples through
a boundary map.

Conventions used throughout:

* rates are vectors of length ``n_outcomes`` summing to 1 over the trials
  that actually triggered;
* the ensemble mean and variance are the plain first and second moments of
  the per-trajectory rate vectors (variance computed two-pass for
  stability);
* trajectories with fewer than ``n_min_trials`` trials are excluded from
  ensemble statistics rather than padded.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegenerateMeasureError,
    EmptyEnsembleError,
    NoTrialsError,
    PushforwardError,
)
from .rng import stream, trajectory_streams

__all__ = [
    "PiecewiseTrajectory",
    "RateResult",
    "RateStatistics",
    "MeasureSpec",
    "HistogramMeasure",
    "BoundaryMap",
    "point_mass",
    "outcome_rates",
    "evaluate_rates",
    "ensemble_statistics",
    "is_well_defined",
    "pushforward",
    "validate_jacobian",
    "check_determinism",
]


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Segment:
    """One closed-form piece of a path: ``path`` maps a 1-d array of n times
    to their ``(n, d)`` configurations. ``sector`` labels the component of a
    piecewise configuration space (e.g. before/after a decay, where d
    changes); configurations in different sectors are never close."""

    t0: float
    t1: float
    path: Callable[[np.ndarray], np.ndarray]
    sector: str | None = None


class PiecewiseTrajectory:
    """Closed-form path pieces glued in time order.

    Segment ``i`` owns ``[t0_i, t0_{i+1})``; the last owns its right
    endpoint too. Sectors may differ between pieces (piecewise
    configuration spaces). ``branch_id`` distinguishes co-existing
    continuations that share a past (an indeterministic split), and
    ``native_step`` is the sampling step :func:`check_determinism` uses
    when given none.
    """

    native_step: float | None = None

    def __init__(self, segments: Sequence[Segment], branch_id=None):
        if not segments:
            raise ValueError("at least one segment required")
        for a, b in zip(segments, segments[1:]):
            if not np.isclose(a.t1, b.t0):
                raise ValueError("segments must be contiguous in time")
        self.segments = list(segments)
        self.branch_id = branch_id

    @property
    def domain(self):
        return float(self.segments[0].t0), float(self.segments[-1].t1)

    def _pieces(self, times):
        """``(segment, owned rows, (m, d) configurations)`` for each segment
        owning some of the 1-d ``times``."""
        t0, t1 = self.domain
        bad = times[(times < t0 - 1e-12) | (times > t1 + 1e-12)]
        if bad.size:
            raise ValueError(f"time {bad[0]} outside domain [{t0}, {t1}]")
        owner = np.minimum(np.searchsorted([seg.t1 for seg in self.segments],
                                           times, side="right"),
                           len(self.segments) - 1)
        for k in np.unique(owner):
            rows = owner == k
            seg = self.segments[k]
            yield seg, rows, np.asarray(seg.path(times[rows]), dtype=float)

    def evaluate(self, t):
        """Configuration ``(d,)`` at a time, or ``(n, d)`` at a 1-d array of
        times; an array must not span sectors of different widths."""
        times = np.asarray(t, dtype=float)
        pieces = list(self._pieces(times.reshape(-1)))
        widths = {x.shape[1] for _, _, x in pieces}
        if len(widths) > 1:
            raise ValueError("times span sectors of different widths")
        out = np.empty((times.size, widths.pop() if widths else 0))
        for _, rows, x in pieces:
            out[rows] = x
        return out[0] if times.ndim == 0 else out


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateResult:
    """Relative outcome rates along one trajectory.

    ``flagged`` mirrors the convention that a rate whose defining limit has
    not stabilized (too few trials) is reported but not trusted.
    """

    rates: np.ndarray
    n_trials: int
    flagged: bool


@dataclass(frozen=True)
class RateStatistics:
    """First two moments of per-trajectory rates over an ensemble."""

    mean: np.ndarray
    variance: np.ndarray
    n_trajectories: int
    n_excluded: int
    n_min_trials: int


def outcome_rates(outcomes, n_outcomes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates ``(n, n_outcomes)`` and trial counts ``(n,)`` of each row.

    ``outcomes`` is an ``(n, h)`` outcome matrix padded with -1 (see
    :func:`ensemble_statistics`); a row without trials has zero rates.
    """
    outcomes = np.asarray(outcomes)
    if outcomes.size and (outcomes.min() < -1
                          or outcomes.max() >= n_outcomes):
        raise ValueError("outcome index out of range")
    counts = np.stack([np.count_nonzero(outcomes == j, axis=1)
                       for j in range(n_outcomes)], axis=1)
    trials = counts.sum(axis=1)
    return counts / np.maximum(trials, 1)[:, None], trials


def evaluate_rates(outcomes, n_outcomes: int,
                   n_min_trials: int = 1) -> RateResult:
    """Relative rate of each outcome along one trajectory.

    ``outcomes`` is the trajectory's outcome row: one row of the outcome
    matrices of :func:`ensemble_statistics`, an index in ``range(n_outcomes)``
    per trial and -1 for no trial. Raises :class:`NoTrialsError` if no entry
    is a trial; flags the result when fewer than ``n_min_trials`` trials
    occurred.
    """
    row = np.asarray(outcomes)
    if row.ndim != 1:
        raise ValueError(f"expected one outcome row, got shape {row.shape}")
    rates, trials = outcome_rates(row[None, :], n_outcomes)
    n = int(trials[0])
    if n == 0:
        raise NoTrialsError("no entry of the outcome row is a trial")
    return RateResult(rates=rates[0], n_trials=n, flagged=n < int(n_min_trials))


#: boundary points drawn and handed to an outcome builder at a time. It
#: bounds the memory of the drawn points (all 10,000 rows of 1000 bits of a
#: Bernoulli ensemble would take 10 MB) and is the lockstep batch of the
#: flipper kernel, which looks 64 // isqrt(live) wall crossings ahead per
#: step: 4 for a full block, up to 64 for its last rays.
BUILD_BLOCK = 256


def ensemble_statistics(measure: "MeasureSpec",
                        outcome_builder: Callable[[np.ndarray], np.ndarray],
                        n_outcomes: int,
                        n_trajectories: int,
                        n_min_trials: int = 1,
                        seed: int = 0) -> RateStatistics:
    """Mean and variance of outcome rates over a sampled trajectory ensemble.

    Boundary points are drawn one per trajectory from ``measure`` using the
    stream derived from ``(seed, index)``, so the result is reproducible bit
    for bit for a given ``(seed, n_trajectories)`` independent of evaluation
    order. ``outcome_builder`` maps consecutive blocks of at most
    :data:`BUILD_BLOCK` boundary points ``(n, d)`` to their ``(n, h)``
    outcome matrix: row i lists the outcome, in ``range(n_outcomes)``, of
    each trial along trajectory i, padded with -1. A row must not depend on
    the other rows of its block. Trajectories with fewer than
    ``max(n_min_trials, 1)`` trials are excluded; if all are excluded an
    :class:`EmptyEnsembleError` is raised.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    n_trajectories = int(n_trajectories)
    kept = []
    for start in range(0, n_trajectories, BUILD_BLOCK):
        stop = min(start + BUILD_BLOCK, n_trajectories)
        points = np.concatenate([measure.sampler(rng, 1) for rng in
                                 trajectory_streams(seed, start, stop)])
        outcomes = np.asarray(outcome_builder(points))
        if outcomes.ndim != 2 or len(outcomes) != stop - start:
            raise ValueError(f"outcome builder returned shape "
                             f"{outcomes.shape} for {stop - start} points")
        rates, trials = outcome_rates(outcomes, n_outcomes)
        kept.append(rates[trials >= max(int(n_min_trials), 1)])
    R = np.concatenate(kept)
    if not len(R):
        raise EmptyEnsembleError(
            f"all {n_trajectories} trajectories had fewer than "
            f"{n_min_trials} trials")
    mean = R.mean(axis=0)
    # two-pass form of <f^2> - <f>^2; nonnegative by construction
    variance = np.mean((R - mean) ** 2, axis=0)
    # snap pure roundoff to zero; genuine rate variances are quantized far above this
    variance[variance < 1e-30] = 0.0
    return RateStatistics(mean=mean, variance=variance,
                          n_trajectories=len(R),
                          n_excluded=n_trajectories - len(R),
                          n_min_trials=int(n_min_trials))


def is_well_defined(stats: RateStatistics, tolerance: float = 0.01) -> bool:
    """True iff every outcome's rate variance is below ``tolerance``.

    Probabilities only deserve the name when the per-trajectory rates
    cluster tightly around the ensemble mean.
    """
    return bool(np.all(stats.variance < tolerance))


# ---------------------------------------------------------------------------
# measures and maps
# ---------------------------------------------------------------------------


class MeasureSpec:
    """A measure given operationally: sampler, optional density, total mass.

    ``sampler(rng, n)`` returns an ``(n, dimension)`` array. ``density`` is
    the density with respect to the natural reference measure of the space
    (Lebesgue for continuous spaces, counting for sequence spaces) and may be
    None when only sampling is needed. Zero or non-finite total mass is
    rejected: everything downstream divides by it.
    """

    def __init__(self, dimension: int,
                 sampler: Callable[[np.random.Generator, int], np.ndarray],
                 density: Callable[[np.ndarray], np.ndarray] | None = None,
                 total_mass: float = 1.0,
                 name: str = ""):
        if not np.isfinite(total_mass) or total_mass <= 0.0:
            raise DegenerateMeasureError(
                f"total mass must be finite and positive, got {total_mass}")
        self.dimension = int(dimension)
        self.sampler = sampler
        self.density = density
        self.total_mass = float(total_mass)
        self.name = name


def point_mass(point, name: str = "point-mass") -> MeasureSpec:
    """Measure concentrated on a single boundary point."""
    p = np.atleast_1d(np.asarray(point, dtype=float))

    def sampler(rng, n):
        return np.tile(p, (n, 1))

    return MeasureSpec(dimension=p.size, sampler=sampler, density=None,
                       total_mass=1.0, name=name)


class HistogramMeasure(MeasureSpec):
    """Measure represented by bin masses on a rectangular grid."""

    def __init__(self, edges: Sequence[np.ndarray], masses: np.ndarray,
                 total_mass: float = 1.0, name: str = ""):
        self.edges = [np.asarray(e, dtype=float) for e in edges]
        masses = np.asarray(masses, dtype=float)
        if masses.shape != tuple(len(e) - 1 for e in self.edges):
            raise ValueError("masses shape does not match bin edges")
        if np.any(masses < 0):
            raise ValueError("negative bin mass")
        s = masses.sum()
        if not np.isfinite(s) or s <= 0:
            raise DegenerateMeasureError("histogram has zero total mass")
        self.masses = masses * (total_mass / s)
        dim = len(self.edges)
        self._flat = self.masses.ravel()
        self._probs = self._flat / self._flat.sum()
        widths = [np.diff(e) for e in self.edges]
        vol = widths[0]
        for w in widths[1:]:
            vol = np.multiply.outer(vol, w)
        self._volumes = vol

        super().__init__(dimension=dim, sampler=self._sample,
                         density=self._density, total_mass=total_mass,
                         name=name)

    def _sample(self, rng, n):
        idx = rng.choice(self._flat.size, size=n, p=self._probs)
        unraveled = np.unravel_index(idx, self.masses.shape)
        out = np.empty((n, len(self.edges)))
        for d, e in enumerate(self.edges):
            lo = e[unraveled[d]]
            hi = e[unraveled[d] + 1]
            out[:, d] = lo + (hi - lo) * rng.random(n)
        return out

    def _density(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx = []
        inside = np.ones(len(points), dtype=bool)
        for d, e in enumerate(self.edges):
            i = np.searchsorted(e, points[:, d], side="right") - 1
            inside &= (i >= 0) & (i < len(e) - 1)
            idx.append(np.clip(i, 0, len(e) - 2))
        dens = self.masses[tuple(idx)] / self._volumes[tuple(idx)]
        dens[~inside] = 0.0
        return dens


@dataclass(frozen=True)
class BoundaryMap:
    """Vectorized map between boundary-condition descriptions.

    ``forward`` maps an ``(n, source_dimension)`` array to
    ``(n, target_dimension)``; rows where the map is undefined must come back
    as NaN. ``jacobian``, when given, returns per-point Jacobian matrices and
    can be validated against finite differences with
    :func:`validate_jacobian`.
    """

    source_dimension: int
    target_dimension: int
    forward: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = ""


def validate_jacobian(bmap: BoundaryMap, points: np.ndarray,
                      rel_tol: float = 1e-5, step: float = 1e-6) -> float:
    """Max relative disagreement between ``bmap.jacobian`` and central FD.

    Raises ValueError if the map has no jacobian, or if the disagreement
    exceeds ``rel_tol``.
    """
    if bmap.jacobian is None:
        raise ValueError("boundary map declares no jacobian")
    points = np.atleast_2d(np.asarray(points, dtype=float))
    J = np.asarray(bmap.jacobian(points))
    worst = 0.0
    for k, p in enumerate(points):
        fd = np.empty((bmap.target_dimension, bmap.source_dimension))
        for d in range(bmap.source_dimension):
            h = step * max(1.0, abs(p[d]))
            pp, pm = p.copy(), p.copy()
            pp[d] += h
            pm[d] -= h
            fp = bmap.forward(pp[None, :])[0]
            fm = bmap.forward(pm[None, :])[0]
            fd[:, d] = (fp - fm) / (2.0 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst = max(worst, float(np.max(np.abs(J[k] - fd))) / scale)
    if worst > rel_tol:
        raise ValueError(f"jacobian disagrees with finite differences: "
                         f"{worst:.3e} > {rel_tol:.3e}")
    return worst


def pushforward(measure: MeasureSpec, bmap: BoundaryMap,
                n_samples: int = 100_000, seed: int = 0,
                bins: int | Sequence[int] = 64,
                value_range: Sequence[tuple[float, float]] | None = None,
                max_undefined_fraction: float = 1e-3) -> HistogramMeasure:
    """Carry ``measure`` through ``bmap`` by sampling, as a binned measure.

    The returned histogram measure has the same total mass. Sampled points
    with no image (NaN rows) are dropped; if their fraction exceeds
    ``max_undefined_fraction`` the transfer aborts, since the image measure
    would silently lose mass.
    """
    if measure.dimension != bmap.source_dimension:
        raise ValueError("measure dimension does not match map source")
    rng = stream(seed)
    pts = measure.sampler(rng, int(n_samples))
    img = np.asarray(bmap.forward(pts), dtype=float)
    if img.ndim == 1:
        img = img[:, None]
    ok = np.all(np.isfinite(img), axis=1)
    bad = int((~ok).sum())
    if bad > max_undefined_fraction * n_samples:
        raise PushforwardError(
            f"{bad} of {n_samples} samples had no image "
            f"(> {max_undefined_fraction:.1%} allowed)")
    img = img[ok]
    hist, edges = np.histogramdd(img, bins=bins, range=value_range)
    return HistogramMeasure(edges, hist, total_mass=measure.total_mass,
                            name=f"pushforward({measure.name or 'measure'})")


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def check_determinism(trajectories: Sequence[PiecewiseTrajectory],
                      match_window: float,
                      tolerance: float,
                      time_step: float | None = None) -> bool:
    """Grid search for an indeterminism witness among ``trajectories``.

    A witness is a pair of (possibly time-shifted, possibly identical)
    trajectories that agree within ``tolerance`` at every sample of a window
    of length ``match_window`` but disagree at some later comparable time.
    Returns False iff a witness is found. Sampling is on a uniform grid
    (``time_step`` or each trajectory's native step or span/128), so this is
    a falsification search, not a proof of determinism.

    Two samples agree when they lie in the same sector, have the same width
    and differ by at most ``tolerance`` in every coordinate; NaN agrees with
    nothing. Each trajectory is sampled once; a time shift between two of
    them is one diagonal of their pairwise agreement array, and it is a
    witness when it holds a run of at least window-many agreeing samples
    followed by a disagreeing one.
    """
    if match_window <= 0:
        raise ValueError("match_window must be positive")

    # zero-padded coordinates and a (sector, width) code of every sample
    codes: dict = {}
    sampled = []
    for tr in trajectories:
        t0, t1 = tr.domain
        h = float(time_step if time_step is not None else tr.native_step
                  if tr.native_step is not None else (t1 - t0) / 128.0)
        if h <= 0:
            raise ValueError("nonpositive sampling step")
        times = np.arange(t0, t1 + h * 0.5, h)
        pieces = list(tr._pieces(times))
        coords = np.zeros((len(times), max(
            (x.shape[1] for _, _, x in pieces), default=0)))
        kind = np.empty(len(times), dtype=int)
        for seg, rows, x in pieces:
            coords[rows, :x.shape[1]] = x
            kind[rows] = codes.setdefault((seg.sector, x.shape[1]), len(codes))
        sampled.append((h, coords, kind))
    if any(not np.isclose(h, sampled[0][0]) for h, _, _ in sampled):
        raise ValueError("trajectories must share a sampling step "
                         "for comparison; pass time_step explicitly")

    for i, (h, ci, ki) in enumerate(sampled):
        w = max(1, int(round(match_window / h))) + 1
        for _, cj, kj in sampled[i:]:
            # equal widths fit in both paddings, whose extra columns are 0
            dim = min(ci.shape[1], cj.shape[1])
            # shift d compares sample k of i with sample k + d of j; a
            # trajectory meets itself only at positive shifts
            for d in range(1 if cj is ci else 1 - len(ci), len(cj)):
                a = slice(max(0, -d), min(len(ci), len(cj) - d))
                b = slice(a.start + d, a.stop + d)
                if a.stop - a.start <= w:
                    continue
                agree = (ki[a] == kj[b]) & (np.max(
                    np.abs(ci[a, :dim] - cj[b, :dim]), axis=1,
                    initial=0.0) <= tolerance)
                # lengths of the agreeing runs that end in a disagreement
                breaks = np.flatnonzero(~agree)
                if np.any(np.diff(breaks, prepend=-1) > w):
                    return False
    return True
