"""Trajectory sets, rate statistics, and the measures they are drawn from.

A dynamical system is represented extensionally as a set of trajectories
through a configuration space; statistics enter only as a measure over the
set. Outcome probabilities are relative rates along single trajectories,
aggregated over an ensemble drawn from the measure.

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

from .errors import EmptyEnsembleError, NoTrialsError
from .rng import _stream_blocks

__all__ = [
    "Segment",
    "PiecewiseTrajectory",
    "RateResult",
    "RateStatistics",
    "MeasureSpec",
    "outcome_rates",
    "evaluate_rates",
    "ensemble_statistics",
    "is_well_defined",
    "check_determinism",
]


def _sorted_unique(values) -> np.ndarray:
    """``np.unique`` without the ``numpy.ma`` import it makes in numpy 2.4."""
    x = np.sort(values, axis=None)
    return x[np.concatenate(([True], x[1:] != x[:-1]))[:x.size]]


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
    continuations that share a past (an indeterministic split).
    """

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
        for k in _sorted_unique(owner):
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
    """Relative outcome rates along one trajectory, and its trial count."""

    rates: np.ndarray
    n_trials: int


@dataclass(frozen=True)
class RateStatistics:
    """First two moments of per-trajectory rates over an ensemble."""

    mean: np.ndarray
    variance: np.ndarray
    n_trajectories: int
    n_excluded: int


def outcome_rates(outcomes, n_outcomes: int) -> tuple[np.ndarray, np.ndarray]:
    """Rates ``(n, n_outcomes)`` and trial counts ``(n,)`` of each row.

    ``outcomes`` is an ``(n, h)`` outcome matrix padded with -1 (see
    :func:`ensemble_statistics`); a row without trials has zero rates.
    """
    outcomes = np.asarray(outcomes)
    lo = outcomes.min() if outcomes.size else 0
    if outcomes.size and (lo < -1 or outcomes.max() >= n_outcomes):
        raise ValueError("outcome index out of range")
    # count outcomes 1 to n - 1 and the padding (last); outcome 0 is the rest
    counts = np.zeros((len(outcomes), n_outcomes + 1), dtype=np.intp)
    # uint16 sums of 0/1 bytes are 3x faster than intp; 65535 columns fit
    for c in range(0, outcomes.shape[1], 65535):
        for j in list(range(1, n_outcomes)) + [-1] * bool(lo < 0):
            counts[:, j] += np.add.reduce((outcomes[:, c:c + 65535] == j)
                                          .view(np.uint8), 1, np.uint16)
    trials = outcomes.shape[1] - counts[:, -1]
    counts[:, 0] = trials - counts[:, 1:-1].sum(axis=1)
    return counts[:, :-1] / np.maximum(trials, 1)[:, None], trials


def evaluate_rates(outcomes, n_outcomes: int) -> RateResult:
    """Relative rate of each outcome along one trajectory.

    ``outcomes`` is the trajectory's outcome row: one row of the outcome
    matrices of :func:`ensemble_statistics`, an index in ``range(n_outcomes)``
    per trial and -1 for no trial. Raises :class:`NoTrialsError` if no entry
    is a trial.
    """
    row = np.asarray(outcomes)
    if row.ndim != 1:
        raise ValueError(f"expected one outcome row, got shape {row.shape}")
    rates, trials = outcome_rates(row[None, :], n_outcomes)
    n = int(trials[0])
    if n == 0:
        raise NoTrialsError("no entry of the outcome row is a trial")
    return RateResult(rates=rates[0], n_trials=n)


#: boundary points drawn in one sampler call and handed to an outcome
#: builder. It bounds the memory of the drawn points (256 kB for 1000-bit
#: Bernoulli rows) and is the lockstep batch of the flipper kernel.
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
    order. One ``measure.sampler(streams, 1)`` call draws a block of at most
    :data:`BUILD_BLOCK` points ``(n, d)``, and ``outcome_builder`` maps it to
    its ``(n, h)`` outcome matrix: row i lists the outcome, in
    ``range(n_outcomes)``, of each trial along trajectory i, padded with -1.
    A row must not depend on the other rows of its block. Trajectories with
    fewer than ``max(n_min_trials, 1)`` trials are excluded; if all are
    excluded an :class:`EmptyEnsembleError` is raised. More than 2**32
    trajectories raise ``ValueError`` before the first is built.
    """
    if n_trajectories < 1:
        raise ValueError("n_trajectories must be >= 1")
    n_trajectories = int(n_trajectories)
    kept = []
    for streams in _stream_blocks(seed, n_trajectories, BUILD_BLOCK):
        points = measure.sampler(streams, 1)
        outcomes = np.asarray(outcome_builder(points))
        if outcomes.ndim != 2 or len(outcomes) != len(streams):
            raise ValueError(f"outcome builder returned shape {outcomes.shape}"
                             f" for {len(points)} points of {len(streams)}")
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
                          n_excluded=n_trajectories - len(R))


def is_well_defined(stats: RateStatistics) -> bool:
    """True iff every outcome's rate variance is below 0.01.

    Probabilities only deserve the name when the per-trajectory rates
    cluster tightly around the ensemble mean.
    """
    return bool(np.all(stats.variance < 0.01))


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


class MeasureSpec:
    """A probability measure given operationally, by its sampler.

    ``sampler(streams, n)`` returns a ``(len(streams) * n, dimension)``
    array of boundary points, rows ``k*n`` to ``k*n + n - 1`` drawn from
    ``streams[k]`` alone: all ``ensemble_statistics`` reads of a measure.
    """

    def __init__(self, dimension: int,
                 sampler: Callable[[Sequence, int], np.ndarray]):
        self.dimension = int(dimension)
        self.sampler = sampler


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def check_determinism(trajectories: Sequence[PiecewiseTrajectory],
                      match_window: float,
                      tolerance: float,
                      time_step: float) -> bool:
    """Grid search for an indeterminism witness among ``trajectories``.

    A witness is a pair of (possibly time-shifted, possibly identical)
    trajectories that agree within ``tolerance`` at every sample of a window
    of length ``match_window`` but disagree at some later comparable time.
    Returns False iff a witness is found. Sampling is on a uniform grid of
    step ``time_step``, so this is a falsification search, not a proof of
    determinism.

    Two samples agree when they lie in the same sector, have the same width
    and differ by at most ``tolerance`` in every coordinate; NaN agrees with
    nothing. Each trajectory is sampled once; a time shift between two of
    them is one diagonal of their pairwise agreement array, and it is a
    witness when it holds a run of at least window-many agreeing samples
    followed by a disagreeing one.
    """
    if match_window <= 0:
        raise ValueError("match_window must be positive")
    h = float(time_step)
    if h <= 0:
        raise ValueError("nonpositive sampling step")
    w = max(1, int(round(match_window / h))) + 1

    # zero-padded coordinates and a (sector, width) code of every sample
    codes: dict = {}
    sampled = []
    for tr in trajectories:
        t0, t1 = tr.domain
        times = np.arange(t0, t1 + h * 0.5, h)
        # h need not divide the span: keep a last point past t1 by rounding
        times = np.minimum(times[times <= t1 + 1e-9 * h], t1)
        pieces = list(tr._pieces(times))
        coords = np.zeros((len(times), max(
            (x.shape[1] for _, _, x in pieces), default=0)))
        kind = np.empty(len(times), dtype=int)
        for seg, rows, x in pieces:
            coords[rows, :x.shape[1]] = x
            kind[rows] = codes.setdefault((seg.sector, x.shape[1]), len(codes))
        sampled.append((coords, kind))

    for i, (ci, ki) in enumerate(sampled):
        for cj, kj in sampled[i:]:
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
