"""The doubling map x -> 2x mod 1 on exact rationals.

Floats are rejected on purpose: iterating the map in binary floating point
discards one mantissa bit per step, so any double collapses to 0 after ~53
steps and every statistic computed from it is garbage. A state is an exact
rational, given as a Fraction, an int or a 'num/den' string, and is stepped
on its numerator alone. Ensembles never build states: a row of i.i.d. bits
drawn by :func:`biased_measure` is the orbit's outcome sequence itself
(one bit of bias 1/2 per step is exactly the uniform measure on dyadic
cylinders).

The repeatable experiment is the threshold observation "x >= 1/2", which in
binary is just the leading bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

from .core import MeasureSpec, RateStatistics, ensemble_statistics

__all__ = [
    "BernoulliTrajectory",
    "orbit_bits",
    "orbit_rate",
    "biased_measure",
    "lebesgue_ensemble_rate",
]

RationalLike = Union[Fraction, int, str]


def _start(x0: RationalLike) -> Fraction:
    """``x0`` as an exact rational reduced into [0, 1); floats are refused."""
    if isinstance(x0, (float, np.floating)):
        raise TypeError(
            "float states are forbidden: the doubling map loses one "
            "mantissa bit per step; pass a Fraction, int, or 'num/den' "
            "string")
    return Fraction(x0) % 1


def orbit_bits(x0: RationalLike, n_steps: int) -> np.ndarray:
    """Leading bits (x >= 1/2) of the first ``n_steps`` states of the orbit.

    A start n/d is stepped on its numerator alone: the bit is 2n // d (that
    is, 2n >= d) and the next numerator is 2n mod d.
    """
    x0 = _start(x0)
    num, den = x0.numerator, x0.denominator
    bits = []
    for _ in range(int(n_steps)):
        bit, num = divmod(2 * num, den)
        bits.append(bit)
    return np.array(bits, dtype=np.uint8)


def orbit_rate(x0: RationalLike, n_steps: int) -> Fraction:
    """Exact yes-rate (x >= 1/2) over the first ``n_steps`` steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return Fraction(int(orbit_bits(x0, n_steps).sum(dtype=np.int64)),
                    int(n_steps))


class BernoulliTrajectory:
    """Discrete-time orbit of ``n_steps`` steps; step k sits at integer
    time k."""

    def __init__(self, x0: RationalLike, n_steps: int):
        self.x0 = _start(x0)
        self.n_steps = int(n_steps)

    def evaluate(self, t):
        k = int(round(float(t)))
        if not 0 <= k < self.n_steps:
            raise ValueError(f"step {k} outside orbit of {self.n_steps} steps")
        return np.array([float(self.x0 * 2 ** k % 1)])


def biased_measure(target_rate: float, n_steps: int) -> MeasureSpec:
    """I.i.d. bit sequences of length ``n_steps`` with P(bit=1) =
    ``target_rate``, under which the ensemble yes-rate is ``target_rate``.

    Same dynamics, different statistics: only the weighting of initial
    conditions changes, via the bit bias. A rate of 1/2 is exactly the
    uniform (Lebesgue) measure restricted to dyadic cylinders of depth
    ``n_steps``.
    """
    p_one = float(target_rate)
    if not 0.0 <= p_one <= 1.0:
        raise ValueError("target_rate must lie in [0, 1]")
    L = int(n_steps)

    def sampler(streams, n):
        # uniforms pass through a bounded scratch of 32 float rows
        bits = np.empty((len(streams) * n, L), dtype=bool)
        scratch = np.empty((min(32, len(bits)), L))
        owners = (rng for rng in streams for _ in range(n))
        for lo in range(0, len(bits), 32):
            rows = scratch[:len(bits) - lo]
            for row, rng in zip(rows, owners):
                rng.random(out=row)
            np.less(rows, p_one, out=bits[lo:lo + len(rows)])
        return bits.view(np.uint8)

    return MeasureSpec(dimension=L, sampler=sampler)


def lebesgue_ensemble_rate(n_trajectories: int, n_steps: int, seed: int = 0,
                           measure: MeasureSpec | None = None) -> RateStatistics:
    """Ensemble statistics of the threshold experiment under a bit measure.

    Default measure is uniform (Lebesgue). Returns the full rate statistics;
    index 1 of the mean is the yes-rate.
    """
    if measure is None:
        measure = biased_measure(0.5, n_steps)
    if measure.dimension < n_steps:
        raise ValueError("measure draws fewer bits than n_steps")

    # the outcome of step k is bit k of the point itself
    return ensemble_statistics(measure, lambda bits: bits[:, :n_steps], 2,
                               n_trajectories=n_trajectories, seed=seed)
