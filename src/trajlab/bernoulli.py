"""The doubling map x -> 2x mod 1 with exact state arithmetic.

Floats are rejected on purpose: iterating the map in binary floating point
discards one mantissa bit per step, so any double collapses to 0 after ~53
steps and every statistic computed from it is garbage. States are either
exact rationals (periodic orbits, closed-form counting) or finite bit
sequences (one uniform bit per step is exactly the uniform measure on dyadic
cylinders).

The repeatable experiment is the threshold observation "x >= 1/2", which in
binary is just the leading bit.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

import numpy as np

from .core import MeasureSpec, RateStatistics, ensemble_statistics
from .errors import PrecisionExhaustedError

__all__ = [
    "BernoulliState",
    "BernoulliTrajectory",
    "orbit_bits",
    "orbit_rate",
    "bit_sequence_measure",
    "biased_measure",
    "lebesgue_ensemble_rate",
]

RationalLike = Union[Fraction, int, str]


class BernoulliState:
    """Exact point of [0, 1) under the doubling map.

    Backed either by a Fraction (exact forever) or by a finite bit window
    (exact until the bits run out, then :class:`PrecisionExhaustedError`).
    """

    __slots__ = ("fraction", "bits", "pos")

    def __init__(self, fraction=None, bits=None, pos=0):
        if (fraction is None) == (bits is None):
            raise ValueError("exactly one of fraction/bits must be given")
        if fraction is not None:
            if isinstance(fraction, float):
                raise TypeError(
                    "float states are forbidden: the doubling map loses one "
                    "mantissa bit per step; pass a Fraction, int, or "
                    "'num/den' string")
            fraction = Fraction(fraction)
            if not 0 <= fraction < 1:
                fraction -= fraction.numerator // fraction.denominator
            self.fraction = fraction
            self.bits = None
        else:
            bits = np.asarray(bits, dtype=np.uint8)
            if bits.ndim != 1:
                raise ValueError("bits must be a 1-d 0/1 array")
            if bits.size and bits.max() > 1:
                raise ValueError("bits must contain only 0 and 1")
            self.bits = bits
            self.fraction = None
        self.pos = int(pos)

    @classmethod
    def from_rational(cls, x: RationalLike) -> "BernoulliState":
        return cls(fraction=Fraction(x))

    @classmethod
    def from_bits(cls, bits) -> "BernoulliState":
        return cls(bits=bits)

    @property
    def remaining_bits(self) -> int | None:
        """Steps this state can still take; None for rational (unlimited)."""
        if self.bits is None:
            return None
        return int(self.bits.size - self.pos)

    def value(self) -> Fraction:
        """Current position as an exact rational."""
        if self.fraction is not None:
            return self.fraction
        v = Fraction(0)
        for k, b in enumerate(self.bits[self.pos:]):
            if b:
                v += Fraction(1, 2 ** (k + 1))
        return v

    def leading_bit(self) -> int:
        """1 iff x >= 1/2 (the threshold observation)."""
        if self.fraction is not None:
            return int(self.fraction >= Fraction(1, 2))
        if self.pos >= self.bits.size:
            raise PrecisionExhaustedError(
                f"bit state exhausted after {self.bits.size} steps")
        return int(self.bits[self.pos])


def orbit_bits(x0: RationalLike | BernoulliState, n_steps: int) -> np.ndarray:
    """Leading bits (x >= 1/2) of the first ``n_steps`` states of the orbit.

    A rational start n/d is stepped on its numerator alone: the bit is
    2n // d (that is, 2n >= d) and the next numerator is 2n mod d.
    """
    state = x0 if isinstance(x0, BernoulliState) else BernoulliState.from_rational(x0)
    n_steps = int(n_steps)
    if state.bits is not None:
        avail = state.bits.size - state.pos
        if avail < n_steps:
            raise PrecisionExhaustedError(
                f"need {n_steps} bits, state has {avail}")
        return state.bits[state.pos:state.pos + n_steps]
    num, den = state.fraction.numerator, state.fraction.denominator
    bits = []
    for _ in range(n_steps):
        bit, num = divmod(2 * num, den)
        bits.append(bit)
    return np.array(bits, dtype=np.uint8)


def orbit_rate(x0: RationalLike | BernoulliState, n_steps: int) -> Fraction:
    """Exact yes-rate (x >= 1/2) over the first ``n_steps`` steps."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    return Fraction(int(orbit_bits(x0, n_steps).sum(dtype=np.int64)),
                    int(n_steps))


class BernoulliTrajectory:
    """Discrete-time orbit; step k sits at integer time k."""

    def __init__(self, state: BernoulliState, n_steps: int | None = None):
        self.state = state
        if n_steps is None:
            if state.bits is None:
                raise ValueError("rational states need an explicit n_steps")
            n_steps = state.bits.size - state.pos
        self.n_steps = int(n_steps)
        if state.bits is not None and state.bits.size - state.pos < self.n_steps:
            raise PrecisionExhaustedError(
                f"trajectory of {self.n_steps} steps needs that many bits")

    def evaluate(self, t):
        k = int(round(float(t)))
        if not 0 <= k < self.n_steps:
            raise ValueError(f"step {k} outside orbit of {self.n_steps} steps")
        s = self.state
        x = s.fraction * 2 ** k % 1 if s.bits is None else \
            BernoulliState(bits=s.bits, pos=s.pos + k).value()
        return np.array([float(x)])


def bit_sequence_measure(n_steps: int, p_one: float = 0.5) -> MeasureSpec:
    """I.i.d. bit sequences of length ``n_steps`` with P(bit=1) = ``p_one``.

    p_one = 1/2 is exactly the uniform (Lebesgue) measure restricted to
    dyadic cylinders of depth ``n_steps``.
    """
    if not 0.0 <= p_one <= 1.0:
        raise ValueError("p_one must lie in [0, 1]")
    L = int(n_steps)

    def sampler(rng, n):
        return (rng.random((n, L)) < p_one).astype(np.uint8)

    def density(points):
        pts = np.atleast_2d(np.asarray(points))
        ones = pts.sum(axis=1)
        # probability mass wrt counting measure on {0,1}^L
        with np.errstate(divide="ignore"):
            logp = ones * np.log(max(p_one, 1e-300)) \
                + (L - ones) * np.log(max(1.0 - p_one, 1e-300))
        return np.exp(logp)

    return MeasureSpec(dimension=L, sampler=sampler, density=density,
                       name=f"bits(p={p_one})")


def biased_measure(target_rate: float, n_steps: int) -> MeasureSpec:
    """Measure under which the ensemble yes-rate equals ``target_rate``.

    Same dynamics, different statistics: only the weighting of initial
    conditions changes, via the bit bias.
    """
    return bit_sequence_measure(n_steps, p_one=float(target_rate))


def lebesgue_ensemble_rate(n_trajectories: int, n_steps: int, seed: int = 0,
                           n_min_trials: int = 1,
                           measure: MeasureSpec | None = None) -> RateStatistics:
    """Ensemble statistics of the threshold experiment under a bit measure.

    Default measure is uniform (Lebesgue). Returns the full rate statistics;
    index 1 of the mean is the yes-rate.
    """
    if measure is None:
        measure = bit_sequence_measure(n_steps, 0.5)
    if measure.dimension < n_steps:
        raise ValueError("measure draws fewer bits than n_steps")

    # the outcome of step k is bit k of the point itself
    return ensemble_statistics(measure, lambda bits: bits[:, :n_steps], 2,
                               n_trajectories=n_trajectories,
                               n_min_trials=n_min_trials, seed=seed)
