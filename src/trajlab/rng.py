"""Deterministic random streams.

Every stochastic routine in the package draws from a stream derived from a
master seed plus an integer path, so results are reproducible bit for bit
regardless of evaluation order. Per-trajectory streams use the trajectory
index as the path, which keeps ensemble statistics identical whether the
trajectories are generated serially or in any other order.
"""

from __future__ import annotations

import hashlib

import numpy as np
from numpy.random.bit_generator import ISeedSequence


def _as_key(part) -> int:
    """Map a path element to a stable nonnegative integer."""
    if isinstance(part, str):
        digest = hashlib.sha256(part.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")
    return int(part)


def stream(master_seed: int, *path) -> np.random.Generator:
    """Return the generator for ``(master_seed, *path)``.

    The same arguments always yield an identical stream; distinct paths yield
    statistically independent streams. Path elements may be integers or
    strings (strings are hashed stably, so streams survive restarts).
    """
    if master_seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    ss = np.random.SeedSequence(entropy=master_seed,
                                spawn_key=tuple(_as_key(p) for p in path))
    return np.random.default_rng(ss)


def trajectory_stream(master_seed: int, index: int) -> np.random.Generator:
    """Stream for the ``index``-th trajectory of an ensemble."""
    return stream(master_seed, index)


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL = 4


class _Words(ISeedSequence):
    """Seed words computed in advance, handed to ``PCG64`` as its seed.

    ``PCG64`` asks its seed sequence for exactly ``generate_state(4,
    uint64)``; any other request would mean it no longer seeds the way
    :func:`_stream_blocks` reproduces, so it is refused.
    """

    __slots__ = ("words",)

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself, which spares building a dtype
        if n_words == 4 and (dtype is np.uint64 or np.dtype(dtype) == "u8"):
            return self.words
        raise ValueError(f"only generate_state(4, uint64) is precomputed, "
                         f"not ({n_words}, {np.dtype(dtype)})")


def _hasher(hash_const: int, mult: int):
    """numpy's hashmix on uint32 scalars or arrays, with its running constant."""

    def hashmix(value):
        nonlocal hash_const
        value = np.uint32(value) ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    return hashmix


def _mix(x, y):
    result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
    return result ^ (result >> np.uint32(16))


#: blocks hashed in one array pass; 16 blocks cost little more than one
_WORDS_CHUNK = 16


def _stream_blocks(master_seed: int, stop: int, block: int):
    """Yield ``[trajectory_stream(master_seed, i) for i in range(s,
    min(s + block, stop))]``, draw for draw, for each ``s`` in
    ``range(0, stop, block)``; nothing for ``stop <= 0``.

    The SeedSequence hash of ``(master_seed, spawn_key=(i,))`` is computed
    for :data:`_WORDS_CHUNK` blocks at once in uint32 array arithmetic
    (numpy keeps it fixed under NEP 19); only the last entropy word, the
    index, differs between them. A block's generators are built when it is
    reached. An index is one 32-bit word, so more than 2**32 streams are
    refused before any is built: an ensemble that large would fill at least
    64 GB with the kept rates of two outcomes first.
    """
    if master_seed < 0:
        raise ValueError("master seed must be a nonnegative integer")
    if stop > 2 ** 32:
        raise ValueError(f"{stop} trajectories are more than the 2**32 "
                         f"seed streams of one ensemble")
    # entropy words: the seed's 32-bit words little end first, zero-padded
    # to the pool size because a spawn key follows, then the index
    seed = int(master_seed)
    entropy = [seed >> 32 * k & _MASK32
               for k in range(max(_POOL, -(-seed.bit_length() // 32)))]
    for lo in range(0, stop, _WORDS_CHUNK * block):
        hi = min(lo + _WORDS_CHUNK * block, stop)
        index = np.arange(lo, hi, dtype=np.uint32)
        with np.errstate(over="ignore"):
            # mix_entropy
            hashmix = _hasher(_INIT_A, _MULT_A)
            pool = [hashmix(w) for w in entropy[:_POOL]]
            for i_src in range(_POOL):
                for i_dst in range(_POOL):
                    if i_src != i_dst:
                        pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
            for word in entropy[_POOL:] + [index]:
                for i_dst in range(_POOL):
                    pool[i_dst] = _mix(pool[i_dst], hashmix(word))
            # generate_state(4, uint64): eight words cycling the pool,
            # paired little end first
            draw = _hasher(_INIT_B, _MULT_B)
            state = np.stack([draw(pool[i % _POOL]) for i in range(8)], 1)
        words = state.astype("<u4").view("<u8").astype(np.uint64)
        for s in range(lo, hi, block):
            yield [np.random.Generator(np.random.PCG64(_Words(w)))
                   for w in words[s - lo:s - lo + block]]
