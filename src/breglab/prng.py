"""Deterministic stream construction for all randomized work.

Every consumer draws from a numpy Philox generator (a counter-based 64-bit
PRNG) whose key is derived from the master seed and an index path with
SplitMix64.  The derivation below is part of the output contract: chunk c of
a simulation always sees the stream keyed by ``derive_key(seed, c)``, so
results never depend on how chunks are scheduled across workers.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Generator.random() returns k * 2**-53 with k < 2**53; adding half an ulp
# keeps uniforms strictly inside (0, 1) so inverse-CDF transforms never hit
# a support boundary.
OPEN_UNIFORM_OFFSET = 2.0**-54


def splitmix64(z: int) -> int:
    """SplitMix64 finalizer, the stated hash behind all key derivation."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_key(master_seed: int, *indices: int) -> int:
    """64-bit Philox key for a (master seed, index path) pair."""
    key = splitmix64(int(master_seed) & _MASK64)
    for ix in indices:
        key = splitmix64(key ^ (((int(ix) + 1) * _GOLDEN) & _MASK64))
    return key


def philox(key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=key))


def open_uniforms(rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Uniform draws strictly inside the open interval (0, 1).

    With out (a C-contiguous float64 array of the given shape) the draws are
    written into it and out is returned; the values are the same either way.
    """
    u = rng.random(shape, out=out)
    u += OPEN_UNIFORM_OFFSET
    return u


def pairwise_sum(parts):
    """Sum a sequence of partials with a fixed-shape pairwise tree.

    The reduction shape depends only on len(parts), never on scheduling, so
    single-threaded and multi-threaded runs combine partials identically.
    """
    vals = list(parts)
    if not vals:
        raise ValueError("pairwise_sum of an empty sequence")
    while len(vals) > 1:
        merged = [vals[i] + vals[i + 1] for i in range(0, len(vals) - 1, 2)]
        if len(vals) % 2:
            merged.append(vals[-1])
        vals = merged
    return vals[0]
