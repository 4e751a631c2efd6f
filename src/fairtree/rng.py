"""Counter-based random streams for probabilistic traversal.

Every uniform draw is a pure function of (seed, stream words, draw index),
so results cannot depend on evaluation order, batching, or worker count.
The construction is the SplitMix64 finalizer used in counter mode:

    key     = fold(seed, w_0, w_1, ...)        with fold = finalize(key ^ w)
    draw_j  = finalize(key + (j + 1) * GAMMA)  mapped to [0, 1) via 53 bits

The key functions have scalar (Python int) and vectorized (uint64 ndarray)
forms, which tests assert bit-identical. Draws are vectorized only; tests
assert them equal to the scalar reference draw in tests/reference.py.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB

_U_GAMMA = np.uint64(GAMMA)
_U_MUL1 = np.uint64(_MUL1)
_U_MUL2 = np.uint64(_MUL2)
_U11, _U27, _U30, _U31 = (np.uint64(b) for b in (11, 27, 30, 31))
_TO_UNIT = 2.0 ** -53


def finalize(z: int) -> int:
    """SplitMix64 avalanche of a 64-bit word (scalar)."""
    z &= _MASK
    z = (z ^ (z >> 30)) * _MUL1 & _MASK
    z = (z ^ (z >> 27)) * _MUL2 & _MASK
    return z ^ (z >> 31)


def finalize_array(z) -> np.ndarray:
    """SplitMix64 avalanche in place on a uint64 array the caller owns; a
    scalar becomes a 0-d array, as scalar arithmetic warns on wrap-around."""
    z = np.asarray(z)
    z ^= z >> _U30
    z *= _U_MUL1
    z ^= z >> _U27
    z *= _U_MUL2
    z ^= z >> _U31
    return z


def stream_key(seed: int, *words: int) -> int:
    """Derive the key of the (seed, words...) stream."""
    key = finalize(seed)
    for w in words:
        key = finalize(key ^ (w & _MASK))
    return key


def fold_array(keys: np.ndarray, *words, out=None) -> np.ndarray:
    """stream_key's fold of words onto uint64 keys, without writing them;
    each word is a scalar or uint64-castable array broadcast against keys.
    The last fold goes into out, a uint64 array of its shape, if given."""
    for i, w in enumerate(words, 1):
        keys = finalize_array(np.bitwise_xor(keys, np.asarray(w, dtype=np.uint64),
                                             out=out if i == len(words) else None))
    return keys


def stream_key_array(seed: int, *words) -> np.ndarray:
    """Vectorized stream_key; each word is a scalar or uint64-castable array."""
    return fold_array(np.array(finalize(seed), dtype=np.uint64), *words)


def _words_at(keys: np.ndarray, index, out=None) -> np.ndarray:
    """The index-th 64-bit draw word of each stream in keys, in out if
    given (a uint64 array of their shape, which may be keys)."""
    if isinstance(index, np.ndarray):
        # uint64 array arithmetic wraps modulo 2**64, as _MASK does
        offset = index.astype(np.uint64)
        offset += np.uint64(1)
        offset *= _U_GAMMA
    else:
        offset = np.uint64((index + 1) * GAMMA & _MASK)
    # as arrays: scalar arithmetic warns on the wrap-around
    return finalize_array(np.add(np.asarray(keys), offset, out=out))


def uniforms_at_array(keys: np.ndarray, index) -> np.ndarray:
    """The index-th uniform draw, in [0, 1), of each stream in keys. index
    is one draw index for every key, or an integer array of indices
    broadcast against keys."""
    return (_words_at(keys, index) >> _U11).astype(np.float64) * _TO_UNIT


def below_array(keys: np.ndarray, index, p, out=None) -> np.ndarray:
    """uniforms_at_array(keys, index) < p for p >= 0, bit for bit: u = (z
    >> 11) * 2**-53 for the draw word z, and p * 2**53 is exact, so u < p
    exactly when z >> 11 < ceil(p * 2**53); p >= 1 always holds, as u < 1.
    The draw words are made in out if given, as in _words_at."""
    words = _words_at(keys, index, out)
    words >>= _U11
    return words < np.ceil(np.minimum(p, 1.0) * 2.0 ** 53).astype(np.uint64)
