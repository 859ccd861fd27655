"""Reproducible random streams for stochastic commands.

Streams use the counter-based Philox bit generator keyed by the scenario
seed.  Trial k starts at the 256-bit counter whose word 2 (bits 128-191)
holds k, carrying into word 3 past 2**64 - 1: this is exactly the state
that ``Philox(key=seed).jumped(k)`` reaches, since one jump advances the
counter by 2**128, but it is built without the jump arithmetic.  Trial k
therefore draws the same numbers no matter how many trials run or in what
order.

Because Philox is counter-based, trial k's first uniform is a pure function
of ``(seed, k)``: ``first_uniforms_at`` computes it for an array of trial
indices with the Philox4x64-10 rounds written as unsigned 64-bit array
arithmetic (Salmon, Moraes, Dror & Shaw, "Parallel random numbers: as easy
as 1, 2, 3", SC'11), with no generator built per trial.  The rounds run
over blocks of ``_BLOCK`` trials, so their working arrays stay in cache.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolParameterError

BIT_GENERATOR = "Philox"

_WORD = 2**64 - 1

# Philox4x64 round multipliers and Weyl key increments (Random123)
_MULTIPLIERS = (np.uint64(0xD2E7470EE14C6C93), np.uint64(0xCA5A826395121157))
_WEYL = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# trials per pass of the rounds: 20,000 trials in one pass fall out of cache
# and take 5.0 ms; blocks of 8192 take 2.8 ms, of 4096 3.0 ms, of 16384 4.0 ms
# and of 1024 6.6 ms (best of 7, 2 vCPUs, NumPy 2.4.6)
_BLOCK = 8192


def stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Generator for one trial of a seeded run."""
    seed, trial = _index(seed, "seed", _WORD), _index(trial, "trial index")
    return np.random.Generator(np.random.Philox(key=seed, counter=_counter(trial)))


def _index(value, what: str, top: float = np.inf, low: int = 0) -> int:
    """``value`` as an int in [low, top]: a Python or NumPy integer, not a bool, float or str."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ProtocolParameterError(f"{what} must be an integer, got {value!r}")
    if not low <= value <= top:
        raise ProtocolParameterError(f"{what} must lie in [{low}, {top}], got {value}")
    return int(value)


def _counter(trial: int) -> np.ndarray:
    return np.array([0, 0, trial & _WORD, (trial >> 64) & _WORD], dtype=np.uint64)


def first_uniforms(seed: int, trials: int) -> np.ndarray:
    """``stream(seed, k).random()`` for k = 0 .. trials - 1."""
    trials = _index(trials, "number of trials")
    return first_uniforms_at(seed, np.arange(trials, dtype=np.uint64))


def first_uniforms_at(seed: int, indices) -> np.ndarray:
    """``stream(seed, k).random()`` for each trial index k of an array of non-negative integers.

    The first draw of a fresh generator increments word 0 of the counter,
    so it is the first output word of Philox4x64-10 on the counter
    ``[1, 0, k, 0]`` under the key ``[seed, 0]``, and ``random()`` keeps
    its top 53 bits.  The rounds run on blocks of ``_BLOCK`` indices, and
    the result takes the shape of ``indices`` (a float for a 0-d index).
    """
    seed = _index(seed, "seed", _WORD)
    indices = np.asarray(indices)
    kind = indices.dtype.kind
    if indices.size and (kind not in "iu" or (kind == "i" and indices.min() < 0)):
        raise ProtocolParameterError("trial indices must be integers in [0, 2**64)")
    flat = indices.astype(np.uint64, copy=False).reshape(-1)
    out = np.empty(flat.shape)
    for start in range(0, flat.size, _BLOCK):
        c2 = flat[start : start + _BLOCK]
        c0, c1, c3 = np.ones_like(c2), np.zeros_like(c2), np.zeros_like(c2)
        for r in range(_ROUNDS):
            # round r runs under the key bumped r times by the Weyl increments
            key0 = np.uint64((seed + r * _WEYL[0]) & _WORD)
            key1 = np.uint64((r * _WEYL[1]) & _WORD)
            hi0, lo0 = _mulhilo(_MULTIPLIERS[0], c0)
            hi1, lo1 = _mulhilo(_MULTIPLIERS[1], c2)
            hi1 ^= c1
            hi1 ^= key0
            hi0 ^= c3
            hi0 ^= key1
            c0, c1, c2, c3 = hi1, lo1, hi0, lo0
        out[start : start + _BLOCK] = (c0 >> np.uint64(11)) * (1.0 / 9007199254740992.0)
    return out.reshape(indices.shape)[()]


def _mulhilo(a: np.uint64, b: np.ndarray):
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = a & _LOW32, a >> _SHIFT32
    b_lo, b_hi = b & _LOW32, b >> _SHIFT32
    ll = a_lo * b_lo
    t = a_hi * b_lo + (ll >> _SHIFT32)
    w = (t & _LOW32) + a_lo * b_hi
    hi = a_hi * b_hi + (t >> _SHIFT32) + (w >> _SHIFT32)
    return hi, a * b
