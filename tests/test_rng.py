"""Per-trial Philox streams against the jump-ahead construction."""

import numpy as np
import pytest

from qphase.rng import first_uniforms, first_uniforms_at, stream


def jumped_stream(seed, trial):
    bg = np.random.Philox(key=seed)
    return np.random.Generator(bg.jumped(trial) if trial else bg)


def same_state(a, b):
    sa, sb = a.bit_generator.state, b.bit_generator.state
    assert sa["state"]["counter"].tolist() == sb["state"]["counter"].tolist()
    assert sa["state"]["key"].tolist() == sb["state"]["key"].tolist()
    assert sa["buffer"].tolist() == sb["buffer"].tolist()
    for k in ("bit_generator", "buffer_pos", "has_uint32", "uinteger"):
        assert sa[k] == sb[k]


@pytest.mark.parametrize("seed", [0, 314159, 2**64 - 1])
def test_stream_is_the_jumped_stream(seed):
    for trial in [*range(2001), 2**40, 2**63, 2**64 - 1, 2**64 + 5]:
        ours, ref = stream(seed, trial), jumped_stream(seed, trial)
        same_state(ours, ref)
        if trial % 97 == 0 or trial > 2000:
            assert ours.random(3).tolist() == ref.random(3).tolist()
            assert ours.integers(0, 2**63, 2).tolist() == ref.integers(0, 2**63, 2).tolist()
            same_state(ours, ref)


def test_stream_rejects_out_of_range():
    with pytest.raises(ValueError):
        stream(-1)
    with pytest.raises(ValueError):
        stream(2**64)
    with pytest.raises(ValueError):
        stream(1, -1)


def test_first_uniforms_are_each_trials_first_draw():
    for seed in (0, 99, 2**64 - 1):
        want = [stream(seed, k).random() for k in range(3000)]
        assert first_uniforms(seed, 3000).tolist() == want
    assert first_uniforms(5, 0).shape == (0,)


# word boundaries of the trial index: 32-bit halves of the multiply, the
# 53 bits a double holds, the sign bit and the top of the counter word
EDGE_TRIALS = [0, 1, 2**32 - 1, 2**32, 2**53 + 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("seed", [0, 2**63, 2**64 - 1])
def test_counter_arithmetic_matches_the_bit_generator(seed):
    got = first_uniforms_at(seed, np.array(EDGE_TRIALS, dtype=np.uint64))
    assert got.tolist() == [stream(seed, k).random() for k in EDGE_TRIALS]
    for start in (0, 2**32 - 1500, 2**64 - 3000):
        ks = np.arange(3000, dtype=np.uint64) + np.uint64(start)
        assert first_uniforms_at(seed, ks).tolist() == [stream(seed, int(k)).random() for k in ks]


def test_first_uniforms_rejects_out_of_range():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            first_uniforms(seed, 3)
        with pytest.raises(ValueError):
            first_uniforms_at(seed, np.arange(3, dtype=np.uint64))
    with pytest.raises(ValueError):
        first_uniforms(1, -1)
