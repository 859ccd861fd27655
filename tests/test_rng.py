"""Per-trial Philox streams against the jump-ahead construction, and the one count rule."""

import numpy as np
import pytest

import qphase.rng
from qphase import (
    DensityMatrix,
    GaussianMeasurement,
    Observable,
    PhasePoint,
    StateVector,
    TorusState,
    build_frame_general,
    continuous_observe,
    lie_closure,
    orbit_membership,
    plan_kicks,
    stabilize_middle_level,
)
from qphase.errors import ProtocolParameterError
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


BLOCK = qphase.rng._BLOCK


@pytest.mark.parametrize("trials", [BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5])
def test_blocks_match_each_trials_stream(trials):
    assert first_uniforms(77, trials).tolist() == [stream(77, k).random() for k in range(trials)]
    # the same counts of indices ending at the top of the counter word
    ks = np.arange(trials, dtype=np.uint64) + np.uint64(2**64 - trials)
    assert first_uniforms_at(2**64 - 1, ks).tolist() == [stream(2**64 - 1, int(k)).random() for k in ks]


def test_output_takes_the_shape_of_the_indices():
    ks = np.arange(3 * BLOCK + 3, dtype=np.uint64) + np.uint64(2**64 - 3 * BLOCK - 3)
    want = np.array([stream(5, int(k)).random() for k in ks])
    for grid, expect in ((ks.reshape(3, -1), want.reshape(3, -1)), (ks.reshape(3, -1).T, want.reshape(3, -1).T)):
        got = first_uniforms_at(5, grid)
        assert got.shape == grid.shape and got.tobytes() == expect.tobytes()
    for k in (0, 2**64 - 1):
        got = first_uniforms_at(5, np.uint64(k))
        assert np.shape(got) == () and got == stream(5, k).random()


def test_first_uniforms_rejects_out_of_range():
    for seed in (-1, 2**64):
        with pytest.raises(ValueError):
            first_uniforms(seed, 3)
        with pytest.raises(ValueError):
            first_uniforms_at(seed, np.arange(3, dtype=np.uint64))
    with pytest.raises(ValueError):
        first_uniforms(1, -1)


@pytest.mark.parametrize("call", [
    lambda: stream(1.9), lambda: stream(3, 2.7), lambda: stream("7"), lambda: stream(True), lambda: stream(3, False),
    lambda: first_uniforms(5, 2.5), lambda: first_uniforms(3, "4"), lambda: first_uniforms(2.0, 3),
    lambda: first_uniforms_at(3, [2.7]), lambda: first_uniforms_at(3, [-1]), lambda: first_uniforms_at(3, [True]),
    lambda: first_uniforms_at(3, [2**64]), lambda: first_uniforms_at(np.float64(3), [2]),
], ids=["seed-float", "trial-float", "seed-str", "seed-bool", "trial-bool", "trials-float", "trials-str",
        "trials-seed-float", "index-float", "index-negative", "index-bool", "index-too-large", "index-seed-float"])
def test_non_integers_are_rejected_not_truncated(call):
    with pytest.raises(ProtocolParameterError):
        call()


def test_numpy_integers_are_accepted():
    assert stream(np.int64(3), np.uint8(2)).random() == stream(3, 2).random()
    assert first_uniforms(np.uint64(3), np.int32(4)).tolist() == first_uniforms(3, 4).tolist()
    want = [stream(3, k).random() for k in (0, 2, 7)]
    for dtype in (np.int8, np.int64, np.uint16, np.uint64):
        assert first_uniforms_at(3, np.array([0, 2, 7], dtype=dtype)).tolist() == want
    assert first_uniforms_at(3, [0, 2, 7]).tolist() == want
    assert first_uniforms_at(3, []).shape == (0,)


def _closure_sz():
    """The closure of i sigma_z, whose orbit through (1, 1)/sqrt 2 holds a state orthogonal to it."""
    return lie_closure([np.diag([1.0, -1.0])])


_PLUS = PhasePoint([2**-0.5, 2**-0.5], [0.0, 0.0])
_SZ = Observable(np.diag([1.0, -1.0]))

# entry point -> (call on the count, the count's lower bound, an accepted NumPy count)
COUNTS = {
    "stream-seed": (lambda v: stream(v), 0, np.int64(3)),
    "stream-trial": (lambda v: stream(1, v), 0, np.int64(3)),
    "first_uniforms-trials": (lambda v: first_uniforms(1, v), 0, np.int64(3)),
    "TorusState-radius": (lambda v: TorusState.eigenstate((0, 0), v), 0, np.int64(3)),
    "plan_kicks-radius": (lambda v: plan_kicks((0, 0), (1, 1), radius=v), 0, np.int64(3)),
    "orbit_membership-budget": (lambda v: orbit_membership(_closure_sz(), _PLUS, _PLUS, budget=v), 0, np.int64(3)),
    "build_frame_general-budget": (
        lambda v: build_frame_general(StateVector([2**-0.5, 2**-0.5]), _closure_sz(), budget=v,
                                      rng=np.random.default_rng(0)), 0, np.int64(2000)),
    "stabilize_middle_level-n_periods": (
        lambda v: stabilize_middle_level(PhasePoint([0.0, 1.0, 0.0], [0.0, 0.0, 0.0]), disturbance=0.1, n_periods=v),
        0, np.int64(3)),
    "continuous_observe-steps": (
        lambda v: continuous_observe(DensityMatrix(np.diag([1.0, 0.0])), _SZ, GaussianMeasurement(_SZ, 1.0, 0.1),
                                     0.2, v), 1, np.int64(3)),
}


@pytest.mark.parametrize("entry", list(COUNTS))
def test_every_count_meets_the_one_rule(entry):
    """Each count the package takes passes ``rng._index``: no bool, float or str, and no value below its bound."""
    call, low, accepted = COUNTS[entry]
    for bad in (True, 2.0, 2.5, float("nan"), "3", low - 1):
        with pytest.raises(ProtocolParameterError):
            call(bad)
    call(accepted)
