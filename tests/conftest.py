import numpy as np
import pytest

from qphase import Observable, PhasePoint, StateVector, from_phase, measure_selective, to_phase
from qphase.errors import MaxIterationsError
from qphase.steering import SteeringWord, ladder_drift


def random_state(rng, n):
    amps = rng.normal(size=n) + 1j * rng.normal(size=n)
    return StateVector(amps / np.linalg.norm(amps))


def random_point(rng, n):
    return to_phase(random_state(rng, n))


def random_hermitian(rng, n):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def stabilize_reference(x0, mu=1.0, disturbance=None, n_periods=0, max_iters=10_000, rng=None):
    """Phase-point reference for ``stabilize_middle_level``: one
    ``measure_selective`` call (``Generator.choice``) per measurement."""
    obs = Observable(ladder_drift(mu))
    kick = SteeringWord.from_h_steps((("h2", np.pi / 2),))
    steps = []

    def acquire(state):
        cycles = 0
        while True:
            out = measure_selective(state, obs, rng)
            steps.append(("measure", {"value": out.value}, out.post_state))
            state = out.post_state
            if abs(out.value) < 1e-12:
                return state, cycles
            if cycles >= max_iters:
                raise MaxIterationsError("cap")
            state = to_phase(kick.apply(from_phase(state)))
            steps.append(("evolve", {"word": kick.describe()}, state))
            cycles += 1

    state, cycles = acquire(x0)
    occupancy = None
    if disturbance is not None and n_periods > 0:
        hits = 0
        for _ in range(n_periods):
            if rng.random() < disturbance:
                level = int(rng.integers(0, 3))
                amps = np.zeros(3, dtype=complex)
                amps[level] = 1.0
                state = PhasePoint(amps.real, amps.imag)
                steps.append(("disturb", {"level": level}, state))
            out = measure_selective(state, obs, rng)
            state = out.post_state
            if abs(out.value) < 1e-12:
                hits += 1
            else:
                state, _ = acquire(state)
        occupancy = hits / n_periods
    return steps, from_phase(state).fidelity(StateVector([0, 1, 0])), cycles, occupancy
