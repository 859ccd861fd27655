"""Output checks for the benchmark, computed apart from qphase.

Every check here uses NumPy only: its own propagators, its own eigenspaces
and its own integer replay.  A check raises ``CheckError`` when an output is
wrong, and ``OperationFailed`` when the program returned something that is
not a result at all (for example a density matrix that is not positive
semidefinite); the benchmark counts the first as incorrect and the second as
a failed operation.
"""

from __future__ import annotations

import io

import numpy as np

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


class CheckError(AssertionError):
    """An output does not match the independent computation."""


class OperationFailed(Exception):
    """The program returned an invalid result instead of raising."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckError(message)


# ---------------------------------------------------------------- encoding

def cmatrix(m) -> list:
    """Complex matrix to the scenario encoding of [re, im] pairs."""
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m, complex)]


def cvector(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, complex)]


def decode(pairs) -> np.ndarray:
    """Inverse of ``cmatrix`` and ``cvector``."""
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def read_csv(text: str):
    """Header and float rows of a CSV artifact."""
    header, _, body = text.partition("\n")
    return header.split(","), np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


# ------------------------------------------------------------- propagation

def propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for a Hermitian h, through its eigendecomposition."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * vals * dt)) @ vecs.conj().T


def fidelity(psi: np.ndarray, goal: np.ndarray) -> float:
    return float(abs(np.vdot(goal, psi)) ** 2 / (np.vdot(goal, goal).real * np.vdot(psi, psi).real))


def run_cost(kind: str, u: np.ndarray, dts: np.ndarray) -> float:
    if kind == "control-energy":
        return float(np.sum(np.sum(u * u, axis=1) * dts))
    if kind == "control-l1":
        return float(np.sum(np.sum(np.abs(u), axis=1) * dts))
    raise ValueError(f"no independent cost for {kind!r}")


def bang_bang_oracle(drift, control, psi0, goal, t_final, bound, n_grid=100):
    """Best fidelity over bang-bang controls u = +/-bound with at most 3 switches.

    Switches sit on a uniform grid of ``n_grid`` intervals.  Every candidate
    has |u| = bound throughout, so its energy cost is ``t_final * bound**2``.
    Returns (best fidelity, that cost).
    """
    dt = t_final / n_grid
    plus = propagator(drift + bound * control, dt)
    minus = propagator(drift - bound * control, dt)

    def powers(m):
        out = [np.eye(m.shape[0], dtype=complex)]
        for _ in range(n_grid):
            out.append(m @ out[-1])
        return np.array(out)

    n = n_grid
    best = 0.0
    for a, b in ((plus, minus), (minus, plus)):
        apow, bpow = powers(a), powers(b)
        # segments in time order: a for [0,i), b for [i,j), a for [j,k), b for [k,n)
        w = np.einsum("kij,i->kj", bpow[::-1].conj(), goal)  # w[k] = (b^(n-k))^dagger goal
        v1 = apow @ psi0
        d = np.arange(n + 1)
        for i in range(n + 1):
            v2 = bpow[: n - i + 1] @ v1[i]  # v2[j - i]
            x = np.einsum("dab,jb->jda", apow, v2)  # a^d v2[j - i]
            j = i + np.arange(v2.shape[0])[:, None]
            k = j + d[None, :]
            valid = k <= n
            amp = np.einsum("jda,jda->jd", w[np.minimum(k, n)].conj(), x)
            fid = np.where(valid, np.abs(amp) ** 2, 0.0)
            best = max(best, float(fid.max()))
    return best, t_final * bound**2


def check_pmp(scenario: dict, pmp: dict, schedule_csv: str, oracle_cost: float | None = None):
    """Replay a written schedule and compare it with the reported solution."""
    drift = decode(scenario["system"]["drift"])
    controls = [decode(c) for c in scenario["system"]["controls"]]
    psi0, goal = decode(scenario["initial_state"]), decode(scenario["goal_state"])
    lower = np.asarray(scenario["control_bounds"]["lower"], float)
    upper = np.asarray(scenario["control_bounds"]["upper"], float)
    t_final = float(scenario["horizon"]["t_final"])
    m = int(scenario["grid_points"])
    header, rows = read_csv(schedule_csv)
    require(header == ["t"] + [f"u{j + 1}" for j in range(len(controls))], f"schedule header {header}")
    require(rows.shape == (m, 1 + len(controls)), f"schedule has shape {rows.shape}, want {m} rows")
    grid = np.linspace(0.0, t_final, m + 1)
    require(np.allclose(rows[:, 0], grid[:-1], rtol=0, atol=1e-12), "schedule times are not the grid")
    u = rows[:, 1:]
    require(bool(np.all(u >= lower - 1e-12) and np.all(u <= upper + 1e-12)), "a control lies outside its bounds")
    psi = psi0 / np.linalg.norm(psi0)
    for k in range(m):
        h = drift + sum(uj * hj for uj, hj in zip(u[k], controls))
        psi = propagator(h, grid[k + 1] - grid[k]) @ psi
    fid = fidelity(psi, goal)
    require(fid >= 0.999, f"replayed fidelity {fid:.6f} < 0.999")
    require(abs(fid - pmp["fidelity"]) <= 1e-9, f"replayed fidelity {fid!r} != reported {pmp['fidelity']!r}")
    cost = run_cost(scenario["cost"], u, np.diff(grid))
    require(abs(cost - pmp["cost"]) <= 1e-9 * max(1.0, cost), f"recomputed cost {cost!r} != reported {pmp['cost']!r}")
    require(pmp["converged"] is True, "solution not marked converged")
    if oracle_cost is not None:
        require(pmp["cost"] <= 1.02 * oracle_cost, f"cost {pmp['cost']:.6f} > 1.02 x bang-bang {oracle_cost:.6f}")


# ------------------------------------------------------------- measurement

def eigenspaces(obs: np.ndarray, rtol: float = 1e-8):
    """Distinct eigenvalues with orthonormal bases of their eigenspaces."""
    vals, vecs = np.linalg.eigh(obs)
    scale = max(1.0, float(np.max(np.abs(vals))))
    groups = [[0]]
    for i in range(1, vals.size):
        if vals[i] - vals[groups[-1][0]] <= rtol * scale:
            groups[-1].append(i)
        else:
            groups.append([i])
    return [(float(np.mean(vals[g])), vecs[:, g]) for g in groups]


def check_measure(obs: np.ndarray, psi0: np.ndarray, csv_text: str, trials: int, z: float = 5.0):
    """Born frequencies, recorded probabilities and post-states of ``measure``."""
    n = psi0.size
    header, rows = read_csv(csv_text)
    want = ["trial", "branch", "value", "probability"] + [f"q{k + 1}" for k in range(n)] + [f"p{k + 1}" for k in range(n)]
    require(header == want, f"measure header {header}")
    require(rows.shape[0] == trials, f"{rows.shape[0]} rows for {trials} trials")
    require(bool(np.all(rows[:, 0] == np.arange(trials))), "trial column is not 0..trials-1")
    spaces = eigenspaces(obs)
    values = np.array([v for v, _ in spaces])
    weights, posts = [], []
    for _, basis in spaces:
        proj = basis @ (basis.conj().T @ psi0)
        w = float(np.vdot(proj, proj).real)
        weights.append(w)
        posts.append(proj / np.sqrt(w) if w > 0 else proj)
    weights = np.array(weights)
    branch = np.argmin(np.abs(rows[:, 2][:, None] - values[None, :]), axis=1)
    require(bool(np.all(np.abs(rows[:, 2] - values[branch]) <= 1e-9 * max(1.0, np.max(np.abs(values))))),
            "a recorded value is not an eigenvalue")
    require(bool(np.all(np.abs(rows[:, 3] - weights[branch]) <= 1e-9)), "a recorded probability is not the Born weight")
    post = rows[:, 4 : 4 + n] + 1j * rows[:, 4 + n : 4 + 2 * n]
    expected = np.array(posts)[branch]
    err = np.max(np.abs(post - expected))
    require(err <= 1e-9, f"a post-state is {err:.2e} away from the projection onto its eigenspace")
    counts = np.bincount(branch, minlength=len(spaces))
    for g, (c, w) in enumerate(zip(counts, weights)):
        se = np.sqrt(trials * w * (1.0 - w))
        require(abs(c - trials * w) <= z * se + 1.0,
                f"branch {g}: {c} hits, Born weight {w:.4f} predicts {trials * w:.1f} +/- {se:.1f}")


def check_prefix(short_csv: str, long_csv: str):
    """Rows of a short run must open the long run (trial k draws from stream k)."""
    short = short_csv.splitlines()
    long = long_csv.splitlines()
    require(len(short) <= len(long) and long[: len(short)] == short, "short run rows are not a prefix of the long run")


def check_steer(report: dict, trials: int, tol: float = 1e-9):
    results = report["trials"]
    require([r["trial"] for r in results] == list(range(trials)), "steer trials are not 0..trials-1")
    worst = min(r["final_fidelity"] for r in results)
    require(worst >= 1.0 - tol, f"a steer trial ends at fidelity {worst!r}")
    words = {}
    for r in results:
        measured, evolved = r["steps"]
        require(measured["action"] == "measure" and evolved["action"] == "evolve", "steer step actions")
        words.setdefault(measured["detail"]["branch"], evolved["detail"]["word"])
        require(words[measured["detail"]["branch"]] == evolved["detail"]["word"], "one branch ran two different words")


def check_stabilize(report: dict, trials: int, z: float = 5.0):
    """Every trial ends on the middle level; acquisition counts are geometric(1/2)."""
    results = report["trials"]
    require([r["trial"] for r in results] == list(range(trials)), "stabilize trials are not 0..trials-1")
    worst = min(r["final_fidelity"] for r in results)
    require(worst >= 1.0 - 1e-9, f"a stabilize trial ends off the middle level (fidelity {worst!r})")
    iters = np.array([r["iterations"] for r in results])
    require(bool(np.all(iters >= 1)), "an acquisition from an extreme level took no kick")
    # geometric law on {1, 2, ...} with p = 1/2: mean 2, variance 2, P(1) = 1/2
    require(abs(iters.mean() - 2.0) <= z * np.sqrt(2.0 / trials), f"mean acquisition count {iters.mean():.3f}, want 2")
    ones = float(np.mean(iters == 1))
    require(abs(ones - 0.5) <= z * np.sqrt(0.25 / trials), f"share of single-kick acquisitions {ones:.3f}, want 0.5")
    for r in results:
        require(0.0 <= r["occupancy"] <= 1.0, "occupancy outside [0, 1]")


# ------------------------------------------------------ propagation & plans

def check_evolve(drift, controls, grid, values, psi0, t_final, samples, csv_text, tol=1e-9):
    """Trajectory samples against the benchmark's own piecewise propagation."""
    n = psi0.size
    header, rows = read_csv(csv_text)
    require(header[: 1 + 2 * n] == ["t"] + [f"q{k + 1}" for k in range(n)] + [f"p{k + 1}" for k in range(n)],
            f"trajectory header {header}")
    times = np.linspace(0.0, t_final, samples + 1)
    require(rows.shape[0] == times.size, f"{rows.shape[0]} samples, want {times.size}")
    require(bool(np.allclose(rows[:, 0], times, rtol=0, atol=1e-12)), "sample times")
    psi, t_now, k = np.array(psi0, complex), 0.0, 0
    for t, row in zip(times, rows):
        while t_now < t:
            t_next = min(t, grid[k + 1])
            h = drift + sum(u * c for u, c in zip(values[k], controls))
            psi = propagator(h, t_next - t_now) @ psi
            t_now = t_next
            if t_now >= grid[k + 1]:
                k += 1
        got = row[1 : 1 + n] + 1j * row[1 + n : 1 + 2 * n]
        err = np.max(np.abs(got - psi))
        require(err <= tol, f"sample at t={t:.6f} is {err:.2e} away from exp(-iHt) psi0")


def check_closure(report: dict, want_dim: int):
    require(report["dimension"] == want_dim, f"closure dimension {report['dimension']}, want {want_dim}")
    gram = np.asarray(report["gram"], float)
    require(gram.shape == (want_dim, want_dim) and bool(np.allclose(gram, np.eye(want_dim), atol=1e-8)),
            "closure basis is not orthonormal")


CAT = ((2, 1), (1, 1))


def replay_moves(moves, k, cat=CAT) -> tuple:
    """Integer replay of plan moves; U1 applies the inverse cat matrix."""
    (a, b), (c, d) = cat
    k1, k2 = int(k[0]), int(k[1])
    for move in moves:
        if move == "U1":
            k1, k2 = d * k1 - b * k2, -c * k1 + a * k2
        elif move == "U1^-1":
            k1, k2 = a * k1 + b * k2, c * k1 + d * k2
        elif move == "U2":
            k1 -= 1
        elif move == "U2^-1":
            k1 += 1
        elif move == "U3":
            k2 -= 1
        elif move == "U3^-1":
            k2 += 1
        else:
            raise CheckError(f"unknown move {move!r}")
    return k1, k2


def check_plan(plan: dict, k_start, k_target):
    require(list(plan["k_start"]) == list(k_start) and list(plan["k_target"]) == list(k_target), "plan endpoints")
    moves = plan["moves"]
    require(plan["length"] == len(moves), "plan length field")
    end = replay_moves(moves, k_start)
    require(end == tuple(k_target), f"plan from {tuple(k_start)} ends at {end}, not {tuple(k_target)}")
    manhattan = abs(k_target[0] - k_start[0]) + abs(k_target[1] - k_start[1])
    require(len(moves) <= manhattan, f"plan of {len(moves)} moves is longer than the translation plan ({manhattan})")


def check_reached(support, k_target):
    """``reach_state`` must end in the target momentum eigenstate."""
    require(len(support) == 1, f"final state has {len(support)} momenta")
    (k, amp), = support
    require(tuple(k) == tuple(k_target), f"final momentum {tuple(k)} != target {tuple(k_target)}")
    require(abs(abs(amp) - 1.0) <= 1e-12, "final amplitude is not unimodular")


def check_density_path(rhos: np.ndarray, tol: float = 1e-9):
    """Raise OperationFailed unless every rho is a density matrix."""
    if not np.all(np.isfinite(rhos)):
        raise OperationFailed("density matrix has non-finite entries")
    asym = float(np.max(np.abs(rhos - rhos.conj().transpose(0, 2, 1))))
    if asym > tol:
        raise OperationFailed(f"rho is not Hermitian (off by {asym:.2e})")
    traces = np.trace(rhos, axis1=1, axis2=2).real
    if np.max(np.abs(traces - 1.0)) > tol:
        raise OperationFailed(f"trace leaves 1 (worst {traces[np.argmax(np.abs(traces - 1.0))]!r})")
    low = float(np.linalg.eigvalsh(rhos).min())
    if low < -tol:
        raise OperationFailed(f"rho is not positive semidefinite (smallest eigenvalue {low:.3e})")


def check_decoherence(rho0, h_diag, lam, s, times, rhos, rtol=1e-6):
    """Off-diagonals decay as exp(-i(h_k - h_k')t - (s/2)(lam_k - lam_k')^2 t).

    Valid when H and the measured observable are both diagonal.
    """
    dh = h_diag[:, None] - h_diag[None, :]
    dl = lam[:, None] - lam[None, :]
    t = np.asarray(times)[:, None, None]
    want = rho0[None] * np.exp(-1j * dh * t - 0.5 * s * dl**2 * t)
    off = ~np.eye(lam.size, dtype=bool)
    err = np.abs(rhos[:, off] - want[:, off]) / np.abs(want[:, off])
    require(float(err.max()) <= rtol, f"off-diagonal relative error {err.max():.2e} > {rtol:.0e}")
    pops = np.diagonal(rhos, axis1=1, axis2=2)
    require(bool(np.allclose(pops, np.diag(rho0)[None], rtol=0, atol=1e-12)), "populations moved")
