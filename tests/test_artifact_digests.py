"""Every seeded artifact against committed SHA-256 digests.

``scripts/write_artifact_digests.py`` runs one round of each benchmark
workload at seeds 1-3, warm-ups included, through ``load_workloads``, each
operation into a fresh directory.  The test reads the one run of that
script a session makes, which ``tests/test_scripts.py`` also checks.  Every
file an operation writes is hashed; a manifest is hashed without its
``wall_time_s`` and ``scenario`` lines, the only ones that differ between
runs and checkouts.  A direct call's result is hashed too: ``reach_state``'s
trace and final state, and ``continuous_observe``'s arrays through
``tobytes()``.  The digests the script writes must equal those of
``tests/data/artifact_digests.json``, versions included.  They hold for the
Python and NumPy versions the file records; a change that alters artifact
bytes on purpose commits a new file and lists each changed output.
"""

import hashlib
import json
import os
import platform

import numpy as np
import pytest

from test_workload_seeds import load_workloads

DIGESTS = os.path.join(os.path.dirname(__file__), "data", "artifact_digests.json")
WORKLOADS = ("synthesis", "trials", "propagate-plan")
SEEDS = (1, 2, 3)
MASKED = (b'  "scenario": ', b'  "wall_time_s": ')


def versions() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version()}


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    if os.path.basename(path) == "manifest.json":
        data = b"".join(line for line in data.splitlines(keepends=True) if not line.startswith(MASKED))
    return hashlib.sha256(data).hexdigest()


def result_digest(result) -> str:
    """SHA-256 of a ``reach_state`` (trace, state) or a ``continuous_observe`` (times, rhos) pair."""
    first, second = result
    if isinstance(first, np.ndarray):
        data = first.tobytes() + second.tobytes()
    else:
        summary = (first.final_fidelity, first.iterations, first.occupancy, second.support, second.radius)
        data = (first.to_json_lines() + repr(summary)).encode()
    return hashlib.sha256(data).hexdigest()


def output_digests(out: str, result) -> dict:
    """File name (or ``result``) -> digest of what one operation left in ``out`` and returned."""
    digests = {name: file_digest(os.path.join(out, name)) for name in sorted(os.listdir(out))}
    if result is not None:
        digests["result"] = result_digest(result)
    return digests


def run_op(op, out: str):
    os.makedirs(out)
    return op.call(out)


def artifact_digests(workloads, where: str) -> dict:
    """``workload/seed/op/output`` -> SHA-256 over one round of every workload at every seed."""
    found = {}
    for name in WORKLOADS:
        for seed in SEEDS:
            base = os.path.join(where, f"{name}-{seed}")
            os.makedirs(base)
            built = workloads.WORKLOADS[name](seed, base)
            for op in built.warmup + built.ops:
                out = os.path.join(base, op.name)
                for output, digest in output_digests(out, run_op(op, out)).items():
                    found[f"{name}/{seed}/{op.name}/{output}"] = digest
    return found


def mismatches(want: dict, got: dict) -> list:
    """One line, naming workload, seed, op and output, per output whose digest differs or is on one side only."""
    lines = []
    for key in sorted(set(want) | set(got)):
        if want.get(key) != got.get(key):
            workload, seed, op, output = key.split("/")
            state = "missing" if key not in got else "unexpected" if key not in want else "differs"
            lines.append(f"workload {workload}, seed {seed}, op {op}, file {output}: {state}")
    return lines


@pytest.fixture
def committed():
    with open(DIGESTS) as fh:
        data = json.load(fh)
    if data["versions"] != versions():
        pytest.fail(f"{DIGESTS} holds digests for {data['versions']}, but this is {versions()}; "
                    "regenerate it with scripts/write_artifact_digests.py")
    return data["digests"]


def test_every_artifact_matches_its_committed_digest(committed, digest_script_run):
    done, written = digest_script_run
    assert done.returncode == 0, done.stderr
    with open(written) as fh:
        data = json.load(fh)
    assert data["versions"] == versions()
    bad = mismatches(committed, data["digests"])
    assert not bad, f"{len(bad)} of {len(committed)} outputs differ from {DIGESTS}:\n" + "\n".join(bad)


def test_a_changed_byte_names_its_file(committed, tmp_path, monkeypatch):
    workloads = load_workloads(monkeypatch)
    op = next(op for op in workloads.propagate_plan(1, str(tmp_path)).ops if op.name == "torus-plan-0")
    out = str(tmp_path / op.name)
    result = run_op(op, out)
    prefix = f"propagate-plan/1/{op.name}/"
    want = {key: digest for key, digest in committed.items() if key.startswith(prefix)}

    def got():
        return {prefix + output: digest for output, digest in output_digests(out, result).items()}

    assert sorted(want) == [prefix + "manifest.json", prefix + "plan.json"] and not mismatches(want, got())
    path = os.path.join(out, "plan.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 1
    with open(path, "wb") as fh:
        fh.write(data)
    assert mismatches(want, got()) == ["workload propagate-plan, seed 1, op torus-plan-0, file plan.json: differs"]
