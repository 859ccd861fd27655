"""Each script in scripts/ runs to completion with small arguments.

A script whose run another test needs too reads a session fixture in
``SHARED``, so the session runs it once.
"""

import glob
import os

import pytest

from conftest import ROOT, run_script

SCRIPTS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "scripts", "*.py")))
SMALL_ARGS = {
    "run_pmp_twolevel.py": ["--grid", "20"],
    "run_steering_demo.py": ["--trials", "20"],
    "run_torus_demo.py": ["--pairs", "20"],
}
# script -> the session fixture that runs it: the digests take one round of every
# workload at three seeds, and test_artifact_digests.py checks what it writes
SHARED = {"write_artifact_digests.py": "digest_script_run"}


def test_every_script_has_small_arguments():
    assert SCRIPTS == sorted([*SMALL_ARGS, *SHARED])


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, request):
    if script in SHARED:
        done, _ = request.getfixturevalue(SHARED[script])
    else:
        done = run_script(script, SMALL_ARGS[script])
    assert done.returncode == 0, done.stderr
    assert done.stdout
