"""Each script in scripts/ runs to completion with small arguments.

``{tmp}`` in an argument stands for the test's temporary directory, so no
script writes into the checkout.
"""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
SCRIPTS = sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "scripts", "*.py")))
SMALL_ARGS = {
    "run_pmp_twolevel.py": ["--grid", "20"],
    "run_steering_demo.py": ["--trials", "20"],
    "run_torus_demo.py": ["--pairs", "20"],
    "write_artifact_digests.py": ["{tmp}/artifact_digests.json"],
}


def test_every_script_has_small_arguments():
    assert SCRIPTS == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script, tmp_path):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *(a.format(tmp=tmp_path) for a in SMALL_ARGS[script])],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
