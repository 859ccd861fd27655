"""Each demo script in scripts/ runs to completion with small arguments."""

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
}


def test_every_script_has_small_arguments():
    assert SCRIPTS == sorted(SMALL_ARGS)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_runs(script):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *SMALL_ARGS[script]],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout
