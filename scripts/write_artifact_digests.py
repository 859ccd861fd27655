#!/usr/bin/env python3
"""Write the artifact digests that tests/test_artifact_digests.py checks.

    PYTHONPATH=src python scripts/write_artifact_digests.py tests/data/artifact_digests.json

Runs one round of each benchmark workload at seeds 1-3 in a temporary
directory and writes, as JSON to the given path, the SHA-256 of every output
together with the Python and NumPy versions.  Commit a new file only with a
change that alters artifact bytes on purpose, and list each changed output.
"""

import argparse
import json
import os
import sys
import tempfile

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "tests"))

from test_artifact_digests import artifact_digests, versions  # noqa: E402
from test_workload_seeds import load_workloads  # noqa: E402


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out", help="path of the JSON file to write")
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as where, pytest.MonkeyPatch.context() as mp:
        digests = artifact_digests(load_workloads(mp), where)
    with open(args.out, "w") as fh:
        json.dump({"versions": versions(), "digests": digests}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(digests)} digests for {versions()} written to {args.out}")


if __name__ == "__main__":
    main()
