"""Deterministic file output: JSON with [re, im] pairs and fixed-format CSV.

All floats are written with 17 significant digits and '\\n' line endings so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import json

import numpy as np


def fmt(x: float) -> str:
    """17-significant-digit decimal text, enough to round-trip a double."""
    return "%.17g" % float(x)


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def vector_from_json(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items], dtype=complex)


def write_json(path, payload: dict):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows):
    """Write rows of floats (or pre-formatted strings) under a header line."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(c if isinstance(c, str) else fmt(c) for c in row) + "\n")
