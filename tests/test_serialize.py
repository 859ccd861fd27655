"""Artifact writers against literal expected bytes.

The trial oracles of ``test_cli`` build their expected files with these same
writers, so they cannot see a change in the writers themselves; these tests
pin the bytes.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import qphase.cli
import qphase.serialize
from qphase.errors import DimensionMismatchError
from qphase.serialize import fmt, fmt_lines, write_csv, write_json, write_trials_json

HEADER = ["trial", "value", "tail"]


def cells(row) -> str:
    """The CSV line of one row, cell by cell: strings as they are, numbers through ``fmt``."""
    return ",".join(c if isinstance(c, str) else fmt(c) for c in row) + "\n"


def csv_text(tmp_path, header, lines):
    write_csv(tmp_path / "out.csv", header, lines)
    return (tmp_path / "out.csv").read_bytes()


def test_csv_formats_ints_floats_and_strings(tmp_path):
    rows = [
        [0, 0.1, "x,y"],
        [7, 1 / 3, "pre-formatted"],
        [12345678901234567, 2 / 3, ""],
        [np.int64(3), np.float64(-2.5), "-0"],
        [-0.0, 5e-324, "inf"],
        [float("inf"), 9007199254740993, "1e-300"],
    ]
    assert csv_text(tmp_path, HEADER, map(cells, rows)) == (
        b"trial,value,tail\n"
        b"0,0.10000000000000001,x,y\n"
        b"7,0.33333333333333331,pre-formatted\n"
        b"12345678901234568,0.66666666666666663,\n"
        b"3,-2.5,-0\n"
        b"-0,4.9406564584124654e-324,inf\n"
        b"inf,9007199254740992,1e-300\n"
    )


def test_preformatted_lines_are_written_as_they_are(tmp_path):
    write_csv(tmp_path / "out.csv", ["a", "b"], (f"{k},x\n" for k in range(3)))
    assert (tmp_path / "out.csv").read_bytes() == b"a,b\n0,x\n1,x\n2,x\n"


def test_fmt_lines_match_the_cell_by_cell_rows(tmp_path):
    rows = np.array([[0.1, 1 / 3, -0.0], [5e-324, np.inf, -2.5], [9007199254740993, np.nan, 1e-300]])
    write_csv(tmp_path / "lines.csv", HEADER, fmt_lines(rows))
    assert (tmp_path / "lines.csv").read_bytes() == csv_text(tmp_path, HEADER, map(cells, rows))


@pytest.mark.parametrize("rows", [[], [1.0, 2.0], np.zeros((2, 2, 2))])
def test_fmt_lines_rejects_anything_but_rows(rows):
    with pytest.raises(DimensionMismatchError):
        fmt_lines(rows)


def test_csv_with_no_rows_is_the_header_line(tmp_path):
    assert csv_text(tmp_path, HEADER, []) == b"trial,value,tail\n"
    assert csv_text(tmp_path, HEADER, iter(())) == b"trial,value,tail\n"
    assert csv_text(tmp_path, HEADER, fmt_lines(np.zeros((0, 3)))) == b"trial,value,tail\n"


def test_csv_streams_a_generator_of_rows(tmp_path):
    tails = {0: "a,0.5", 1: "b,0.25"}
    lines = (cells([k, tails[k % 2]]) for k in range(4))
    assert csv_text(tmp_path, ["k", "label", "p"], lines) == b"k,label,p\n0,a,0.5\n1,b,0.25\n2,a,0.5\n3,b,0.25\n"


def per_line_csv(path, header, lines):
    """The writer with one ``write`` per line, as an oracle for the chunked one."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for line in lines:
            fh.write(line)


CHUNK = qphase.serialize._CHUNK


@pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("source", ["cells", "preformatted"])
@pytest.mark.parametrize("as_list", [True, False], ids=["list", "generator"])
def test_chunked_csv_matches_a_per_line_writer(tmp_path, n, source, as_list):
    """Lines of float cells from ``fmt_lines`` against the cell-by-cell oracle, and lines made by hand."""
    if source == "cells":
        header = ["k", "x", "y"]
        rows = np.array([[k, k / 7, -0.0 if k % 5 else np.inf] for k in range(n)]).reshape(n, 3)
        want_lines, lines = map(cells, rows), fmt_lines(rows)
    else:
        header = ["k", "x", "s", "y"]
        want_lines = [",".join(map(str, [k, k / 7, f"s{k % 3}", -0.0 if k % 5 else np.inf])) + "\n" for k in range(n)]
        lines = iter(want_lines)
    want = tmp_path / "want.csv"
    per_line_csv(want, header, want_lines)
    got = tmp_path / "got.csv"
    write_csv(got, header, list(lines) if as_list else lines)
    assert got.read_bytes() == want.read_bytes()
    assert len(got.read_bytes().splitlines()) == n + 1


def test_json_is_sorted_two_space_indented_with_a_final_newline(tmp_path):
    write_json(tmp_path / "out.json", {"b": [1, 0.1], "a": {"y": None, "x": "s"}})
    assert (tmp_path / "out.json").read_bytes() == (
        b'{\n  "a": {\n    "x": "s",\n    "y": null\n  },\n  "b": [\n    1,\n    0.1\n  ]\n}\n'
    )


def test_trials_json_literal(tmp_path):
    records = {5: {"final_fidelity": 0.5, "steps": []}, 2: {"final_fidelity": 1.0, "steps": [{"a": 1}]}}
    write_trials_json(tmp_path / "out.json", [2, 5], records)
    assert (tmp_path / "out.json").read_bytes() == (
        b'{\n  "trials": [\n'
        b'    {\n      "final_fidelity": 1.0,\n      "steps": [\n        {\n          "a": 1\n        }\n      ],\n'
        b'      "trial": 0\n    },\n'
        b'    {\n      "final_fidelity": 0.5,\n      "steps": [],\n      "trial": 1\n    }\n'
        b"  ]\n}\n"
    )


RECORDS = {
    # keys on both sides of "trial", and "trial" nested inside a record
    "a": {"zeta": [1, 2], "alpha": {"trial": 0, "text": "line\n  \"trial\": 0"}, "steps": []},
    "b": {"final_fidelity": 0.99999999999999989, "steps": [{"action": "x", "detail": {"trial": 9}}]},
    "c": {},
}


@pytest.mark.parametrize("labels", [[], ["c"], ["a"] * 3, ["b", "a", "c", "a", "b", "b"]])
def test_trials_json_equals_write_json_of_the_whole_list(tmp_path, labels):
    write_trials_json(tmp_path / "fragments.json", labels, RECORDS)
    write_json(tmp_path / "whole.json", {"trials": [{**RECORDS[b], "trial": k} for k, b in enumerate(labels)]})
    assert (tmp_path / "fragments.json").read_bytes() == (tmp_path / "whole.json").read_bytes()


def test_json_bytes_equal_json_dump_on_cli_payloads(tmp_path, monkeypatch):
    """``write_json`` writes ``json.dump``'s indent-2 text plus a newline on
    real payloads: a u(8) closure, a plan, stabilizer trials and manifests."""

    def cv(v):
        return [[complex(z).real, complex(z).imag] for z in v]

    rng = np.random.default_rng(8)
    herm = [(m + m.conj().T) / 2 for m in rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))]
    scenarios = {
        "closure": {"system": {"drift": [cv(row) for row in herm[0]], "controls": [[cv(row) for row in herm[1]]]}},
        "torus-plan": {"torus_start": [-7, 12], "torus_target": [4, -9]},
        "stabilize": {"initial_state": cv([0.6, 0.0, 0.8]), "disturbance": 0.2, "n_periods": 10, "seed": 3},
    }
    payloads = []
    monkeypatch.setattr(qphase.cli, "write_json", lambda path, payload: payloads.append((os.path.basename(path), payload)))
    for command, scenario in scenarios.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(scenario))
        assert qphase.cli.run([command, "--scenario", str(path), "--out", str(tmp_path / command), "--trials", "4"]) == 0
    assert sorted(name for name, _ in payloads) == [
        "closure.json", "manifest.json", "manifest.json", "manifest.json", "plan.json", "stabilize.json"]
    for name, payload in payloads:
        write_json(tmp_path / "encoded.json", payload)
        with open(tmp_path / "dumped.json", "w", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        assert (tmp_path / "encoded.json").read_bytes() == (tmp_path / "dumped.json").read_bytes(), name


class Count(int):
    """An int subclass leaf, which ``json`` writes with ``int.__repr__``."""


ROUNDOFF = [2.7755575615628914e-17, -1.1102230246251565e-16, 0.0, -0.0, 1.0, 0.1]
KEYS = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "☃", "\U0001f600"]))
LEAVES = st.one_of(
    st.floats(),  # NaN, +-inf and subnormals included
    st.sampled_from(ROUNDOFF + [5e-324, 2.2250738585072014e-308, 1e16, -1e16, float("nan"), float("inf"), float("-inf")]),
    st.integers(),
    st.sampled_from([10**30, -(10**30), 2**63, -(2**63) - 1]),
    st.booleans(),
    st.none(),
    KEYS,
    st.floats().map(np.float64),
    st.integers().map(Count),
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        st.dictionaries(st.integers(), children, max_size=3),  # non-str keys go to json, which converts them
    ),
    max_leaves=20,
)


def dumped_bytes(path, payload):
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path.read_bytes()


# every example overwrites the same two files, so one tmp_path serves them all
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(payload=st.dictionaries(KEYS, TREES, max_size=6))
@example(payload={"gram": [[0.0, -0.0, 2.7755575615628914e-17], [2.7755575615628914e-17, -0.0, 0.0]], "e": [], "f": {}})
@example(payload={"moves": ["U2^-1", "U1", '"', "\\", "\n", "\u2603", "\U0001f600"], "k": [["U3"], ("U3",)]})
def test_json_bytes_equal_json_dump(tmp_path, payload):
    """The typed encoder and its float memo write ``json.dump``'s bytes:
    signed zeros side by side, repeated round-off, non-finite floats,
    escapes, big ints, subclasses and non-str keys."""
    write_json(tmp_path / "encoded.json", payload)
    assert (tmp_path / "encoded.json").read_bytes() == dumped_bytes(tmp_path / "dumped.json", payload)


@pytest.mark.parametrize("leaf", [{1, 2}, 1 + 2j, np.int64(3)], ids=["set", "complex", "int64"])
def test_json_rejects_what_json_dump_rejects(tmp_path, leaf):
    payload = {"a": 1.5, "z": [0.1, {"x": leaf}]}
    with pytest.raises(TypeError):
        dumped_bytes(tmp_path / "dumped.json", payload)
    with pytest.raises(TypeError):
        write_json(tmp_path / "encoded.json", payload)
    assert not (tmp_path / "encoded.json").exists()


def test_trials_json_with_a_rejected_record_leaves_no_file(tmp_path):
    with pytest.raises(TypeError):
        write_trials_json(tmp_path / "trials.json", ["a", "b"], {"a": {"x": 1}, "b": {"x": {1, 2}}})
    assert not (tmp_path / "trials.json").exists()


WRITERS = {
    "json": (lambda path: write_json(path, {"b": [1, 0.1, None], "a": {"s": "té"}}),
             json.dumps({"b": [1, 0.1, None], "a": {"s": "té"}}, indent=2, sort_keys=True) + "\n"),
    "trials": (lambda path: write_trials_json(path, [0, 1, 0], {0: {"f": 0.5}, 1: {"f": 1.0}}),
               json.dumps({"trials": [{"f": 0.5, "trial": 0}, {"f": 1.0, "trial": 1}, {"f": 0.5, "trial": 2}]},
                          indent=2, sort_keys=True) + "\n"),
    "csv": (lambda path: write_csv(path, ["k", "x"], fmt_lines([[k, k / 3] for k in range(2 * CHUNK + 5)])),
            "k,x\n" + "".join(f"{k},{k / 3:.17g}\n" for k in range(2 * CHUNK + 5))),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_raw_writes_match_a_text_mode_file(tmp_path, writer):
    """The writers' ``os.open``/``os.write`` path leaves the bytes and the
    mode that a text-mode ``open`` leaves, and truncates an existing file."""
    write, text = WRITERS[writer]
    with open(tmp_path / "text-mode", "w", newline="\n") as fh:
        fh.write(text)
    write(tmp_path / "fresh")
    (tmp_path / "longer").write_bytes(b"x" * (len(text) + 100))
    write(tmp_path / "longer")
    want = (tmp_path / "text-mode").read_bytes()
    for name in ("fresh", "longer"):
        assert (tmp_path / name).read_bytes() == want
        assert os.stat(tmp_path / name).st_mode == os.stat(tmp_path / "text-mode").st_mode


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_short_writes_are_continued(tmp_path, monkeypatch, writer):
    """``os.write`` may write less than it is given: one byte per call still writes the whole file."""
    write, text = WRITERS[writer]
    real, calls = os.write, []

    def one_byte(fd, data):
        calls.append(fd)
        return real(fd, data[:1])

    monkeypatch.setattr(os, "write", one_byte)
    write(tmp_path / "out")
    monkeypatch.undo()
    assert (tmp_path / "out").read_bytes() == text.encode()
    assert len(calls) == len(text.encode())
