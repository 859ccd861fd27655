"""Deterministic file output: JSON with [re, im] pairs and fixed-format CSV.

All floats are written with 17 significant digits and '\\n' line endings so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np

from .errors import DimensionMismatchError

_str_text = json.encoder.encode_basestring_ascii
_CONSTANTS = {None: "null", True: "true", False: "false"}

# rows per write: a 20,000-row, 3.7 MB measurements.csv took a median 7.1-7.6 ms
# row by row, 4.6-5.0 ms in chunks of 1024, 4.6-5.1 ms of 2048, 4.8-5.3 ms of
# 512 and 7.5-8.1 ms of 4096 (two runs of 60 alternating writes, 2 vCPUs, ext4)
_CHUNK = 1024


def fmt(x: float) -> str:
    """17-significant-digit decimal text, enough to round-trip a double."""
    return "%.17g" % float(x)


def fmt_lines(rows):
    """CSV lines of a 2-d array of floats, every cell as ``fmt`` writes it.

    One format operation per row; the lines end in ``"\\n"``, ready for
    ``write_csv``.  Anything but a 2-d array raises ``DimensionMismatchError``.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise DimensionMismatchError(f"fmt_lines needs a 2-d array of rows, got shape {rows.shape}")
    line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return (line % tuple(row) for row in rows.tolist())


def matrix_from_json(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def vector_from_json(items) -> np.ndarray:
    return np.array([complex(re, im) for re, im in items], dtype=complex)


def _float_text(x: float, memo: dict) -> str:
    """``json``'s text for a float, stored in ``memo`` unless it is a zero (``0.0 == -0.0``)."""
    text = float.__repr__(x) if x - x == 0 else "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    if x:
        memo[x] = text
    return text


def _encode(obj, indent: str, memo: dict) -> str:
    """``obj`` as ``json.dumps(obj, indent=2, sort_keys=True)`` writes it,
    each line after the first prefixed with ``indent``, the indentation of
    the line ``obj`` starts on.

    It dispatches on the exact type: ``str``, ``int``, ``float``, ``bool``,
    ``None``, ``list``, ``tuple`` and ``dict`` with ``str`` keys.  Anything
    else, subclasses included, goes to ``json.dumps``, which encodes it or
    raises as ``json.dump`` would.  Float texts are memoised by value in
    ``memo``, which the caller makes for one file: a Gram matrix holds
    thousands of entries but a few hundred distinct values.
    """
    t = type(obj)
    if t is float:
        text = memo.get(obj)
        return _float_text(obj, memo) if text is None else text
    if t is str:
        return _str_text(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or obj is True or obj is False:
        return _CONSTANTS[obj]
    inner = indent + "  "
    if t is list or t is tuple:
        if not obj:
            return "[]"
        parts = []
        for v in obj:
            if type(v) is float:  # inline: a Gram's floats are its whole cost
                text = memo.get(v)
                parts.append(_float_text(v, memo) if text is None else text)
            elif type(v) is str:  # inline too: a plan's moves
                parts.append(_str_text(v))
            else:
                parts.append(_encode(v, inner, memo))
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + indent + "]"
    if t is dict:
        if not obj:
            return "{}"
        keys = sorted(obj)  # mixed key types raise TypeError here, as in json.dump
        # a first key that is a str means every key is one: no other builtin type orders against str
        if type(keys[0]) is str:
            items = [_str_text(k) + ": " + _encode(obj[k], inner, memo) for k in keys]
            return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _write_chunks(path, chunks):
    """Write an iterable of text chunks to ``path``, created or truncated.

    Raw ``os`` calls in place of a text-mode ``open``, which also runs
    ``fstat``, ``ioctl`` and ``lseek``: the file gets the same mode, and the
    artifact text is ASCII, so the same bytes.  ``os.write`` may write less
    than it is given, so each chunk is written until none of it is left.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        for chunk in chunks:
            data = memoryview(chunk.encode())
            while data:
                data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def _joined(pieces):
    """The pieces of text, joined ``_CHUNK`` at a time."""
    while chunk := list(itertools.islice(pieces, _CHUNK)):
        yield "".join(chunk)


def write_json(path, payload: dict):
    """``json.dump(payload, fh, indent=2, sort_keys=True)`` and a newline, byte for byte."""
    _write_chunks(path, (_encode(payload, "", {}) + "\n",))


def write_trials_json(path, labels, records: dict):
    """``write_json(path, {"trials": [{**records[b], "trial": k} for k, b in enumerate(labels)]})``.

    Many trials share one of a few records, so each record is encoded once,
    indented as ``write_json`` nests it, and cut where its trial number goes;
    the file is then streamed from those pieces.  A record's own keys sit
    six spaces deep, one level shallower than anything nested in it, and an
    encoded string holds no raw newline, so the cut is unambiguous.
    """
    cut = '\n      "trial": '
    memo = {}
    pieces = {}
    for label, record in records.items():
        text = _encode({**record, "trial": 0}, "    ", memo)
        head, _, tail = text.partition(cut + "0")
        pieces[label] = (head + cut, tail)
    seps = ("\n    ", ",\n    ")
    trials = (seps[k > 0] + pieces[b][0] + str(k) + pieces[b][1] for k, b in enumerate(labels))
    end = "\n  ]\n}\n" if len(labels) else "]\n}\n"
    _write_chunks(path, _joined(itertools.chain(('{\n  "trials": [',), trials, (end,))))


def write_csv(path, header, lines):
    """Write text lines, each ending in ``"\\n"`` (``fmt_lines`` makes them from floats), under a header line.

    ``lines`` may be any iterable, a generator included; it is streamed, with
    the header line, in chunks of ``_CHUNK`` lines, each joined and written
    with one call.
    """
    _write_chunks(path, _joined(itertools.chain((",".join(header) + "\n",), lines)))
