"""Matrix interchange format (JSON).

Document shape:

    {"scalar": "exact" | "float", "rows": n, "cols": m,
     "entries": [[[re, im], ...], ...]}

Entries are row-major; re/im are strings.  The exact backend accepts
integers and fractions ("p", "-p/q", q > 0); the float backend accepts
finite decimal literals.  JSON true/false are not numbers here.
Exact parts are read as integers over one common denominator, one match per
part.  ``_json_text`` writes matrix files and :mod:`abba.cli` reports as
``json.dumps(..., indent=k, sort_keys=True)`` does, without its encoder.
"""

from __future__ import annotations

import io
import json
import math
import re
from json.encoder import encode_basestring_ascii as _escape
from pathlib import Path

import numpy as np

from .errors import MatrixFormatError
from .matrix import EXACT, FLOAT, Matrix

# the parts that strip() and ^-?\d+(/0*[1-9]\d*)?$ accept, in one match
_EXACT_RE = re.compile(r"\s*(-?\d+)(?:/0*([1-9]\d*))?\s*")


def _parse_exact_part(s) -> tuple[int, int]:
    """(p, q) with q > 0 as written, not reduced."""
    if type(s) is int:  # JSON true/false are not integers
        return s, 1
    if not isinstance(s, str) or not (match := _EXACT_RE.fullmatch(s)):
        raise MatrixFormatError(f"exact entries must look like 'p' or 'p/q' with q > 0, got {s!r}")
    p, q = match.groups()
    return int(p), int(q or 1)


def _parse_float_part(s) -> float:
    if isinstance(s, bool) or not isinstance(s, (int, float, str)):
        raise MatrixFormatError(f"not a number: {s!r}")
    try:
        x = float(s)
    except (ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x):
        raise MatrixFormatError(f"not a finite decimal literal: {s!r}")
    return x


def parse_matrix(doc: dict) -> Matrix:
    if not isinstance(doc, dict):
        raise MatrixFormatError("matrix document must be a JSON object")
    scalar = doc.get("scalar")
    if scalar not in (EXACT, FLOAT):
        raise MatrixFormatError(f"scalar tag must be 'exact' or 'float', got {scalar!r}")
    rows, cols = doc.get("rows"), doc.get("cols")
    if not (type(rows) is int and type(cols) is int and rows >= 1 and cols >= 1):
        raise MatrixFormatError("rows and cols must be positive integers")
    entries = doc.get("entries")
    if not isinstance(entries, list) or len(entries) != rows:
        raise MatrixFormatError(f"expected {rows} rows of entries")
    parse = _parse_exact_part if scalar == EXACT else _parse_float_part
    parts = []  # re, im, re, im, ... row-major
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i} must have {cols} entries")
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatrixFormatError(f"entry ({i},{j}) must be an [re, im] pair")
            parts.append(parse(pair[0]))
            parts.append(parse(pair[1]))
    if scalar == FLOAT:
        return Matrix(np.array(parts).view(np.complex128).reshape(rows, cols), FLOAT)
    den = math.lcm(*(q for _, q in parts))
    nums = np.array([p * (den // q) for p, q in parts], dtype=object).reshape(rows, cols, 2)
    return Matrix((nums[..., 0], nums[..., 1], den), EXACT)


def _exact_text(p: int, den: int) -> str:
    """str(Fraction(p, den)), from one gcd."""
    g = math.gcd(p, den)
    return str(p // g) if g == den else f"{p // g}/{den // g}"


def dump_matrix(m: Matrix) -> dict:
    if m.backend == EXACT:
        re, im, den = m.numerators
        entries = [[[_exact_text(p, den), _exact_text(q, den)] for p, q in zip(rr, ri)]
                   for rr, ri in zip(re.tolist(), im.tolist())]
    else:
        entries = [[[repr(z.real), repr(z.imag)] for z in row] for row in m.array.tolist()]
    return {"scalar": m.backend, "rows": m.rows, "cols": m.cols, "entries": entries}


def _read_matrix(data: bytes, source) -> Matrix:
    """The matrix in a file's bytes, decoded as Path.read_text does; source names the file."""
    try:
        return parse_matrix(json.loads(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()))
    except MatrixFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, or too many digits
        raise MatrixFormatError(f"{source}: unreadable matrix file ({exc})") from None


def load_matrix(path) -> Matrix:
    return _read_matrix(Path(path).read_bytes(), path)


def _json_text(obj, indent: int, default=None) -> str:
    """json.dumps(obj, indent=indent, sort_keys=True, default=default) of an acyclic
    obj (of JSON types only, if no default), without json's pure-Python indent
    encoder: the same isinstance order, float and NaN spelling, and ASCII escapes."""
    out = []

    def value(o, pad):
        if isinstance(o, str):
            out.append(_escape(o))
        elif o is None:
            out.append("null")
        elif o is True or o is False:
            out.append("true" if o else "false")
        elif isinstance(o, int):
            out.append(int.__repr__(o))
        elif isinstance(o, float):
            text = float.__repr__(o)
            out.append({"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(text, text))
        elif isinstance(o, (list, tuple)):
            inner = pad + " " * indent
            for k, item in enumerate(o):
                out.append(("," if k else "[") + inner)
                value(item, inner)
            out.append(pad + "]" if o else "[]")
        elif isinstance(o, dict):
            inner = pad + " " * indent
            for k, (key, item) in enumerate(sorted(o.items())):
                if not isinstance(key, (str, int, float)) and key is not None:
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {key.__class__.__name__}")
                name = key if isinstance(key, str) else _json_text(key, 0)  # a scalar's text
                out.append(("," if k else "{") + inner + _escape(name) + ": ")
                value(item, inner)
            out.append(pad + "}" if o else "{}")
        else:
            value(default(o), pad)

    value(obj, "\n")
    return "".join(out)


def save_matrix(m: Matrix, path) -> None:
    Path(path).write_text(_json_text(dump_matrix(m), 1) + "\n")
