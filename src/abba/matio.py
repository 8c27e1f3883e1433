"""Matrix interchange format (JSON).

Document shape:

    {"scalar": "exact" | "float", "rows": n, "cols": m,
     "entries": [[[re, im], ...], ...]}

Entries are row-major; re/im are strings.  The exact backend accepts
integers and fractions ("p", "-p/q", q > 0); the float backend accepts
finite decimal literals.  JSON true/false are not numbers here.
Exact parts are read as integers over one common denominator.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from pathlib import Path

from .errors import MatrixFormatError
from .matrix import EXACT, FLOAT, Matrix

_EXACT_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def _parse_exact_part(s) -> tuple[int, int]:
    """(p, q) with q > 0 as written, not reduced."""
    if type(s) is int:  # JSON true/false are not integers
        return s, 1
    if not isinstance(s, str) or not _EXACT_RE.match(s.strip()):
        raise MatrixFormatError(f"exact entries must look like 'p' or 'p/q' with q > 0, got {s!r}")
    p, _, q = s.strip().partition("/")
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
    grid = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i} must have {cols} entries")
        out_row = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatrixFormatError(f"entry ({i},{j}) must be an [re, im] pair")
            re_part, im_part = pair
            if scalar == EXACT:
                out_row.append((_parse_exact_part(re_part), _parse_exact_part(im_part)))
            else:
                out_row.append(complex(_parse_float_part(re_part), _parse_float_part(im_part)))
        grid.append(out_row)
    if scalar == FLOAT:
        return Matrix.from_float(grid)
    den = math.lcm(*(q for row in grid for entry in row for _, q in entry))
    re_num = [[p * (den // q) for (p, q), _ in row] for row in grid]
    im_num = [[p * (den // q) for _, (p, q) in row] for row in grid]
    return Matrix.from_ints(re_num, im_num, den)


def dump_matrix(m: Matrix) -> dict:
    if m.backend == EXACT:
        re, im, den = m.numerators
        entries = [[[str(Fraction(p, den)), str(Fraction(q, den))] for p, q in zip(rr, ri)]
                   for rr, ri in zip(re.tolist(), im.tolist())]
    else:
        entries = [[[repr(z.real), repr(z.imag)] for z in row] for row in m.array.tolist()]
    return {"scalar": m.backend, "rows": m.rows, "cols": m.cols, "entries": entries}


def load_matrix(path) -> Matrix:
    try:
        return parse_matrix(json.loads(Path(path).read_text()))
    except MatrixFormatError:
        raise
    except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON, too deep, or too many digits
        raise MatrixFormatError(f"{path}: unreadable matrix file ({exc})") from None


def save_matrix(m: Matrix, path) -> None:
    Path(path).write_text(json.dumps(dump_matrix(m), indent=1, sort_keys=True) + "\n")
