import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abba import Matrix, MatrixFormatError, dump_matrix, load_matrix, parse_matrix, save_matrix
from abba.cli import main
from abba.matio import _parse_exact_part, _parse_float_part


def test_exact_round_trip(tmp_path):
    m = Matrix.exact([[("1/2", "-3"), 0], [5, ("0", "7/9")]])
    path = tmp_path / "m.json"
    save_matrix(m, path)
    assert load_matrix(path) == m
    doc = json.loads(path.read_text())
    assert doc["scalar"] == "exact"
    assert doc["entries"][0][0] == ["1/2", "-3"]


def test_dump_writes_each_part_as_its_value_reads():
    """Exact parts print as reduced fractions, float parts as repr of Python floats."""
    exact = Matrix.exact([[("6/4", "-3"), 0], [(0, "-2/6"), ("7/9", 1)]])
    doc = dump_matrix(exact)
    assert doc["entries"] == [[[str(exact[i, j].re), str(exact[i, j].im)] for j in range(2)]
                              for i in range(2)]
    assert doc["entries"][0][0] == ["3/2", "-3"]
    f = Matrix.from_float([[-0.0, 1e-300 - 2.5j], [0.1 + 0.2, 3e300j]])
    assert dump_matrix(f)["entries"] == [[[repr(float(f[i, j].real)), repr(float(f[i, j].imag))]
                                          for j in range(2)] for i in range(2)]
    assert dump_matrix(f)["entries"][0][0] == ["-0.0", "0.0"]


def test_float_round_trip(tmp_path):
    m = Matrix.from_float([[1.5, -2.25e-3], [0.0, 3.0 + 4.0j]])
    path = tmp_path / "f.json"
    save_matrix(m, path)
    assert load_matrix(path) == m


def test_parse_accepts_plain_integers():
    doc = {"scalar": "exact", "rows": 1, "cols": 1, "entries": [[[3, 0]]]}
    assert parse_matrix(doc) == Matrix.exact([[3]])


def test_parse_rejects_decimals_in_exact():
    doc = {"scalar": "exact", "rows": 1, "cols": 1, "entries": [[["1.5", "0"]]]}
    with pytest.raises(MatrixFormatError):
        parse_matrix(doc)


def test_parse_rejects_bad_scalar_tag():
    with pytest.raises(MatrixFormatError):
        parse_matrix({"scalar": "decimal", "rows": 1, "cols": 1, "entries": [[["1", "0"]]]})


def test_parse_rejects_bad_shapes():
    with pytest.raises(MatrixFormatError):
        parse_matrix({"scalar": "exact", "rows": 2, "cols": 1, "entries": [[["1", "0"]]]})
    with pytest.raises(MatrixFormatError):
        parse_matrix({"scalar": "exact", "rows": 1, "cols": 2, "entries": [[["1", "0"]]]})
    with pytest.raises(MatrixFormatError):
        parse_matrix({"scalar": "exact", "rows": 0, "cols": 1, "entries": []})
    with pytest.raises(MatrixFormatError):
        parse_matrix({"scalar": "exact", "rows": 1, "cols": 1, "entries": [[["1"]]]})


def test_parse_rejects_non_numeric_float():
    doc = {"scalar": "float", "rows": 1, "cols": 1, "entries": [[["abc", "0"]]]}
    with pytest.raises(MatrixFormatError):
        parse_matrix(doc)


def _one_entry(scalar, re_part, rows="1"):
    return f'{{"scalar": "{scalar}", "rows": {rows}, "cols": 1, "entries": [[[{re_part}, "0"]]]}}'


MALFORMED = {
    "zero-denominator": _one_entry("exact", '"1/0"'),
    "zero-denominator-00": _one_entry("exact", '"1/00"'),
    "json-true-entry": _one_entry("exact", "true"),
    "json-true-rows": _one_entry("exact", '"1"', rows="true"),
    "float-nan-string": _one_entry("float", '"nan"'),
    "float-inf-string": _one_entry("float", '"inf"'),
    "float-json-nan": _one_entry("float", "NaN"),
    "float-int-overflow": _one_entry("float", "1" + "0" * 400),
    "json-nested-past-recursion-limit": "[" * 200000,
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_format_error_and_exit_2(case, tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(MALFORMED[case])
    with pytest.raises(MatrixFormatError):
        load_matrix(path)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("abba: error: ")


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "1" * (_DIGIT_LIMIT + 1)


@pytest.mark.skipif(_DIGIT_LIMIT == 0, reason="this Python has no int-string digit limit")
@pytest.mark.parametrize("part", [_LONG, f'"{_LONG}"'], ids=["json-integer", "exact-string"])
def test_number_past_digit_limit_is_format_error_naming_the_file(part, tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(_one_entry("exact", part))
    with pytest.raises(MatrixFormatError, match="long.json"):
        load_matrix(path)
    assert main(["classify", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"abba: error: {path}: ")


def test_parse_accepts_padded_denominator():
    doc = {"scalar": "exact", "rows": 1, "cols": 1, "entries": [[["3/010", "-1/2"]]]}
    assert parse_matrix(doc) == Matrix.exact([[("3/10", "-1/2")]])
    # k*p/k*q parts, zero-padded and mixed denominators, JSON integers
    doc = {"scalar": "exact", "rows": 2, "cols": 3, "entries": [
        [["3/6", "-4/8"], [6, "0/7"], ["-10/0015", -2]],
        [["0", "9/003"], ["21/049", "5/0025"], ["-0/1", "12/36"]],
    ]}
    expected = Matrix.exact([
        [("1/2", "-1/2"), 6, ("-2/3", -2)],
        [(0, 3), ("3/7", "1/5"), (0, "1/3")],
    ])
    assert parse_matrix(doc) == expected
    whole = {"scalar": "exact", "rows": 1, "cols": 2, "entries": [[["4/2", "0/9"], [-3, "6/3"]]]}
    assert parse_matrix(whole) == Matrix.exact([[2, (-3, 2)]])


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(MatrixFormatError):
        load_matrix(path)


small_fractions = st.fractions(max_denominator=30).map(str)


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=40)
def test_exact_round_trip_property(rows, cols, data):
    grid = [
        [
            (data.draw(small_fractions), data.draw(small_fractions))
            for _ in range(cols)
        ]
        for _ in range(rows)
    ]
    m = Matrix.exact(grid)
    assert parse_matrix(dump_matrix(m)) == m
    # the same values written unreduced over zero-padded denominators
    k = data.draw(st.integers(min_value=1, max_value=12))
    pad = "0" * data.draw(st.integers(min_value=0, max_value=2))

    def unreduced(part):
        q = Fraction(part)
        return f"{k * q.numerator}/{pad}{k * q.denominator}"

    doc = dump_matrix(m)
    doc["entries"] = [[[unreduced(x) for x in pair] for pair in row] for row in doc["entries"]]
    assert parse_matrix(doc) == m


@given(rows=st.integers(min_value=1, max_value=4), cols=st.integers(min_value=1, max_value=4),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_saved_bytes_equal_json_dumps(tmp_path_factory, rows, cols, data):
    fractions = st.fractions(max_denominator=40).map(str)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    if data.draw(st.booleans()):
        m = Matrix.exact([[(data.draw(fractions), data.draw(fractions)) for _ in range(cols)]
                          for _ in range(rows)])
    else:
        m = Matrix.from_float([[complex(data.draw(finite), data.draw(finite)) for _ in range(cols)]
                               for _ in range(rows)])
    path = tmp_path_factory.mktemp("save") / "m.json"
    save_matrix(m, path)
    assert path.read_bytes() == (json.dumps(dump_matrix(m), indent=1, sort_keys=True) + "\n").encode()


# the part rule of the earlier parser, kept as the reference for the one-match parser
_REFERENCE_EXACT_RE = re.compile(r"^-?\d+(/0*[1-9]\d*)?$")


def _reference_exact_part(s):
    if type(s) is int:
        return s, 1
    if not isinstance(s, str) or not _REFERENCE_EXACT_RE.match(s.strip()):
        raise MatrixFormatError(f"exact entries must look like 'p' or 'p/q' with q > 0, got {s!r}")
    p, _, q = s.strip().partition("/")
    return int(p), int(q or 1)


def _reference_parse(doc):
    """The entry loop of the earlier parse_matrix: a grid of parsed parts, or its first error."""
    rows, cols, scalar = doc["rows"], doc["cols"], doc["scalar"]
    if not isinstance(doc["entries"], list) or len(doc["entries"]) != rows:
        raise MatrixFormatError(f"expected {rows} rows of entries")
    grid = []
    for i, row in enumerate(doc["entries"]):
        if not isinstance(row, list) or len(row) != cols:
            raise MatrixFormatError(f"row {i} must have {cols} entries")
        out_row = []
        for j, pair in enumerate(row):
            if not isinstance(pair, list) or len(pair) != 2:
                raise MatrixFormatError(f"entry ({i},{j}) must be an [re, im] pair")
            re_part, im_part = pair
            if scalar == "exact":
                out_row.append(tuple(Fraction(*_reference_exact_part(x)) for x in (re_part, im_part)))
            else:
                out_row.append(complex(_parse_float_part(re_part), _parse_float_part(im_part)))
        grid.append(out_row)
    return Matrix.exact(grid) if scalar == "exact" else Matrix.from_float(grid)


_DIGITS = "0123456789" + "٠١٢٣٤٥٦٧٨٩" + "０１２３４５６７８９"
_PART_ALPHABET = _DIGITS + "-+/_.e \xa0\n"


def _outcome(fn, *args):
    try:
        return fn(*args)
    except MatrixFormatError as exc:
        return "error", str(exc)


@given(st.text(st.sampled_from(_PART_ALPHABET), max_size=10)
       | st.from_regex(r"\s?-?[0-9٠-٩０-９]{1,3}(/0*[1-9٠-٩０-９][0-9٠-٩０-９]?)?\s?", fullmatch=True))
@settings(max_examples=500, deadline=None)
def test_exact_part_rule_equals_the_reference(part):
    assert _outcome(_parse_exact_part, part) == _outcome(_reference_exact_part, part)


def _mostly(usual, odd):
    """usual in 7 draws of 8, else odd."""
    return st.integers(0, 7).flatmap(lambda k: usual if k else odd)


_good_parts = st.sampled_from(["1", "-2/4", " 3 ", "0/07", 5, "٣/٤", "1e3"])
_bad_parts = st.sampled_from(["1/0", "x", True, None, 1.5, "+1", "1.0", ["1"]])
_pairs = _mostly(st.lists(_mostly(_good_parts, _bad_parts), min_size=2, max_size=2),
                 st.lists(_good_parts, max_size=3) | st.sampled_from(["1", None, {}]))


def _rows(cols):
    return _mostly(st.lists(_pairs, min_size=cols, max_size=cols),
                   st.lists(_pairs, max_size=4) | st.sampled_from([None, "row"]))


@given(st.integers(1, 3), st.integers(1, 3), st.sampled_from(["exact", "float"]), st.data())
@settings(max_examples=400, deadline=None)
def test_first_format_error_equals_the_reference(rows, cols, scalar, data):
    # row-shape, entry-shape and part errors mixed; the first one found is reported
    count = rows if data.draw(st.integers(0, 5)) else data.draw(st.integers(0, 4))
    entries = [data.draw(_rows(cols)) for _ in range(count)]
    doc = {"scalar": scalar, "rows": rows, "cols": cols, "entries": entries}
    assert _outcome(parse_matrix, doc) == _outcome(_reference_parse, doc)


def test_dump_equals_the_fraction_form():
    rng = np.random.default_rng(20)
    for k in range(500):
        shape = tuple(rng.integers(1, 4, size=2))
        re, im = (rng.integers(-40, 41, size=shape) * rng.integers(0, 2, size=shape) for _ in "ri")
        den = 1 if k % 5 == 0 else int(rng.integers(1, 60))
        m = Matrix.from_ints(re, im, den)
        if k % 7 == 0:
            m = Matrix.zeros(*shape)
        mr, mi, mden = m.numerators
        want = [[[str(Fraction(p, mden)), str(Fraction(q, mden))] for p, q in zip(rr, ri)]
                for rr, ri in zip(mr.tolist(), mi.tolist())]
        assert dump_matrix(m)["entries"] == want


def test_cli_reads_every_input_before_parsing_any(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["decide", str(bad), str(tmp_path / "missing.json")]) == 2
    assert "missing.json" in capsys.readouterr().err


def test_non_utf8_file_is_unreadable(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(_one_entry("exact", '"1"').replace("1", "\xe9", 1).encode("latin-1"))
    with pytest.raises(MatrixFormatError, match="unreadable matrix file"):
        load_matrix(path)
    assert main(["classify", str(path)]) == 2
    assert "unreadable matrix file" in capsys.readouterr().err


def test_crlf_file_reads_as_read_text_does(tmp_path):
    path = tmp_path / "crlf.json"
    path.write_bytes(b'{"scalar": "exact",\r\n "rows": 1, "cols": 1,\r "entries": [[["1", "0"]]] x}')
    with pytest.raises(MatrixFormatError) as exc:
        load_matrix(path)
    with pytest.raises(ValueError) as want:
        json.loads(path.read_text())
    assert str(exc.value) == f"{path}: unreadable matrix file ({want.value})"


@pytest.mark.parametrize("argv", [["classify", "a"], ["rankseq", "a"], ["decide", "a", "b"],
                                  ["decide", "a", "a", "--construct"], ["unitary", "a", "b"]])
def test_cli_reads_each_input_once(argv, tmp_path, monkeypatch, capsys):
    for name, m in (("a", Matrix.exact([[1, 2], [0, 1]])), ("b", Matrix.exact([[0, 1], [1, 0]]))):
        save_matrix(m, tmp_path / name)
    reads = []
    read_bytes = Path.read_bytes

    def counting(self):
        reads.append(self.name)
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", counting)
    monkeypatch.setattr(Path, "read_text", lambda self, *a, **k: pytest.fail("read_text"))
    assert main([argv[0], *(str(tmp_path / x) if x in "ab" else x for x in argv[1:])]) == 0
    assert sorted(reads) == sorted(set(x for x in argv[1:] if x in ("a", "b")))
    capsys.readouterr()
