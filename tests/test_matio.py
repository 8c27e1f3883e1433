import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from abba import Matrix, MatrixFormatError, dump_matrix, load_matrix, parse_matrix, save_matrix
from abba.cli import main


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
