import dataclasses
import json
import math
import types
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abba import (DEFAULT_TOLERANCE, FAMILIES, GaussianRational, Matrix, SearchSpec,
                  SimilarityCertificate, TolerancePolicy, catalog, load_matrix, save_matrix)
from abba import cli
from abba.cli import _PARSER, _encode, _policy, main
from abba.generators import random_normal, random_psd
from abba.matio import _json_text
from abba.unitary import TraceWord, WordTraceReport

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def _schema(name):
    return json.loads((SCHEMAS / f"{name}.schema.json").read_text())


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0, out
    doc = json.loads(out)
    jsonschema.validate(doc, _schema(doc["command"]))
    return doc


@pytest.fixture
def fixture_files(tmp_path):
    f4 = next(f for f in catalog() if f.name == "hermitian-normal-4x4")
    a, b = f4.matrices["a"], f4.matrices["b"]
    paths = {}
    for name, m in [("a", a), ("b", b), ("ab", a @ b), ("eye", Matrix.identity(4))]:
        p = tmp_path / f"{name}.json"
        save_matrix(m, p)
        paths[name] = str(p)
    return paths


def test_classify(capsys, fixture_files):
    doc = _run_json(capsys, "classify", fixture_files["a"])
    rep = doc["result"]["class_report"]
    assert rep["hermitian"] and rep["normal"] and rep["ep"] and not rep["psd"]
    assert rep["rank"] == 3


def test_classify_identity_and_nilpotent(capsys, tmp_path):
    eye = tmp_path / "eye.json"
    save_matrix(Matrix.identity(2), eye)
    doc = _run_json(capsys, "classify", str(eye))
    rep = doc["result"]["class_report"]
    assert all(rep[k] for k in ("hermitian", "normal", "psd", "ep", "realpart_psd_same_rank"))
    j2 = tmp_path / "j2.json"
    save_matrix(Matrix.exact([[0, 1], [0, 0]]), j2)
    doc = _run_json(capsys, "classify", str(j2))
    rep = doc["result"]["class_report"]
    assert not any(rep[k] for k in ("hermitian", "normal", "psd", "ep", "realpart_psd_same_rank"))


def test_rankseq(capsys, fixture_files):
    doc = _run_json(capsys, "rankseq", fixture_files["ab"])
    assert doc["result"]["rank_sequence"]["terms"] == [4, 2, 0]


def test_rankseq_rejects_non_square(capsys, tmp_path):
    p = tmp_path / "rect.json"
    save_matrix(Matrix.exact([[1, 2]]), p)
    code, _ = _run(capsys, "rankseq", str(p))
    assert code == 2


def test_decide(capsys, fixture_files):
    doc = _run_json(capsys, "decide", fixture_files["a"], fixture_files["b"])
    verdict = doc["result"]["verdict"]
    assert verdict["similar"] is False
    assert verdict["seq_ab"]["terms"] == [4, 2, 0]
    assert verdict["seq_ba"]["terms"] == [4, 2, 1, 0]


def test_decide_identical_invertible(capsys, fixture_files):
    doc = _run_json(capsys, "decide", fixture_files["eye"], fixture_files["eye"])
    assert doc["result"]["verdict"]["similar"] is True
    assert doc["result"]["verdict"]["reason"] == "rank-sequence-equal"


def test_decide_construct_psd_normal(capsys, tmp_path):
    rng = np.random.default_rng(5)
    a = random_psd(4, rng, rank=3)
    b = random_normal(4, rng, rank=2)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    save_matrix(a, pa)
    save_matrix(b, pb)
    doc = _run_json(capsys, "decide", str(pa), str(pb), "--construct")
    assert doc["result"]["construction"] == "psd-ep-transform"
    cert = doc["result"]["certificate"]
    assert cert is not None and cert["residual"] <= 1e-10


def test_decide_construct_falls_back_to_sampling(capsys, fixture_files, tmp_path):
    f3 = next(f for f in catalog() if f.name == "hermitian-products-3x3")
    a, b = f3.matrices["a"], f3.matrices["b"]
    pa, pb = tmp_path / "ha.json", tmp_path / "hb.json"
    save_matrix(a @ b, pa)
    save_matrix(b @ a, pb)
    # products of the 3x3 pair: decide via rank sequences, certificate via sampling
    doc = _run_json(capsys, "decide", str(pa), str(pb), "--construct")
    assert doc["result"]["verdict"]["similar"] is True


def test_unitary(capsys, fixture_files, tmp_path):
    f3 = next(f for f in catalog() if f.name == "hermitian-products-3x3")
    a, b = f3.matrices["a"], f3.matrices["b"]
    pa, pb = tmp_path / "ab.json", tmp_path / "ba.json"
    save_matrix(a @ b, pa)
    save_matrix(b @ a, pb)
    doc = _run_json(capsys, "unitary", str(pa), str(pb))
    assert doc["result"]["word_screen"]["verdict"] == "distinguished"
    assert doc["result"]["triple_invariant_equal"] is None


def test_unitary_equal_inputs(capsys, fixture_files):
    doc = _run_json(capsys, "unitary", fixture_files["a"], fixture_files["a"])
    assert doc["result"]["word_screen"]["verdict"].startswith("indistinguishable")


def test_unitary_2x2_triple(capsys, tmp_path):
    rng = np.random.default_rng(9)
    a = random_normal(2, rng)
    b = random_normal(2, rng)
    pa, pb = tmp_path / "p.json", tmp_path / "q.json"
    save_matrix(a @ b, pa)
    save_matrix(b @ a, pb)
    doc = _run_json(capsys, "unitary", str(pa), str(pb))
    assert doc["result"]["triple_invariant_equal"] is True


def test_unitary_rejects_nonpositive_word_length(capsys, fixture_files):
    for length in ("0", "-2"):
        code = main(["unitary", fixture_files["a"], fixture_files["b"], "--max-word-len", length])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "max_len must be positive" in captured.err


def test_decide_construct_rejects_nonpositive_attempts(capsys, fixture_files):
    # ab is not PSD, so the construction falls back to sampling
    code = main(["decide", fixture_files["ab"], fixture_files["ab"], "--construct",
                 "--attempts", "0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "attempts must be positive" in captured.err


def test_decide_rejects_nonpositive_attempts_without_sampling(capsys):
    # the PSD x EP construction certifies this pair, so the sampler never runs
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    for construct in (["--construct"], []):
        code = main(["decide", str(inputs / "psd-ep-3-seed5__a.json"),
                     str(inputs / "psd-ep-3-seed5__b.json"), *construct, "--attempts", "0"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "attempts must be positive" in captured.err


def test_search(capsys):
    doc = _run_json(
        capsys, "search", "--family", "normal", "--size", "3", "--trials", "40", "--seed", "7"
    )
    assert doc["result"]["count"] == 0 and doc["result"]["findings"] == []


def test_search_replay_identical_bytes(capsys):
    args = ["search", "--family", "zero-one-normal", "--size", "4", "--rank", "3",
            "--trials", "40", "--seed", "0"]
    code1, out1 = _run(capsys, *args)
    code2, out2 = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_search_rejects_bad_spec(capsys):
    code, _ = _run(capsys, "search", "--family", "normal", "--size", "2", "--rank", "5")
    assert code == 2


def test_catalog_list(capsys):
    doc = _run_json(capsys, "catalog", "list")
    assert len(doc["result"]["fixtures"]) == 5


def test_catalog_show_and_export_round_trip(capsys, tmp_path):
    out_dir = tmp_path / "export"
    doc = _run_json(capsys, "catalog", "show", "hermitian-normal-4x4", "--export", str(out_dir))
    assert all(c["pass"] for c in doc["result"]["claims"])
    exported = doc["result"]["exported"]
    assert len(exported) == 2
    # exported files feed back into decide with the same verdict
    doc2 = _run_json(capsys, "decide", exported[0], exported[1])
    assert doc2["result"]["verdict"]["similar"] is False


def test_catalog_unknown_fixture(capsys):
    code, _ = _run(capsys, "catalog", "show", "missing")
    assert code == 2


def test_catalog_show_requires_name(capsys):
    with pytest.raises(SystemExit):
        main(["catalog", "show"])


def test_missing_file_is_exit_2(capsys):
    code, _ = _run(capsys, "classify", "/nonexistent/matrix.json")
    assert code == 2


def test_malformed_json_is_exit_2(capsys, tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"scalar": "exact"}')
    code, _ = _run(capsys, "classify", str(p))
    assert code == 2


def test_tol_flag_scales_policy(capsys, tmp_path):
    noisy = Matrix.from_float([[1.0, 0.0], [0.0, 1e-6]])
    p = tmp_path / "noisy.json"
    save_matrix(noisy, p)
    doc = _run_json(capsys, "rankseq", str(p))
    assert doc["result"]["rank_sequence"]["terms"] == [2]
    doc_loose = _run_json(capsys, "rankseq", str(p), "--rank-rel-tol", "1e-3")
    assert doc_loose["result"]["rank_sequence"]["terms"] == [2, 1]
    # classify and decide read the same flag
    assert _run_json(capsys, "classify", str(p))["result"]["class_report"]["rank"] == 2
    doc_loose = _run_json(capsys, "classify", str(p), "--rank-rel-tol", "1e-3")
    assert doc_loose["result"]["class_report"]["rank"] == 1
    eye = tmp_path / "eye.json"
    save_matrix(Matrix.from_float(np.eye(2)), eye)
    doc = _run_json(capsys, "decide", str(p), str(eye))
    assert doc["result"]["verdict"]["seq_ab"]["terms"] == [2]
    doc_loose = _run_json(capsys, "decide", str(p), str(eye), "--rank-rel-tol", "1e-3")
    assert doc_loose["result"]["verdict"]["seq_ab"]["terms"] == [2, 1]
    with pytest.raises(SystemExit) as exc:
        main(["rankseq", str(p), "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_policy_takes_each_flag_a_command_has_and_defaults_the_rest():
    def policy(*argv):
        return _policy(_PARSER.parse_args(argv))

    assert policy("classify", "m") == DEFAULT_TOLERANCE
    assert (policy("classify", "m", "--rank-rel-tol", "1e-3", "--residual-tol", "1e-4")
            == TolerancePolicy(rank_rel_tol=1e-3, residual_tol=1e-4))
    assert policy("rankseq", "m", "--rank-rel-tol", "1e-3") == TolerancePolicy(rank_rel_tol=1e-3)
    assert policy("unitary", "a", "b", "--residual-tol", "1e-4") == TolerancePolicy(residual_tol=1e-4)
    assert (policy("decide", "a", "b", "--rank-rel-tol", "1e-3", "--residual-tol", "1e-4",
                   "--max-condition", "10") == TolerancePolicy(1e-3, 1e-4, 10.0))


def test_encoder_rejects_unknown_objects():
    with pytest.raises(TypeError):
        _encode(object())
    with pytest.raises(TypeError):
        json.dumps({"x": {1, 2}}, default=_encode)


@dataclasses.dataclass
class _Record:
    name: object
    value: object


_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=12)
_finite = st.floats(allow_nan=False, allow_infinity=False)
_floats = (st.floats() | st.floats().map(np.float64)
           | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310]))
_texts = (st.text(st.characters(blacklist_categories=()), max_size=6)
          | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é€𝄞", "\ud800", "\u2028"]))
_exact_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.tuples(_fractions, _fractions), min_size=n, max_size=n),
                       min_size=1, max_size=3)).map(Matrix.exact)
_float_matrices = st.integers(1, 3).flatmap(
    lambda n: st.lists(st.lists(st.builds(complex, _finite, _finite), min_size=n, max_size=n),
                       min_size=1, max_size=3)).map(Matrix.from_float)
_gqs = st.builds(GaussianRational, _fractions, _fractions)
_library_values = st.one_of(
    _exact_matrices, _float_matrices, _gqs, st.complex_numbers(),
    st.builds(SimilarityCertificate, t=_exact_matrices | _float_matrices, residual=_floats,
              det=st.none() | _gqs, condition=st.none() | _floats),
    st.builds(WordTraceReport, distinguished=st.booleans(), max_len=st.integers(0, 6),
              word=st.none() | st.sampled_from([TraceWord(("x",)), TraceWord(("x", "x*"))]),
              traces=st.none() | st.tuples(_gqs, st.complex_numbers())),
    st.builds(SearchSpec, family=st.sampled_from(FAMILIES), size=st.integers(1, 5),
              rank=st.none() | st.integers(0, 1), trials=st.integers(1, 9), seed=st.integers()),
)
_leaves = st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80),
                    st.integers(-2**80, -2**64), _floats, _texts, _library_values)
_trees = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_texts, children, max_size=4),
        st.dictionaries(st.integers() | _finite | st.booleans(), children, max_size=4),
        st.dictionaries(st.none() | st.floats(), children, max_size=2),
        st.dictionaries(st.one_of(st.none(), st.integers(), _texts), children, max_size=3),
        st.builds(_Record, children, children),
    ),
    max_leaves=24,
)


def _text_or_error(write, obj):
    try:
        return write(obj)
    except Exception as exc:  # mixed dict keys, or a value _encode rejects
        return type(exc), str(exc)


@given(_trees)
@settings(max_examples=300, deadline=None)
def test_report_writer_equals_json_dumps(tree):
    want = _text_or_error(lambda o: json.dumps(o, indent=2, sort_keys=True, default=_encode), tree)
    assert _text_or_error(lambda o: _json_text(o, 2, _encode), tree) == want


def test_report_writer_rejects_what_encode_rejects(capsys, monkeypatch):
    with pytest.raises(TypeError):
        _json_text({"x": {1, 2}}, 2, _encode)
    monkeypatch.setattr(cli, "catalog", lambda: [types.SimpleNamespace(name="x", description={1})])
    assert main(["catalog", "list"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("abba: internal error: ")


def test_overflowing_float_products_fail_only_the_certificates(capsys, tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"scalar": "float", "rows": 2, "cols": 2,
                               "entries": [[["1e300", "0"], ["1e300", "0"]]] * 2}))
    # the verdict ranks the products of the unit-scale factors; --construct still
    # forms the full-scale products for its certificates, and they overflow
    doc = _run_json(capsys, "decide", str(big), str(big))
    verdict = doc["result"]["verdict"]
    assert verdict["similar"] and verdict["seq_ab"]["terms"] == verdict["seq_ba"]["terms"] == [2, 1]
    assert doc["warnings"] == []
    # a non-normal matrix as large overflows in the products of its witness
    jordan = tmp_path / "jordan.json"
    jordan.write_text(json.dumps({"scalar": "float", "rows": 2, "cols": 2,
                                  "entries": [[["1e300", "0"], ["1e300", "0"]],
                                              [["0", "0"], ["1e300", "0"]]]}))
    for argv in (["decide", big, big, "--construct"], ["classify", jordan]):
        code = main([str(x) for x in argv])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "infinite or NaN" in captured.err
    # the rank sequence, the word screen and the predicates, run at unit scale, never
    # form an overflowing product, and the norms recover from theirs without a warning
    assert _run_json(capsys, "rankseq", str(big))["result"]["rank_sequence"]["terms"] == [2, 1]
    assert _run_json(capsys, "unitary", str(big), str(big))["result"] == {
        "triple_invariant_equal": True,
        "word_screen": {"traces": None, "verdict": "indistinguishable-up-to-length-6", "word": None}}
    doc = _run_json(capsys, "classify", str(big))
    assert doc["result"]["class_report"] == {
        "hermitian": True, "normal": True, "psd": True, "ep": True,
        "realpart_psd_same_rank": True, "rank": 1, "witnesses": {}}
    assert doc["warnings"] == []


def test_exact_classify_ranks_normality_gaps_without_rounding(capsys, tmp_path):
    # the norm gaps of [[x, x], [0, 0]], x = 10^200, are past the float range; the
    # largest is x^6 + 2 x^4 - x^2, at v = e_0 + x^2 e_1
    x = 10**200
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"scalar": "exact", "rows": 2, "cols": 2,
                                "entries": [[[str(x), "0"], [str(x), "0"]], [["0", "0"], ["0", "0"]]]}))
    report = _run_json(capsys, "classify", str(path))["result"]["class_report"]
    assert not report["normal"]
    assert report["witnesses"]["normality_violation"] == {
        "vector": ["1", str(x**2)], "norm_gap_sq": str(x**6 + 2 * x**4 - x**2)}


def test_float_decide_verdict_ignores_scale(capsys, tmp_path):
    # scaling both files by 2^k (ldexp on the real and imaginary parts) is exact; at
    # k = 600 the full-scale products overflow
    inputs = Path(__file__).resolve().parent / "golden" / "inputs"
    pair = [inputs / f"float-hermitian-normal-4-seed15__{x}.json" for x in "ab"]
    want = _run_json(capsys, "decide", *map(str, pair))["result"]
    for k in (-600, -300, 300, 600):
        scaled = []
        for path in pair:
            parts = np.ascontiguousarray(load_matrix(path).array).view(np.float64)
            scaled.append(tmp_path / f"{k}-{path.name}")
            save_matrix(Matrix.from_float(np.ldexp(parts, k).view(np.complex128)), scaled[-1])
        assert _run_json(capsys, "decide", *map(str, scaled))["result"] == want, k


def test_decide_without_construct_forms_no_matrix_product(capsys, monkeypatch):
    # the verdict runs on numerators; only the Sylvester fallback of --construct
    # reads a @ b and b @ a as matrices
    def no_product(self, other):
        raise AssertionError("decide formed a matrix product")

    monkeypatch.setattr(Matrix, "__matmul__", no_product)
    golden = Path(__file__).resolve().parent / "golden"
    monkeypatch.chdir(golden / "inputs")
    for case, argv in (
        ("decide-chain4-pad1-seed13", ["chain4-pad1-seed13__a.json", "chain4-pad1-seed13__b.json"]),
        ("decide-hermitian-normal-4x4-pad1-seed14-swapped",
         ["hermitian-normal-4x4-pad1-seed14__b.json", "hermitian-normal-4x4-pad1-seed14__a.json"]),
    ):
        assert _run(capsys, "decide", *argv) == (0, (golden / "stdout" / f"{case}.out").read_text())


def test_float_range_edge_classify_is_exit_0(capsys, tmp_path):
    # a PSD diagonal at 1.5e308: m + m* overflows at full scale, not at unit scale
    edge = tmp_path / "edge.json"
    edge.write_text(json.dumps({"scalar": "float", "rows": 2, "cols": 2,
                                "entries": [[["1.5e308", "0"], ["0", "0"]],
                                            [["0", "0"], ["1.5e308", "0"]]]}))
    doc = _run_json(capsys, "classify", str(edge))
    report = doc["result"]["class_report"]
    assert report["psd"] and report["ep"] and report["witnesses"] == {}
    assert doc["warnings"] == []


# each flag belongs only to the commands that read it: a tolerance flag to the
# commands with a path that reads its TolerancePolicy field, --seed to the two
# that draw random numbers
FLAGS_WITHOUT_READER = {
    "catalog-list-rank-rel-tol": ["catalog", "list", "--rank-rel-tol", "1e-3"],
    "catalog-list-seed": ["catalog", "list", "--seed", "1"],
    "catalog-list-name": ["catalog", "list", "nilpotent-2x2"],
    "catalog-list-export": ["catalog", "list", "--export", "{out}"],
    "catalog-show-seed": ["catalog", "show", "nilpotent-2x2", "--seed", "1"],
    "catalog-show-max-condition": ["catalog", "show", "nilpotent-2x2", "--max-condition", "10"],
    "search-rank-rel-tol": ["search", "--family", "normal", "--size", "2", "--trials", "1",
                            "--rank-rel-tol", "1e-3"],
    "search-residual-tol": ["search", "--family", "normal", "--size", "2", "--trials", "1",
                            "--residual-tol", "1e-3"],
    "classify-seed": ["classify", "{a}", "--seed", "1"],
    "classify-max-condition": ["classify", "{a}", "--max-condition", "10"],
    "rankseq-seed": ["rankseq", "{a}", "--seed", "1"],
    "rankseq-residual-tol": ["rankseq", "{a}", "--residual-tol", "1e-3"],
    "rankseq-max-condition": ["rankseq", "{a}", "--max-condition", "10"],
    "unitary-seed": ["unitary", "{ab}", "{ab}", "--seed", "1"],
    "unitary-rank-rel-tol": ["unitary", "{ab}", "{ab}", "--rank-rel-tol", "1e-3"],
    "unitary-max-condition": ["unitary", "{ab}", "{ab}", "--max-condition", "10"],
}


@pytest.mark.parametrize("case", sorted(FLAGS_WITHOUT_READER))
def test_flag_without_reader_is_exit_2(capsys, fixture_files, tmp_path, case):
    argv = [x.format(out=tmp_path / "out", **fixture_files) for x in FLAGS_WITHOUT_READER[case]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()

