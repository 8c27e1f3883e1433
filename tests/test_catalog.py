import json

import pytest

from abba import (
    SearchSpec,
    admissible_sequence_pairs,
    catalog,
    get_fixture,
    minimal_counterexample_analysis,
    search_counterexample,
)
from abba.cli import _encode


def test_catalog_has_five_fixtures():
    names = [f.name for f in catalog()]
    assert names == [
        "nilpotent-2x2",
        "hermitian-products-3x3",
        "transpose-3x3",
        "hermitian-normal-4x4",
        "doubling-conjugator",
    ]


def test_all_claims_pass_exact():
    for fixture in catalog():
        for name, ok in fixture.evaluate("exact"):
            assert ok, f"{fixture.name}: {name}"


def test_all_claims_pass_float():
    for fixture in catalog():
        for name, ok in fixture.evaluate("float"):
            assert ok, f"{fixture.name}: {name}"


def test_get_fixture():
    assert get_fixture("transpose-3x3").name == "transpose-3x3"
    with pytest.raises(KeyError):
        get_fixture("no-such-fixture")


def test_search_spec_validation():
    with pytest.raises(ValueError):
        SearchSpec(family="weird", size=3)
    with pytest.raises(ValueError):
        SearchSpec(family="normal", size=0)
    with pytest.raises(ValueError):
        SearchSpec(family="normal", size=3, trials=0)
    with pytest.raises(ValueError):
        SearchSpec(family="normal", size=3, rank=4)


def test_search_deterministic_replay():
    spec = SearchSpec(family="zero-one-normal", size=4, rank=3, trials=30, seed=0)
    first = json.dumps(search_counterexample(spec), default=_encode)
    second = json.dumps(search_counterexample(spec), default=_encode)
    assert first == second


def test_search_normal_3x3_finds_nothing():
    spec = SearchSpec(family="normal", size=3, trials=120, seed=7)
    assert search_counterexample(spec) == []


def test_search_hermitian_finds_nothing():
    for n in (2, 4):
        spec = SearchSpec(family="hermitian", size=n, trials=120, seed=11)
        assert search_counterexample(spec) == []
    spec = SearchSpec(family="hermitian", size=6, trials=500, seed=11)
    assert search_counterexample(spec) == []


def test_search_rank_two_normals_finds_nothing():
    spec = SearchSpec(family="normal", size=5, rank=2, trials=60, seed=13)
    assert search_counterexample(spec) == []


def test_search_zero_one_normal_flags_counterexamples():
    # the 4x4 rank-3 partial-permutation family contains non-similar pairs
    spec = SearchSpec(family="zero-one-normal", size=4, rank=3, trials=60, seed=0)
    findings = search_counterexample(spec)
    assert findings
    f = findings[0]
    assert f.seq_ab.terms != f.seq_ba.terms
    assert f.seq_ab.limit == f.seq_ba.limit
    doc = json.loads(json.dumps(f, default=_encode))
    assert doc["trial"] == f.trial and doc["a"]["scalar"] == "exact"


def test_minimal_counterexample_analysis():
    assert minimal_counterexample_analysis() == ((4, 2, 0), (4, 2, 1, 0))


def test_admissible_pairs_cap_one_empty():
    assert admissible_sequence_pairs(4, 1) == []


def test_admissible_pairs_without_differ_is_superset():
    strict = set(map(frozenset, admissible_sequence_pairs(4, 2)))
    loose = set(map(frozenset, admissible_sequence_pairs(4, 2, require_differ=False)))
    assert strict <= loose
    assert len(loose) > len(strict)
