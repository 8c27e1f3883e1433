import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abba import (
    Matrix,
    RankSequence,
    ShapeError,
    ToleranceWarning,
    drops,
    enumerate_tail_sequences,
    is_valid_rank_sequence,
    rank,
    rank_sequence,
    realize_rank_sequence,
)
from abba import generators as gen
from abba.cli import _encode
from abba.rankseq import stabilize

from .oracle import oracle_rank


def test_sequences_of_4x4_products(hermitian_normal_pair_4x4):
    a, b = hermitian_normal_pair_4x4
    assert rank_sequence(a @ b).terms == (4, 2, 0)
    assert rank_sequence(b @ a).terms == (4, 2, 1, 0)


def test_identity_sequence():
    seq = rank_sequence(Matrix.identity(5))
    assert seq.terms == (5,) and seq.limit == 5 and seq.n == 5


def test_non_square_rejected():
    with pytest.raises(ShapeError):
        rank_sequence(Matrix.exact([[1, 2]]))


def test_validity():
    assert is_valid_rank_sequence([4, 2, 1, 0])
    assert not is_valid_rank_sequence([4, 3, 0])  # drops 1 then 3
    assert is_valid_rank_sequence([4, 1, 0])  # drops 3 then 1
    assert is_valid_rank_sequence([3, 3, 3])
    assert not is_valid_rank_sequence([2, 3])
    assert not is_valid_rank_sequence([1, -1])
    with pytest.raises(ValueError):
        is_valid_rank_sequence([])


def test_realize_examples():
    j2_plus_j1 = realize_rank_sequence([3, 1, 0])
    assert j2_plus_j1 == Matrix.exact([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert realize_rank_sequence([4]) == Matrix.identity(4)
    m = realize_rank_sequence([4, 2, 1, 0])  # one 3-block, one 1-block
    assert rank_sequence(m).terms == (4, 2, 1, 0)


def test_realize_rejects_invalid():
    with pytest.raises(ValueError):
        realize_rank_sequence([4, 3, 0])


def test_drops():
    assert drops(RankSequence.from_terms((4, 2, 1, 0))) == (2, 1, 1)
    assert drops([5]) == ()
    assert drops([2, 1, 0]) == (1, 1)


def test_enumerate_seven_patterns():
    for n in (4, 5, 7):
        seqs = enumerate_tail_sequences(n, 2)
        assert seqs == [
            (n, 0),
            (n, 1, 0),
            (n, 1),
            (n, 2, 0),
            (n, 2, 1, 0),
            (n, 2, 1),
            (n, 2),
        ]


def test_enumerate_small_caps():
    assert enumerate_tail_sequences(6, 0) == [(6, 0)]
    assert len(enumerate_tail_sequences(6, 1)) == 3
    with pytest.raises(ValueError):
        enumerate_tail_sequences(3, 4)


def test_round_trip_all_sequences_up_to_8():
    for n in range(1, 9):
        for seq in enumerate_tail_sequences(n, n):
            m = realize_rank_sequence(seq)
            assert rank_sequence(m).terms == seq


def test_random_sequences_are_valid_and_stabilize():
    rng = np.random.default_rng(55)
    for _ in range(150):
        n = int(rng.integers(1, 7))
        m = Matrix.exact(
            [[int(rng.integers(-2, 3)) for _ in range(n)] for _ in range(n)]
        )
        seq = rank_sequence(m)
        assert is_valid_rank_sequence(list(seq.terms))
        assert len(seq.terms) <= n + 1
        assert seq.terms[-1] == seq.limit


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
@settings(max_examples=200)
def test_realize_round_trip_property(seq):
    if not is_valid_rank_sequence(seq):
        with pytest.raises(ValueError):
            realize_rank_sequence(seq)
        return
    m = realize_rank_sequence(seq)
    assert rank_sequence(m).terms == stabilize(seq)


def test_float_backend_matches_exact(hermitian_normal_pair_4x4):
    a, b = hermitian_normal_pair_4x4
    ab = (a @ b).to_float()
    assert rank_sequence(ab).terms == (4, 2, 0)


def _conjugated_float(m: Matrix, seed: int) -> Matrix:
    u = gen.random_unitary(m.rows, np.random.default_rng(seed))
    return u @ m.to_float() @ u.adjoint()


def test_float_nilpotent_jordan_block_under_unitary_conjugation():
    # the cutoff is relative to ||m||, so rounding noise in a power that is
    # zero in exact arithmetic must not count as rank
    j6 = realize_rank_sequence([6, 5, 4, 3, 2, 1, 0])
    wrong = [seed for seed in range(200)
             if rank_sequence(_conjugated_float(j6, seed)).terms != (6, 5, 4, 3, 2, 1, 0)]
    assert wrong == []


def test_float_hermitian_normal_products_under_unitary_conjugation(hermitian_normal_pair_4x4):
    a, b = hermitian_normal_pair_4x4
    wrong = []
    for seed in range(200):
        ua, ub = _conjugated_float(a, seed), _conjugated_float(b, seed)
        terms = rank_sequence(ua @ ub).terms, rank_sequence(ub @ ua).terms
        if terms != ((4, 2, 0), (4, 2, 1, 0)):
            wrong.append(seed)
    assert wrong == []


def _rational_with_nilpotent_part(seq, rng) -> Matrix:
    """u (J d) u* for J = realize_rank_sequence(seq), d an invertible diagonal
    and u a Cayley unitary: the rank sequence of J, dense Gaussian-rational
    entries with non-unit denominators."""
    n = seq[0]
    d = gen.rational_diagonal(n, rng, nonzeros=n)
    u = gen.rational_unitary(n, rng, span=2)
    return u @ realize_rank_sequence(seq) @ d @ u.adjoint()


def test_exact_sequences_match_oracle_ranks_of_explicit_powers():
    rng = np.random.default_rng(73)
    for n in range(2, 6):
        patterns = enumerate_tail_sequences(n, n)
        for _ in range(12):
            seq = patterns[int(rng.integers(len(patterns)))]
            m = _rational_with_nilpotent_part(seq, rng)
            powers = [Matrix.identity(n)]
            for _ in range(n + 1):
                powers.append(powers[-1] @ m)
            expected = stabilize([oracle_rank(p) for p in powers])
            assert expected == stabilize(seq)
            assert rank_sequence(m).terms == expected


def test_exact_sequences_of_conjugated_chains_up_to_n12():
    """Dense Cayley conjugates of single Jordan chains, n = 8..12, and of
    sampled n = 8 patterns: each range-iteration product is divided by the
    gcd of its entries, which must leave every rank as it is."""
    rng = np.random.default_rng(16)
    chains = [tuple(range(n, -1, -1)) for n in range(8, 13)]
    patterns = enumerate_tail_sequences(8, 8)
    sampled = [patterns[int(i)] for i in rng.choice(len(patterns), 6, replace=False)]
    for seq in chains + sampled:
        assert rank_sequence(_rational_with_nilpotent_part(seq, rng)).terms == stabilize(seq)


_small_exact = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n, max_size=n),
    min_size=n, max_size=n)).map(Matrix.exact)
_nonzero_scalar = st.one_of(
    st.tuples(st.integers(-30, 30), st.integers(-30, 30)).filter(any),
    st.fractions(max_denominator=30).filter(bool))


@given(_small_exact, _nonzero_scalar)
@settings(max_examples=200)
def test_exact_sequence_ignores_a_nonzero_scalar(m, k):
    assert rank_sequence(m * k) == rank_sequence(m)


def test_float_rank_and_sequence_past_the_float_range():
    # sigma_max of m is 2e308, past the float range; m^2 is rank one as well
    m = Matrix.from_float([[1e308, 1e308], [1e308, 1e308]])
    assert rank(m) == 1
    assert rank_sequence(m).terms == (2, 1)


def test_no_spurious_warnings_on_clean_float_input():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ToleranceWarning)
        rank_sequence(Matrix.identity(4, "float"))


def test_serialization():
    seq = RankSequence.from_terms((4, 2, 2, 1))
    assert seq.terms == (4, 2)  # stabilized at the first repeat
    assert json.loads(json.dumps(seq, default=_encode)) == {"n": 4, "terms": [4, 2], "limit": 2}
    assert seq.expand(5) == (4, 2, 2, 2, 2)
