import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abba import (Matrix, dump_matrix, is_ep, is_hermitian, is_normal, is_psd, rank,
                  realpart_psd_same_rank, solve_linear)
from abba import generators as gen
from abba.catalog import FAMILIES, _draw


def test_determinism():
    a = gen.rational_normal(4, np.random.default_rng(9), rank=2)
    b = gen.rational_normal(4, np.random.default_rng(9), rank=2)
    assert a == b
    f1 = gen.random_normal(4, np.random.default_rng(9))
    f2 = gen.random_normal(4, np.random.default_rng(9))
    assert f1 == f2


def test_exact_draws_are_pinned():
    # every search family, size and rank: the bytes of each draw and the rng
    # state it leaves behind, so a refactor of a generator cannot change a draw
    digest = hashlib.sha256()
    count = 0
    for s, family in enumerate(FAMILIES):
        for n in range(1, 6):
            for r, rank_ in enumerate((None, *range(n + 1))):
                for i in range(2):
                    rng = np.random.default_rng([s, n, r, i])
                    m = _draw(family, n, rng, rank_)
                    record = [dump_matrix(m), rng.bit_generator.state]
                    digest.update(json.dumps(record, sort_keys=True).encode())
                    count += 1
    assert count == 250
    assert digest.hexdigest() == "e32a34fa17f2cb1d057531d453203fa1f5997bd881b8bba875d24329210d8121"


def test_rational_unitary_is_exactly_unitary():
    rng = np.random.default_rng(14)
    for n in (1, 2, 5):
        u = gen.rational_unitary(n, rng)
        assert (u @ u.adjoint()) == Matrix.identity(n)


# Matrix compositions of the Cayley and conjugated families: the references that
# their integer-numerator forms must reproduce draw for draw


def _composed_unitary(n, rng, span=1):
    s = gen.rational_skew_hermitian(n, rng, span)
    eye = Matrix.identity(n)
    return solve_linear(eye + s, eye - s)


def _composed_conjugated_diagonal(n, rng, r, real):
    u = _composed_unitary(n, rng)
    return u @ gen.rational_diagonal(n, rng, r, real) @ u.adjoint()


def _composed_normal(n, rng, rank=None):
    return _composed_conjugated_diagonal(n, rng, gen._pick_rank(n, rng, rank), real=False)


def _composed_hermitian(n, rng, rank):
    return _composed_conjugated_diagonal(n, rng, gen._pick_rank(n, rng, rank), real=True)


def _composed_ep(n, rng, rank=None):
    r = gen._pick_rank(n, rng, rank)
    u = _composed_unitary(n, rng)
    if r == 0:
        return Matrix.zeros(n, n)
    c = gen._full_rank(r, r, rng)
    u_r = u.block(0, n, 0, r)
    return u_r @ c @ u_r.adjoint()


_COMPOSED = {gen.rational_normal: _composed_normal, gen.rational_hermitian: _composed_hermitian,
             gen.rational_ep: _composed_ep}
_SEEDS = st.integers(0, 2**32 - 1)


def _same_draw(generated, composed, seed, n, arg):
    """generated(n, rng, arg) and composed(n, rng, arg) from one seed: the same
    matrix, and the same rng state after it."""
    one, other = np.random.default_rng(seed), np.random.default_rng(seed)
    assert generated(n, one, arg) == composed(n, other, arg)
    assert one.bit_generator.state == other.bit_generator.state


@given(st.integers(1, 7), st.integers(1, 3), _SEEDS)
@settings(max_examples=150, deadline=None)
def test_rational_unitary_equals_the_composed_cayley_solve(n, span, seed):
    _same_draw(gen.rational_unitary, _composed_unitary, seed, n, span)


@given(st.sampled_from(list(_COMPOSED)), st.integers(1, 7).flatmap(
    lambda n: st.tuples(st.just(n), st.sampled_from((None, *range(n + 1))))), _SEEDS)
@settings(max_examples=300, deadline=None)
def test_conjugated_families_equal_their_matrix_composition(generator, size_rank, seed):
    """rational_normal, rational_hermitian (with a rank, the branch that conjugates)
    and rational_ep return the matrix of u @ d @ u* or u_r @ c @ u_r*, and leave the
    rng in the same state, at every size and rank."""
    n, rank_ = size_rank
    assume(generator is not gen.rational_hermitian or rank_ is not None)
    _same_draw(generator, _COMPOSED[generator], seed, n, rank_)


def test_rational_families_have_prescribed_structure():
    rng = np.random.default_rng(21)
    m = gen.rational_normal(5, rng, rank=2)
    assert is_normal(m) and rank(m) == 2
    h = gen.rational_hermitian(5, rng, rank=3)
    assert is_hermitian(h) and rank(h) == 3
    hd = gen.rational_hermitian(5, rng)
    assert is_hermitian(hd)
    p = gen.rational_psd(5, rng, rank=2)
    assert is_psd(p) and rank(p) == 2
    e = gen.rational_ep(5, rng, rank=3)
    assert is_ep(e) and rank(e) == 3
    assert gen.rational_psd(3, rng, rank=0).is_zero()
    assert gen.rational_ep(3, rng, rank=0).is_zero()


def test_rational_hermitian_checks_its_rank():
    rng = np.random.default_rng(21)
    for rank_ in (5, -1):
        with pytest.raises(ValueError):
            gen.rational_hermitian(3, rng, rank=rank_)


def test_zero_one_normal_structure():
    rng = np.random.default_rng(33)
    for _ in range(30):
        m = gen.zero_one_normal(4, rng, rank=3)
        assert is_normal(m) and rank(m) == 3
        flat = [m[i, j] for i in range(4) for j in range(4)]
        assert all(v == 0 or v == 1 for v in flat)
        for i in range(4):  # partial permutation: at most one 1 per row/column
            assert sum(1 for j in range(4) if m[i, j] == 1) <= 1
            assert sum(1 for j in range(4) if m[j, i] == 1) <= 1


def _partial_permutations(n):
    for k in range(n + 1):
        for rows in itertools.combinations(range(n), k):
            for cols in itertools.permutations(range(n), k):
                arr = np.zeros((n, n), dtype=int)
                arr[list(rows), list(cols)] = 1
                yield set(rows), set(cols), Matrix.from_ints(arr)


def test_partial_permutation_is_normal_exactly_when_supports_agree():
    # the acceptance rule of zero_one_normal: P P* and P* P project onto the
    # row and the column support of P
    for n in range(1, 5):
        count = 0
        for rows, cols, p in _partial_permutations(n):
            assert is_normal(p) == (rows == cols)
            count += 1
        assert count == {1: 2, 2: 7, 3: 34, 4: 209}[n]


@pytest.mark.parametrize("span", [1, 2, 9])
def test_batched_draws_equal_scalar_draws(span):
    # the exact generators draw each candidate's parts in one rng.integers call
    for k in (0, 1, 2, 16, 32):
        for offset in (0, 1, 3):  # start at several positions of a buffered 32-bit draw
            one, many = np.random.default_rng([span, k]), np.random.default_rng([span, k])
            one.integers(0, 7, size=offset)
            many.integers(0, 7, size=offset)
            scalar = [int(one.integers(-span, span + 1)) for _ in range(k)]
            assert many.integers(-span, span + 1, size=k).tolist() == scalar
            assert many.bit_generator.state == one.bit_generator.state


def test_float_families():
    rng = np.random.default_rng(44)
    u = gen.random_unitary(5, rng)
    assert np.allclose((u @ u.adjoint()).array, np.eye(5), atol=1e-12)
    m = gen.random_normal(6, rng, rank=4)
    assert is_normal(m) and rank(m) == 4
    h = gen.random_hermitian(6, rng, rank=2)
    assert is_hermitian(h) and rank(h) == 2
    p = gen.random_psd(6, rng, rank=3)
    assert is_psd(p) and rank(p) == 3
    e = gen.random_ep(6, rng, rank=5)
    assert is_ep(e) and rank(e) == 5
    r = gen.random_realpart_psd(6, rng, rank=3)
    assert realpart_psd_same_rank(r) and rank(r) == 3
    one = gen.random_rank_one_normal(5, rng)
    assert is_normal(one) and rank(one) == 1
