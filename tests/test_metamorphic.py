"""Metamorphic properties of exact rank sequences and verdicts.

Each property maps a pair (a, b) to a related pair whose products have
known rank sequences: unitary conjugation and transposition keep them,
a direct sum with invertible blocks shifts every term by the block size,
and swapping the operands swaps seq_ab and seq_ba.  The two sequences of
one pair also interlace, whatever the verdict.  On the float backend, every
predicate, rank, rank sequence and decide verdict keeps its value under
scaling by 2^k.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from abba import (Matrix, block, decide_product_similarity, is_ep, is_hermitian, is_normal, is_psd,
                  rank, rank_sequence, realpart_psd_same_rank)
from abba import generators as gen

# mostly-zero Gaussian-integer entries make singular, nilpotent products common
_ENTRY = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2]), st.sampled_from([0, 0, 0, 1, -1]))


def _square(n: int):
    return st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n).map(
        Matrix.exact
    )


pairs = st.integers(1, 4).flatmap(lambda n: st.tuples(_square(n), _square(n)))
seeds = st.integers(0, 2**32 - 1)


def _invertible(k: int, seed: int) -> Matrix:
    """A dense exact invertible k x k matrix: a Cayley unitary times a
    nonsingular diagonal."""
    rng = np.random.default_rng(seed)
    return gen.rational_unitary(k, rng, span=2) @ gen.rational_diagonal(k, rng, nonzeros=k)


def _direct_sum(x: Matrix, y: Matrix) -> Matrix:
    return block([[x, Matrix.zeros(x.rows, y.cols)], [Matrix.zeros(y.rows, x.cols), y]])


@given(pairs, seeds)
@settings(max_examples=200, deadline=None)
def test_unitary_conjugation_keeps_sequences_and_verdict(pair, seed):
    a, b = pair
    u = gen.rational_unitary(a.rows, np.random.default_rng(seed), span=2)
    conjugated = decide_product_similarity(u @ a @ u.adjoint(), u @ b @ u.adjoint())
    assert conjugated == decide_product_similarity(a, b)


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_transposition_swaps_the_products(pair):
    # (a^T b^T) = (b a)^T, and a matrix and its transpose share every rank
    a, b = pair
    verdict = decide_product_similarity(a, b)
    transposed = decide_product_similarity(a.transpose(), b.transpose())
    assert (transposed.seq_ab, transposed.seq_ba) == (verdict.seq_ba, verdict.seq_ab)
    assert (transposed.similar, transposed.reason) == (verdict.similar, verdict.reason)
    assert rank_sequence((a @ b).transpose()) == verdict.seq_ab


@given(pairs, st.integers(1, 3), seeds)
@settings(max_examples=200, deadline=None)
def test_direct_sum_with_invertible_block_shifts_every_term(pair, k, seed):
    a, b = pair
    c, d = _invertible(k, seed), _invertible(k, seed + 1)
    verdict = decide_product_similarity(a, b)
    summed = decide_product_similarity(_direct_sum(a, c), _direct_sum(b, d))
    assert summed.seq_ab.terms == tuple(t + k for t in verdict.seq_ab.terms)
    assert summed.seq_ba.terms == tuple(t + k for t in verdict.seq_ba.terms)
    assert (summed.similar, summed.reason) == (verdict.similar, verdict.reason)


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_swapping_operands_swaps_the_sequences(pair):
    a, b = pair
    verdict = decide_product_similarity(a, b)
    swapped = decide_product_similarity(b, a)
    assert (swapped.seq_ab, swapped.seq_ba) == (verdict.seq_ba, verdict.seq_ab)
    assert swapped.similar == verdict.similar


@given(pairs)
@settings(max_examples=200, deadline=None)
def test_product_sequences_interlace(pair):
    # (ba)^(k+1) = b (ab)^k a, so r_(k+1)(ba) <= r_k(ab), and the same with a, b swapped
    a, b = pair
    verdict = decide_product_similarity(a, b)
    length = a.rows + 2
    ab, ba = verdict.seq_ab.expand(length), verdict.seq_ba.expand(length)
    assert all(ba[k + 1] <= ab[k] and ab[k + 1] <= ba[k] for k in range(length - 1))


def _scale_free_verdicts(m: Matrix) -> tuple:
    return (is_hermitian(m), is_normal(m), is_psd(m), is_ep(m), realpart_psd_same_rank(m),
            rank(m), rank_sequence(m))


@given(st.integers(1, 5), seeds)
@settings(max_examples=100, deadline=None)
def test_float_hermitian_and_normal_verdicts_ignore_scale(n, seed):
    # every float predicate, rank, rank sequence and decide verdict, not only the
    # two named: scaling by 2^k is exact; at k = -600 the products of m (and of a
    # pair, both factors scaled) and the squares in its norm underflow to zero,
    # and at k = 600 its squared norm and the pair's products overflow
    rng = np.random.default_rng(seed)
    herm, normal = gen.random_hermitian(n, rng), gen.random_normal(n, rng)
    other = Matrix.from_float(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    psd, ep = gen.random_psd(n, rng), gen.random_ep(n, rng)
    realpart = gen.random_realpart_psd(n, rng)
    assert is_hermitian(herm) and is_normal(herm) and is_normal(normal)
    assert n == 1 or not is_normal(other)
    assert is_psd(psd) and is_ep(ep) and realpart_psd_same_rank(realpart)
    for m in (herm, normal, other, psd, ep, realpart):
        verdicts = _scale_free_verdicts(m)
        for k in (-600, -300, 300, 600):
            assert _scale_free_verdicts(m * 2.0 ** k) == verdicts, k
    for a, b in ((herm, normal), (psd, normal), (other, herm)):
        verdict = decide_product_similarity(a, b)
        for k in (-600, -300, 300, 600):
            assert decide_product_similarity(a * 2.0 ** k, b * 2.0 ** k) == verdict, k
