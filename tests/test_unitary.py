import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from abba import (
    DEGREE_SIX_PROBE,
    DEFAULT_TOLERANCE,
    Matrix,
    TraceWord,
    decide_unitary_2x2,
    trace_word,
    unitary_intertwiner,
    word_trace_screen,
)
from abba import generators as gen
from abba import unitary
from abba.cli import _encode
from abba.scalars import GQ
from abba.unitary import WordTraceReport, _screen_words

from .oracle import gq_equals_sympy, oracle_word_trace


def test_trace_word_basics():
    d = Matrix.diagonal([1, 2, 3])
    assert trace_word(d, TraceWord(("x",))) == GQ(6)
    m = Matrix.from_float([[1, 2], [3, 4j]])
    val = trace_word(m, TraceWord(("x", "x*")))
    assert abs(val - m.frobenius() ** 2) < 1e-12


def test_word_validation():
    with pytest.raises(ValueError):
        TraceWord(())
    with pytest.raises(ValueError):
        TraceWord(("y",))
    assert TraceWord.parse("x* x x").spell() == "x* x x"
    assert len(DEGREE_SIX_PROBE) == 6
    assert DEGREE_SIX_PROBE.letters == ("x*", "x", "x", "x*", "x*", "x")


def test_degree_six_probe_on_hermitian_pair(hermitian_pair_3x3):
    a, b = hermitian_pair_3x3
    ab, ba = a @ b, b @ a
    t_ab = trace_word(ab, DEGREE_SIX_PROBE)
    t_ba = trace_word(ba, DEGREE_SIX_PROBE)
    assert t_ab == GQ(6) and t_ba == GQ(10)
    assert gq_equals_sympy(t_ab, oracle_word_trace(ab, DEGREE_SIX_PROBE.letters))
    assert gq_equals_sympy(t_ba, oracle_word_trace(ba, DEGREE_SIX_PROBE.letters))


def test_screen_distinguishes_hermitian_products(hermitian_pair_3x3):
    a, b = hermitian_pair_3x3
    rep = word_trace_screen(a @ b, b @ a, 6)
    assert rep.distinguished and rep.verdict == "distinguished"
    # first distinguishing word in shortest-first order with x before x*
    assert rep.word.letters == ("x", "x", "x*", "x", "x*", "x*")
    assert rep.traces == (GQ(10), GQ(6))


def test_screen_includes_probe_regardless_of_cap(hermitian_pair_3x3):
    a, b = hermitian_pair_3x3
    rep = word_trace_screen(a @ b, b @ a, max_len=2)
    assert rep.distinguished and rep.word == DEGREE_SIX_PROBE


def test_screen_equal_inputs(hermitian_pair_3x3):
    a, b = hermitian_pair_3x3
    rep = word_trace_screen(a @ b, a @ b, 6)
    assert not rep.distinguished
    assert rep.verdict == "indistinguishable-up-to-length-6"
    assert rep.word is None


def test_screen_transpose_fixture(transpose_matrix):
    rep = word_trace_screen(transpose_matrix, transpose_matrix.transpose(), 6)
    assert rep.distinguished
    assert rep.word.letters == ("x", "x", "x*", "x", "x*", "x*")
    assert rep.traces == (GQ(16), GQ(4))


def test_float_screen_ignores_power_of_two_scale(transpose_matrix):
    """Float traces are compared at one common unit scale and reported at the
    input's scale: exactly while they are in the float range, as 0 or inf past it."""
    x = transpose_matrix.to_float()
    for k in (-300, -20, 0, 20, 300):
        scaled = x * 2.0 ** k
        with np.errstate(over="ignore"):
            rep = word_trace_screen(scaled, scaled.transpose(), 6)
        assert rep.distinguished and rep.word.letters == ("x", "x", "x*", "x", "x*", "x*")
        if abs(k) <= 20:
            assert rep.traces == (16 * 2.0 ** (6 * k), 4 * 2.0 ** (6 * k))
    # the 2x2 triple: tr X*X is 1 against 4, at every scale
    e12 = Matrix.from_float([[0.0, 1.0], [0.0, 0.0]])
    u = gen.random_unitary(2, np.random.default_rng(5))
    for k in (-300, -20, 0, 20, 300):
        assert not decide_unitary_2x2(e12 * 2.0 ** k, e12 * 2.0 ** (k + 1))
        assert decide_unitary_2x2(e12 * 2.0 ** k, u @ (e12 * 2.0 ** k) @ u.adjoint())


def test_unitary_conjugates_indistinguishable():
    rng = np.random.default_rng(71)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        m = Matrix.from_float(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = gen.random_unitary(n, rng)
        rep = word_trace_screen(m, u @ m @ u.adjoint(), 6)
        assert not rep.distinguished


def _brute_force_screen(m1, m2, max_len):
    """The screen as first specified: every word up to max_len in canonical
    order, then the probe, each evaluated from scratch by trace_word."""
    words = [TraceWord(w) for k in range(1, max_len + 1)
             for w in itertools.product(("x", "x*"), repeat=k)]
    if max_len < 6:
        words.append(DEGREE_SIX_PROBE)
    for w in words:
        t1, t2 = trace_word(m1, w), trace_word(m2, w)
        if m1.backend == "exact":
            differ = t1 != t2
        else:
            differ = abs(t1 - t2) > DEFAULT_TOLERANCE.residual_tol * max(1.0, abs(t1), abs(t2))
        if differ:
            return WordTraceReport(distinguished=True, max_len=max_len, word=w, traces=(t1, t2))
    return WordTraceReport(distinguished=False, max_len=max_len)


# mostly small Gaussian integers over small denominators, so traces of random pairs
# often agree on short words
_ENTRY = st.builds(lambda re, im, den: (Fraction(re, den), Fraction(im, den)),
                   st.sampled_from([0, 0, 1, -1, 2]), st.sampled_from([0, 0, 1, -1]),
                   st.sampled_from([1, 1, 2, 3]))


@st.composite
def _screen_pairs(draw, backend):
    n = draw(st.integers(1, 3 if backend == "exact" else 4))
    square = st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n)
    x = Matrix.exact(draw(square))
    relation = draw(st.sampled_from(["conjugate", "transpose", "random", "scaled"]))
    if relation == "random":
        y = Matrix.exact(draw(square))
    elif relation == "scaled":  # y = q x: two denominators above 1 that differ, unless x = 0
        x = x * Fraction(1, draw(st.sampled_from([2, 3])))
        y = x * Fraction(draw(st.sampled_from([-1, 1, 2, 3])), draw(st.sampled_from([5, 7])))
    elif relation == "transpose":
        y = x.transpose()
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        u = gen.rational_unitary(n, rng, span=2) if backend == "exact" else gen.random_unitary(n, rng)
        y = u @ (x if backend == "exact" else x.to_float()) @ u.adjoint()
    if backend == "float":
        x, y = x.to_float(), y.to_float()
    return x, y


@pytest.mark.parametrize("backend", ["exact", "float"])
@given(data=st.data(), max_len=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_screen_matches_brute_force_over_every_word(backend, data, max_len):
    x, y = data.draw(_screen_pairs(backend))
    screen, brute = word_trace_screen(x, y, max_len), _brute_force_screen(x, y, max_len)
    assert json.dumps(screen, default=_encode) == json.dumps(brute, default=_encode)


def test_screen_words_are_the_smallest_of_each_class():
    def adjoint(w):
        return tuple("x*" if l == "x" else "x" for l in reversed(w))

    for max_len, count in ((2, 3), (4, 9), (6, 22), (8, 54)):
        classes = {frozenset(v[k:] + v[:k] for v in (w, adjoint(w)) for k in range(len(w)))
                   for n in range(1, max_len + 1) for w in itertools.product(("x", "x*"), repeat=n)}
        smallest = sorted((min(c) for c in classes), key=lambda w: (len(w), w))
        words = [w.letters for w in _screen_words(max_len)]
        assert len(classes) == count
        assert words[:count] == smallest
        assert words[count:] == ([DEGREE_SIX_PROBE.letters] if max_len < 6 else [])


def test_full_exact_screen_matmul_count(monkeypatch):
    """Exact products are formed only for prefixes of longer words, by unitary._times:
    18 per matrix up to length 6 and 53 up to length 8, never for a word's last letter."""
    x = Matrix.exact([[1, 2, 0], [(0, 1), -1, 3], [0, "1/2", (1, -1)]])
    u = gen.rational_unitary(3, np.random.default_rng(9))
    y = u @ x @ u.adjoint()
    times = unitary._times
    calls = []

    def counted(p, f):
        calls.append(1)
        return times(p, f)

    monkeypatch.setattr(unitary, "_times", counted)
    for max_len, bound in ((6, 36), (8, 106)):
        calls.clear()
        assert not word_trace_screen(x, y, max_len).distinguished
        assert len(calls) <= bound
    traces = unitary._word_traces(x)
    calls.clear()
    traces(("x", "x*", "x*"))  # forms its prefix (x, x*) only
    traces(("x", "x*", "x"))  # reuses that prefix and forms nothing of its own
    traces(("x*", "x"))  # a one-letter prefix is the letter itself
    assert len(calls) == 1


def test_decide_unitary_2x2():
    rng = np.random.default_rng(73)
    for _ in range(40):
        a = gen.random_normal(2, rng)
        b = gen.random_normal(2, rng)
        assert decide_unitary_2x2(a @ b, b @ a)
    assert not decide_unitary_2x2(
        Matrix.from_float([[0, 1], [0, 0]]), Matrix.zeros(2, 2, "float")
    )
    m = Matrix.from_float(rng.standard_normal((2, 2)))
    u = gen.random_unitary(2, rng)
    assert decide_unitary_2x2(m, u @ m @ u.adjoint())
    with pytest.raises(Exception):
        decide_unitary_2x2(Matrix.identity(3, "float"), Matrix.identity(3, "float"))


def _product_witness(a, b):
    """The float unitary u with u (ab) = (ba) u that unitary_intertwiner(ab, ba) certifies."""
    cert = unitary_intertwiner(a @ b, b @ a)
    assert cert is not None and cert.ok and cert.t.backend == "float"
    return cert.t


def _is_unitary(u):
    return np.allclose(u.array.conj().T @ u.array, np.eye(u.rows), rtol=0, atol=1e-10)


def _is_zero_product(a, b):
    """||ab||_F <= residual_tol ||a||_F ||b||_F: for normal a, ab = 0 gives a* b = 0, so
    range(a) lies in ker(b*) = ker(b), and ba = 0 as well."""
    return (a @ b).frobenius() <= DEFAULT_TOLERANCE.residual_tol * a.frobenius() * b.frobenius()


def test_rank_one_commuting_branch():
    """Exactly zero products: every unitary intertwines them, and one is certified."""
    a = Matrix.from_float([[1.0, 0.0], [0.0, 0.0]])
    b = Matrix.from_float([[0.0, 0.0], [0.0, 1.0]])
    for x in (a, Matrix.zeros(2, 2, "float")):
        assert _is_zero_product(x, b) and (b @ x).frobenius() == 0.0
        assert _is_unitary(_product_witness(x, b))


def test_rank_one_swap_case():
    a = Matrix.from_float([[1.0, 0.0], [0.0, 0.0]])
    b = Matrix.from_float([[0.0, 1.0], [1.0, 0.0]])
    u = _product_witness(a, b)
    assert _is_unitary(u)
    assert ((b @ a) @ u - u @ (a @ b)).frobenius() <= 1e-10


def test_rank_one_random_pairs():
    rng = np.random.default_rng(83)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        a = gen.random_rank_one_normal(n, rng)
        b = gen.random_normal(n, rng)
        if _is_zero_product(a, b):
            assert (a @ b).frobenius() <= 1e-9 and (b @ a).frobenius() <= 1e-9
        else:
            u = _product_witness(a, b)
            scale = max(1.0, a.frobenius() * b.frobenius())
            assert ((b @ a) @ u - u @ (a @ b)).frobenius() <= 1e-10 * scale
            assert _is_unitary(u)


def test_rank_one_pairs_certify_at_any_scale():
    """The zero-product test is relative to ||a|| ||b|| and the witness is found
    at any scale, so scaling either matrix by 2^k changes neither."""
    rng = np.random.default_rng(101)
    for _ in range(8):
        n = int(rng.integers(2, 6))
        a = gen.random_rank_one_normal(n, rng)
        b = gen.random_normal(n, rng, rank=n)
        for k in (-40, 0, 40):
            for x, y in ((a * 2.0 ** k, b), (a, b * 2.0 ** k)):
                assert not _is_zero_product(x, y)
                u = _product_witness(x, y)
                assert _is_unitary(u)
                residual = ((y @ x) @ u - u @ (x @ y)).frobenius()
                assert residual <= 1e-10 * x.frobenius() * y.frobenius()


def test_rank_one_parallel_degenerate_case():
    # b* fixes the rank-one direction, so ab and ba are equal and nonzero
    a = Matrix.from_float([[1.0, 0.0], [0.0, 0.0]])
    b = Matrix.from_float([[2j, 0.0], [0.0, 3.0]])
    u = _product_witness(a, b)
    assert _is_unitary(u)
    assert ((b @ a) @ u - u @ (a @ b)).frobenius() <= 1e-10


def test_rank_one_unitary_b():
    rng = np.random.default_rng(89)
    a = gen.random_rank_one_normal(4, rng)
    b = gen.random_unitary(4, rng)
    u = _product_witness(a, b)
    scale = max(1.0, a.frobenius() * b.frobenius())
    assert _is_unitary(u)
    assert ((b @ a) @ u - u @ (a @ b)).frobenius() <= 1e-10 * scale


def _gaussian_integer(rng, n):
    return Matrix.from_ints(rng.integers(-2, 3, (n, n)), rng.integers(-2, 3, (n, n)))


def test_2x2_invariants_agree_with_the_witness_search():
    """On exact 2x2 pairs the complete triple, the word screen and the search for a
    unitary intertwiner decide unitary similarity alike: x against its Cayley
    conjugate, its transpose and its adjoint."""
    rng = np.random.default_rng(179)
    similar = 0
    for _ in range(60):
        x = _gaussian_integer(rng, 2)
        u = gen.rational_unitary(2, rng)
        for y in (u @ x @ u.adjoint(), x.transpose(), x.adjoint()):
            verdict = decide_unitary_2x2(x, y)
            assert word_trace_screen(x, y, 2).distinguished != verdict
            assert (unitary_intertwiner(x, y) is not None) == verdict
            similar += verdict
    assert (similar, 180 - similar) == (120, 60)


def test_similar_to_transpose(transpose_matrix):
    from abba import find_intertwiner, verify_certificate

    a = transpose_matrix
    cert = find_intertwiner(a, a.transpose(), seed=0)
    assert cert is not None and cert.residual == 0.0
    assert verify_certificate(cert, a, a.transpose()).ok


def test_every_matrix_is_similar_to_its_transpose():
    from abba import find_intertwiner

    rng = np.random.default_rng(131)
    for trial in range(200):
        n = int(rng.integers(1, 6))
        m = Matrix.from_float(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        cert = find_intertwiner(m, m.transpose(), seed=trial)
        assert cert is not None and cert.residual <= 1e-10
