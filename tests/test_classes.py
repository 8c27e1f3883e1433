import warnings
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
import sympy as sp

from abba import (
    BackendError,
    HypothesisViolation,
    Matrix,
    classify,
    column_inclusion_factor,
    construct_similarity_psd_ep,
    ep_decomposition,
    hermitian_real_part,
    is_ep,
    is_hermitian,
    is_normal,
    is_psd,
    rank,
    realpart_psd_same_rank,
)
from abba.generators import (
    random_ep,
    random_normal,
    random_psd,
    random_unitary,
    rational_hermitian,
    rational_normal,
    rational_psd,
    rational_unitary,
)
from abba.linalg import _charpoly_numerators

from .oracle import oracle_eigenvalues, to_sympy

J2 = Matrix.exact([[0, 1], [0, 0]])


def test_hermitian_examples(hermitian_pair_3x3, hermitian_normal_pair_4x4):
    assert is_hermitian(hermitian_pair_3x3[0])
    assert is_hermitian(hermitian_normal_pair_4x4[0])
    assert not is_hermitian(J2)


def test_hermitian_float_tolerance():
    m = Matrix.from_float([[1.0, 1e-14], [0.0, 1.0]])
    assert is_hermitian(m)
    assert not is_hermitian(Matrix.from_float([[1.0, 1e-3], [0.0, 1.0]]))
    # the same tests near the ends of the float range, where norms overflow
    assert not is_hermitian(Matrix.from_float([[1.5e308, 1.5e308], [0.0, 1.5e308]]))
    assert is_hermitian(Matrix.from_float([[1.5e308, 1e308], [1e308, -1.5e308]]))


def test_normal_examples(hermitian_normal_pair_4x4):
    assert is_normal(hermitian_normal_pair_4x4[1])
    rng = np.random.default_rng(2)
    assert is_normal(random_unitary(4, rng))
    assert not is_normal(J2)
    # and where the products underflow to zero
    tiny = Matrix.from_float([[1e-200, 1e-200], [0.0, 1e-200]])
    assert not is_normal(tiny)
    assert is_normal(Matrix.from_float([[1e-200, 1e-200], [-1e-200, 1e-200]]))
    report = classify(tiny)
    assert not report.normal and not report.hermitian


def test_psd_examples(hermitian_normal_pair_4x4):
    assert is_psd(Matrix.exact([[1, 1], [1, 1]]))
    assert not is_psd(Matrix.exact([[0, 1], [1, 0]]))
    # Hermitian with a negative eigenvalue: confirmed by the oracle
    a = hermitian_normal_pair_4x4[0]
    assert not is_psd(a)
    eigs = oracle_eigenvalues(a)
    assert min(eigs) < 0


def _fractional_hermitian(rng, n):
    """Hermitian, entries over denominators 2..6, diagonal nonnegative (so the
    order-1 principal-minor sum, the trace, is never the negative one)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(int(rng.integers(0, 4)), int(rng.integers(2, 7)))
        for j in range(i + 1, n):
            re, im = (Fraction(int(rng.integers(-3, 4)), int(rng.integers(2, 7))) for _ in range(2))
            rows[i][j], rows[j][i] = (re, im), (re, -im)
    return Matrix.exact(rows)


def _oracle_negative_minor_sum_order(m):
    """The first k whose sum of k x k principal minors is negative, from sympy
    determinants of the principal submatrices; None when there is none."""
    sm = to_sympy(m)
    for k in range(1, m.rows + 1):
        total = sum(sm.extract(list(idx), list(idx)).det() for idx in combinations(range(m.rows), k))
        if sp.expand(total) < 0:
            return k
    return None


def test_psd_exact_matches_sympy_oracle():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        h = rational_hermitian(n, rng)
        assert is_psd(h) == bool(to_sympy(h).is_positive_semidefinite)
    # over denominators > 1, where the characteristic polynomial divides by den^k
    rng = np.random.default_rng(29)
    orders = []
    for _ in range(12):
        n = int(rng.integers(2, 6))
        h = _fractional_hermitian(rng, n)
        # eigenvalues 1 (n - 1 times) and -eps: e_k = C(n-1, k) - eps C(n-1, k-1)
        # turns negative first at an order that grows as eps shrinks
        eps = Fraction(1, int(rng.choice([1, 2, 5])))
        u = rational_unitary(n, rng)
        shifted = u @ Matrix.diagonal([1] * (n - 1) + [-eps]) @ u.adjoint()
        for m in (h, h @ h, shifted):  # h @ h is PSD
            assert m.numerators[2] > 1
            order = _oracle_negative_minor_sum_order(m)
            assert classify(m).witnesses.get("negative_minor_sum_order") == order
            assert is_psd(m) == (order is None)
            orders.append(order)
    assert orders.count(None) >= 12 and {2, 3, 4} <= set(orders)


def test_psd_float():
    rng = np.random.default_rng(31)
    p = random_psd(5, rng, rank=3)
    assert is_psd(p)
    assert not is_psd(Matrix.from_float(np.diag([1.0, -1e-3])))


def test_psd_and_ep_tests_ignore_the_ends_of_the_float_range():
    # at 2^-600 the squares in a full-scale norm underflow to zero
    h = random_psd(4, np.random.default_rng(31), rank=2)
    assert classify(h).psd and classify(h * 2.0 ** -600) == classify(h)
    # at 1.5e308, m + m* and the singular values of [m | m*] overflow
    big = Matrix.from_float(np.diag([1.5e308, 1.5e308]))
    rep = classify(big)
    assert rep.psd and rep.ep and rep.realpart_psd_same_rank and rep.witnesses == {}
    assert is_psd(big) and is_ep(big)
    # the witness is found at unit scale and scaled back
    rep = classify(Matrix.from_float(np.diag([1.5e308, -1.5e308])))
    assert not rep.psd and rep.witnesses["min_eigenvalue"] == -1.5e308


def test_ep_examples(hermitian_normal_pair_4x4):
    b = hermitian_normal_pair_4x4[1]
    assert is_ep(b) and rank(b) == 3
    assert not is_ep(J2)
    assert is_ep(Matrix.exact([[2, 1], [1, 1]]))  # invertible


def test_realpart_psd_same_rank():
    assert realpart_psd_same_rank(Matrix.exact([[1, 1], [1, 1]]))  # PSD itself
    assert not realpart_psd_same_rank(Matrix.exact([[1j]]))
    assert realpart_psd_same_rank(Matrix.exact([[1, 1], [-1, 1]]))  # real part I


def test_predicate_implication_chain():
    rng = np.random.default_rng(17)
    pool = []
    for _ in range(12):
        n = int(rng.integers(1, 6))
        pool.append(rational_hermitian(n, rng))
        pool.append(rational_normal(n, rng))
        pool.append(rational_psd(n, rng))
        pool.append(random_normal(n, rng))
        pool.append(random_psd(n, rng))
    # non-normal and non-EP members, so every witness kind occurs
    rng = np.random.default_rng(18)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        low = rng.integers(-2, 3, size=(n, 1)) @ rng.integers(-2, 3, size=(1, n))
        pool.append(Matrix.exact(low.tolist()))
        pool.append(Matrix.from_float(low + 1j * np.triu(rng.standard_normal((n, n)), 1)))
    swap = Matrix.exact([[0, 1], [1, 0]])
    pool += [J2, J2.to_float(), swap, swap.to_float()]
    kinds = set()
    for m in pool:
        rep = classify(m)
        if rep.psd:
            assert rep.hermitian
        if rep.hermitian:
            assert rep.normal
        if rep.normal:
            assert rep.ep
        assert rep.ep == is_ep(m) and rep.psd == is_psd(m) and rep.rank == rank(m)
        assert rep.realpart_psd_same_rank == realpart_psd_same_rank(m)
        w = rep.witnesses
        kinds.update(w)
        assert ("hermitian_violation" in w) == (not rep.hermitian)
        assert ("normality_violation" in w) == (not rep.normal)
        sign_key = "negative_minor_sum_order" if m.backend == "exact" else "min_eigenvalue"
        assert (sign_key in w) == (rep.hermitian and not rep.psd)
        assert ("range_adjoint_rank" in w) == (not rep.ep)
        assert set(w) <= {"hermitian_violation", "normality_violation", sign_key,
                          "range_adjoint_rank"}
    assert kinds == {"hermitian_violation", "normality_violation", "negative_minor_sum_order",
                     "min_eigenvalue", "range_adjoint_rank"}


def test_normal_implies_ep_500():
    rng = np.random.default_rng(19)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        assert is_ep(random_normal(n, rng))


def test_classify_witnesses():
    rep = classify(J2)
    assert rep.rank == 1
    assert rep.witnesses["hermitian_violation"] == [0, 1]
    assert "normality_violation" in rep.witnesses
    assert rep.witnesses["range_adjoint_rank"] == 2
    neg = classify(Matrix.exact([[0, 1], [1, 0]]))
    assert neg.witnesses["negative_minor_sum_order"] == 2


def test_classify_exact_hermitian_reads_minor_sums_once(monkeypatch):
    """An exact Hermitian matrix is its own real part: classify reads its
    principal-minor sums (the integer charpoly coefficients that _psd_violation
    reads) once and agrees with the separate predicates."""
    from abba import classes

    calls = []

    def counted(re, im):
        calls.append(re.shape)
        return _charpoly_numerators(re, im)

    rng = np.random.default_rng(151)
    pool = [rational_psd(3, rng), rational_psd(4, rng, rank=2), rational_hermitian(3, rng),
            rational_hermitian(4, rng, rank=2), Matrix.exact([[0, 1], [1, 0]]), -rational_psd(2, rng)]
    monkeypatch.setattr(classes, "_charpoly_numerators", counted)
    reports = []
    for m in pool:
        calls.clear()
        reports.append(classify(m))
        assert calls == [m.shape]
    monkeypatch.undo()
    for m, rep in zip(pool, reports):
        assert rep.psd == is_psd(m)
        assert rep.realpart_psd_same_rank == realpart_psd_same_rank(m)
    assert {rep.psd for rep in reports} == {True, False}


def test_classify_float_min_eigenvalue_witness():
    u = random_unitary(3, np.random.default_rng(5))
    m = u @ Matrix.from_float(np.diag([2.0, -0.5, 1.0])) @ u.adjoint()
    rep = classify(m)
    assert rep.hermitian and not rep.psd
    assert abs(rep.witnesses["min_eigenvalue"] + 0.5) < 1e-12
    assert "negative_minor_sum_order" not in rep.witnesses
    # within the residual tolerance: PSD, no witness
    tiny = classify(Matrix.from_float(np.diag([1.0, -1e-20])))
    assert tiny.psd and "min_eigenvalue" not in tiny.witnesses


def test_normality_witness_detects_gap():
    rep = classify(J2.to_float())
    w = rep.witnesses["normality_violation"]
    assert len(w["vector"]) == 2


def test_ep_decomposition_aligned_exact():
    m = Matrix.exact([[5, 1, 0], [2, 3, 0], [0, 0, 0]])
    dec = ep_decomposition(m)
    assert dec.v == Matrix.identity(3)
    assert dec.r == 2 and dec.residual == 0.0
    assert dec.c == Matrix.exact([[5, 1], [2, 3]])


def test_ep_decomposition_exact_requires_alignment():
    with pytest.raises(BackendError):
        ep_decomposition(Matrix.diagonal([0, 5]))


def test_ep_decomposition_float_permutation():
    dec = ep_decomposition(Matrix.from_float(np.diag([0.0, 5.0])))
    assert dec.r == 1
    assert abs(dec.c[0, 0] - 5.0) < 1e-12
    # v swaps the coordinates up to phase
    assert abs(abs(dec.v[1, 0]) - 1.0) < 1e-12


def test_ep_decomposition_of_4x4_normal(hermitian_normal_pair_4x4):
    b = hermitian_normal_pair_4x4[1].to_float()
    dec = ep_decomposition(b)
    assert dec.r == 3 and dec.residual <= 1e-10
    assert (dec.reconstruct() - b).frobenius() <= 1e-10 * b.frobenius()


def test_ep_decomposition_round_trip_random():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        m = random_ep(n, rng)
        dec = ep_decomposition(m)
        assert (dec.reconstruct() - m).frobenius() <= 1e-9 * max(1.0, m.frobenius())


def test_ep_decomposition_rejects_non_ep():
    with pytest.raises(HypothesisViolation):
        ep_decomposition(J2.to_float())


def _times_2k(a, k):
    """The complex array a * 2^k, real and imaginary parts scaled apart (exact in binary)."""
    out = np.empty_like(a)
    out.real, out.imag = np.ldexp(a.real, k), np.ldexp(a.imag, k)
    return out


def test_float_ep_decomposition_runs_one_svd_of_m(monkeypatch):
    """The frame and the rank come from one SVD of m; the others are of [m | m*]
    (the EP test) and of the leading block (its condition)."""
    m = random_ep(4, np.random.default_rng(7), rank=2)
    shapes, svd = [], np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    assert ep_decomposition(m).r == 2
    assert shapes.count((4, 4)) == 1 and shapes == [(4, 4), (4, 8), (2, 2)]


def test_float_ep_decomposition_ignores_scale():
    """Scaling m by 2^k keeps r and v and scales c bit for bit, without a warning:
    the blocks are formed at unit scale and c is scaled back."""
    m = random_ep(4, np.random.default_rng(8), rank=3)
    want = ep_decomposition(m)
    for k in (-600, -300, 300, 600):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dec = ep_decomposition(Matrix.from_float(_times_2k(m.array, k)))
        assert dec.r == want.r == 3 and dec.v == want.v
        assert dec.c.array.tobytes() == _times_2k(want.c.array, k).tobytes()
        assert dec.residual == want.residual
    big = Matrix.from_float(np.full((2, 2), 1e300))  # Hermitian, so EP, of rank 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dec = ep_decomposition(big)
    assert dec.r == 1 and abs(dec.c[0, 0] - 2e300) <= 1e-15 * 2e300
    with pytest.raises(BackendError), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # numpy's, as its certificate
        construct_similarity_psd_ep(big, big)  # products overflow at full scale


def test_float_ep_decomposition_succeeds_exactly_on_ep():
    """EP and normal inputs decompose; [[C, E], [0, 0]] with E != 0, conjugated by a
    unitary, is not EP and is rejected with is_ep's verdict."""
    rng = np.random.default_rng(309)
    for trial in range(150):
        n, kind = int(rng.integers(1, 7)), trial % 3
        if kind == 0:
            m = random_ep(n, rng)
        elif kind == 1:
            m = random_normal(n, rng)
        else:
            n = max(n, 2)
            r = int(rng.integers(1, n))
            core = np.zeros((n, n), dtype=complex)
            core[:r] = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
            core[:r, :r] += 4.0 * np.eye(r)
            u = random_unitary(n, rng)
            m = u @ Matrix.from_float(core) @ u.adjoint()
        assert is_ep(m) == (kind != 2)
        if kind == 2:
            with pytest.raises(HypothesisViolation, match="matrix is not EP"):
                ep_decomposition(m)
            continue
        dec = ep_decomposition(m)
        assert dec.r == rank(m) and dec.residual <= 1e-10
        assert (dec.reconstruct() - m).frobenius() <= 1e-9 * max(1.0, m.frobenius())


def test_column_inclusion_examples():
    assert column_inclusion_factor(Matrix.exact([[1, 1], [1, 1]]), 1) == Matrix.exact([[1]])
    # PSD with zero leading block forces a zero off-diagonal block
    p = Matrix.exact([[0, 0], [0, 3]])
    x0 = column_inclusion_factor(p, 1)
    assert x0 is not None and x0.is_zero()
    assert column_inclusion_factor(Matrix.exact([[0, 1], [1, 0]]), 1) is None
    with pytest.raises(ValueError):
        column_inclusion_factor(Matrix.identity(2), 5)


def test_psd_always_has_column_inclusion():
    rng = np.random.default_rng(67)
    for _ in range(500):
        n = int(rng.integers(1, 7))
        p = random_psd(n, rng)
        for split in range(n + 1):
            x = column_inclusion_factor(p, split)
            assert x is not None
            a11, a12 = p.block(0, split, 0, split), p.block(0, split, split, n)
            assert (a11 @ x - a12).frobenius() <= 1e-8 * a12.frobenius()


def test_hermitian_real_part():
    m = Matrix.exact([[(0, 2), 4], [0, 6]])
    h = hermitian_real_part(m)
    assert is_hermitian(h)
    assert h == Matrix.exact([[0, 2], [2, 6]])
