import math
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings, strategies as st

from abba import (
    BackendError,
    EXACT,
    FLOAT,
    Matrix,
    ShapeError,
    TolerancePolicy,
    characteristic_polynomial,
    condition_estimate,
    determinant,
    hstack,
    invertible,
    nullspace_basis,
    orthonormal_range_basis,
    rank,
    solve_linear,
    vstack,
)
from abba import generators as gen
from abba.generators import random_unitary
from abba import linalg
from abba.linalg import _PRIMES, _eliminate, _eliminate_rows, _kernel_rows, _modular_kernel
from abba.scalars import GQ
from abba.similarity import _sylvester_rows

from .oracle import (gq_equals_sympy, kron_sylvester, oracle_charpoly, oracle_det, oracle_nullspace,
                     oracle_rank, oracle_solve, to_sympy)


def _random_exact(rng, rows, cols, span=4):
    return Matrix.exact(
        [
            [(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
             for _ in range(cols)]
            for _ in range(rows)
        ]
    )


def test_rank_examples(hermitian_normal_pair_4x4, hermitian_pair_3x3):
    a, b = hermitian_normal_pair_4x4
    assert rank(a @ b) == 2
    assert rank(Matrix.zeros(3, 3)) == 0
    assert rank(hermitian_pair_3x3[0]) == 2  # diagonal projection of rank 2


def test_rank_against_oracle():
    rng = np.random.default_rng(101)
    for _ in range(25):
        m = _random_exact(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        assert rank(m) == oracle_rank(m)


def test_rank_adjoint_identities():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = _random_exact(rng, int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        r = rank(m)
        assert rank(m.adjoint()) == r
        assert rank(m.adjoint() @ m) == r


def test_exact_and_float_rank_agree_on_small_integer_matrices():
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(1, 9))
        c = int(rng.integers(1, 9))
        m = Matrix.exact(
            [[int(rng.integers(-8, 9)) for _ in range(c)] for _ in range(n)]
        )
        assert rank(m) == rank(m.to_float())


def test_determinant_against_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        m = _random_exact(rng, n, n)
        assert gq_equals_sympy(determinant(m), oracle_det(m))


def test_determinant_of_permutations():
    p = Matrix.exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]])  # 3-cycle, even
    assert determinant(p) == GQ(1)
    swap = Matrix.exact([[0, 1], [1, 0]])
    assert determinant(swap) == GQ(-1)
    det = determinant(swap.to_float())
    assert isinstance(det, complex) and abs(det + 1) < 1e-12


def test_determinant_is_the_characteristic_polynomial_constant_term():
    """Two independent algorithms on seeded exact matrices, n <= 6: the
    forward Bareiss pass (row-swap sign x last pivot) against
    Faddeev-LeVerrier ((-1)^n x constant term).  Each size gets a unit
    first pivot (the first two updates skip the division), a zero top-left
    entry (a row swap), a last row dependent on the rows above (rank
    deficiency), and a non-unit denominator; Gaussian-integer entries make
    non-real pivots, so both exact divisions run."""
    rng = np.random.default_rng(16)
    swaps = nonreal = deficient = 0
    for n in range(1, 7):
        for variant in ("unit", "swap", "deficient", "rational"):
            for _ in range(4):
                re, im = rng.integers(-4, 5, (2, n, n))
                den = int(rng.integers(2, 9)) if variant == "rational" else 1
                if variant == "unit":
                    re[0, 0], im[0, 0] = 1, 0
                elif variant == "swap":
                    re[0, 0] = im[0, 0] = 0
                elif variant == "deficient":  # last row 2 row_0 - row_(n-2), zero when n = 1
                    for x in (re, im):
                        x[-1] = 2 * x[0] - x[-2] if n > 1 else 0
                m = Matrix.from_ints(re, im, den)
                *_, sign, (_, di) = _eliminate(m)
                swaps += sign == -1
                nonreal += di != 0
                constant = characteristic_polynomial(m)[-1]
                det = determinant(m)
                assert det == (-constant if n % 2 else constant)
                if variant == "deficient":
                    deficient += 1
                    assert det == 0
    assert swaps and nonreal and deficient == 24


def test_nullspace_examples(hermitian_normal_pair_4x4):
    assert nullspace_basis(Matrix.identity(3)).shape == (3, 0)
    assert nullspace_basis(Matrix.zeros(4, 4)) == Matrix.identity(4)
    a, b = hermitian_normal_pair_4x4
    ba = b @ a
    basis = nullspace_basis(ba)
    assert basis.shape == (4, 2)
    assert (ba @ basis).is_zero()


def test_nullspace_float_residual():
    rng = np.random.default_rng(3)
    m = Matrix.from_float(rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6)))
    basis = nullspace_basis(m)
    assert basis.shape == (6, 2)
    for j in range(basis.cols):
        v = basis.block(0, basis.rows, j, j + 1)
        assert (m @ v).frobenius() <= 1e-10 * m.frobenius() * v.frobenius()


def test_solve_examples():
    assert solve_linear(Matrix.exact([[1]]), Matrix.exact([[1]])) == Matrix.exact([[1]])
    assert solve_linear(Matrix.zeros(2, 2), Matrix.exact([[1], [0]])) is None
    a = Matrix.exact([[1, 1], [1, 1]])
    b = Matrix.exact([[2], [2]])
    x = solve_linear(a, b)
    assert (a @ x - b).is_zero()
    with pytest.raises(ShapeError):
        solve_linear(a, Matrix.exact([[1]]))


def test_solve_consistency_matches_rank_test():
    rng = np.random.default_rng(37)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        a = _random_exact(rng, rows, cols, span=2)
        b = _random_exact(rng, rows, 1, span=2)
        solvable = solve_linear(a, b) is not None
        assert solvable == (rank(hstack([a, b])) == rank(a))


def test_solve_float_least_squares():
    a = Matrix.from_float([[1.0, 0.0], [0.0, 0.0]])
    assert solve_linear(a, Matrix.from_float([[1.0], [1.0]])) is None
    x = solve_linear(a, Matrix.from_float([[1.0], [0.0]]))
    assert x is not None and abs(x[0, 0] - 1.0) < 1e-12


def test_orthonormal_range_basis():
    q = orthonormal_range_basis(Matrix.identity(2, "float"))
    assert q.shape == (2, 2)
    assert np.allclose(q.array.conj().T @ q.array, np.eye(2))
    v = np.array([[3 / 5], [4j / 5]])
    q1 = orthonormal_range_basis(Matrix.from_float(v @ v.conj().T))
    assert q1.shape == (2, 1)
    # single column is a unit multiple of v
    assert abs(abs(np.vdot(q1.array[:, 0], v[:, 0])) - 1.0) < 1e-12
    with pytest.raises(BackendError):
        orthonormal_range_basis(Matrix.identity(2))


def test_orthonormal_range_basis_spans_range(hermitian_normal_pair_4x4):
    _, b = hermitian_normal_pair_4x4
    q = orthonormal_range_basis(b.to_float())
    assert q.shape == (4, 3)
    # range(b) = span{e2, e3, e4}: projector must vanish on e1 and fix e2..e4
    proj = q.array @ q.array.conj().T
    expected = np.diag([0.0, 1.0, 1.0, 1.0])
    assert np.allclose(proj, expected, atol=1e-10)


def test_charpoly_examples():
    assert characteristic_polynomial(Matrix.identity(2)) == [GQ(1), GQ(-2), GQ(1)]
    assert characteristic_polynomial(Matrix.exact([[0, 1], [0, 0]])) == [GQ(1), GQ(0), GQ(0)]


def test_charpoly_against_oracle():
    def gaussian(rng, n):
        return _random_exact(rng, n, n, span=3) if n else Matrix.zeros(0, 0)

    def fractional(rng, n):  # entries over denominators 2..6: coefficients not Gaussian integers
        if not n:
            return Matrix.zeros(0, 0)
        return Matrix.exact([[tuple(Fraction(int(rng.integers(-3, 4)), int(rng.integers(2, 7)))
                                    for _ in range(2)) for _ in range(n)] for _ in range(n)])

    for seed, draw in ((41, gaussian), (47, fractional)):
        rng = np.random.default_rng(seed)
        non_integral = 0
        # 15 draws of order 1..4, then orders 0, 5 and 6
        for trial in range(18):
            n = int(rng.integers(1, 5)) if trial < 15 else (0, 5, 6)[trial - 15]
            m = draw(rng, n)
            ours = characteristic_polynomial(m)
            theirs = oracle_charpoly(m)
            assert len(ours) == len(theirs) == n + 1
            assert all(gq_equals_sympy(c, s) for c, s in zip(ours, theirs))
            non_integral += any(c.re.denominator > 1 or c.im.denominator > 1 for c in ours)
        if draw is fractional:
            assert non_integral >= 12


def test_products_share_charpoly():
    rng = np.random.default_rng(43)
    for _ in range(10):
        a = _random_exact(rng, 4, 4, span=3)
        b = _random_exact(rng, 4, 4, span=3)
        assert characteristic_polynomial(a @ b) == characteristic_polynomial(b @ a)


def test_charpoly_float_matches_exact():
    rng = np.random.default_rng(47)
    m = _random_exact(rng, 4, 4, span=2)
    exact = [complex(c) for c in characteristic_polynomial(m)]
    approx = characteristic_polynomial(m.to_float())
    assert np.allclose(exact, approx, atol=1e-8)
    assert characteristic_polynomial(Matrix.zeros(0, 0, FLOAT)) == [complex(1)]


def test_invertible_and_condition():
    assert invertible(Matrix.identity(3))
    assert not invertible(Matrix.zeros(2, 2))
    near_singular = Matrix.from_float([[1.0, 0.0], [0.0, 1e-12]])
    assert not invertible(near_singular, TolerancePolicy())
    assert not invertible(Matrix.zeros(2, 3))
    with pytest.raises(BackendError):
        condition_estimate(Matrix.identity(2))


def test_float_invertible_is_the_condition_ratio():
    tol = TolerancePolicy()
    assert invertible(Matrix.zeros(0, 0, FLOAT), tol)
    assert not invertible(Matrix.from_float([[1.0, 2.0], [2.0, 4.0]]), tol)
    assert not invertible(Matrix.zeros(3, 3, FLOAT), tol)
    below = Matrix.from_float(np.diag([1.0, 1.01 / tol.max_condition]))
    above = Matrix.from_float(np.diag([1.0, 0.99 / tol.max_condition]))
    assert condition_estimate(below) < tol.max_condition < condition_estimate(above)
    assert invertible(below, tol) and not invertible(above, tol)
    rng = np.random.default_rng(71)
    verdicts = set()
    for k in range(-6, 7):
        for _ in range(8):
            n = int(rng.integers(2, 6))
            u, v = random_unitary(n, rng), random_unitary(n, rng)
            spread = 10.0 ** rng.uniform(4, 12)  # condition straddles max_condition
            s = Matrix.from_float(np.diag(np.geomspace(10.0 ** k, 10.0 ** k / spread, n)))
            m = u @ s @ v
            verdicts.add(invertible(m, tol))
            assert invertible(m, tol) == (condition_estimate(m) <= tol.max_condition)
    assert verdicts == {True, False}


def _random_rational(rng, rows, cols, rank):
    """A rows x cols Gaussian-rational matrix of rank at most `rank`: a product
    through an inner dimension of `rank`, entries with denominators up to 7."""

    def part():
        return Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 8)))

    def factor(r, c):
        if r == 0 or c == 0:
            return Matrix.zeros(r, c)
        return Matrix.exact([[(part(), part()) for _ in range(c)] for _ in range(r)])

    return factor(rows, rank) @ factor(rank, cols)


def _exact_float(z: sp.Expr) -> complex:
    re, im = (Fraction(int(q.p), int(q.q)) for q in (sp.re(z), sp.im(z)))
    return complex(float(re), float(im))


def test_exact_kernel_against_oracle():
    """Rank-deficient and zero-size Gaussian-rational inputs, checked op by op
    against sympy; floats must match correctly rounded rationals bit for bit."""
    rng = np.random.default_rng(61)
    for trial in range(60):
        rows, cols = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        k = int(rng.integers(0, min(rows, cols) + 1))
        m = _random_rational(rng, rows, cols, k)
        if trial % 5 == 0:  # embed in zero-size blocks
            m = vstack([m, Matrix.zeros(0, cols)])
        sm = to_sympy(m)
        assert rank(m) == oracle_rank(m)
        assert to_sympy(m.adjoint()) == sm.H
        other = _random_rational(rng, cols, int(rng.integers(0, 4)), min(cols, 2))
        assert to_sympy(m @ other) == (sm * to_sympy(other)).expand()
        norm_sq = sum((abs(z) ** 2 for z in sm), sp.Integer(0))
        assert m.frobenius() == float(Fraction(int(norm_sq.p), int(norm_sq.q))) ** 0.5
        f = m.to_float()
        assert all(f[i, j] == _exact_float(sm[i, j]) for i in range(rows) for j in range(cols))
        rhs = _random_rational(rng, rows, 2, int(rng.integers(0, min(rows, 2) + 1)))
        if trial % 2:  # a consistent right-hand side
            rhs = m @ _random_rational(rng, cols, 2, min(cols, 2))
        _assert_eliminations_match_oracle(m, rhs)


def _assert_eliminations_match_oracle(m: Matrix, rhs: Matrix) -> None:
    """nullspace_basis vector for vector, determinant (square m) and
    solve_linear(m, rhs) against sympy; the expected solution is sympy's
    with every free parameter set to zero."""
    basis = nullspace_basis(m)
    expected = oracle_nullspace(m)
    assert basis.shape == (m.cols, len(expected))
    assert all(to_sympy(basis.block(0, m.cols, j, j + 1)) == e for j, e in enumerate(expected))
    if m.is_square:
        assert gq_equals_sympy(determinant(m), oracle_det(m))
    x, particular = solve_linear(m, rhs), oracle_solve(m, rhs)
    assert (x is None) == (particular is None)
    assert x is None or to_sympy(x) == particular


def test_elimination_branches_against_oracle():
    """Both exact divisions and both swap parities.  The real matrix swaps
    rows at its first two pivots (sign +1) and then divides by the real
    pivots 3 and 6; the complex one divides by the non-real pivots 1 + 2i
    and 2i after one swap (sign -1).  Each is checked square with a
    right-hand side, and with a dependent column inserted after its second
    column, so that the null space is not trivial and the reduced form
    updates a free column left of later pivots.  The last pivots, -13 and
    -10i, give back-substitution both of its denominators: |d| for a real
    last pivot d and |d|^2 for a non-real one."""
    real = Matrix.exact([[0, 0, 1, 2], [3, 1, 0, 2], [0, 2, 5, 1], [1, 0, 2, 4]])
    cplx = Matrix.exact([[(1, 2), 1, 3, 0], [(2, 4), 2, 1, (0, 1)], [1, 1, 0, 2], [0, 0, 0, 1]])
    for m, sign, leading in ((real, 1, [(3, 0), (6, 0), (6, 0)]),
                             (cplx, -1, [(1, 2), (0, 2), (0, -10)])):
        assert _eliminate(m)[3] == sign
        # the last pivot of the first j columns: the divisor of the next step
        assert [_eliminate(m.block(0, 4, 0, j))[4] for j in (1, 2, 3)] == leading
        rhs = Matrix.exact([[1, (0, 1)], [2, 0], [(3, -1), 1], [0, 5]])
        _assert_eliminations_match_oracle(m, rhs)
        dependent = m @ Matrix.exact([[1], [(0, 2)], [0], [0]])
        wide = hstack([m.block(0, 4, 0, 2), dependent, m.block(0, 4, 2, 4)])
        _assert_eliminations_match_oracle(wide, rhs)


def test_sylvester_eliminations_against_oracle():
    """9 x 9 Sylvester matrices of generated exact pairs, the system behind an
    n = 3 certificate: the singular one of ab and ba (rank 6), with a
    consistent right-hand side, and the nonsingular one of ab and ba + I."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        a, b = gen.rational_psd(3, rng, rank=2), gen.rational_normal(3, rng, rank=2)
        k = kron_sylvester(a @ b, b @ a)
        assert rank(k) == 6
        _assert_eliminations_match_oracle(k, k @ _random_rational(rng, 9, 2, 2))
        k = kron_sylvester(a @ b, b @ a + Matrix.identity(3))
        assert determinant(k) != 0
        _assert_eliminations_match_oracle(k, _random_rational(rng, 9, 2, 2))


def test_sylvester_kernel_at_n4_is_the_rref_basis():
    """16 x 16 Sylvester kernels against the oracle's rank and null space, vector
    for vector, and by the properties that make a basis the reduced-row-echelon
    one: k v = 0, and with f_j the last nonzero row of column j, v is the
    identity on the rows f_j and zero below each f_j."""
    rng = np.random.default_rng(4)
    for a, b in ((gen.rational_hermitian(4, rng), gen.rational_hermitian(4, rng)),
                 (gen.rational_psd(4, rng, rank=2), gen.rational_normal(4, rng, rank=3))):
        k = kron_sylvester(a @ b, b @ a)
        v = nullspace_basis(k)
        assert v.cols == 16 - oracle_rank(k)
        expected = oracle_nullspace(k)
        assert len(expected) == v.cols
        assert all(to_sympy(v.block(0, 16, j, j + 1)) == e for j, e in enumerate(expected))
        assert (k @ v).is_zero()
        re, im, den = v.numerators
        last = [max(i for i in range(16) if re[i, j] or im[i, j]) for j in range(v.cols)]
        assert sorted(set(last)) == last
        assert Matrix.from_ints(re[last], im[last], den) == Matrix.identity(v.cols)
        assert all(not (re[i, j] or im[i, j]) for j, f in enumerate(last) for i in range(f + 1, 16))


def _eager_bareiss(re: list, im: list):
    """Reference for _eliminate_rows: Bareiss's eager update, which replaces every
    row below the pivot p by (p * a - f * b) / prev, also when f = 0 and the step
    only rescales the row by p / prev, and sets the row's pivot-column entry to 0.
    Same rows in, same tuple out."""
    rows = len(re)
    cols = len(re[0]) if rows else 0
    prev = (1, 0)
    sign = 1
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        hit = r
        while hit < rows and not (re[hit][c] or im[hit][c]):
            hit += 1
        if hit == rows:
            continue
        if hit != r:
            re[r], re[hit], im[r], im[hit] = re[hit], re[r], im[hit], im[r]
            sign = -sign
        qr, qi = prev
        pr, pi = prev = re[r][c], im[r][c]
        div = qr
        if qi:
            pr, pi, div = pr * qr + pi * qi, pi * qr - pr * qi, qr * qr + qi * qi
        tr, ti = re[r][c + 1:], im[r][c + 1:]
        for i in range(r + 1, rows):
            ar, ai = re[i], im[i]
            fr, fi = ar[c], ai[c]
            if qi:
                fr, fi = fr * qr + fi * qi, fi * qr - fr * qi
            xs = (ar[c + 1:], ai[c + 1:], tr, ti)
            ar[c:] = [0] + [(pr * a - pi * b - fr * x + fi * y) // div for a, b, x, y in zip(*xs)]
            ai[c:] = [0] + [(pr * b + pi * a - fr * y - fi * x) // div for a, b, x, y in zip(*xs)]
        pivots.append(c)
    return re, im, pivots, sign, prev


@st.composite
def _bareiss_inputs(draw):
    """Rows (re, im) of Gaussian integers, 0-8 rows by 1-9 columns: sparse to dense
    parts, so pivots are often non-real; optionally a product through a smaller inner
    dimension (rank-deficient), zeroed off-diagonal blocks (block-diagonal), zero
    columns, and the rows shuffled, so that pivot searches swap rows."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(1, 9))
    part = st.sampled_from((0,) * draw(st.integers(0, 6)) + (1, -1, 2, -2, 3))

    def gaussian(r, c):
        return [[(draw(part), draw(part)) for _ in range(c)] for _ in range(r)]

    inner = draw(st.integers(0, 9))
    if inner < min(rows, cols):
        left, right = gaussian(rows, inner), gaussian(inner, cols)
        m = [[(sum(a * c - b * d for (a, b), (c, d) in zip(row, col)),
               sum(a * d + b * c for (a, b), (c, d) in zip(row, col)))
              for col in ([r[c] for r in right] for c in range(cols))] for row in left]
    else:
        m = gaussian(rows, cols)
    if draw(st.booleans()):
        i, j = draw(st.integers(0, rows)), draw(st.integers(0, cols))
        m = [[z if (a < i) == (b < j) else (0, 0) for b, z in enumerate(row)]
             for a, row in enumerate(m)]
    zero = draw(st.sets(st.integers(0, cols - 1), max_size=cols))
    m = draw(st.permutations([[(0, 0) if b in zero else z for b, z in enumerate(row)]
                              for row in m]))
    return [[z[0] for z in row] for row in m], [[z[1] for z in row] for row in m]


@given(_bareiss_inputs())
@example(([[0, 0, 0], [0, 0, 1], [-1, 0, 0]], [[0, -1, 0], [-1, 0, 0], [0, 0, 0]]))
@settings(max_examples=400, deadline=None)
def test_eliminate_rows_matches_the_eager_bareiss_update(rows):
    """Skipping the rows whose pivot-column entry is zero leaves pivots, sign, last
    pivot and pivot rows as the eager update has them, and the rows below the rank zero.
    In the explicit example a row last updated at the non-real pivot -i is chosen as a
    pivot row after a skipped step, so it is rescaled by prev / q with q non-real."""
    re, im = rows
    expected = _eager_bareiss([r[:] for r in re], [r[:] for r in im])
    assert _eliminate_rows(re, im) == expected


@given(_bareiss_inputs())
@settings(max_examples=400, deadline=None)
def test_eliminated_rows_are_an_echelon_form_with_the_rref_kernel(rows):
    """The rows _eliminate_rows returns are a row-echelon form: each pivot row is zero
    left of its (nonzero) pivot and every row from the rank on is zero.  _kernel_rows
    returns v, with s > 0, such that A v = 0 and v is s * I on the free rows."""
    re, im = rows
    cols = len(re[0]) if re else 0
    er, ei, pivots, _, _ = _eliminate_rows([r[:] for r in re], [r[:] for r in im])
    for k, row in enumerate(zip(er, ei)):
        p = pivots[k] if k < len(pivots) else cols
        assert not any(row[0][:p] + row[1][:p])
        assert p == cols or row[0][p] or row[1][p]
    v, s = _kernel_rows([r[:] for r in re], [r[:] for r in im], cols)
    free = [j for j in range(cols) if j not in pivots]
    assert s > 0 and v.shape == (2, cols, len(free))
    assert (v[0, free] == s * np.eye(len(free), dtype=int)).all() and not v[1, free].any()
    a = [np.array(p, dtype=object).reshape(len(re), cols) for p in (re, im)]
    assert not (a[0] @ v[0] - a[1] @ v[1]).any() and not (a[0] @ v[1] + a[1] @ v[0]).any()


def _bareiss_kernel(monkeypatch, re, im, cols):
    """Bareiss's (v, s) from _kernel_rows, at any width, on copies of the rows."""
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_MODULAR_COLS", math.inf)
        return _kernel_rows([r[:] for r in re], [r[:] for r in im], cols)


def _same_basis(k1, k2):
    return Matrix((*k1[0], k1[1]), EXACT) == Matrix((*k2[0], k2[1]), EXACT)


def test_prime_table():
    """Distinct primes p = 1 (mod 4) below 2^27, largest first, each with w^2 = -1 mod p."""
    ps = [p for p, _ in _PRIMES]
    assert ps == sorted(set(ps), reverse=True) and ps[0] < 2 ** 27
    assert all(sp.isprime(p) and p % 4 == 1 and (w * w + 1) % p == 0 for p, w in _PRIMES)


@given(_bareiss_inputs())
@settings(max_examples=300, deadline=None)
def test_modular_kernel_matches_bareiss(rows):
    """On any Gaussian-integer rows the modular helper certifies Bareiss's RREF basis
    (_kernel_rows below _MODULAR_COLS) and leaves its rows unconsumed."""
    re, im = rows
    cols = len(re[0]) if re else 0
    copies = [r[:] for r in re], [r[:] for r in im]
    kernel = _modular_kernel(re, im, cols, _PRIMES)
    assert (re, im) == copies and cols < linalg._MODULAR_COLS
    assert kernel is not None and _same_basis(kernel, _kernel_rows(*copies, cols))


def _unlucky(product):
    """Rows of rank 2 whose second pivot, over Z[i], is `product`."""
    return [[1, 1, 1, 1], [1, 1 + product, 2, 0]], [[0, 0, 0, 0], [0, 0, 0, 1]]


def test_modular_kernel_drops_unlucky_primes(monkeypatch):
    """A pivot divisible by the first two primes leaves their images without a pivot
    where the others have one: they are dropped and the rest certify Bareiss's basis.
    Divisible by every prime of the first batch (12), no image sees the true pivots;
    the exact check rejects the candidate and _kernel_rows returns Bareiss's answer."""
    ps = [p for p, _ in _PRIMES]
    kept, eliminate = [], linalg._gauss_jordan_images

    def recording(m, p):
        out = eliminate(m, p)
        kept.append(out[1].tolist())
        return out

    monkeypatch.setattr(linalg, "_gauss_jordan_images", recording)
    re, im = _unlucky(ps[0] * ps[1])
    assert _same_basis(_modular_kernel(re, im, 4, _PRIMES), _bareiss_kernel(monkeypatch, re, im, 4))
    assert kept == [list(range(4, 24))]  # images 2j and 2j + 1 are prime j's
    re, im = _unlucky(math.prod(ps[:12]))
    assert _modular_kernel(re, im, 4, _PRIMES) is None and len(kept) == 2  # one batch
    expected = _bareiss_kernel(monkeypatch, re, im, 4)
    monkeypatch.setattr(linalg, "_MODULAR_COLS", 4)
    assert _same_basis(_kernel_rows(re, im, 4), expected)


def test_modular_kernel_capped_at_too_few_primes_falls_back(monkeypatch):
    """herm5's 25 x 25 Sylvester kernel needs numerators and a denominator of about 50
    bits each: two primes cannot reconstruct it, and _kernel_rows then runs Bareiss."""
    rng = np.random.default_rng(5)
    a, b = gen.rational_hermitian(5, rng), gen.rational_hermitian(5, rng)
    re, im, _ = _sylvester_rows(a @ b, b @ a)
    expected = _bareiss_kernel(monkeypatch, re, im, 25)
    assert _modular_kernel(re, im, 25, _PRIMES[:2]) is None
    assert _same_basis(_modular_kernel(re, im, 25, _PRIMES), expected)
    calls = []
    eliminate = linalg._eliminate_rows
    monkeypatch.setattr(linalg, "_eliminate_rows", lambda re, im: calls.append(1) or eliminate(re, im))
    monkeypatch.setattr(linalg, "_PRIMES", _PRIMES[:2])
    assert _same_basis(_kernel_rows(re, im, 25), expected) and calls == [1]


def test_modular_kernel_declines_past_its_lazy_update_bound():
    """512 pivots could carry unreduced updates past 2^63, so the helper returns None."""
    eye = [[int(i == j) for j in range(512)] for i in range(512)]
    assert _modular_kernel(eye, [[0] * 512 for _ in range(512)], 512, _PRIMES) is None
