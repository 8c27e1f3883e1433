"""Rank, null spaces, solves, and characteristic polynomials on both backends.

On the exact backend one routine, :func:`_eliminate_rows`, does every
elimination: fraction-free (Bareiss) elimination over the Gaussian
integers on rows of Python ints, so intermediate entries stay minors of
the input.  :func:`_eliminate` feeds it the integer numerators that
:attr:`Matrix.numerators` exposes; exact rank sequences and Sylvester
systems feed it their integer rows directly, with no Matrix in between.
It returns the row echelon form of the eager update, at full width: each
pivot row is zero left of its pivot, and every row below the rank is zero.
It skips the rows that Bareiss's step would only rescale, dividing exactly
at their next update (see its docstring).  It loops over lists, not numpy
object arrays: on the small matrices the program eliminates, numpy's
per-call overhead cost more than the arithmetic.
Rank and determinant read its forward pass; null spaces and solves go on
by fraction-free back-substitution on that echelon form to the (unique)
reduced row echelon form over the positive integer s = |d|, or |d|^2 when
the last pivot d is not real.  Every division is exact because d times
each entry is a minor of the input (Cramer's rule) and s is a multiple of
d in Z[i].  A null space comes back as one matrix whose columns are the
basis vectors.  The characteristic polynomial runs Faddeev-LeVerrier on
the same numerators, where its divisions are exact.

Every float-backend rank decision comes from one helper, :func:`_float_svd`,
which counts the singular values with

    sigma > rank_rel_tol * norm * max(rows, cols),

where norm is sigma_max of the matrix itself unless the caller passes a
reference norm (rank sequences pass ||m||_2 to :func:`orthonormal_range_basis`,
Sylvester systems ||m1||_2 + ||m2||_2 to :func:`nullspace_basis`).
A float matrix is invertible when its condition_estimate is at most max_condition.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import BackendError, ShapeError
from .matrix import EXACT, FLOAT, Matrix, _at_unit_scale, _gauss
from .scalars import DEFAULT_TOLERANCE, GQ, TolerancePolicy


def _eliminate(m: Matrix):
    """_eliminate_rows on the numerators of the exact matrix m, copied to
    rows of Python ints; the denominator is left to the caller."""
    re, im, _ = m.numerators
    return _eliminate_rows(re.tolist(), im.tolist())


def _eliminate_rows(re: list, im: list):
    """Fraction-free forward elimination over Z[i] on the rows re + i im of
    Python ints, which it consumes.

    Pivots are the first nonzero entries of their columns.  Bareiss's
    update of a row below the pivot p is (p * a - f * b) / prev, with f
    the row's entry in the pivot column, b the pivot row and prev the pivot
    before p; every entry stays a minor of the input.  A row with f = 0
    would only be rescaled by p / prev, so it is left as it is and keeps
    q, the pivot of the last step that updated it (1 at first): it holds
    that step's minors, and the current ones are those times prev / q.
    Its next update is (p * a - f * b) / q, and a row chosen as pivot row
    is first multiplied by prev / q.  Both divisions are exact in Z[i],
    since their results are minors of the input.  A division by a real q
    is a plain //, skipped when q = 1; otherwise the numerator is
    multiplied by conj(q) and divided by |q|^2.  An updated row's entry in
    the pivot column is set to 0, and rows keep their width: column c is at
    index c in every row.  The rows returned are a row echelon form, the
    one of the eager update: pivot row k is zero left of pivots[k], and
    every row from the rank on is zero.

    Returns (re, im, pivot columns, row-swap sign, last pivot as (re, im)).
    """
    rows = len(re)
    cols = len(re[0]) if rows else 0
    prev = (1, 0)
    scale = [prev] * rows  # q of each row
    sign = 1
    pivots: list[int] = []
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
            scale[r], scale[hit] = scale[hit], scale[r]
            sign = -sign
        ur, ui, (qr, qi) = re[r], im[r], scale[r]
        if (qr, qi) != prev:  # times prev / q; the row is zero left of column c
            gr, gi = prev
            div = qr
            if qi:
                gr, gi, div = gr * qr + gi * qi, gi * qr - gr * qi, qr * qr + qi * qi
            xs = ur[c:], ui[c:]
            ur[c:] = [(a * gr - b * gi) // div for a, b in zip(*xs)]
            ui[c:] = [(a * gi + b * gr) // div for a, b in zip(*xs)]
        prev = pr, pi = ur[c], ui[c]
        tr, ti = ur[c + 1:], ui[c + 1:]  # rows below are zero left of column c + 1
        for i in range(r + 1, rows):
            ar, ai = re[i], im[i]
            fr, fi = ar[c], ai[c]
            if not (fr or fi):
                continue
            (qr, qi), scale[i] = scale[i], prev
            gr, gi, div = pr, pi, qr
            if qi:
                gr, gi, div = pr * qr + pi * qi, pi * qr - pr * qi, qr * qr + qi * qi
                fr, fi = fr * qr + fi * qi, fi * qr - fr * qi
            xs = (ar[c + 1:], ai[c + 1:], tr, ti)
            ar[c] = ai[c] = 0
            if div == 1:
                ar[c + 1:] = [gr * a - gi * b - fr * x + fi * y for a, b, x, y in zip(*xs)]
                ai[c + 1:] = [gr * b + gi * a - fr * y - fi * x for a, b, x, y in zip(*xs)]
            else:
                ar[c + 1:] = [(gr * a - gi * b - fr * x + fi * y) // div for a, b, x, y in zip(*xs)]
                ai[c + 1:] = [(gr * b + gi * a - fr * y - fi * x) // div for a, b, x, y in zip(*xs)]
        pivots.append(c)
    return re, im, pivots, sign, prev


def _back_substitute(re: list, im: list, pivots: list, d: tuple, targets):
    """(z, s) from the echelon rows _eliminate_rows returns and its last pivot d: s = |d|
    when d is real and |d|^2 when not, a positive multiple of d in Z[i], and the integer
    object array z, z[0, k, j] + i z[1, k, j] = -s * rref[k][targets[j]] for every pivot
    row k, reading each row's entries by column number (zero left of its pivot, as is
    rref[k]).  d * rref[k][f] is an r x r minor of the input (Cramer's rule), so
    s * rref[k][f] = (s / d) * d * rref[k][f] is a Gaussian integer and each step, from
    the last pivot row up, divides exactly in Z[i] by the pivot q of row k: by // when
    q is real, else by |q|^2 after multiplying by conj(q)."""
    dr, di = d
    s = dr * dr + di * di if di else abs(dr)
    zr = [[0] * len(targets) for _ in pivots]
    zi = [[0] * len(targets) for _ in pivots]
    for k in reversed(range(len(pivots))):
        ur, ui, p = re[k], im[k], pivots[k]
        qr, qi = ur[p], ui[p]
        div = qr * qr + qi * qi if qi else qr
        # row k's nonzero entries in the later pivot columns, with those rows' results
        later = [(ur[c], ui[c], zr[j], zi[j]) for j, c in enumerate(pivots[k + 1:], k + 1)
                 if ur[c] or ui[c]]
        for t, f in enumerate(targets):
            xr, xi = -s * ur[f], -s * ui[f]
            for cr, ci, sr, si in later:
                yr, yi = sr[t], si[t]
                xr -= cr * yr - ci * yi
                xi -= cr * yi + ci * yr
            if qi:
                xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
            zr[k][t], zi[k][t] = xr // div, xi // div
    return np.array([zr, zi], dtype=object).reshape(2, len(pivots), len(targets)), s


def _kernel_rows(re: list, im: list, cols: int):
    """(v, s) for the rows re + i im of Python ints (consumed), cols entries each: the
    integer object array v, shape (2, cols, nullity), whose column j over the positive
    integer s is the j-th reduced-row-echelon basis vector of the kernel (nullspace_basis)."""
    re, im, pivots, _, d = _eliminate_rows(re, im)
    free = [j for j in range(cols) if j not in pivots]
    # v_f = e_f - sum_k rref[k, f] e_{pivots[k]}, over s
    z, s = _back_substitute(re, im, pivots, d, free)
    v = np.zeros((2, cols, len(free)), dtype=object)  # re | im
    v[0, free, range(len(free))] = s
    v[:, pivots] = z
    return v, s


def _solve_rows(re: list, im: list, k: int, cols: int) -> Matrix | None:
    """Any exact X with A X = B, or None, for the rows re + i im of Python ints (consumed)
    of [A | B]: k columns in A and cols in all, eliminated once and back-substituted."""
    re, im, pivots, _, d = _eliminate_rows(re, im)
    if pivots and pivots[-1] >= k:
        return None
    z, s = _back_substitute(re, im, pivots, d, range(k, cols))
    x = np.zeros((2, k, cols - k), dtype=object)  # re | im
    x[:, pivots] = -z  # x_k = rref[k][B's columns]
    return Matrix((*x, s), EXACT)


def _float_svd(m: Matrix, tol: TolerancePolicy, norm: float | None = None):
    """(u, s, vh, r): the full SVD of the float m / 2^e (matrix._at_unit_scale)
    and its rank r, the number of singular values above rank_rel_tol * norm *
    max(rows, cols).  norm is in the units of m (default: sigma_max of m)."""
    unit, e = _at_unit_scale(m)
    u, s, vh = np.linalg.svd(unit.array)
    norm = (s[0] if s.size else 0.0) if norm is None else np.ldexp(norm, -e)
    return u, s, vh, int(np.count_nonzero(s > tol.rank_rel_tol * norm * max(m.rows, m.cols)))


def rank(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> int:
    """Rank over the complex field (exact) or numerical rank (float)."""
    if m.backend == EXACT:
        return len(_eliminate(m)[2])
    return _float_svd(m, tol)[3]


def determinant(m: Matrix):
    if not m.is_square:
        raise ShapeError("determinant of a non-square matrix")
    if m.backend == FLOAT:
        return complex(np.linalg.det(m.array))
    _, _, pivots, sign, (dr, di) = _eliminate(m)
    if len(pivots) < m.rows:
        return GQ(0)
    scale = m.numerators[2] ** m.rows
    return GQ(Fraction(sign * dr, scale), Fraction(sign * di, scale))


def invertible(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    if not m.is_square:
        return False
    if m.backend == EXACT:
        return rank(m) == m.rows
    return condition_estimate(m) <= tol.max_condition


def condition_estimate(m: Matrix) -> float:
    """sigma_max / sigma_min (float backend; inf when singular)."""
    if m.backend == EXACT:
        raise BackendError("condition estimates are a float-backend notion")
    if m.rows == 0 or m.cols == 0:
        return 1.0
    s = np.linalg.svd(_at_unit_scale(m)[0].array, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] else float("inf")


def nullspace_basis(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE, norm=None) -> Matrix:
    """The cols x (cols - rank(m)) matrix whose columns are a basis of ker(m): the reduced-row-
    echelon basis (exact) or the right singular vectors past _float_svd's rank (float)."""
    if m.backend == EXACT:
        re, im, _ = m.numerators
        v, s = _kernel_rows(re.tolist(), im.tolist(), m.cols)
        return Matrix((*v, s), EXACT)
    _, _, vh, r = _float_svd(m, tol, norm)
    return Matrix.from_float(vh.conj().T[:, r:])


def solve_linear(a: Matrix, b: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> Matrix | None:
    """Any X with a X = b, or None when the system is inconsistent.

    Exact: consistency is decided exactly.  Float: least-squares solution,
    accepted when ||a X - b||_F is at most residual_tol * max(||b||_F, ||a||_F).
    """
    a._check_same_backend(b)
    if a.rows != b.rows:
        raise ShapeError("a and b must have the same number of rows")
    if a.backend == EXACT:
        (ar, ai, da), (br, bi, db) = a.numerators, b.numerators
        den = math.lcm(da, db)  # one denominator scales both sides alike and leaves X unchanged
        rows = [[x + y for x, y in zip((p * (den // da)).tolist(), (q * (den // db)).tolist())]
                for p, q in ((ar, br), (ai, bi))]  # re and im of [a | b]
        return _solve_rows(*rows, a.cols, a.cols + b.cols)
    x, *_ = np.linalg.lstsq(a.array, b.array, rcond=None)
    residual = float(np.linalg.norm(a.array @ x - b.array))
    if residual > tol.residual_tol * max(b.frobenius(), a.frobenius()):
        return None
    return Matrix.from_float(x)


def orthonormal_range_basis(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE, norm=None) -> Matrix:
    """An orthonormal basis of range(m): its leading left singular vectors under the cutoff
    of _float_svd.  Float backend only: orthonormalization leaves the Gaussian-rational field."""
    if m.backend == EXACT:
        raise BackendError("orthonormal bases require the float backend")
    u, _, _, r = _float_svd(m, tol, norm)
    return Matrix.from_float(u[:, :r])


def characteristic_polynomial(m: Matrix) -> list:
    """Monic coefficients in descending powers, [1, c_1, ..., c_n].

    Exact backend: the Faddeev-LeVerrier recursion A_1 = I,
    c_k = -tr(N A_k) / k, A_(k+1) = N A_k + c_k I on the Gaussian-integer
    numerators N = den * m, where every division by k is exact; c_k(m) is
    then c_k(N) / den^k.  Float backend: expanded from eigenvalues.
    """
    if not m.is_square:
        raise ShapeError("characteristic polynomial of a non-square matrix")
    n = m.rows
    if m.backend == FLOAT:
        if n == 0:
            return [complex(1)]
        eigs = np.linalg.eigvals(m.array)
        return [complex(c) for c in np.poly(eigs)]
    nr, ni, den = m.numerators
    return [GQ(Fraction(cr, den ** k), Fraction(ci, den ** k))
            for k, (cr, ci) in enumerate(_charpoly_numerators(nr, ni))]


def _charpoly_numerators(nr: np.ndarray, ni: np.ndarray) -> list:
    """[(re, im) of c_k(N)] for k = 0..n, by the Faddeev-LeVerrier recursion of
    characteristic_polynomial on the Gaussian-integer matrix N = nr + i ni."""
    n = len(nr)
    ar, ai = np.eye(n, dtype=object), np.zeros((n, n), dtype=object)
    coeffs = [(1, 0)]
    for k in range(1, n + 1):
        ar, ai = _gauss(np.dot, nr, ni, ar, ai)
        cr, ci = -sum(ar.diagonal()) // k, -sum(ai.diagonal()) // k
        coeffs.append((cr, ci))
        ar.flat[::n + 1] += cr  # the diagonal
        ai.flat[::n + 1] += ci
    return coeffs
