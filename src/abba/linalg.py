"""Rank, null spaces, solves, and characteristic polynomials on both backends.

On the exact backend one routine, :func:`_eliminate_rows`, does every
elimination over Z[i] (wide null spaces first try the modular path below):
fraction-free (Bareiss) elimination over the Gaussian integers on rows of
Python ints, so intermediate entries stay minors of the input.  :func:`_eliminate` feeds it the integer numerators that
:attr:`Matrix.numerators` exposes; exact rank sequences and Sylvester
systems feed it their integer rows directly, with no Matrix in between.
It returns the row echelon form of the eager update, at full width: each
pivot row is zero left of its pivot, and every row below the rank is zero.
It skips the rows that Bareiss's step would only rescale, dividing exactly
at their next update (see its docstring).  It loops over lists, not numpy
object arrays: on the small matrices the program eliminates, numpy's
per-call overhead cost more than the arithmetic.
Rank and determinant read its forward pass.  Null spaces and solves read the
reduced row echelon form from :func:`_rref_rows`, where Bareiss's pass goes
on by fraction-free back-substitution to the (unique) RREF over the positive
integer s = |d|, or |d|^2 when the last pivot d is not real.  Every division
is exact because d times each entry is a minor of the input (Cramer's rule)
and s is a multiple of d in Z[i].  A null space comes back as one matrix
whose columns are the basis vectors; A X = B is solved from the RREF of
[A | B].  The characteristic polynomial runs Faddeev-LeVerrier on the same
numerators, where its divisions are exact.

Systems of at least _MODULAR_COLS = 25 columns (the n^2-column Sylvester
systems from n = 5 up, and wide solves) first try :func:`_modular_kernel`,
whose Bareiss pivots would be far larger than the answer: int64 Gauss-Jordan
elimination of the rows' images modulo the primes p = 1 (mod 4) of
:func:`_primes`, under both square roots of -1, then Chinese remaindering and
rational reconstruction over one common denominator, with primes added until
one more agrees.  Its candidate V is kept only if A V = 0 holds exactly,
which proves it is the RREF basis: (1) a modular rank is at most the rank and
V is the identity on the modular free columns, so V spans the kernel; (2)
each free column of V is e_f plus earlier pivot columns, so the modular free
columns are the true ones; (3) a kernel vector that is zero on the free
columns is zero.  When that path fails (check failed, or past its lazy-update
bound) Bareiss's answer is returned, so results never depend on the path.
Below 25 columns Bareiss runs alone: at 16 it was as fast or faster on every
measured system (BENCH_modular_kernel.json).

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


def _rref_rows(re: list, im: list, cols: int):
    """(z, s, pivots) for the rows re + i im of Python ints (consumed), cols entries each:
    the pivot columns of their reduced row echelon form rref, a positive integer s and the
    integer object array z, shape (2, rank, cols - rank), z[0, k, j] + i z[1, k, j] =
    -s * rref[k][f] for the j-th free column f.  From _MODULAR_COLS columns up it is
    _modular_kernel's answer when that certifies one, else Bareiss's: _eliminate_rows, s =
    |d| for its last pivot d when real and |d|^2 when not, and back-substitution from the
    last pivot row up, reading rows by column number and dividing exactly in Z[i] by each
    row's pivot q (by // when q is real, else by |q|^2 after multiplying by conj(q)), since
    s * rref[k][f] = (s / d) * d * rref[k][f] and d * rref[k][f] is a minor (Cramer's rule)."""
    if cols >= _MODULAR_COLS:
        rref = _modular_kernel(re, im, cols)
        if rref is not None:
            return rref
    re, im, pivots, _, (dr, di) = _eliminate_rows(re, im)
    s = dr * dr + di * di if di else abs(dr)
    free = [j for j in range(cols) if j not in pivots]
    zr = [[0] * len(free) for _ in pivots]
    zi = [[0] * len(free) for _ in pivots]
    for k in reversed(range(len(pivots))):
        ur, ui, p = re[k], im[k], pivots[k]
        qr, qi = ur[p], ui[p]
        div = qr * qr + qi * qi if qi else qr
        # row k's nonzero entries in the later pivot columns, with those rows' results
        later = [(ur[c], ui[c], zr[j], zi[j]) for j, c in enumerate(pivots[k + 1:], k + 1)
                 if ur[c] or ui[c]]
        for t, f in enumerate(free):
            xr, xi = -s * ur[f], -s * ui[f]
            for cr, ci, sr, si in later:
                yr, yi = sr[t], si[t]
                xr -= cr * yr - ci * yi
                xi -= cr * yi + ci * yr
            if qi:
                xr, xi = xr * qr + xi * qi, xi * qr - xr * qi
            zr[k][t], zi[k][t] = xr // div, xi // div
    return np.array([zr, zi], dtype=object).reshape(2, len(pivots), len(free)), s, pivots


def _kernel_rows(re: list, im: list, cols: int):
    """(v, s) for the rows re + i im of Python ints (consumed), cols entries each: the
    integer object array v, shape (2, cols, nullity), whose column j over the positive
    integer s is the j-th reduced-row-echelon basis vector of the kernel (nullspace_basis),
    v_f = e_f - sum_k rref[k][f] e_{pivots[k]} for the free column f, read off _rref_rows."""
    z, s, pivots = _rref_rows(re, im, cols)
    free = [j for j in range(cols) if j not in pivots]
    v = np.zeros((2, cols, len(free)), dtype=object)  # re | im
    v[0, free, range(len(free))] = s
    v[:, pivots] = z
    return v, s


def _is_prime(n: int) -> bool:
    """Miller-Rabin on odd n > 61 with bases 2, 7 and 61, a proof below 4,759,123,141
    (Jaeschke 1993): n - 1 = 2^r d with d odd, and a^d = 1 or a^(2^j d) = -1 for a j < r."""
    r = ((n - 1) & (1 - n)).bit_length() - 1
    return all(x == 1 or n - 1 in (pow(x, 2 ** j, n) for j in range(r))
               for x in (pow(a, (n - 1) >> r, n) for a in (2, 7, 61)))


_drawn: list = []  # the (p, w) pairs _primes has generated so far


def _primes(start: int, stop: int) -> list:
    """Pairs start to stop - 1 of the primes p = 1 (mod 4) below 2^27, largest first, each
    as (p, w) with w < p - w the square roots of -1 mod p: w = c^((p - 1) / 4), or p minus
    it, for the first quadratic non-residue c.  Generated on first use and kept; fewer
    when the supply, which ends above 61, runs out."""
    p = _drawn[-1][0] if _drawn else 2 ** 27 + 1
    while len(_drawn) < stop and p > 65:
        p -= 4
        if _is_prime(p):
            c = 2
            while pow(c, (p - 1) // 2, p) != p - 1:  # Euler's criterion
                c += 1
            w = pow(c, (p - 1) // 4, p)
            _drawn.append((p, min(w, p - w)))
    return _drawn[start:stop]


# _rref_rows tries _modular_kernel on systems of at least this many columns: the measured
# crossover with Bareiss on Sylvester systems lies between 16 and 25 (BENCH_modular_kernel.json)
_MODULAR_COLS = 25


def _modular_kernel(re: list, im: list, cols: int):
    """(z, s, pivots) as _rref_rows returns it, for the rows re + i im of Python ints (not
    consumed), computed modulo the (p, w) that _primes supplies, or None.

    Each prime's two ring maps Z[i] -> F_p, i -> w and i -> -w, send the rows to two
    images, and passes over growing batches of primes run _gauss_jordan_images on all of
    their images at once.  A batch keeps the primes whose two images share the best
    pivot profile seen (more pivots, then earlier ones), and those images' RREF entries
    give the two images x+ and x- of each kernel entry, hence its real and imaginary
    parts mod p: (x+ + x-) / 2 and (x- - x+) w / 2.  Chinese remaindering over every
    kept prime but the last, rational reconstruction over one common denominator s
    (Wang 1981) and agreement with the last prime (early termination, Monagan 2004) give
    a candidate z, the pivot rows of the basis v that _kernel_rows assembles from it; a
    failure draws the next batch.  That ends: all but finitely many primes are lucky
    (divide no pivot minor of the true profile) and give the images of the true RREF, so
    their product passes 2 max(|num|, s)^2 and the reconstruction is the true one (an
    exhausted supply, millions of primes on, would return None).

    The candidate is accepted only if A v = 0 holds exactly, and then it is the RREF
    basis: (1) a minor of the image is the image of the minor, so the modular rank r is
    at most the rank; v is s * I on the cols - r modular free columns, so the check gives
    nullity >= cols - r, hence rank = r and v spans the kernel; (2) column f of v is e_f
    plus a combination of the pivot columns before f, so each free column f is a
    combination of the columns before it, which makes the modular free columns the true
    ones; (3) two kernel vectors that agree on the free columns differ by a kernel vector
    on the pivot columns alone, which is 0.  A failed check returns None.
    """
    rows = len(re)
    if min(rows, cols) >= _LAZY_PIVOTS:
        return None
    try:
        a = np.array([re, im], dtype=np.int64).reshape(2, rows, cols)
    except OverflowError:  # entries past 62 bits are reduced as Python ints
        a = np.array([re, im], dtype=object).reshape(2, rows, cols)
    best, moduli, residues, used = None, [], [], 0
    while batch := _primes(used, used + (used // 2 or 12)):
        used += len(batch)
        batch = np.array(batch, dtype=np.int64)
        p, w = batch[:, :1, None], batch[:, 1:, None]  # (batch, 1, 1)
        ar, ai = (a[:, None] % p).astype(np.int64)
        iw = ai * w % p
        images = np.stack([ar + iw, ar - iw], axis=1) % p[:, None]  # image 2j + 1 has -w
        m, kept, pivots = _gauss_jordan_images(images.reshape(2 * len(batch), rows, cols),
                                               batch[:, 0].repeat(2))
        key = (-len(pivots), pivots)
        if best is None or key < best:
            best, moduli, residues = key, [], []
            free = [j for j in range(cols) if j not in pivots]
        elif key > best:
            continue
        at = {k: i for i, k in enumerate(kept.tolist())}
        both = [j for j in range(len(batch)) if 2 * j in at and 2 * j + 1 in at]
        if not both:
            continue
        # the RREF entries x of the free columns under i -> w and i -> -w; z = -s x
        p, w = p[both], w[both]
        x = m[:, :len(pivots)][:, :, free]
        xp, xm = (x[[at[2 * j + e] for j in both]] % p for e in (0, 1))
        half = (p + 1) // 2
        residues.append(np.stack([(-xp - xm) % p * half % p, (xp - xm) % p * w % p * half % p], 1))
        moduli += p.ravel().tolist()
        if len(moduli) < 2:
            continue
        r = np.concatenate(residues)
        kernel = _reconstruct(_crt(r[:-1], moduli[:-1]), math.prod(moduli[:-1]))
        if kernel is None:
            continue
        nums, s = kernel
        if ((nums - r[-1].astype(object) * s) % moduli[-1]).any():
            continue
        obj = a.astype(object)
        zr, zi = _gauss(np.dot, obj[0][:, pivots], obj[1][:, pivots], *nums)
        if (zr + obj[0][:, free] * s).any() or (zi + obj[1][:, free] * s).any():
            return None
        return nums, s, pivots
    return None


# updates in _gauss_jordan_images stay unreduced: with p < 2^27 each adds less than
# p^2 < 2^54 to an entry, so entries stay below 2^63 for up to 511 pivots
_LAZY_PIVOTS = 512


def _gauss_jordan_images(m: np.ndarray, p: np.ndarray):
    """(m, kept, pivots): Gauss-Jordan elimination of the images m[k] (int64, shape
    (images, rows, cols), entries in [0, p[k])) modulo p[k] < 2^27, all images in lockstep.

    An image that has no pivot in a column where another one has is unlucky (its rank
    profile falls below theirs, and the true one is at least every modular one), so it
    is dropped; kept holds the indices into the input of the images returned.  Column c
    is reduced mod p when it is read, and so is the pivot row, scaled to a leading 1;
    every other entry is updated unreduced, for fewer than _LAZY_PIVOTS pivots.  Pivot
    columns are left as they are, so only rows[:len(pivots)] at the other columns are
    meaningful: the RREF entries there, up to multiples of p.
    """
    kept = np.arange(len(m))
    rows, cols = m.shape[1:]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        col = m[:, :, c] % p[:, None]
        nonzero = col[:, r:] != 0
        every = nonzero.all(0)
        hit = int(every.argmax())
        if every[hit]:  # a pivot row shared by every image
            if hit:
                m[:, [r, r + hit]] = m[:, [r + hit, r]]
                col[:, [r, r + hit]] = col[:, [r + hit, r]]
        else:
            has = nonzero.any(1)
            if not has.any():
                continue
            m, p, kept, col, nonzero = m[has], p[has], kept[has], col[has], nonzero[has]
            k, hits = np.arange(len(m)), r + nonzero.argmax(1)
            for x in (m, col):
                x[k, r], x[k, hits] = x[k, hits], x[k, r].copy()
        inverse = np.array([pow(x, -1, q) for x, q in zip(col[:, r].tolist(), p.tolist())])
        row = m[:, r, c + 1:] % p[:, None] * inverse[:, None] % p[:, None]
        m[:, r, c + 1:] = row
        col[:, r] = 0
        m[:, :, c + 1:] -= col[:, :, None] * row[:, None, :]
        pivots.append(c)
    return m, kept, pivots


def _crt(residues: np.ndarray, moduli: list) -> np.ndarray:
    """The object array x mod prod(moduli) with x = residues[k] mod moduli[k]."""
    mod = math.prod(moduli)
    x = 0
    for r, q in zip(residues, moduli):
        c = mod // q
        x = x + r.astype(object) * (c * pow(c, -1, q))
    return x % mod


def _reconstruct(x: np.ndarray, mod: int):
    """(nums, s): the residues x mod `mod` (an object array) as nums / s over one common
    denominator s > 0, every |num| and s at most sqrt(mod / 2), so that they are unique
    (Wang 1981); or None.  s grows by the denominator of each entry that s times it
    leaves large, found by the half-extended Euclidean algorithm."""
    bound = math.isqrt(mod // 2)
    flat, s, start = x.ravel(), 1, 0
    while True:
        y = flat[start:] * s % mod
        large = np.flatnonzero(np.minimum(y, mod - y) > bound)
        if not large.size:
            break
        start += int(large[0])
        r0, r1, t0, t1 = mod, int(y[large[0]]), 0, 1
        while r1 > bound:
            k = r0 // r1
            r0, r1, t0, t1 = r1, r0 - k * r1, t1, t0 - k * t1
        if abs(t1) * s > bound or math.gcd(r1, t1) != 1:
            return None
        s *= abs(t1)
    y = flat * s % mod
    nums = np.where(y > mod // 2, y - mod, y)
    if (abs(nums) > bound).any():
        return None
    return nums.reshape(x.shape), s


def _solve_rows(re: list, im: list, k: int, cols: int) -> Matrix | None:
    """The exact X with A X = B that is zero on A's free rows, or None, for the rows re + i im
    of Python ints (consumed) of [A | B], k columns in A and cols in all, read off _rref_rows:
    A X = B is consistent iff no pivot lies in B, and then B's columns are the last cols - k
    free ones and X[pivots] = rref[:, B's columns]."""
    z, s, pivots = _rref_rows(re, im, cols)
    if pivots and pivots[-1] >= k:
        return None
    x = -z[:, :, k - len(pivots):]  # re | im of X's pivot rows
    if len(pivots) < k:  # X is zero on A's free rows
        x, rows = np.zeros((2, k, cols - k), dtype=object), x
        x[:, pivots] = rows
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
