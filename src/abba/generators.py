"""Seeded random matrix families used by searches and property suites.

Float families: normal/Hermitian matrices are built as U D U* with U the
Q factor of a complex Gaussian matrix, PSD as G* G, EP as U (C + 0) U*.
Exact families replace U by a Cayley transform (I + S)^(-1)(I - S) of a
small skew-Hermitian S, which is exactly unitary with Gaussian-rational
entries; it is solved from the rows of [I + S | I - S], written straight
from the drawn parts of S.  Each exact candidate draws its integer parts in
one ``rng.integers`` call, straight into numerator arrays.  Each conjugation
(U D U*, U_r C U_r*) is one integer product of numerators over den_U^2, with
one canonical Matrix for the result.  Every generator is deterministic given
its Generator instance.
"""

from __future__ import annotations

import numpy as np

from .linalg import _solve_rows, rank as matrix_rank
from .matrix import EXACT, Matrix, _gauss


# -- float backend ------------------------------------------------------


def random_unitary(n: int, rng: np.random.Generator) -> Matrix:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    q = q * (d / np.abs(d))
    return Matrix.from_float(q)


def _pick_rank(n: int, rng: np.random.Generator, rank_: int | None) -> int:
    if rank_ is None:
        return int(rng.integers(0, n + 1))
    if not 0 <= rank_ <= n:
        raise ValueError(f"rank {rank_} out of range for size {n}")
    return rank_


def _nonzero_moduli(k: int, rng: np.random.Generator) -> np.ndarray:
    # keep eigenvalues away from zero so conditioning stays tame
    return rng.uniform(0.5, 2.0, size=k)


def random_normal(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    angles = rng.uniform(0, 2 * np.pi, size=r)
    eigs = np.concatenate([_nonzero_moduli(r, rng) * np.exp(1j * angles), np.zeros(n - r)])
    u = random_unitary(n, rng)
    return u @ Matrix.from_float(np.diag(eigs)) @ u.adjoint()

def random_hermitian(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    signs = rng.choice([-1.0, 1.0], size=r)
    eigs = np.concatenate([_nonzero_moduli(r, rng) * signs, np.zeros(n - r)])
    u = random_unitary(n, rng)
    return u @ Matrix.from_float(np.diag(eigs)) @ u.adjoint()


def random_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    g = rng.standard_normal((r, n)) + 1j * rng.standard_normal((r, n))
    return Matrix.from_float(g.conj().T @ g)


def random_ep(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    c = rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)) + 2.0 * np.eye(r)
    u = random_unitary(n, rng)
    core = np.zeros((n, n), dtype=complex)
    core[:r, :r] = c
    return u @ Matrix.from_float(core) @ u.adjoint()


def random_realpart_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    """A with Re(A) PSD of the same rank as A: PSD plus a skew part
    supported on the range of the PSD part."""
    r = _pick_rank(n, rng, rank)
    h = random_psd(n, rng, rank=r)
    w, v = np.linalg.eigh(h.array)
    keep = v[:, w > 1e-10 * max(float(w.max()), 1e-300)]
    p = keep @ keep.conj().T
    k0 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (k0 + k0.conj().T) / 2
    return Matrix.from_float(h.array + 1j * (p @ k @ p))


def random_rank_one_normal(n: int, rng: np.random.Generator) -> Matrix:
    v = rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1))
    v = v / np.linalg.norm(v)
    lam = complex(rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0, 2 * np.pi)))
    return Matrix.from_float(lam * (v @ v.conj().T))


# -- exact backend -------------------------------------------------------


def _ints(rng: np.random.Generator, span: int, size) -> np.ndarray:
    """Parts in [-span, span], from one call: the values and state of as many scalar calls."""
    return rng.integers(-span, span + 1, size=size).astype(object)


def _triangular_parts(n: int, rng: np.random.Generator, span: int, skew: bool):
    """(re, im) of a Hermitian (skew-Hermitian when skew) Gaussian-integer matrix with
    parts in [-span, span], drawn row by row over the diagonal and upper triangle."""
    draws = iter(_ints(rng, span, n * n).tolist())
    re, im = np.zeros((2, n, n), dtype=object)
    diagonal, sign = (im, -1) if skew else (re, 1)
    for i in range(n):
        diagonal[i, i] = next(draws)
        for j in range(i + 1, n):
            a, b = next(draws), next(draws)
            re[i, j], im[i, j] = a, b
            re[j, i], im[j, i] = sign * a, -sign * b
    return re, im


def _triangular_fill(n: int, rng: np.random.Generator, span: int, skew: bool) -> Matrix:
    return Matrix((*_triangular_parts(n, rng, span, skew), 1), EXACT)


def rational_skew_hermitian(n: int, rng: np.random.Generator, span: int = 1) -> Matrix:
    return _triangular_fill(n, rng, span, skew=True)


def rational_unitary(n: int, rng: np.random.Generator, span: int = 1) -> Matrix:
    """Cayley transform (I + S)^(-1)(I - S) of a skew-Hermitian S: exactly
    unitary, as I + S is invertible and commutes with I - S = (I + S)*.
    Solved from the rows of [I + S | I - S], written from the drawn parts of S."""
    s_re, s_im = _triangular_parts(n, rng, span, skew=True)
    eye = np.eye(n, dtype=object)
    u = _solve_rows(np.hstack([eye + s_re, eye - s_re]).tolist(),
                    np.hstack([s_im, -s_im]).tolist(), n, 2 * n)
    assert u is not None
    return u


def _rational_nonzero(rng: np.random.Generator) -> tuple[int, int]:
    while True:
        z = tuple(_ints(rng, 2, 2))
        if z != (0, 0):
            return z


def _diagonal_parts(n: int, rng: np.random.Generator, nonzeros: int, real: bool):
    """(re, im): the diagonal of rational_diagonal as two integer arrays."""
    values = [_rational_nonzero(rng) for _ in range(min(nonzeros, n))]
    if real:
        values = [(re or 1, 0) for re, _ in values]
    values += [(0, 0)] * (n - len(values))
    perm = rng.permutation(n).tolist()
    return tuple(np.array([values[p][k] for p in perm], dtype=object) for k in (0, 1))


def rational_diagonal(n: int, rng: np.random.Generator, nonzeros: int, real: bool = False) -> Matrix:
    re, im = _diagonal_parts(n, rng, nonzeros, real)
    return Matrix((np.diag(re), np.diag(im), 1), EXACT)


def _conjugated_diagonal(n: int, rng: np.random.Generator, r: int, real: bool) -> Matrix:
    """u d u* as integer products over den_u^2, with u d formed by scaling the
    columns of u by the diagonal of d."""
    u_re, u_im, u_den = rational_unitary(n, rng).numerators
    ud = _gauss(np.multiply, u_re, u_im, *_diagonal_parts(n, rng, r, real))
    return Matrix((*_gauss(np.dot, *ud, u_re.T, -u_im.T), u_den * u_den), EXACT)


def rational_normal(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    return _conjugated_diagonal(n, rng, _pick_rank(n, rng, rank), real=False)


def rational_hermitian(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    if rank is not None:
        return _conjugated_diagonal(n, rng, _pick_rank(n, rng, rank), real=True)
    return _triangular_fill(n, rng, 2, skew=False)


def _full_rank(rows: int, cols: int, rng: np.random.Generator) -> Matrix:
    while True:
        parts = _ints(rng, 2, (rows, cols, 2))  # (re, im) entry by entry, row-major
        g = Matrix((parts[..., 0], parts[..., 1], 1), EXACT)
        if matrix_rank(g) == rows:
            return g


def rational_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    if r == 0:
        return Matrix.zeros(n, n)
    g = _full_rank(r, n, rng)
    return g.adjoint() @ g


def rational_ep(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    u_re, u_im, u_den = rational_unitary(n, rng).numerators
    if r == 0:
        return Matrix.zeros(n, n)
    c_re, c_im, _ = _full_rank(r, r, rng).numerators  # over den 1
    ur, ui = u_re[:, :r], u_im[:, :r]  # u (c + 0) u* = u_r c u_r*, over den_u^2
    uc = _gauss(np.dot, ur, ui, c_re, c_im)
    return Matrix((*_gauss(np.dot, *uc, ur.T, -ui.T), u_den * u_den), EXACT)


def zero_one_normal(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    """Random normal 0-1 partial permutation matrix P, by rejection: P P* and P* P
    project onto the row and the column support of P, so P is normal iff they agree."""
    while True:
        k = _pick_rank(n, rng, rank)
        rows = rng.choice(n, size=k, replace=False)
        cols = rng.choice(n, size=k, replace=False)
        if set(rows.tolist()) == set(cols.tolist()):
            re, im = np.zeros((2, n, n), dtype=object)
            re[rows, cols] = 1
            return Matrix((re, im, 1), EXACT)
