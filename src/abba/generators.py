"""Seeded random matrix families used by searches and property suites.

Float families: normal/Hermitian matrices are built as U D U* with U the
Q factor of a complex Gaussian matrix, PSD as G* G, EP as U (C + 0) U*.
Exact families replace U by a Cayley transform (I - S)(I + S)^(-1) of a
small skew-Hermitian S, which is exactly unitary with Gaussian-rational
entries.  Every generator is deterministic given its Generator instance.
"""

from __future__ import annotations

import numpy as np

from .classes import is_normal
from .linalg import rank as matrix_rank, solve_linear
from .matrix import Matrix, block
from .scalars import GQ


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


def _int(rng: np.random.Generator, span: int) -> int:
    return int(rng.integers(-span, span + 1))


def rational_skew_hermitian(n: int, rng: np.random.Generator, span: int = 1) -> Matrix:
    re = np.zeros((n, n), dtype=object)
    im = np.zeros((n, n), dtype=object)
    for i in range(n):
        im[i, i] = _int(rng, span)
        for j in range(i + 1, n):
            a, b = _int(rng, span), _int(rng, span)
            re[i, j], im[i, j] = a, b
            re[j, i], im[j, i] = -a, b
    return Matrix.from_ints(re, im)


def rational_unitary(n: int, rng: np.random.Generator, span: int = 1) -> Matrix:
    """Cayley transform (I - S)(I + S)^(-1) of a skew-Hermitian S; exactly
    unitary because I + S is invertible and conjugation flips the factors."""
    s = rational_skew_hermitian(n, rng, span)
    eye = Matrix.identity(n)
    inv = solve_linear(eye + s, eye)
    assert inv is not None
    return (eye - s) @ inv


def _rational_nonzero(rng: np.random.Generator) -> GQ:
    while True:
        z = GQ(_int(rng, 2), _int(rng, 2))
        if z:
            return z


def rational_diagonal(n: int, rng: np.random.Generator, nonzeros: int, real: bool = False) -> Matrix:
    values = []
    for i in range(n):
        if i < nonzeros:
            z = _rational_nonzero(rng)
            values.append(GQ(z.re if z.re else 1, 0) if real else z)
        else:
            values.append(GQ(0))
    perm = rng.permutation(n)
    return Matrix.diagonal([values[int(p)] for p in perm])


def rational_normal(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    u = rational_unitary(n, rng)
    d = rational_diagonal(n, rng, r)
    return u @ d @ u.adjoint()


def rational_hermitian(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    if rank is not None:
        u = rational_unitary(n, rng)
        d = rational_diagonal(n, rng, rank, real=True)
        return u @ d @ u.adjoint()
    re = np.zeros((n, n), dtype=object)
    im = np.zeros((n, n), dtype=object)
    for i in range(n):
        re[i, i] = _int(rng, 2)
        for j in range(i + 1, n):
            a, b = _int(rng, 2), _int(rng, 2)
            re[i, j], im[i, j] = a, b
            re[j, i], im[j, i] = a, -b
    return Matrix.from_ints(re, im)


def rational_psd(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    if r == 0:
        return Matrix.zeros(n, n)
    while True:
        g = Matrix.exact([[(_int(rng, 2), _int(rng, 2)) for _ in range(n)] for _ in range(r)])
        if matrix_rank(g) == r:
            return g.adjoint() @ g


def rational_ep(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    r = _pick_rank(n, rng, rank)
    u = rational_unitary(n, rng)
    if r == 0:
        return Matrix.zeros(n, n)
    while True:
        c = Matrix.exact([[(_int(rng, 2), _int(rng, 2)) for _ in range(r)] for _ in range(r)])
        if matrix_rank(c) == r:
            break
    core = block([[c, Matrix.zeros(r, n - r)], [Matrix.zeros(n - r, r), Matrix.zeros(n - r, n - r)]])
    return u @ core @ u.adjoint()


def zero_one_normal(n: int, rng: np.random.Generator, rank: int | None = None) -> Matrix:
    """Random 0-1 partial permutation matrix, rejection-filtered by is_normal."""
    while True:
        k = _pick_rank(n, rng, rank)
        rows = rng.choice(n, size=k, replace=False)
        cols = rng.choice(n, size=k, replace=False)
        arr = np.zeros((n, n), dtype=object)
        for i, j in zip(rows, cols):
            arr[int(i), int(j)] = 1
        m = Matrix.from_ints(arr)
        if is_normal(m):
            return m
