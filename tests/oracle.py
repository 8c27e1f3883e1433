"""Independent sympy-based oracle used to cross-check exact results.

Everything here avoids the package's own elimination and polynomial code
paths, so agreement is meaningful.
"""

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from abba import Matrix, kron


def to_sympy(m: Matrix) -> sp.Matrix:
    assert m.backend == "exact"
    # the (rows, cols, fn) form keeps zero-size shapes such as 0 x 3
    return sp.Matrix(
        m.rows, m.cols, lambda i, j: sp.Rational(m[i, j].re) + sp.I * sp.Rational(m[i, j].im)
    )


def kron_sylvester(x: Matrix, y: Matrix) -> Matrix:
    """kron(x^T, I) - kron(I, y), whose kernel is vec of {s : s x = y s}."""
    eye = Matrix.identity(x.rows)
    return kron(x.transpose(), eye) - kron(eye, y)


def oracle_rank(m: Matrix) -> int:
    return to_sympy(m).rank()


def oracle_det(m: Matrix) -> sp.Expr:
    return sp.simplify(to_sympy(m).det())


def oracle_charpoly(m: Matrix) -> list:
    return [sp.expand(c) for c in to_sympy(m).charpoly().all_coeffs()]


def oracle_eigenvalues(m: Matrix) -> dict:
    return to_sympy(m).eigenvals()


def oracle_word_trace(m: Matrix, letters) -> sp.Expr:
    sm = to_sympy(m)
    prod = sp.eye(sm.shape[0])
    for letter in letters:
        prod = prod * (sm if letter == "x" else sm.H)
    return sp.simplify(sp.trace(prod))


def gq_equals_sympy(value, expr) -> bool:
    return sp.simplify(sp.Rational(value.re) + sp.I * sp.Rational(value.im) - expr) == 0


def partition_at_zero(terms) -> list[int]:
    """Jordan block sizes at eigenvalue zero, largest first, read off a rank
    sequence: its j-th drop counts the blocks of size at least j + 1."""
    drops = [s - t for s, t in zip(terms, terms[1:])]
    return [sum(d >= i for d in drops) for i in range(1, drops[0] + 1)] if drops else []


def flanders_ok(seq_ab, seq_ba) -> bool:
    """Flanders (1951) on the rank sequences (stabilized terms) of AB and BA:
    equal size and limit, and partitions at zero that, sorted and padded with
    zeros, differ by at most 1 entrywise."""
    if seq_ab[0] != seq_ba[0] or seq_ab[-1] != seq_ba[-1]:
        return False
    lam, mu = partition_at_zero(seq_ab), partition_at_zero(seq_ba)
    width = max(len(lam), len(mu))
    lam, mu = lam + [0] * (width - len(lam)), mu + [0] * (width - len(mu))
    return all(abs(x - y) <= 1 for x, y in zip(lam, mu))


def oracle_rank_sequence(m: Matrix) -> tuple[int, ...]:
    """Ranks of sympy's powers of m, up to the first repeat (the stabilized terms).
    The powers are DomainMatrix products over QQ_I, whose exact rank stays fast
    where Matrix.rank on dense Gaussian rationals at n = 6 takes seconds."""
    dm = DomainMatrix.from_Matrix(to_sympy(m)).convert_to(sp.QQ_I)
    terms, power = [m.rows], DomainMatrix.eye(m.rows, sp.QQ_I)
    while len(terms) < 2 or terms[-1] != terms[-2]:
        power = power * dm
        terms.append(power.rank())
    return tuple(terms[:-1])
