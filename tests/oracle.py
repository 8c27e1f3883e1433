"""Independent sympy-based oracle used to cross-check exact results.

Everything here avoids the package's own elimination and polynomial code
paths, so agreement is meaningful.  Elimination (rank, determinant,
characteristic polynomial, null space, solve) runs on DomainMatrix over
QQ_I, sympy's exact Gaussian rationals: on a dense 9 x 9 Sylvester system,
Matrix.nullspace, det and rank take 0.45, 0.32 and 0.05 s, and DomainMatrix
rref, det and rank 4, 7 and 3 ms (one Xeon core, sympy 1.14).
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


def to_domain(m: Matrix) -> DomainMatrix:
    return DomainMatrix.from_Matrix(to_sympy(m)).convert_to(sp.QQ_I)


def oracle_rank(m: Matrix) -> int:
    return to_domain(m).rank()


def oracle_det(m: Matrix) -> sp.Expr:
    return sp.QQ_I.to_sympy(to_domain(m).det())


def oracle_charpoly(m: Matrix) -> list:
    return [sp.QQ_I.to_sympy(c) for c in to_domain(m).charpoly()]


def oracle_nullspace(m: Matrix) -> list[sp.Matrix]:
    """The basis Matrix.nullspace returns, read off the reduced row echelon form
    r: for each free column f, the vector that is 1 at f, 0 at the other free
    columns and -r[i, f] at the i-th pivot column."""
    r, pivots = to_domain(m).rref()
    r = r.to_Matrix()
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = sp.zeros(m.cols, 1)
        v[f] = 1
        for i, p in enumerate(pivots):
            v[p] = -r[i, f]
        basis.append(v)
    return basis


def oracle_solve(m: Matrix, rhs: Matrix) -> sp.Matrix | None:
    """The solution of m x = rhs with every free parameter 0 (Matrix.gauss_jordan_solve's
    particular solution), or None when the system is inconsistent: the reduced row
    echelon form of [m | rhs] then has a pivot right of m."""
    r, pivots = to_domain(m).hstack(to_domain(rhs)).rref()
    if any(p >= m.cols for p in pivots):
        return None
    r, x = r.to_Matrix(), sp.zeros(m.cols, rhs.cols)
    for i, p in enumerate(pivots):
        x[p, :] = r[i, m.cols:]
    return x


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
    dm = to_domain(m)
    terms, power = [m.rows], DomainMatrix.eye(m.rows, sp.QQ_I)
    while len(terms) < 2 or terms[-1] != terms[-2]:
        power = power * dm
        terms.append(power.rank())
    return tuple(terms[:-1])
