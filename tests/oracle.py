"""Independent sympy-based oracle used to cross-check exact results.

Everything here avoids the package's own elimination and polynomial code
paths, so agreement is meaningful.
"""

import sympy as sp

from abba import Matrix


def to_sympy(m: Matrix) -> sp.Matrix:
    assert m.backend == "exact"
    # the (rows, cols, fn) form keeps zero-size shapes such as 0 x 3
    return sp.Matrix(
        m.rows, m.cols, lambda i, j: sp.Rational(m[i, j].re) + sp.I * sp.Rational(m[i, j].im)
    )


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
