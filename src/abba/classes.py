"""Structural predicates (Hermitian, normal, PSD, EP) with witnesses.

Each rule has one owner.  ``_ep_ranks`` owns the EP test rank([m | m*]) = rank(m)
of :func:`is_ep` and :func:`classify`.  :func:`ep_decomposition`, which constructions
read an EP matrix through, owns the frame on both backends: the exact block-form rule
(one elimination and a zero test accept c + 0) and the float SVD frame.
``_psd_violation`` owns the PSD rule for a Hermitian matrix: the exact backend
reads the signs of principal-minor sums e_k = (-1)^k c_k(N) / den^k off the
integer charpoly of its numerators N instead of computing (generally
irrational) eigenvalues; the float backend compares the least eigenvalue with
the residual tolerance.  Float tests run at unit scale
(``matrix._at_unit_scale``) and scale the min_eigenvalue witness back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import BackendError, HypothesisViolation, ShapeError
from .linalg import _charpoly_numerators, _float_svd, _solve_rows, invertible, rank, solve_linear
from .matrix import EXACT, FLOAT, Matrix, _at_unit_scale, _ldexp, block, hstack
from .scalars import DEFAULT_TOLERANCE, TolerancePolicy

_HALF = Fraction(1, 2)


def hermitian_real_part(m: Matrix) -> Matrix:
    """(m + m*) / 2."""
    return (m + m.adjoint()) * _HALF


def is_hermitian(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    if not m.is_square:
        raise ShapeError("predicate requires a square matrix")
    if m.backend == EXACT:
        re, im, _ = m.numerators
        return np.array_equal(re, re.T) and np.array_equal(im, -im.T)
    m = _at_unit_scale(m)[0]
    return (m - m.adjoint()).frobenius() <= tol.residual_tol * m.frobenius()


def is_normal(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    if not m.is_square:
        raise ShapeError("predicate requires a square matrix")
    m = _at_unit_scale(m)[0]
    adj = m.adjoint()
    left, right = m @ adj, adj @ m
    if m.backend == EXACT:
        return left == right
    return (left - right).frobenius() <= tol.residual_tol * m.frobenius() ** 2


def _psd_violation(m: Matrix, tol: TolerancePolicy) -> int | float | None:
    """None when the Hermitian matrix m is PSD, else the witness: the order k of
    the first e_k that is not a nonnegative real, read off the integer charpoly
    (exact), or the least eigenvalue of the Hermitian part (float, at unit scale)."""
    if m.backend == EXACT:
        cs = _charpoly_numerators(*m.numerators[:2])
        return next((k for k, (re, im) in enumerate(cs) if im or (-re if k % 2 else re) < 0), None)
    unit, e = _at_unit_scale(m)
    eigs = np.linalg.eigvalsh(hermitian_real_part(unit).array)
    if eigs.size == 0 or eigs[0] >= -tol.residual_tol * unit.frobenius():
        return None
    return float(np.ldexp(eigs[0], e))


def is_psd(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    return is_hermitian(m, tol) and _psd_violation(m, tol) is None


def _ep_ranks(m: Matrix, tol: TolerancePolicy) -> tuple[int, int]:
    """(rank(m), rank([m | m*])); m is EP exactly when the two agree."""
    if not m.is_square:
        raise ShapeError("predicate requires a square matrix")
    return rank(m, tol), rank(hstack([m, m.adjoint()]), tol)


def is_ep(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """range(m) = range(m*), tested as rank([m | m*]) = rank(m)."""
    r, r_joint = _ep_ranks(m, tol)
    return r == r_joint


def realpart_psd_same_rank(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """(m + m*)/2 is PSD and has the same rank as m."""
    m = _at_unit_scale(m)[0]
    h = hermitian_real_part(m)  # Hermitian by construction
    return _psd_violation(h, tol) is None and rank(h, tol) == rank(m, tol)


@dataclass(frozen=True)
class ClassReport:
    hermitian: bool
    normal: bool
    psd: bool
    ep: bool
    realpart_psd_same_rank: bool
    rank: int
    witnesses: dict = field(default_factory=dict)


def _normality_witness(m: Matrix) -> dict:
    """A vector v with ||m v|| != ||m* v||, encoded entrywise as strings."""
    d = m.adjoint() @ m - m @ m.adjoint()  # v* d v = ||m v||^2 - ||m* v||^2
    n = m.rows

    def basis_vector(j, k=None):  # e_j, plus conj(d[j, k]) in entry k
        e = [[0] for _ in range(n)]
        e[j][0] = 1
        if k is not None:
            e[k][0] = d[j, k].conjugate()
        return Matrix.exact(e) if m.backend == EXACT else Matrix.from_float(e)

    candidates = [basis_vector(j) for j in range(n)] + [
        basis_vector(j, k) for j in range(n) for k in range(j + 1, n) if d[j, k]
    ]
    # max keeps the first of equal gaps; an exact gap is real, ranked without rounding
    gap, v = max((((v.adjoint() @ d @ v)[0, 0], v) for v in candidates),
                 key=lambda pair: abs(pair[0].re if m.backend == EXACT else complex(pair[0])))
    if not gap:
        return {}
    return {"vector": [str(v[i, 0]) for i in range(v.rows)], "norm_gap_sq": str(gap)}


def classify(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> ClassReport:
    """Evaluate every predicate and attach witnesses for the failures."""
    herm = is_hermitian(m, tol)
    norm = is_normal(m, tol)
    psd_violation = _psd_violation(m, tol) if herm else None
    r, r_joint = _ep_ranks(m, tol)
    witnesses: dict = {}
    if not herm:
        witnesses["hermitian_violation"] = next(
            [i, j] for i in range(m.rows) for j in range(m.cols)
            if m[i, j] != m[j, i].conjugate()
        )
    if not norm:
        w = _normality_witness(m)
        if w:
            witnesses["normality_violation"] = w
    if psd_violation is not None:
        key = "negative_minor_sum_order" if m.backend == EXACT else "min_eigenvalue"
        witnesses[key] = psd_violation
    if r_joint != r:
        witnesses["range_adjoint_rank"] = r_joint
    psd = herm and psd_violation is None
    return ClassReport(
        hermitian=herm, normal=norm, psd=psd, ep=r == r_joint, rank=r, witnesses=witnesses,
        # an exact Hermitian m is its own real part, already tested for PSD
        realpart_psd_same_rank=psd if herm and m.backend == EXACT else realpart_psd_same_rank(m, tol),
    )


@dataclass(frozen=True)
class EPDecomposition:
    """Unitary v with v* m v = c + 0 (direct sum), c invertible of size r."""

    v: Matrix
    c: Matrix
    r: int
    residual: float

    def reconstruct(self) -> Matrix:
        k = self.v.rows - self.r
        backend = self.v.backend
        padded = block([[self.c, Matrix.zeros(self.r, k, backend)],
                        [Matrix.zeros(k, self.r, backend), Matrix.zeros(k, k, backend)]])
        return self.v @ padded @ self.v.adjoint()


def ep_decomposition(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> EPDecomposition:
    """Align range(m): returns V unitary whose first r = rank(m) columns span it.

    Raises HypothesisViolation unless rank([m | m*]) = r (m is EP), so constructions
    call this instead of is_ep.  An exact m must already be c + 0, c of size r (unitary
    alignment needs square roots); one elimination and a zero test accept it, and the
    joint rank runs only to pick the error.  A float m is aligned by the left singular
    vectors of one SVD at unit scale (matrix._at_unit_scale), which c is scaled back from.
    """
    if not m.is_square:
        raise ShapeError("predicate requires a square matrix")
    if m.backend == EXACT:
        (re, im, _), r = m.numerators, rank(m)
        if not (re[r:].any() or im[r:].any() or re[:, r:].any() or im[:, r:].any()):
            return EPDecomposition(v=Matrix.identity(m.rows), c=m.block(0, r, 0, r), r=r, residual=0.0)
    else:
        unit, e = _at_unit_scale(m)
        u, _, _, r = _float_svd(unit, tol)
    if rank(hstack([m, m.adjoint()]), tol) != r:
        raise HypothesisViolation("matrix is not EP (range differs from adjoint range)")
    if m.backend == EXACT:
        raise BackendError("exact decomposition requires the matrix already in "
                           "invertible-block-plus-zero form")
    v = Matrix.from_float(u)
    conj = (v.adjoint() @ unit @ v).array
    trailing = float(np.linalg.norm(conj[r:, :]) ** 2 + np.linalg.norm(conj[:r, r:]) ** 2) ** 0.5
    residual = trailing / max(unit.frobenius(), 1e-300)
    if residual > tol.residual_tol:
        raise HypothesisViolation("range alignment left nonzero trailing blocks")
    c = Matrix(_ldexp(conj[:r, :r], e), FLOAT)
    if not invertible(c, tol):
        raise HypothesisViolation("leading block is numerically singular")
    return EPDecomposition(v=v, c=c, r=r, residual=residual)


def column_inclusion_factor(
    a: Matrix, r: int, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Matrix | None:
    """X with A11 X = A12 at split index r of a = [[A11, A12], [A21, A22]];
    None when range(A12) is not contained in range(A11).  A float X meets
    solve_linear's bound ||A11 X - A12||_F <= residual_tol * max(||A12||_F, ||A11||_F)."""
    if not a.is_square:
        raise ShapeError("column inclusion requires a square matrix")
    n = a.rows
    if not 0 <= r <= n:
        raise ValueError(f"split index {r} out of range 0..{n}")
    if a.backend == EXACT:
        return _solve_rows(*(p[:r].tolist() for p in a.numerators[:2]), r, n)
    return solve_linear(a.block(0, r, 0, r), a.block(0, r, r, n), tol)
