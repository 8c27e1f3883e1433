"""Decide similarity of AB vs BA and build explicit invertible intertwiners.

Non-similarity is concluded only from unequal rank sequences, which is
sound and complete for product pairs.  AB and BA share their limit (the rank
of every high power), so exact decide reads BA's sequence only as far as it
does not follow from that limit and convexity; float decide reads both in full,
since a float rank is not a proof.  Constructions:

* Sylvester null-space sampling: the intertwiner space {S : S M1 = M2 S}
  is the kernel of an n^2 x n^2 linear map; random combinations of a
  kernel basis are invertible generically whenever any invertible
  intertwiner exists.  Adding the block for S M1* = M2* S and taking the
  polar factor of a sample gives a unitary intertwiner.  Exact sampling
  runs on numerators: the Sylvester rows are written entry by entry
  from them, with no Kronecker product, and go straight into
  elimination; the kernel stays one numerator array over one integer,
  and each sample is one integer dot with the drawn coefficients.
* The positive-semidefinite / EP transform: after aligning the range of
  b, solve the column-inclusion systems and assemble the explicit block
  matrix [[C + X Y*, -X], [-Y*, I]]; for Hermitian a the two solves
  coincide (Y = X).  An exact b must already be C + 0; the exact path runs
  on numerators (one elimination for b's hypothesis, integer charpoly signs
  for a's, one per system) and writes S over one denominator.
* The doubling map x -> [[x, x*], [x*, x]], always normal, whose products
  become block-diagonal Hermitian products after a rational conjugation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classes import (
    _psd_violation,
    column_inclusion_factor,
    ep_decomposition,
    hermitian_real_part,
    is_hermitian,
    realpart_psd_same_rank,
)
from .errors import HypothesisViolation, IntertwinerNotFound, ShapeError
from .linalg import _kernel_rows, condition_estimate, determinant, nullspace_basis
from .matrix import EXACT, FLOAT, Matrix, _at_unit_scale, _gauss, block, kron, vstack
from .rankseq import RankSequence, _exact_terms, _float_terms
from .scalars import DEFAULT_TOLERANCE, GQ, TolerancePolicy


@dataclass(frozen=True)
class SimilarityVerdict:
    similar: bool
    reason: str  # rank-sequence-equal | rank-sequence-differ
    seq_ab: RankSequence
    seq_ba: RankSequence


@dataclass(frozen=True)
class SimilarityCertificate:
    """Candidate t for t M1 = M2 t: relative residual, invertibility evidence
    and the verdict of the acceptance rule (see :func:`certificate_for`)."""

    t: Matrix
    residual: float
    det: GQ | None = None          # exact backend evidence
    condition: float | None = None  # float backend evidence
    invertible: bool = False
    ok: bool = False


def certificate_for(
    t: Matrix, m1: Matrix, m2: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SimilarityCertificate:
    """Package t as a certificate for t M1 = M2 t, computing the evidence.

    The acceptance rule: t invertible (nonzero det, or condition at most
    max_condition) and residual zero (exact) or at most residual_tol (float).
    Exact products stay integer numerators: t m1 = L / (den_t den_1) and
    m2 t = R / (den_2 den_t) agree when L den_2 = R den_1.
    """
    exact = t.backend == m1.backend == m2.backend == EXACT
    if exact and m1.shape == (t.cols, t.cols) and m2.shape == (t.rows, t.rows):
        (tr, ti, dt), (pr, pi, d1), (qr, qi, d2) = t.numerators, m1.numerators, m2.numerators
        (lr, li), (rr, ri) = _gauss(np.dot, tr, ti, pr, pi), _gauss(np.dot, qr, qi, tr, ti)
        gap = Matrix((lr * d2 - rr * d1, li * d2 - ri * d1, dt * d1 * d2), EXACT)
    else:  # float, or operands that t @ m1 and m2 @ t reject
        gap = t @ m1 - m2 @ t
    residual = 0.0
    if not gap.is_zero():
        denom = t.frobenius() * max(m1.frobenius(), m2.frobenius())
        residual = gap.frobenius() / denom if denom else float("inf")
    if t.backend == EXACT:
        det = determinant(t)
        return SimilarityCertificate(t=t, residual=residual, det=det, invertible=bool(det),
                                     ok=bool(det) and residual == 0.0)
    condition = condition_estimate(t)
    invertible = condition <= tol.max_condition
    return SimilarityCertificate(t=t, residual=residual, condition=condition, invertible=invertible,
                                 ok=invertible and residual <= tol.residual_tol)


def verify_certificate(
    cert: SimilarityCertificate, m1: Matrix, m2: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SimilarityCertificate:
    """Recompute residual, invertibility evidence and verdict for cert.t from scratch."""
    return certificate_for(cert.t, m1, m2, tol)


def decide_product_similarity(
    a: Matrix, b: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SimilarityVerdict:
    """AB is similar to BA iff their rank sequences agree.  Exact products stay
    integer numerators, with no Matrix: ranks ignore the denominator.  BA's exact
    sequence is read knowing AB's limit L, which the two share: it stops at a term
    at most L + 1 (the next is L) or after a drop of one (the rest falls by one to
    L), so an invertible ab leaves BA with no elimination.  Float products are
    formed from a and b at unit scale (matrix._at_unit_scale), which changes no
    rank, and cut on one scale, ||a||_2 ||b||_2 in those units, which a product
    that is zero up to rounding cannot set.  No product is formed at the float
    inputs' scale, so a pair whose a @ b overflows still gets a verdict."""
    a._check_operand_pair(b)
    if a.backend == EXACT:
        (ar, ai, _), (br, bi, _) = a.numerators, b.numerators
        (abr, abi), (bar, bai) = _gauss(np.dot, ar, ai, br, bi), _gauss(np.dot, br, bi, ar, ai)
        seq_ab = _exact_terms(abr, abi)
        seq_ba = _exact_terms(bar, bai, limit=seq_ab.limit)
    else:
        ua, ub = _at_unit_scale(a)[0], _at_unit_scale(b)[0]
        ref = np.linalg.norm(ua.array, 2) * np.linalg.norm(ub.array, 2)
        seq_ab = _float_terms(ua @ ub, ref, tol)
        seq_ba = _float_terms(ub @ ua, ref, tol)
    similar = seq_ab.terms == seq_ba.terms
    reason = "rank-sequence-equal" if similar else "rank-sequence-differ"
    return SimilarityVerdict(similar=similar, reason=reason, seq_ab=seq_ab, seq_ba=seq_ba)


def _sylvester(x: Matrix, y: Matrix) -> Matrix:
    """x^T (x) I - I (x) y on the float backend, whose kernel is vec of {s : s x = y s}: two
    krons, since writing 0.0 * x entries could flip signed zeros that the SVD reads."""
    eye = Matrix.identity(x.rows, x.backend)
    return kron(x.transpose(), eye) - kron(eye, y)


def _sylvester_rows(x: Matrix, y: Matrix) -> tuple[list, list, int]:
    """(re, im, den): rows of Python ints with (re + i im) / den = x^T (x) I - I (x) y, for
    exact x and y, over den = lcm(den_x, den_y).  Entry ((l, i), (j, i')) is
    x[j, l] [i = i'] - y[i, i'] [j = l], written into an (n, n, n, n) grid."""
    n = x.rows
    (xr, xi, dx), (yr, yi, dy) = x.numerators, y.numerators
    den = math.lcm(dx, dy)
    xs, ys = np.stack([xr.T, xi.T]) * (den // dx), np.stack([yr, yi]) * (den // dy)
    grid = np.zeros((2, n, n, n, n), dtype=object)  # (re | im, l, i, j, i')
    for i in range(n):
        grid[:, :, i, :, i] = xs
    for j in range(n):
        grid[:, j, :, j, :] -= ys
    return (*grid.reshape(2, n * n, n * n).tolist(), den)


def _kernel(m1: Matrix, m2: Matrix, tol: TolerancePolicy, adjoint: bool = False):
    """A basis of {s : s m1 = m2 s}, and of s m1* = m2* s too when adjoint.  Exact: (v, d)
    with basis matrix i = (v[0, :, :, i] + i v[1, :, :, i]) / d, the kernel of the Sylvester
    rows as one numerator array.  Float: the list of matrices, with the kernel cutoff set
    against ||m1||_2 + ||m2||_2: the system's own norm is noise when m1 ~ m2."""
    n = m1.rows
    pairs = [(m1, m2), (m1.adjoint(), m2.adjoint())][:1 + adjoint]
    if m1.backend == EXACT:
        re, im = [], []
        for x, y in pairs:
            xr, xi, _ = _sylvester_rows(x, y)
            re += xr
            im += xi
        v, d = _kernel_rows(re, im, n * n)
        # column i of v is vec(s_i): entry j n + i' is s_i[i', j]
        return v.reshape(2, n, n, v.shape[2]).transpose(0, 2, 1, 3), d
    norm = sum(np.linalg.norm(m.array, 2) for m in (m1, m2))
    kernel = nullspace_basis(vstack([_sylvester(x, y) for x, y in pairs]), tol, norm)
    return [Matrix.from_float(v.reshape((n, n), order="F")) for v in kernel.array.T]


def intertwiner_space(m1: Matrix, m2: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> list[Matrix]:
    """Basis of {s : s m1 = m2 s}, via the kernel of m1^T (x) I - I (x) m2."""
    m1._check_operand_pair(m2)
    kernel = _kernel(m1, m2, tol)
    if m1.backend != EXACT:
        return kernel
    v, d = kernel
    return [Matrix((*v[..., i], d), EXACT) for i in range(v.shape[3])]


def _sample_invertible(kernel, m1, m2, seed, attempts, tol) -> SimilarityCertificate | None:
    """The first random combination of the _kernel basis that certificate_for accepts
    (find_intertwiner)."""
    exact = m1.backend == EXACT
    dim = kernel[0].shape[3] if exact else len(kernel)
    if not dim:
        return None
    n, k, rng = m1.rows, max(9, m1.rows), np.random.default_rng(seed)
    for _ in range(attempts):
        if exact:
            coeffs = np.array(rng.integers(-k, k + 1, size=dim).tolist(), dtype=object)
            t = Matrix((*np.dot(kernel[0], coeffs), kernel[1]), EXACT)
        else:
            coeffs = list(rng.standard_normal(dim))
            t = sum((s * c for c, s in zip(coeffs, kernel)), Matrix.zeros(n, n, m1.backend))
        cert = certificate_for(t, m1, m2, tol)
        if cert.ok:
            return cert
    return None


def find_intertwiner(
    m1: Matrix,
    m2: Matrix,
    seed: int = 0,
    attempts: int = 32,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> SimilarityCertificate | None:
    """Sample the intertwiner space for an invertible element.

    Returns the first invertible sample as a certificate, or None when
    the space is trivial or the budget runs out.  None is advisory only:
    it never proves non-similarity.

    Exact coefficients are drawn uniformly from [-k, k], k = max(9, n).
    det(sum c_i S_i) is a polynomial of degree at most n in the coefficients,
    not identically zero when an invertible intertwiner exists, so by
    Schwartz-Zippel one attempt fails with probability at most
    n / (2k + 1) < 1/2, and all 32 default attempts fail with probability
    below 2^-32.
    """
    m1._check_operand_pair(m2)
    if attempts < 1:
        raise ValueError("attempts must be positive")
    return _sample_invertible(_kernel(m1, m2, tol), m1, m2, seed, attempts, tol)


def unitary_intertwiner(m1: Matrix, m2: Matrix,
                        tol: TolerancePolicy = DEFAULT_TOLERANCE) -> SimilarityCertificate | None:
    """A float certificate for a unitary u with u m1 = m2 u, or None (advisory).

    Samples an invertible t with t m1 = m2 t and t m1* = m2* t (seed 0, 32
    attempts, exactly on exact input).  Then t* t commutes with m1, so the
    polar factor u = t (t* t)^(-1/2), w vh of the SVD t = w s vh, intertwines.
    """
    m1._check_operand_pair(m2)
    cert = _sample_invertible(_kernel(m1, m2, tol, adjoint=True), m1, m2, 0, 32, tol)
    if cert is None:
        return None
    w, _, vh = np.linalg.svd(cert.t.to_float().array)
    cert = certificate_for(Matrix.from_float(w @ vh), m1.to_float(), m2.to_float(), tol)
    return cert if cert.ok else None


def construct_similarity_psd_ep(
    a: Matrix, b: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> SimilarityCertificate:
    """Explicit T with T(ab) = (ba)T when a is PSD (or has a PSD real part
    of full comparative rank) and b is EP.

    Reads b only through ep_decomposition: its rank r, the unitary V aligning
    range(b) (V = I for an exact b, which must be in block form) and the leading
    block C of V* b V.  Solves A11 X = A12 and A11* Y = A21* in the aligned frame,
    and conjugates S = [[C + X Y*, -X], [-Y*, I]] back.  Hermitian a gives
    Y = X and reduces S to its classical positive-semidefinite form.
    b is tested before a, so when both fail the error is b's.  T is checked by
    certificate_for against a @ b and b @ a, formed at the inputs' scale.
    """
    a._check_operand_pair(b)
    dec = ep_decomposition(b, tol)
    n, r, exact = a.rows, dec.r, a.backend == EXACT
    hermitian_a = is_hermitian(a, tol)
    if not (_psd_violation(a, tol) is None if hermitian_a else realpart_psd_same_rank(a, tol)):
        raise HypothesisViolation(
            "a must be positive semidefinite or have a PSD real part of equal rank"
        )
    at = a if exact else dec.v.adjoint() @ a @ dec.v
    x = column_inclusion_factor(at, r, tol)
    if x is None:
        raise HypothesisViolation("column inclusion solve failed for a")
    y = x if hermitian_a else column_inclusion_factor(at.adjoint(), r, tol)
    if y is None:
        raise HypothesisViolation("row inclusion solve failed for a")
    if exact:  # S over lcm(den_c, den_x den_y)
        (xr, xi, dx), (yr, yi, dy), (cr, ci, dc) = x.numerators, y.numerators, dec.c.numerators
        den = math.lcm(dc, dx * dy)
        s = np.zeros((2, n, n), dtype=object)  # re | im
        s[:, :r, :r] = (np.stack(_gauss(np.dot, xr, xi, yr.T, -yi.T)) * (den // (dx * dy))
                        + np.stack([cr, ci]) * (den // dc))
        s[0, :r, r:], s[1, :r, r:] = xr * -(den // dx), xi * -(den // dx)
        s[0, r:, :r], s[1, r:, :r] = yr.T * -(den // dy), yi.T * (den // dy)
        s[0, range(r, n), range(r, n)] = den
        t = Matrix((*s, den), EXACT)
    else:
        eye = Matrix.identity(n - r, FLOAT)
        t = dec.v @ block([[dec.c + x @ y.adjoint(), -x], [-y.adjoint(), eye]]) @ dec.v.adjoint()
    cert = certificate_for(t, a @ b, b @ a, tol)
    if not cert.ok:
        raise HypothesisViolation(
            f"constructed transform failed verification (residual {cert.residual:.3g})"
        )
    return cert


def hermitian_parts(x: Matrix) -> tuple[Matrix, Matrix]:
    """(h, k) Hermitian with x = h + i k."""
    if not x.is_square:
        raise ShapeError("hermitian parts of a non-square matrix")
    return hermitian_real_part(x), (x - x.adjoint()) * GQ(0, Fraction(-1, 2))


def normal_doubling(x: Matrix) -> Matrix:
    """[[x, x*], [x*, x]]; always a normal matrix."""
    if not x.is_square:
        raise ShapeError("doubling requires a square matrix")
    adj = x.adjoint()
    return block([[x, adj], [adj, x]])


def doubling_conjugator(n: int, backend: str = EXACT) -> Matrix:
    """[[I, I], [-I, I]]: a rational multiple of a unitary; conjugation by it
    block-diagonalizes every doubled matrix."""
    eye = Matrix.identity(n, backend)
    return block([[eye, eye], [-eye, eye]])


def doubling_product_similarity(
    x: Matrix,
    y: Matrix,
    seed: int = 0,
    attempts: int = 32,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> SimilarityCertificate:
    """Certificate that the doubled products of x and y are similar both ways.

    Conjugating by [[I, I], [-I, I]] turns each doubled product into a
    direct sum of products of Hermitian matrices, which intertwine by
    the Sylvester sampling; the scalar 1/sqrt(2) of the unitary version
    cancels, so the exact backend stays rational.
    """
    x._check_operand_pair(y)
    n = x.rows
    x1, x2 = hermitian_parts(x)
    y1, y2 = hermitian_parts(y)
    c1 = find_intertwiner(x1 @ y1, y1 @ x1, seed=seed, attempts=attempts, tol=tol)
    c2 = find_intertwiner(x2 @ y2, y2 @ x2, seed=seed + 1, attempts=attempts, tol=tol)
    if c1 is None or c2 is None:
        raise IntertwinerNotFound("intertwiner sampling budget exhausted for a diagonal block")
    zero = Matrix.zeros(n, n, x.backend)
    t_blocks = block([[c1.t, zero], [zero, c2.t]])
    w = doubling_conjugator(n, x.backend)
    t = (w.adjoint() * Fraction(1, 2)) @ t_blocks @ w  # w w* = 2 I
    phi_x = normal_doubling(x)
    phi_y = normal_doubling(y)
    cert = certificate_for(t, phi_x @ phi_y, phi_y @ phi_x, tol)
    if not cert.ok:
        raise IntertwinerNotFound(
            f"assembled doubling intertwiner failed verification (residual {cert.residual:.3g})"
        )
    return cert
