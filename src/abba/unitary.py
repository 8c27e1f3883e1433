"""Unitary-similarity screens and constructive witnesses.

Trace words are invariant under unitary similarity, so a differing word
trace proves the matrices are not unitarily similar.  The screen is
one-sided for n >= 3: "indistinguishable" is inconclusive there, while
for n = 2 the triple (tr X, tr X^2, tr X*X) is a complete invariant.

Words that are rotations of each other or of each other's adjoint (the
word reversed, x and x* swapped) form a class whose traces are equal or
conjugate, so the screen evaluates one word per class, on a prefix tree.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .classes import is_normal
from .errors import BackendError, HypothesisViolation, ShapeError
from .linalg import _float_svd
from .matrix import EXACT, FLOAT, Matrix, hstack
from .scalars import DEFAULT_TOLERANCE, TolerancePolicy

_LETTERS = ("x", "x*")


@dataclass(frozen=True)
class TraceWord:
    """A finite word over {x, x*}, evaluated at a matrix by substitution."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if len(self.letters) == 0:
            raise ValueError("trace words must be nonempty")
        if any(l not in _LETTERS for l in self.letters):
            raise ValueError("letters must be 'x' or 'x*'")

    @staticmethod
    def parse(spelled: str) -> "TraceWord":
        return TraceWord(tuple(spelled.split()))

    def spell(self) -> str:
        return " ".join(self.letters)

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return self.spell()


# x* x x x* x* x: the degree-6 word evaluated in every screen run,
# whatever the length cap, because it separates pairs the shorter
# Hermitian-product invariants cannot.
DEGREE_SIX_PROBE = TraceWord(("x*", "x", "x", "x*", "x*", "x"))


def _word_products(m: Matrix):
    """Memoized letters -> word product (x = m, x* = m*), left to right from I."""
    if not m.is_square:
        raise ShapeError("trace words require a square matrix")
    factor = {"x": m, "x*": m.adjoint()}
    memo = {(): Matrix.identity(m.rows, m.backend)}

    def product(letters: tuple[str, ...]) -> Matrix:
        if letters not in memo:
            memo[letters] = product(letters[:-1]) @ factor[letters[-1]]
        return memo[letters]

    return product


def trace_word(m: Matrix, w: TraceWord):
    """Trace of the word with x = m and x* = adjoint(m)."""
    return _word_products(m)(w.letters).trace()


@dataclass(frozen=True)
class WordTraceReport:
    distinguished: bool
    max_len: int
    word: TraceWord | None = None
    traces: tuple | None = None

    @property
    def verdict(self) -> str:
        if self.distinguished:
            return "distinguished"
        return f"indistinguishable-up-to-length-{self.max_len}"


@functools.lru_cache(maxsize=8)
def _screen_words(max_len: int) -> tuple[TraceWord, ...]:
    """The smallest word of each rotation/adjoint class up to max_len, shortest
    first, lexicographically with x before x*; then the probe if max_len < 6."""
    words = []
    for length in range(1, max_len + 1):
        for w in itertools.product(_LETTERS, repeat=length):
            adj = tuple("x*" if l == "x" else "x" for l in reversed(w))
            if all(w <= v[k:] + v[:k] for v in (w, adj) for k in range(length)):
                words.append(TraceWord(w))
    if max_len < len(DEGREE_SIX_PROBE):
        words.append(DEGREE_SIX_PROBE)
    return tuple(words)


def _traces_differ(t1, t2, backend: str, tol: TolerancePolicy) -> bool:
    if backend == EXACT:
        return t1 != t2
    scale = max(1.0, abs(t1), abs(t2))
    return abs(t1 - t2) > tol.residual_tol * scale


def word_trace_screen(
    m1: Matrix,
    m2: Matrix,
    max_len: int = 6,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> WordTraceReport:
    """Compare traces of all words up to max_len (plus the degree-6 probe).

    Words are tried shortest first, lexicographically with x before x*;
    the first differing word is reported.  Traces differ on a whole
    rotation/adjoint class or on none of it, so only the smallest word of
    each class is evaluated, and that is the word reported.  "Distinguished"
    proves the matrices are not unitarily similar; the converse holds only
    for 2x2.
    """
    m1._check_operand_pair(m2)
    if max_len < 1:
        raise ValueError("max_len must be positive")
    products1, products2 = _word_products(m1), _word_products(m2)
    for w in _screen_words(max_len):
        t1, t2 = products1(w.letters).trace(), products2(w.letters).trace()
        if _traces_differ(t1, t2, m1.backend, tol):
            return WordTraceReport(distinguished=True, max_len=max_len, word=w, traces=(t1, t2))
    return WordTraceReport(distinguished=False, max_len=max_len)


def decide_unitary_2x2(m1: Matrix, m2: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Complete 2x2 test: equality of (tr X, tr X^2, tr X*X)."""
    if m1.shape != (2, 2) or m2.shape != (2, 2):
        raise ShapeError("the triple invariant applies to 2x2 matrices only")
    m1._check_operand_pair(m2)

    def triple(m: Matrix):
        return (m.trace(), (m @ m).trace(), (m.adjoint() @ m).trace())

    pairs = zip(triple(m1), triple(m2))
    return all(not _traces_differ(t1, t2, m1.backend, tol) for t1, t2 in pairs)


class Commuting:
    """Marker: the two products are equal (both zero), so every unitary works."""

    def __repr__(self):
        return "COMMUTING"


COMMUTING = Commuting()


def extend_isometry_to_unitary(
    domain_vectors: list[Matrix],
    image_vectors: list[Matrix],
    n: int | None = None,
    tol: TolerancePolicy = DEFAULT_TOLERANCE,
) -> Matrix:
    """A unitary agreeing with the map domain_vectors[j] -> image_vectors[j].

    Requires the two Gram matrices to agree (the map extends to an
    isometry exactly then).  With the SVD d = P S Q* of the domain, the
    columns of P whose singular values exceed sqrt(residual_tol) * max(1,
    sigma_max) span the domain and map to the orthonormal columns
    im Q S^-1; directions below the cutoff are dependent prescriptions,
    already consistent by the Gram check.  The rest of P maps onto the
    orthogonal complement of those images, read off their own SVD.
    """
    if len(domain_vectors) != len(image_vectors):
        raise ShapeError("domain and image lists must have equal length")
    if domain_vectors:
        n = domain_vectors[0].rows
    if n is None:
        raise ValueError("ambient dimension required when the lists are empty")
    if not domain_vectors:
        return Matrix.identity(n, FLOAT)
    if any(v.backend != FLOAT for v in domain_vectors + image_vectors):
        raise BackendError("isometry extension is float-backend only")

    d = hstack(domain_vectors).array
    im = hstack(image_vectors).array
    gram_d = d.conj().T @ d
    gram_i = im.conj().T @ im
    if np.linalg.norm(gram_d - gram_i) > tol.residual_tol * max(1.0, np.linalg.norm(gram_d)):
        raise HypothesisViolation("inner products of the two vector lists disagree")

    p, s, qh = np.linalg.svd(d)
    r = int(np.count_nonzero(s > tol.residual_tol ** 0.5 * max(1.0, s[0])))
    qi = im @ qh[:r].conj().T / s[:r]
    full_i = np.hstack([qi, np.linalg.svd(qi)[0][:, r:]])
    u = full_i @ p.conj().T
    unitarity = np.linalg.norm(u.conj().T @ u - np.eye(n))
    mapping = np.linalg.norm(u @ d - im)
    scale = max(1.0, float(np.linalg.norm(d)))
    if unitarity > tol.residual_tol * n or mapping > tol.residual_tol * scale * n:
        raise HypothesisViolation("extension failed the unitarity or mapping check")
    return Matrix.from_float(u)


def rank_one_normal_unitary(
    a: Matrix, b: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE
) -> Matrix | Commuting:
    """Unitary U with (ba) U = U (ab) for normal a of rank at most one and
    normal b; COMMUTING when both products are zero."""
    if a.backend != FLOAT or b.backend != FLOAT:
        raise BackendError("the rank-one construction is float-backend only")
    a._check_operand_pair(b)
    if not is_normal(a, tol) or not is_normal(b, tol):
        raise HypothesisViolation("both matrices must be normal")
    _, _, vh, r = _float_svd(a, tol)
    if r > 1:
        raise HypothesisViolation("a must have rank at most one")
    if r == 0:
        return COMMUTING
    v = vh.conj().T[:, :1]
    bv = b.array @ v
    c = float(np.linalg.norm(bv))
    if c <= tol.residual_tol * max(1.0, b.frobenius()):
        # b kills the range of a; by normality b* does too, so ab = ba = 0
        return COMMUTING
    bsv = b.adjoint().array @ v
    domain = [Matrix.from_float(v), Matrix.from_float(bsv / c)]
    images = [Matrix.from_float(bv / c), Matrix.from_float(v)]
    u = extend_isometry_to_unitary(domain, images, tol=tol)
    residual = ((b @ a) @ u - u @ (a @ b)).frobenius()
    scale = max(1.0, a.frobenius() * b.frobenius())
    if residual > tol.residual_tol * scale:
        raise HypothesisViolation("constructed unitary failed the defining relation")
    return u
