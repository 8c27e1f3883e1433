"""Unitary-similarity invariants: the trace-word screen and the 2x2 triple.

Trace words are invariant under unitary similarity, so a differing word
trace proves the matrices are not unitarily similar.  The screen is
one-sided for n >= 3: "indistinguishable" is inconclusive there, while
for n = 2 the triple (tr X, tr X^2, tr X*X) is a complete invariant.
This module exhibits no witnesses; a unitary intertwiner comes from
:func:`abba.similarity.unitary_intertwiner`.

Words that are rotations of each other or of each other's adjoint (the
word reversed, x and x* swapped) form a class whose traces are equal or
conjugate, so the screen evaluates one word per class, on a prefix tree.
Float traces are compared with both matrices over one common power of two.
Exact ones never leave the integers: prefix products are numerator pairs
over den^len, a word's trace pairs its prefix product with its last letter
in O(n^2), two traces over den1^L and den2^L are compared by
cross-multiplying, and only the reported pair becomes GaussianRational.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ShapeError
from .matrix import EXACT, Matrix, _at_unit_scale, _gauss, hstack
from .scalars import DEFAULT_TOLERANCE, GQ, TolerancePolicy

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


def trace_word(m: Matrix, w: TraceWord):
    """Trace of the word with x = m and x* = adjoint(m), from its Matrix product."""
    if not m.is_square:
        raise ShapeError("trace words require a square matrix")
    factor = {"x": m, "x*": m.adjoint()}
    return functools.reduce(operator.matmul, (factor[l] for l in w.letters),
                            Matrix.identity(m.rows, m.backend)).trace()


def _times(p, f):
    """The exact prefix step: the numerator pair p of a prefix product times that of a letter."""
    return _gauss(np.dot, *p, *f)


def _word_traces(m: Matrix):
    """letters -> trace of the word (x = m, x* = m*), on memoized prefix products.

    Exact: the trace as integers (re, im, den^len), worth (re + i im) / den^len.  Prefix
    products are numerator pairs over den^len, and a word's trace pairs its prefix
    product P with its last letter F, sum P[i, j] F[j, i], so a word's product is formed
    only when it is the prefix of a longer word.  Float: the trace of the product P @ F,
    all of it formed from I, which fixes the bits of the reported traces."""
    n = m.rows
    if m.backend == EXACT:
        re, im, den = m.numerators
        factor = {"x": (re, im), "x*": (re.T, -im.T)}
        transposed = {l: (fr.T.ravel(), fi.T.ravel()) for l, (fr, fi) in factor.items()}
        memo = {(): (np.eye(n, dtype=object), np.zeros((n, n), dtype=object)),
                **{(l,): f for l, f in factor.items()}}
        extend = lambda p, l: _times(p, factor[l])

        def read(letters):
            pr, pi = product(letters[:-1])
            return (*_gauss(np.dot, pr.ravel(), pi.ravel(), *transposed[letters[-1]]),
                    den ** len(letters))
    else:
        factor = {"x": m, "x*": m.adjoint()}
        memo = {(): Matrix.identity(n, m.backend)}
        extend = lambda p, l: p @ factor[l]
        read = lambda letters: product(letters).trace()

    def product(letters: tuple[str, ...]):
        if letters not in memo:
            memo[letters] = extend(product(letters[:-1]), letters[-1])
        return memo[letters]

    return read


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


def _at_common_unit_scale(m1: Matrix, m2: Matrix):
    """(x1, x2, e, ||[x1 x2]||_F): float m1 and m2 over the power of two 2^e that puts the
    largest entry part of both in [0.5, 1); exact ones as they are, with e = 0 and no norm."""
    if m1.backend == EXACT:
        return m1, m2, 0, None
    n = m1.rows
    unit, e = _at_unit_scale(hstack([m1, m2]))
    return unit.block(0, n, 0, n), unit.block(0, n, n, 2 * n), e, unit.frobenius()


def _traces_differ(t1, t2, length: int, norm, tol: TolerancePolicy) -> bool:
    """Exact traces (re, im, den) differ unless equal as integers after cross-multiplying
    by the other's den; float traces of a word of this length, at unit scale, by more than
    residual_tol * norm**length, which bounds the traces themselves."""
    if norm is None:
        (r1, i1, d1), (r2, i2, d2) = t1, t2
        return r1 * d2 != r2 * d1 or i1 * d2 != i2 * d1
    return abs(t1 - t2) > tol.residual_tol * norm ** length


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
    x1, x2, e, norm = _at_common_unit_scale(m1, m2)
    traces1, traces2 = _word_traces(x1), _word_traces(x2)
    for w in _screen_words(max_len):
        t1, t2 = traces1(w.letters), traces2(w.letters)
        if _traces_differ(t1, t2, len(w), norm, tol):
            if norm is None:  # only the reported pair becomes Gaussian rationals
                t1, t2 = (GQ(Fraction(r, d), Fraction(i, d)) for r, i, d in (t1, t2))
            else:  # back to the input's scale, exactly unless out of range
                t1, t2 = (complex(np.ldexp(t.real, e * len(w)), np.ldexp(t.imag, e * len(w)))
                          for t in (t1, t2))
            return WordTraceReport(distinguished=True, max_len=max_len, word=w, traces=(t1, t2))
    return WordTraceReport(distinguished=False, max_len=max_len)


def decide_unitary_2x2(m1: Matrix, m2: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> bool:
    """Complete 2x2 test: equality of (tr X, tr X^2, tr X*X)."""
    if m1.shape != (2, 2) or m2.shape != (2, 2):
        raise ShapeError("the triple invariant applies to 2x2 matrices only")
    m1._check_operand_pair(m2)
    x1, x2, _, norm = _at_common_unit_scale(m1, m2)
    traces1, traces2 = _word_traces(x1), _word_traces(x2)
    return not any(_traces_differ(traces1(w), traces2(w), len(w), norm, tol)
                   for w in (("x",), ("x", "x"), ("x*", "x")))
