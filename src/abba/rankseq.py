"""Rank sequences {rank(m^j)} and their combinatorics.

A rank sequence is nonincreasing and convex (first differences are
nonincreasing), stabilizes within n steps, and determines the nilpotent
Jordan structure: the j-th drop equals the number of Jordan blocks at
eigenvalue zero of size at least j+1.  Sequences are stored only up to
stabilization; the final term repeats forever.  Both backends compute
them by range iteration (see rank_sequence), never forming a power.  The
exact branch is _exact_terms(re, im): it runs on integer numerators, each
product made primitive (divided by the gcd of its entries), and builds no
Matrix per power, so a caller holding only numerators (exact
decide_product_similarity) reads a sequence with no Matrix at all.  Given the
limit (exact decide passes AB's for BA), _exact_terms stops where the rest of
the sequence follows, since it falls strictly until stable and convexly;
rank_sequence and the float branch never take one, since an inferred term
would hide a float rank defect.  The float branch, _float_terms(m, ref), keeps
orthonormal bases from linalg.orthonormal_range_basis and cuts against the
larger of ||m||_2 and ref (||a||_2 ||b||_2 from float decide, 0 from rank_sequence).
"""

from __future__ import annotations

import math
import warnings  # unused here; bench/tracing.py swaps in a ToleranceWarning counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ShapeError
from .linalg import _eliminate_rows, orthonormal_range_basis
from .matrix import EXACT, Matrix, _at_unit_scale, _gauss
from .scalars import DEFAULT_TOLERANCE, TolerancePolicy


@dataclass(frozen=True)
class RankSequence:
    """Stabilized encoding of {rank(m^j)}: terms[0] = n, last term = limit."""

    n: int
    terms: tuple[int, ...]
    limit: int

    @staticmethod
    def from_terms(terms: Sequence[int]) -> "RankSequence":
        terms = stabilize(terms)
        return RankSequence(n=terms[0], terms=terms, limit=terms[-1])

    def drops(self) -> tuple[int, ...]:
        return tuple(a - b for a, b in zip(self.terms, self.terms[1:]))

    def expand(self, length: int) -> tuple[int, ...]:
        """The sequence padded with its limit out to `length` terms."""
        if length <= len(self.terms):
            return self.terms[:length]
        return self.terms + (self.limit,) * (length - len(self.terms))

    def __str__(self):
        return "(" + ", ".join(map(str, self.terms)) + ", ...)"


def stabilize(terms: Sequence[int]) -> tuple[int, ...]:
    """Truncate after the first term equal to its successor."""
    out = [terms[0]]
    for t in terms[1:]:
        if t == out[-1]:
            break
        out.append(t)
    return tuple(out)


def is_valid_rank_sequence(seq: Sequence[int]) -> bool:
    """Nonincreasing, convex, nonnegative (with constant continuation)."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    if any(t < 0 for t in seq):
        return False
    drops = [a - b for a, b in zip(seq, seq[1:])]
    if any(d < 0 for d in drops):
        return False
    return all(a >= b for a, b in zip(drops, drops[1:]))


def rank_sequence(m: Matrix, tol: TolerancePolicy = DEFAULT_TOLERANCE) -> RankSequence:
    """Ranks of successive powers of m until two consecutive values agree.

    Range iteration, one algorithm on both backends: when the columns of b
    span range(m^j), those of m b span range(m^(j+1)).  Each rank is read
    from an n x r_j product, no power of m is formed, and no rank can
    exceed the one before.  The exact backend runs on the integer
    numerators of m (ranks ignore the denominator), in _exact_terms, and builds
    no Matrix between powers: b is the pivot columns of the last product, each
    product divided by the gcd of its entries, which leaves its range as
    it is and keeps the entries short.  The float backend keeps the
    orthonormal leading left singular vectors of the last product, in
    _float_terms; every float cutoff is relative to ||m||_2, so a power that
    is zero up to rounding has rank 0.
    """
    if not m.is_square:
        raise ShapeError("rank sequences require a square matrix")
    if m.backend == EXACT:
        re, im, _ = m.numerators
        return _exact_terms(re, im)
    return _float_terms(m, 0.0, tol)


def _float_terms(m: Matrix, ref: float, tol: TolerancePolicy) -> RankSequence:
    """The float range iteration of rank_sequence, cut against the larger of ||m||_2
    and ref, a reference norm in m's units: float decide passes ||a||_2 ||b||_2 for
    m = ab, whose own norm may be rounding noise, and rank_sequence passes 0."""
    terms = [m.rows]
    m, e = _at_unit_scale(m)  # ranks ignore scale, and m's products stay finite
    norm = max(np.linalg.norm(m.array, 2), np.ldexp(ref, -e))
    basis = orthonormal_range_basis(m, tol, norm)
    while 0 < basis.cols < terms[-1]:
        terms.append(basis.cols)
        basis = orthonormal_range_basis(m @ basis, tol, norm)
    terms.append(basis.cols)
    return RankSequence.from_terms(terms)


def _exact_terms(re: np.ndarray, im: np.ndarray, limit: int | None = None) -> RankSequence:
    """The rank sequence of the square integer matrix re + i im: the exact range
    iteration of rank_sequence, for callers that hold numerators and no Matrix.

    A caller that knows the limit (exact decide reads BA's sequence knowing AB's:
    the two share their characteristic polynomial, so their limit) passes it, and
    the iteration stops where the rest follows: when the current term r is at most
    limit + 1 the next term is the limit, and after a drop of one every later drop
    is one (convexity), down to the limit."""
    terms, br, bi = [len(re)], re, im
    while True:
        r = terms[-1]
        if limit is not None and (r - limit <= 1 or len(terms) > 1 and terms[-2] - r == 1):
            terms.extend(range(r - 1, limit - 1, -1))
            break
        if len(terms) > 1:  # the columns of m b span the next range
            br, bi = _gauss(np.dot, re, im, br[:, pivots], bi[:, pivots])
            g = math.gcd(*br.flat, *bi.flat)
            if g > 1:
                br, bi = br // g, bi // g
        pivots = _eliminate_rows(br.tolist(), bi.tolist())[2]
        terms.append(len(pivots))
        if not 0 < len(pivots) < r:
            break
    return RankSequence.from_terms(terms)


def drops(seq: RankSequence | Sequence[int]) -> tuple[int, ...]:
    """First differences of the stabilized sequence (nonincreasing)."""
    if isinstance(seq, RankSequence):
        return seq.drops()
    if not is_valid_rank_sequence(seq):
        raise ValueError("not a valid rank sequence")
    return RankSequence.from_terms(seq).drops()


def realize_rank_sequence(seq: Sequence[int]) -> Matrix:
    """An exact matrix whose rank sequence is the stabilization of seq.

    Built as identity of size limit, plus one nilpotent Jordan block of
    size j+1 for each unit the j-th drop exceeds the (j+1)-th.
    """
    dr = drops(seq)
    n = seq[0]
    limit = n - sum(dr)
    # number of blocks of size exactly k: drop[k-1] - drop[k]
    sizes: list[int] = []
    for k in range(len(dr), 0, -1):
        count = dr[k - 1] - (dr[k] if k < len(dr) else 0)
        sizes.extend([k] * count)
    grid = np.zeros((n, n), dtype=object)
    for i in range(limit):
        grid[i, i] = 1
    pos = limit
    for size in sizes:
        for i in range(size - 1):
            grid[pos + i, pos + i + 1] = 1
        pos += size
    assert pos == n
    return Matrix.from_ints(grid)


def enumerate_tail_sequences(n: int, cap: int) -> list[tuple[int, ...]]:
    """All stabilized rank sequences starting at n with second term <= cap.

    Returned in expansion order (compare sequences padded with their
    limits), so constant-tail variants sort after their decreasing
    prefixes of equal second term.
    """
    if cap > n:
        raise ValueError("cap must not exceed n")
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    results: list[tuple[int, ...]] = []

    def extend(prefix: list[int], last_drop: int):
        results.append(tuple(prefix))
        current = prefix[-1]
        for d in range(1, min(last_drop, current) + 1):
            extend(prefix + [current - d], d)

    for second in range(cap + 1):
        if second == n:
            results.append((n,))
            continue
        extend([n, second], n - second)
    seqs = sorted(set(results), key=lambda s: RankSequence.from_terms(s).expand(n + 1))
    return seqs
