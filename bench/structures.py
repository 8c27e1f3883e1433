"""Benchmark inputs whose answers are known from how they are built.

Every input pair (x, y) is a direct sum of small "atoms" whose product
rank sequences are known by hand, optionally conjugated by one unitary
u (x -> u x u*, y -> u y u*), which changes no rank, no verdict and no
structural class.  The rank sequence of a direct sum is the termwise sum
of the atoms' sequences, so the truth for every benchmark pair follows
from its recipe and never from the program under test.

Atoms are integer complex numpy arrays; this module imports nothing from
the program.  The sympy helpers at the bottom are the independent exact
oracle used to re-check search findings and exact certificates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np


@dataclass(frozen=True)
class Pair:
    """Matrices x, y with the known stabilized rank sequences of xy and yx."""

    name: str
    x: np.ndarray
    y: np.ndarray
    seq_xy: tuple[int, ...]
    seq_yx: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def similar(self) -> bool:
        return self.seq_xy == self.seq_yx


def stabilize(terms) -> tuple[int, ...]:
    out = [terms[0]]
    for t in terms[1:]:
        if t == out[-1]:
            break
        out.append(t)
    return tuple(out)


def valid_sequence(seq) -> bool:
    """Nonnegative, nonincreasing and convex, as every rank sequence is."""
    drops = [a - b for a, b in zip(seq, seq[1:])]
    return (
        len(seq) > 0
        and all(t >= 0 for t in seq)
        and all(d >= 0 for d in drops)
        and all(a >= b for a, b in zip(drops, drops[1:]))
    )


def _expand(seq, length):
    return list(seq) + [seq[-1]] * (length - len(seq))


def sum_sequences(*seqs) -> tuple[int, ...]:
    length = max(len(s) for s in seqs) + 1
    return stabilize([sum(col) for col in zip(*(_expand(s, length) for s in seqs))])


def _c(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def _pair(name, x, y, seq_xy, seq_yx) -> Pair:
    return Pair(name, _c(x), _c(y), tuple(seq_xy), tuple(seq_yx))


# -- atoms -------------------------------------------------------------------


def nilpotent2() -> Pair:
    """Smallest non-similar pair: xy = E12, yx = 0."""
    return _pair("nil2", [[0, 1], [0, 0]], [[0, 0], [0, 1]], (2, 1, 0), (2, 0))


def hermitian_normal4() -> Pair:
    """Hermitian x, normal y with xy not similar to yx (minimal size)."""
    x = [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    y = [[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    return _pair("hn4", x, y, (4, 2, 0), (4, 2, 1, 0))


def hermitian3() -> Pair:
    """Hermitian pair whose products are similar but not unitarily similar."""
    x = [[1, 0, 0], [0, 1, 0], [0, 0, 0]]
    y = [[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]]
    return _pair("herm3", x, y, (3, 2), (3, 2))


def chain(k: int, zeros: int = 0) -> Pair:
    """x = diag(1, .., 1, 0) (+) I, y = cyclic shift (+) 0.

    xy and yx each hold one nilpotent Jordan block of size k, plus a zero
    block of size `zeros`, so the limit is 0.  x is PSD and y is EP with
    an invertible leading block, so the PSD-EP construction applies.
    """
    n = k + zeros
    x = np.eye(n, dtype=np.complex128)
    x[k - 1, k - 1] = 0
    y = np.zeros((n, n), dtype=np.complex128)
    for j in range(k):
        y[(j + 1) % k, j] = 1
    seq = stabilize((n,) + tuple(range(k - 1, -1, -1)))
    return Pair(f"chain{k}+0{zeros}" if zeros else f"chain{k}", x, y, seq, seq)


def padding(m: int) -> Pair:
    """Well-conditioned invertible block: x = I, y = 2I + (S + S^T)/2."""
    y = 2 * np.eye(m, dtype=np.complex128)
    for i in range(m - 1):
        y[i, i + 1] = y[i + 1, i] = 0.5
    return Pair(f"pad{m}", np.eye(m, dtype=np.complex128), y, (m,), (m,))


def realized(seq) -> Pair:
    """x = I_limit (+) nilpotent Jordan blocks realizing seq, y = 2I."""
    seq = stabilize(seq)
    n, limit = seq[0], seq[-1]
    drops = [a - b for a, b in zip(seq, seq[1:])] + [0]
    sizes = []
    for k in range(len(drops) - 1, 0, -1):
        sizes += [k] * (drops[k - 1] - drops[k])
    x = np.zeros((n, n), dtype=np.complex128)
    x[:limit, :limit] = np.eye(limit)
    pos = limit
    for size in sizes:
        for i in range(size - 1):
            x[pos + i, pos + i + 1] = 1
        pos += size
    return Pair("realize" + "-".join(map(str, seq)), x, 2 * np.eye(n, dtype=np.complex128), seq, seq)


def psd_ep_mixed(n: int, r: int, rng: np.random.Generator) -> Pair:
    """x = g* g positive definite, y = c (+) 0 with c invertible r x r.

    The leading r x r block of x is positive definite, so xy and yx both
    have rank r at every power: the sequences are (n, r).
    """
    while True:
        g = rng.integers(-2, 3, size=(n, n)) + 1j * rng.integers(-2, 3, size=(n, n))
        c = rng.integers(-2, 3, size=(r, r)) + 1j * rng.integers(-2, 3, size=(r, r))
        if _full_rank(g) and _full_rank(c):
            break
    y = np.zeros((n, n), dtype=np.complex128)
    y[:r, :r] = c
    seq = stabilize((n, r))
    return Pair(f"psdep{n}r{r}", g.conj().T @ g, y, seq, seq)


def _full_rank(m: np.ndarray) -> bool:
    s = np.linalg.svd(m, compute_uv=False)
    return bool(s[-1] > 1e-6 * s[0])


def direct_sum(*pairs: Pair) -> Pair:
    n = sum(p.n for p in pairs)
    x = np.zeros((n, n), dtype=np.complex128)
    y = np.zeros((n, n), dtype=np.complex128)
    pos = 0
    for p in pairs:
        x[pos:pos + p.n, pos:pos + p.n] = p.x
        y[pos:pos + p.n, pos:pos + p.n] = p.y
        pos += p.n
    return Pair("+".join(p.name for p in pairs), x, y,
                sum_sequences(*(p.seq_xy for p in pairs)), sum_sequences(*(p.seq_yx for p in pairs)))


# -- exact oracle (sympy) --------------------------------------------------------


def to_domain(entries):
    """DomainMatrix over Q(i) from rows of (re, im) Fractions."""
    from sympy import QQ, QQ_I
    from sympy.polys.matrices import DomainMatrix

    rows = [[QQ_I(QQ(re.numerator, re.denominator), QQ(im.numerator, im.denominator))
             for re, im in row] for row in entries]
    return DomainMatrix(rows, (len(rows), len(rows[0])), QQ_I)


def entries_of_report(doc: dict):
    """Rows of (re, im) Fractions from a matrix interchange document."""
    return [[(Fraction(re), Fraction(im)) for re, im in row] for row in doc["entries"]]


def entries_of_matrix(m):
    """Rows of (re, im) Fractions from an exact program matrix."""
    return [[(m[i, j].re, m[i, j].im) for j in range(m.cols)] for i in range(m.rows)]


def oracle_rank_sequence(dm) -> tuple[int, ...]:
    """Stabilized ranks of the powers of dm, computed by sympy."""
    n = dm.shape[0]
    ranks = [n]
    power = dm
    for _ in range(n + 1):
        ranks.append(power.rank())
        if ranks[-1] == ranks[-2] or ranks[-1] == 0:
            break
        power = power.matmul(dm)
    return stabilize(ranks)


def oracle_word_screen(x, y, max_len: int = 6):
    """Independent trace-word screen: (first differing word or None, traces)."""
    import itertools

    xs, ys = (x, _adjoint(x)), (y, _adjoint(y))
    for length in range(1, max_len + 1):
        for letters in itertools.product((0, 1), repeat=length):
            px, py = xs[letters[0]], ys[letters[0]]
            for k in letters[1:]:
                px, py = px.matmul(xs[k]), py.matmul(ys[k])
            tx, ty = _trace(px), _trace(py)
            if tx != ty:
                return " ".join("x*" if k else "x" for k in letters), (tx, ty)
    return None, None


def _adjoint(dm):
    rows = dm.to_list()
    n, m = dm.shape
    dom = dm.domain
    return type(dm)([[dom(rows[i][j].x, -rows[i][j].y) for i in range(n)] for j in range(m)], (m, n), dom)


def _trace(dm):
    rows = dm.to_list()
    total = rows[0][0] * 0
    for i in range(len(rows)):
        total += rows[i][i]
    return total


def gaussian_str(z) -> str:
    """A Q(i) element spelled the way the program prints Gaussian rationals."""
    re, im = Fraction(int(z.x.numerator), int(z.x.denominator)), Fraction(int(z.y.numerator), int(z.y.denominator))
    if im == 0:
        return str(re)
    return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"
