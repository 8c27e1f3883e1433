"""Named fixtures with machine-checkable claims, plus randomized searches.

The fixtures are the small matrices that witness where product
similarity and unitary similarity break: the 2x2 nilpotent pair, the
3x3 Hermitian pair whose products are similar but not unitarily so, the
3x3 transpose example, the 4x4 Hermitian/normal pair with different rank
sequences, and the rational conjugator used by the doubling construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as gen
from .classes import is_hermitian, is_normal
from .linalg import invertible, rank
from .matrix import EXACT, FLOAT, Matrix, block
from .rankseq import RankSequence, enumerate_tail_sequences, rank_sequence
from .scalars import DEFAULT_TOLERANCE, GQ
from .similarity import (
    decide_product_similarity,
    doubling_conjugator,
    find_intertwiner,
    hermitian_parts,
    normal_doubling,
)
from .unitary import word_trace_screen

# family -> generator name; _draw looks the name up in `generators` at call
# time, so a profiler that rebinds module attributes still sees each draw
_GENERATORS = {"normal": "rational_normal", "hermitian": "rational_hermitian",
               "psd": "rational_psd", "ep": "rational_ep", "zero-one-normal": "zero_one_normal"}
FAMILIES = tuple(_GENERATORS)


@dataclass(frozen=True)
class Claim:
    name: str
    fn: Callable[[dict], bool]


@dataclass(frozen=True)
class Fixture:
    name: str
    description: str
    matrices: dict
    claims: tuple[Claim, ...]

    def evaluate(self, backend: str = EXACT) -> list[tuple[str, bool]]:
        mats = self.matrices
        if backend == FLOAT:
            mats = {k: v.to_float() for k, v in mats.items()}
        return [(c.name, bool(c.fn(mats))) for c in self.claims]


def _close(m1: Matrix, m2: Matrix) -> bool:
    if m1.backend == EXACT:
        return m1 == m2
    return (m1 - m2).frobenius() <= DEFAULT_TOLERANCE.residual_tol * max(1.0, m1.frobenius())


def _nilpotent_2x2(name: str) -> Fixture:
    a, b = Matrix.exact([[0, 1], [0, 0]]), Matrix.exact([[0, 0], [0, 1]])
    return Fixture(
        name=name,
        description="Smallest pair with AB not similar to BA",
        matrices={"a": a, "b": b},
        claims=(
            Claim("not-similar", lambda m: not decide_product_similarity(m["a"], m["b"]).similar),
            Claim("seq-ab", lambda m: rank_sequence(m["a"] @ m["b"]).terms == (2, 1, 0)),
            Claim("seq-ba", lambda m: rank_sequence(m["b"] @ m["a"]).terms == (2, 0)),
        ),
    )


def _hermitian_products_3x3(name: str) -> Fixture:
    a = Matrix.exact([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    b = Matrix.exact([[0, -1j, 1j], [1j, 0, -1j], [-1j, 1j, 0]])
    return Fixture(
        name=name,
        description="Hermitian pair: products similar but not unitarily similar",
        matrices={"a": a, "b": b},
        claims=(
            Claim("a-hermitian", lambda m: is_hermitian(m["a"])),
            Claim("b-hermitian", lambda m: is_hermitian(m["b"])),
            Claim("products-similar", lambda m: decide_product_similarity(m["a"], m["b"]).similar),
            Claim(
                "intertwiner-found",
                lambda m: find_intertwiner(m["a"] @ m["b"], m["b"] @ m["a"]) is not None,
            ),
            Claim(
                "word-trace-distinguishes",
                lambda m: word_trace_screen(m["a"] @ m["b"], m["b"] @ m["a"], 6).distinguished,
            ),
        ),
    )


def _transpose_3x3(name: str) -> Fixture:
    return Fixture(
        name=name,
        description="Similar to its transpose but not unitarily similar to it",
        matrices={"a": Matrix.exact([[0, 1, 0], [0, 0, 2], [0, 0, 0]])},
        claims=(
            Claim("similar-to-transpose",
                  lambda m: find_intertwiner(m["a"], m["a"].transpose()) is not None),
            Claim(
                "word-trace-distinguishes",
                lambda m: word_trace_screen(m["a"], m["a"].transpose(), 6).distinguished,
            ),
        ),
    )


def _hermitian_normal_4x4(name: str) -> Fixture:
    a = Matrix.exact([[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0]])
    b = Matrix.exact([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return Fixture(
        name=name,
        description="Hermitian a, normal b with AB not similar to BA (minimal size and rank)",
        matrices={"a": a, "b": b},
        claims=(
            Claim("a-hermitian", lambda m: is_hermitian(m["a"])),
            Claim("b-normal", lambda m: is_normal(m["b"])),
            Claim("seq-ab", lambda m: rank_sequence(m["a"] @ m["b"]).terms == (4, 2, 0)),
            Claim("seq-ba", lambda m: rank_sequence(m["b"] @ m["a"]).terms == (4, 2, 1, 0)),
            Claim("not-similar", lambda m: not decide_product_similarity(m["a"], m["b"]).similar),
            Claim("ab-squared-zero", lambda m: _close((m["a"] @ m["b"]) @ (m["a"] @ m["b"]),
                                                      Matrix.zeros(4, 4, m["a"].backend))),
            Claim("ba-squared-nonzero", lambda m: not _close((m["b"] @ m["a"]) @ (m["b"] @ m["a"]),
                                                             Matrix.zeros(4, 4, m["a"].backend))),
        ),
    )


def _doubling_conjugator(name: str) -> Fixture:
    w_sample = Matrix.exact([[(1, 2), (0, -1)], [(3, 0), (-1, 1)]])

    def conjugation_diagonalizes(mats: dict) -> bool:
        ww = mats["w"]
        backend = ww.backend
        x = w_sample if backend == EXACT else w_sample.to_float()
        n = x.rows
        h, k = hermitian_parts(x)
        lhs = ww @ normal_doubling(x) @ ww.adjoint()  # w w* = 2 I
        zero = Matrix.zeros(n, n, backend)
        rhs = block([[h * 4, zero], [zero, k * GQ(0, 4)]])
        return _close(lhs, rhs)

    return Fixture(
        name=name,
        description="Rational conjugator that block-diagonalizes every doubled matrix",
        matrices={"w": doubling_conjugator(2)},
        claims=(
            Claim("invertible", lambda m: invertible(m["w"])),
            Claim("conjugation-block-diagonalizes", conjugation_diagonalizes),
        ),
    )


# name -> builder, in catalog order; get_fixture builds only the fixture it is asked for
_FIXTURES = {"nilpotent-2x2": _nilpotent_2x2, "hermitian-products-3x3": _hermitian_products_3x3,
             "transpose-3x3": _transpose_3x3, "hermitian-normal-4x4": _hermitian_normal_4x4,
             "doubling-conjugator": _doubling_conjugator}


def catalog() -> list[Fixture]:
    return [build(name) for name, build in _FIXTURES.items()]


def get_fixture(name: str) -> Fixture:
    return _FIXTURES[name](name)


@dataclass(frozen=True)
class SearchSpec:
    """Randomized search for non-similar product pairs within a family.

    The rank constraint applies to the first matrix of each pair; the
    second is drawn from the same family with an unconstrained rank.
    """

    family: str
    size: int
    rank: int | None = None
    trials: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.size < 1:
            raise ValueError("size must be positive")
        if self.trials < 1:
            raise ValueError("trials must be positive")
        if self.rank is not None and not 0 <= self.rank <= self.size:
            raise ValueError("rank must lie between 0 and size")


@dataclass(frozen=True)
class Finding:
    trial: int
    a: Matrix
    b: Matrix
    seq_ab: RankSequence
    seq_ba: RankSequence


def _draw(family: str, n: int, rng, rank_: int | None) -> Matrix:
    return getattr(gen, _GENERATORS[family])(n, rng, rank=rank_)


def search_counterexample(spec: SearchSpec) -> list[Finding]:
    """Run the seeded trials; every non-similar pair becomes a Finding.

    Generation is exact, so findings are proofs, not numerical artifacts.
    Trial i uses the derived seed (spec.seed, i) and is independent of
    all other trials.
    """
    findings: list[Finding] = []
    for i in range(spec.trials):
        rng = np.random.default_rng([spec.seed, i])
        a = _draw(spec.family, spec.size, rng, spec.rank)
        b = _draw(spec.family, spec.size, rng, None)
        verdict = decide_product_similarity(a, b)
        if not verdict.similar:
            findings.append(
                Finding(trial=i, a=a, b=b, seq_ab=verdict.seq_ab, seq_ba=verdict.seq_ba)
            )
    return findings


def admissible_sequence_pairs(
    n: int = 4,
    cap: int = 2,
    require_differ: bool = True,
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered pattern pairs compatible with a non-similar product pair:
    same second entry (ranks of AB and BA agree), same limit (invertible
    parts agree), and, unless disabled, different sequences."""
    patterns = enumerate_tail_sequences(n, cap)
    pairs = []
    for i, p in enumerate(patterns):
        # the patterns are stabilized: p[-1] is the limit, (p + p[-1:])[1] the second term
        pairs += [(p, q) for q in patterns[i + 1 if require_differ else i:]
                  if (p + p[-1:])[1] == (q + q[-1:])[1] and p[-1] == q[-1]]
    return pairs


def minimal_counterexample_analysis() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The unique rank-sequence pattern pair a minimal (4x4, rank 3)
    non-similar normal product pair must realize."""
    pairs = admissible_sequence_pairs(n=4, cap=2, require_differ=True)
    if len(pairs) != 1:
        raise AssertionError(f"expected a unique admissible pair, got {pairs}")
    return pairs[0]
