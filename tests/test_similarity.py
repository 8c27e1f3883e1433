import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from abba import (
    BackendError,
    HypothesisViolation,
    Matrix,
    ShapeError,
    SimilarityCertificate,
    SimilarityVerdict,
    block,
    certificate_for,
    characteristic_polynomial,
    column_inclusion_factor,
    construct_similarity_psd_ep,
    decide_product_similarity,
    decide_unitary_2x2,
    determinant,
    doubling_conjugator,
    doubling_product_similarity,
    enumerate_tail_sequences,
    ep_decomposition,
    find_intertwiner,
    get_fixture,
    hermitian_parts,
    intertwiner_space,
    is_hermitian,
    is_normal,
    is_psd,
    normal_doubling,
    rank,
    rank_sequence,
    realize_rank_sequence,
    realpart_psd_same_rank,
    unitary_intertwiner,
    verify_certificate,
    vstack,
    word_trace_screen,
)
from abba import generators as gen
from abba import linalg, load_matrix, rankseq, similarity
from abba.classes import _ep_ranks
from abba.linalg import _charpoly_numerators
from abba.scalars import DEFAULT_TOLERANCE, GQ

from .oracle import flanders_ok, kron_sylvester, oracle_rank_sequence
from .test_golden import INPUTS
from .test_linalg import _bareiss_kernel, _same_basis


def _random_exact(rng, n, span=3):
    return Matrix.exact(
        [[(int(rng.integers(-span, span + 1)), int(rng.integers(-span, span + 1)))
          for _ in range(n)] for _ in range(n)]
    )


# -- decision ------------------------------------------------------------


def test_decide_nilpotent_pair(nilpotent_pair):
    v = decide_product_similarity(*nilpotent_pair)
    assert not v.similar
    assert v.reason == "rank-sequence-differ"
    assert v.seq_ab.terms == (2, 1, 0) and v.seq_ba.terms == (2, 0)


def test_decide_4x4_pair(hermitian_normal_pair_4x4):
    v = decide_product_similarity(*hermitian_normal_pair_4x4)
    assert not v.similar
    assert v.seq_ab.terms == (4, 2, 0) and v.seq_ba.terms == (4, 2, 1, 0)
    assert v.seq_ab.limit == v.seq_ba.limit == 0


def test_decide_invertible_shortcut():
    rng = np.random.default_rng(3)
    a = gen.rational_unitary(3, rng)
    b = _random_exact(rng, 3)
    v = decide_product_similarity(a, b)
    assert v.similar and v.reason == "rank-sequence-equal"


def test_decide_errors(nilpotent_pair):
    """Every two-matrix entry point enforces the same operand contract:
    square of one size first, then one backend."""
    a, _ = nilpotent_pair
    for entry in (decide_product_similarity, find_intertwiner, construct_similarity_psd_ep,
                  doubling_product_similarity, word_trace_screen, unitary_intertwiner,
                  intertwiner_space):
        with pytest.raises(ShapeError, match="operands must be square and of equal size"):
            entry(a, Matrix.identity(3))
        with pytest.raises(ShapeError, match="operands must be square and of equal size"):
            entry(a, Matrix.zeros(2, 3, "float"))
        with pytest.raises(BackendError, match="operands must share a backend"):
            entry(a, Matrix.identity(2, "float"))
    # the 2x2 triple checks its shape itself first
    with pytest.raises(BackendError, match="operands must share a backend"):
        decide_unitary_2x2(a, Matrix.identity(2, "float"))


def test_verdict_similar_iff_sequences_equal():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        v = decide_product_similarity(_random_exact(rng, n, 2), _random_exact(rng, n, 2))
        assert v.similar == (v.seq_ab.terms == v.seq_ba.terms)
        assert v.seq_ab.limit == v.seq_ba.limit


# mostly-zero parts make singular and nilpotent products common
_PART = st.tuples(st.sampled_from([0, 0, 0, 1, -1, 2]), st.sampled_from([0, 0, 0, 1, -1]))


@st.composite
def _exact_pairs(draw):
    """Exact pairs, n = 1-5: sparse Gaussian-integer numerators over their own
    denominators, each matrix strictly upper triangular (nilpotent) half the time,
    and both conjugated by one Cayley unitary half the time."""
    n = draw(st.integers(1, 5))

    def one():
        rows = draw(st.lists(st.lists(_PART, min_size=n, max_size=n), min_size=n, max_size=n))
        if draw(st.booleans()):
            rows = [[z if j > i else (0, 0) for j, z in enumerate(row)] for i, row in enumerate(rows)]
        re, im = ([[z[k] for z in row] for row in rows] for k in (0, 1))
        return Matrix.from_ints(re, im, draw(st.integers(1, 12)))

    a, b = one(), one()
    if draw(st.booleans()):
        u = gen.rational_unitary(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))), span=2)
        a, b = u @ a @ u.adjoint(), u @ b @ u.adjoint()
    return a, b


@given(_exact_pairs())
@settings(max_examples=300, deadline=None)
def test_exact_decide_reads_the_rank_sequences_of_the_products(pair):
    """Exact decide forms ab and ba as numerators and returns the rank sequences of
    a @ b and b @ a."""
    a, b = pair
    seq_ab, seq_ba = rank_sequence(a @ b), rank_sequence(b @ a)
    similar = seq_ab == seq_ba
    expected = SimilarityVerdict(similar=similar, seq_ab=seq_ab, seq_ba=seq_ba,
                                 reason="rank-sequence-equal" if similar else "rank-sequence-differ")
    assert decide_product_similarity(a, b) == expected


def _atom_pairs(rng):
    """Pairs (j_s, d) and (j_s, j_t^T) for every realized sequence s at n <= 4 (j_s =
    realize_rank_sequence(s), d an invertible diagonal, t drawn at the same n), then
    20 direct sums of two of them at n <= 6; each pair conjugated by one Cayley unitary."""
    atoms = []
    for n in range(1, 5):
        seqs = enumerate_tail_sequences(n, n)
        for s in seqs:
            j = realize_rank_sequence(s)
            t = seqs[int(rng.integers(len(seqs)))]
            atoms += [(j, gen.rational_diagonal(n, rng, nonzeros=n)),
                      (j, realize_rank_sequence(t).transpose())]
    sums = []
    while len(sums) < 20:
        (a1, b1), (a2, b2) = (atoms[int(i)] for i in rng.integers(len(atoms), size=2))
        if a1.rows + a2.rows <= 6:
            sums.append((_direct_sum(a1, a2), _direct_sum(b1, b2)))
    pairs = []
    for a, b in atoms + sums:
        u = gen.rational_unitary(a.rows, rng)
        pairs.append((u @ a @ u.adjoint(), u @ b @ u.adjoint()))
    return pairs


def _family_pairs(rng):
    """Two draws of every exact generator family at each n <= 6, a at a drawn rank."""
    return [(getattr(gen, name)(n, rng, rank=int(rng.integers(n + 1))), getattr(gen, name)(n, rng))
            for name in ("rational_normal", "rational_hermitian", "rational_psd", "rational_ep",
                         "zero_one_normal")
            for n in range(1, 7) for _ in range(2)]


def test_exact_decide_with_the_shared_limit_matches_both_sequences():
    """Exact decide reads BA's sequence knowing AB's limit; on realized atoms, their
    sums and every exact family it must still return the sequences that the public
    rank_sequence reads in full (and, on a fixed sample, sympy's ranks of powers),
    and every pair of sequences must satisfy Flanders' condition."""
    rng = np.random.default_rng(2026)
    pairs = _atom_pairs(rng) + _family_pairs(rng)
    for k, (a, b) in enumerate(pairs):
        v = decide_product_similarity(a, b)
        ab, ba = a @ b, b @ a
        assert (v.seq_ab, v.seq_ba) == (rank_sequence(ab), rank_sequence(ba)), k
        assert flanders_ok(v.seq_ab.terms, v.seq_ba.terms), k
        if k % 3 == 0:
            assert (v.seq_ab.terms, v.seq_ba.terms) == (oracle_rank_sequence(ab),
                                                       oracle_rank_sequence(ba)), k


def _counted_eliminations(monkeypatch):
    """A list that gets the row count of every exact elimination rankseq runs from now on."""
    calls, eliminate = [], rankseq._eliminate_rows
    monkeypatch.setattr(rankseq, "_eliminate_rows", lambda re, im: calls.append(len(re)) or
                        eliminate(re, im))
    return calls


def _ba_eliminations(a, b, calls):
    """Eliminations of exact decide's BA side: all of decide's, less those of AB's
    sequence read in full."""
    del calls[:]
    decide_product_similarity(a, b)
    total = len(calls)
    del calls[:]
    rank_sequence(a @ b)
    return total - len(calls)


def test_exact_decide_skips_the_ba_eliminations_that_the_limit_decides(monkeypatch):
    calls = _counted_eliminations(monkeypatch)
    rng = np.random.default_rng(26)
    u = gen.rational_unitary(5, rng)
    d = u @ gen.rational_diagonal(5, rng, nonzeros=5) @ u.adjoint()
    # ab invertible: L = n, so BA needs no elimination
    assert _ba_eliminations(_invertible(5, rng), d, calls) == 0
    # a single Jordan chain: after the first drop of one the rest counts down
    for seq in ((5, 4, 3, 2, 1, 0), (5, 4, 3, 2, 1)):
        chain = u @ realize_rank_sequence(seq) @ u.adjoint()
        assert decide_product_similarity(chain, d).seq_ba.terms == seq
        assert _ba_eliminations(chain, d, calls) == 1
    # (5, 2, 1): the first elimination gives 2 = L + 1, so the next term is L
    j = u @ realize_rank_sequence((5, 2, 1)) @ u.adjoint()
    assert _ba_eliminations(j, d, calls) == 1


def test_public_rank_sequence_runs_one_elimination_per_term(monkeypatch):
    """rank_sequence takes no limit: one elimination per term after n, and one more
    to see a nonzero limit repeat."""
    calls = _counted_eliminations(monkeypatch)
    rng = np.random.default_rng(27)
    for n in range(1, 6):
        for seq in enumerate_tail_sequences(n, n):
            u = gen.rational_unitary(n, rng)
            del calls[:]
            assert rank_sequence(u @ realize_rank_sequence(seq) @ u.adjoint()).terms == seq
            assert len(calls) == len(seq) - (seq[-1] == 0), seq


def test_float_decide_cuts_both_products_on_one_scale():
    """nil2 = (E12, E22) summed 32 times: ab is 32 copies of E12 and ba = 0.  Under a
    random unitary, ba is rounding noise; cut against its own norm that noise read as
    rank 64, and cut against ||a||_2 ||b||_2 it is rank 0."""
    x, y = np.zeros((64, 64)), np.zeros((64, 64))
    for k in range(0, 64, 2):
        x[k, k + 1] = y[k + 1, k + 1] = 1.0
    for seed in range(5):
        u = gen.random_unitary(64, np.random.default_rng(seed))
        a, b = (u @ Matrix.from_float(m) @ u.adjoint() for m in (x, y))
        v = decide_product_similarity(a, b)
        assert (v.seq_ab.terms, v.seq_ba.terms) == ((64, 32, 0), (64, 0))
        assert not v.similar


def test_float_decide_at_tiny_scale_keeps_the_rank_sequences():
    """A Hermitian pair of ranks 3 and 2 scaled by 2^-600 has the rank sequences of
    the unscaled pair: ab has rank 2, not the 0 of an underflowed product."""
    rng = np.random.default_rng(3)
    a, b = gen.random_hermitian(3, rng, rank=3), gen.random_hermitian(3, rng, rank=2)
    v = decide_product_similarity(a * 2.0 ** -600, b * 2.0 ** -600)
    assert v.seq_ab.terms == (3, 2)


# -- intertwiner search ----------------------------------------------------


def test_find_intertwiner_flip_pair():
    m1 = Matrix.exact([[0, 1], [0, 0]])
    m2 = Matrix.exact([[0, 0], [1, 0]])
    cert = find_intertwiner(m1, m2, seed=1)
    assert cert is not None and cert.residual == 0.0 and cert.det
    assert verify_certificate(cert, m1, m2).ok
    with pytest.raises(ValueError):
        find_intertwiner(m1, m2, attempts=0)


def test_find_intertwiner_none_for_4x4_products(hermitian_normal_pair_4x4):
    a, b = hermitian_normal_pair_4x4
    assert find_intertwiner(a @ b, b @ a, seed=0) is None


def test_find_intertwiner_hermitian_products():
    rng = np.random.default_rng(8)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        a = gen.rational_hermitian(n, rng)
        b = gen.rational_hermitian(n, rng)
        cert = find_intertwiner(a @ b, b @ a, seed=trial)
        assert cert is not None
        assert cert.residual == 0.0
        assert verify_certificate(cert, a @ b, b @ a).ok


def test_intertwiner_space_contains_commutant():
    m = Matrix.diagonal([1, 2, 3])
    basis = intertwiner_space(m, m)
    assert len(basis) == 3  # distinct eigenvalues: diagonal commutant


def test_find_intertwiner_skips_a_zero_draw():
    """A zero sample fails the certificate rule, so the next draw is used."""
    m = Matrix.exact([[3]])  # every 1x1 matrix intertwines: a one-dimensional space
    assert len(intertwiner_space(m, m)) == 1
    seed = 25
    rng = np.random.default_rng(seed)
    first, second = (int(rng.integers(-9, 10, size=1)[0]) for _ in range(2))  # as find_intertwiner draws
    assert (first, second) == (0, -6)
    assert certificate_for(Matrix.zeros(1, 1), m, m).ok is False
    cert = find_intertwiner(m, m, seed=seed)
    assert cert == certificate_for(Matrix.exact([[second]]), m, m)


def _fractional_pair(rng, n):
    """Two n x n matrices with non-real entries over distinct non-unit denominators."""
    def draw(den):
        return Matrix.from_ints(rng.integers(-4, 5, (n, n)), rng.integers(-4, 5, (n, n)), den)

    return draw(6), draw(35)


def test_exact_sylvester_system_is_the_kron_form():
    """The entrywise exact Sylvester system equals kron(x^T, I) - kron(I, y), and
    the *-system behind unitary_intertwiner equals the vstack of both kron forms."""
    rng = np.random.default_rng(163)
    for n in range(1, 5):
        for _ in range(3):
            x, y = _fractional_pair(rng, n)
            assert x.numerators[2] != 1 and y.numerators[2] != x.numerators[2]
            assert Matrix.from_ints(*similarity._sylvester_rows(x, y)) == kron_sylvester(x, y)
            assert Matrix.from_ints(*similarity._sylvester_rows(y, y)) == kron_sylvester(y, y)


def test_unitary_intertwiner_stacks_the_kron_forms(monkeypatch):
    """The exact rows that unitary_intertwiner eliminates, over lcm(den_x, den_y),
    are the vstack of the kron forms of (x, y) and (x*, y*)."""
    systems, kernel_rows = [], similarity._kernel_rows

    def recording(re, im, cols):
        systems.append(([row[:] for row in re], [row[:] for row in im]))
        return kernel_rows(re, im, cols)

    monkeypatch.setattr(similarity, "_kernel_rows", recording)
    rng = np.random.default_rng(167)
    for n in range(1, 5):
        x, y = _fractional_pair(rng, n)
        unitary_intertwiner(x, y)
        den = math.lcm(x.numerators[2], y.numerators[2])
        assert Matrix.from_ints(*systems.pop(), den) == vstack(
            [kron_sylvester(x, y), kron_sylvester(x.adjoint(), y.adjoint())])


def test_modular_sylvester_kernels_match_bareiss(monkeypatch):
    """linalg._modular_kernel certifies Bareiss's RREF basis on the Sylvester rows of
    realized-sequence and family pairs under Cayley conjugation: (ab, ba), often rank
    deficient; its first half of rows (wide); the stacked rows of unitary_intertwiner
    (tall); and (ab, ab + c) for c past twice the spectral radius, whose kernel is 0."""
    rng = np.random.default_rng(30)
    for k, (a, b) in enumerate(_atom_pairs(rng) + _family_pairs(rng)):
        ab, ba = a @ b, b @ a
        n2 = ab.rows ** 2
        re, im, _ = similarity._sylvester_rows(ab, ba)
        star = similarity._sylvester_rows(ab.adjoint(), ba.adjoint())
        c = 2 * int(ab.frobenius()) + 1
        shifted = similarity._sylvester_rows(ab, ab + Matrix.identity(ab.rows) * c)
        for rows in ((re, im), (re[:n2 // 2], im[:n2 // 2]), (re + star[0], im + star[1]), shifted[:2]):
            kernel = linalg._modular_kernel(*rows, n2, linalg._PRIMES)
            assert kernel is not None and _same_basis(kernel, _bareiss_kernel(monkeypatch, *rows, n2)), k
        assert kernel[0].shape[2] == 0


def test_kernel_rows_dispatch_by_width(monkeypatch):
    """The 36-column Sylvester system of the golden hermitian-6-seed6 pair runs no
    Bareiss pass, the 16-column one of hermitian-products-3x3-pad1 exactly one."""
    calls, eliminate = [], linalg._eliminate_rows
    monkeypatch.setattr(linalg, "_eliminate_rows", lambda re, im: calls.append(len(re)) or
                        eliminate(re, im))
    for pair, bareiss in (("hermitian-6-seed6", []), ("hermitian-products-3x3-pad1", [16])):
        a, b = (load_matrix(INPUTS / f"{pair}__{x}.json") for x in "ab")
        del calls[:]
        assert intertwiner_space(a @ b, b @ a)
        assert calls == bareiss


def test_find_intertwiner_is_the_seeded_combination_of_the_basis():
    """The exact sample is sum c_i S_i over intertwiner_space, the c_i drawn from
    default_rng(seed) in [-9, 9] until certificate_for accepts.  On the 3x3 pair
    seeds 0 and 48 reject their first one and two draws.  Its direct sum with a
    1x1 block has sparse Sylvester rows, which elimination skips at every pivot;
    there seeds 0, 29 and 107 reject one, two and three draws."""
    x = Matrix.exact([[1, 0, 0], [0, 2, 0], [0, 0, (0, 3)]])
    u = gen.rational_unitary(3, np.random.default_rng(3))
    y = u @ x @ u.adjoint()
    zero, one = Matrix.zeros(3, 1), Matrix.exact([[4]])
    padded = tuple(block([[m, zero], [zero.transpose(), one]]) for m in (x, y))
    for (m1, m2), dens, draws in (((x, y), [2, 5, 10], ((0, 1), (48, 2), (5, 0))),
                                  (padded, [1, 2, 5, 10], ((0, 1), (29, 2), (107, 3), (2, 0)))):
        basis = intertwiner_space(m1, m2)
        assert sorted(s.numerators[2] for s in basis) == dens
        for seed, rejected in draws:
            rng = np.random.default_rng(seed)
            for draw in range(rejected + 1):
                coeffs = [int(c) for c in rng.integers(-9, 10, size=len(basis))]
                t = sum((s * c for c, s in zip(coeffs, basis)), Matrix.zeros(m1.rows, m1.rows))
                assert certificate_for(t, m1, m2).ok == (draw == rejected)
            assert find_intertwiner(m1, m2, seed=seed).t == t


def test_find_intertwiner_float_conjugates_including_1x1(hermitian_normal_pair_4x4):
    """The float kernel cutoff is measured against the operands, so a pair that
    differs by rounding alone (1x1: x against u x u*) keeps its intertwiners."""
    rng = np.random.default_rng(131)
    ones = 0
    for trial in range(200):
        n = int(rng.integers(1, 6))
        ones += n == 1
        m = Matrix.from_float(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        u = gen.random_unitary(n, rng)
        cert = find_intertwiner(m, u @ m @ u.adjoint(), seed=trial)
        assert cert is not None and cert.residual <= 1e-10
    assert ones > 0
    a, b = (m.to_float() for m in hermitian_normal_pair_4x4)
    assert find_intertwiner(a @ b, b @ a) is None  # not similar


# -- unitary intertwiner -----------------------------------------------------


def _not_unitarily_similar_catalog_pairs():
    pairs = []
    for name in ("hermitian-products-3x3", "hermitian-normal-4x4"):
        mats = get_fixture(name).matrices
        pairs.append((mats["a"] @ mats["b"], mats["b"] @ mats["a"]))
    at = get_fixture("transpose-3x3").matrices["a"]
    return pairs + [(at, at.transpose())]


def test_unitary_intertwiner_none_on_catalog_pairs():
    for m1, m2 in _not_unitarily_similar_catalog_pairs():
        for x, y in ((m1, m2), (m1.to_float(), m2.to_float())):
            assert word_trace_screen(x, y, 6).distinguished
            assert unitary_intertwiner(x, y) is None


def _assert_unitary_certificate(cert, m1, m2):
    n = m1.rows
    assert cert is not None and cert.ok and cert.t.backend == "float"
    assert np.allclose(cert.t.array.conj().T @ cert.t.array, np.eye(n), rtol=0, atol=1e-10)
    assert verify_certificate(cert, m1.to_float(), m2.to_float()).ok


def test_unitary_intertwiner_certifies_exact_cayley_conjugates():
    rng = np.random.default_rng(151)
    for trial in range(12):
        n = int(rng.integers(1, 5))
        x = _random_exact(rng, n, 2)
        u = gen.rational_unitary(n, rng)
        y = u @ x @ u.adjoint()
        _assert_unitary_certificate(unitary_intertwiner(x, y), x, y)


def test_unitary_intertwiner_certifies_float_haar_conjugates():
    rng = np.random.default_rng(157)
    for n in range(1, 7):
        for _ in range(4):
            x = Matrix.from_float(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            u = gen.random_unitary(n, rng)
            y = u @ x @ u.adjoint()
            _assert_unitary_certificate(unitary_intertwiner(x, y), x, y)


def test_construct_haar_conjugated_chain_atoms_float():
    """x = diag(1, .., 1, 0) (+) I (PSD) against a cyclic shift (+) 0 (EP),
    conjugated by a Haar unitary; the column-inclusion solve is accepted
    against ||A11||_F as well as ||A12||_F, so rounding in A11 does not
    refuse a consistent system."""
    def chain(k, zeros):
        n = k + zeros
        x = np.eye(n, dtype=complex)
        x[k - 1, k - 1] = 0
        y = np.zeros((n, n), dtype=complex)
        for j in range(k):
            y[(j + 1) % k, j] = 1
        return x, y

    certified = 0
    for seed in range(20):
        for k, zeros in ((6, 2), (8, 24)):
            x, y = chain(k, zeros)
            u = gen.random_unitary(k + zeros, np.random.default_rng(seed)).array
            a = Matrix.from_float(u @ x @ u.conj().T)
            b = Matrix.from_float(u @ y @ u.conj().T)
            cert = construct_similarity_psd_ep(a, b)
            certified += cert.ok and verify_certificate(cert, a @ b, b @ a).ok
    assert certified == 40


def test_certificates_returned_are_always_sound():
    rng = np.random.default_rng(77)
    for trial in range(10):
        n = int(rng.integers(2, 5))
        m1 = _random_exact(rng, n, 2)
        m2 = _random_exact(rng, n, 2)
        cert = find_intertwiner(m1, m2, seed=trial)
        if cert is not None:
            assert verify_certificate(cert, m1, m2).ok


def test_verify_certificate_flags_singular_t():
    for backend in ("exact", "float"):
        m = Matrix.identity(2, backend)
        bogus = certificate_for(Matrix.zeros(2, 2, backend), m, m)
        chk = verify_certificate(bogus, m, m)
        assert not chk.invertible and not chk.ok


def test_verify_certificate_float_rejects_non_intertwiner():
    # t = I intertwines m1 and m2 only if they are equal; these do not even commute
    m1 = Matrix.from_float([[0.0, 1.0], [0.0, 0.0]])
    m2 = Matrix.from_float([[0.0, 0.0], [1.0, 0.0]])
    assert not (m1 @ m2 == m2 @ m1)
    chk = verify_certificate(SimilarityCertificate(t=Matrix.identity(2, "float"), residual=0.0),
                             m1, m2)
    assert chk.invertible and chk.condition == 1.0
    assert chk.residual == pytest.approx(1.0) and not chk.ok


def test_hand_built_certificate_verifies_true_intertwiner_only():
    # the form a caller holding only t builds: no evidence, no verdict
    m1 = Matrix.exact([[0, 1], [0, 0]])
    m2 = m1.transpose()
    swap = SimilarityCertificate(t=Matrix.exact([[0, 1], [1, 0]]), residual=0.0)
    assert not swap.ok
    chk = verify_certificate(swap, m1, m2)
    assert chk.ok and chk.invertible and chk.det == GQ(-1) and chk.residual == 0.0
    singular = SimilarityCertificate(t=Matrix.exact([[0, 0], [0, 1]]), residual=0.0)
    assert (singular.t @ m1 - m2 @ singular.t).is_zero()
    chk = verify_certificate(singular, m1, m2)
    assert not chk.invertible and not chk.ok and chk.det == GQ(0)


def test_exact_invertible_non_intertwiner_is_not_ok():
    m1 = Matrix.exact([[0, 1], [0, 0]])
    cert = certificate_for(Matrix.identity(2), m1, m1.transpose())
    assert cert.invertible and cert.det == GQ(1)
    assert cert.residual > 0 and not cert.ok


def test_identity_certificate_on_commuting_pair():
    m = Matrix.diagonal([2, 3])
    cert = certificate_for(Matrix.identity(2), m, m)
    assert cert.residual == 0.0
    assert verify_certificate(cert, m, m).ok


# -- PSD / EP construction --------------------------------------------------


def test_construct_identity_a():
    rng = np.random.default_rng(5)
    b = gen.random_normal(4, rng)
    cert = construct_similarity_psd_ep(Matrix.identity(4, "float"), b)
    assert cert.residual <= 1e-12


def test_construct_commuting_diagonals():
    cert = construct_similarity_psd_ep(Matrix.diagonal([1, 2, 0]), Matrix.diagonal([5, 0, 0]))
    assert cert.residual == 0.0 and cert.det


def test_construct_hand_checked_2x2():
    # aligned instance: a = [[1,1],[1,1]], b = diag(2,0); the transform is
    # [[3,-1],[-1,1]], sending ab = [[2,0],[2,0]] to ba = [[2,2],[0,0]]
    a = Matrix.exact([[1, 1], [1, 1]])
    b = Matrix.diagonal([2, 0])
    cert = construct_similarity_psd_ep(a, b)
    assert cert.t == Matrix.exact([[3, -1], [-1, 1]])
    assert cert.residual == 0.0
    manual = certificate_for(Matrix.exact([[3, -1], [-1, 1]]), a @ b, b @ a)
    assert manual.residual == 0.0
    assert verify_certificate(manual, a @ b, b @ a).ok


def test_construct_random_psd_normal_float():
    rng = np.random.default_rng(100)
    a = gen.random_psd(4, rng, rank=3)
    b = gen.random_normal(4, rng, rank=2)
    cert = construct_similarity_psd_ep(a, b)
    assert cert.residual <= 1e-10 and cert.condition <= 1e8
    assert verify_certificate(cert, a @ b, b @ a).ok
    assert decide_product_similarity(a, b).similar


def test_construct_nonhermitian_a_exact_aligned():
    # real part diag(1,0) is PSD with rank 1 = rank(a); b aligned EP
    a = Matrix.exact([[(1, 3), 0], [0, 0]])
    b = Matrix.diagonal([5, 0])
    cert = construct_similarity_psd_ep(a, b)
    assert cert.residual == 0.0 and cert.det


def test_construct_rejects_bad_hypotheses():
    with pytest.raises(HypothesisViolation):
        construct_similarity_psd_ep(Matrix.exact([[0, 1], [1, 0]]), Matrix.identity(2))
    with pytest.raises(HypothesisViolation):
        construct_similarity_psd_ep(Matrix.identity(2), Matrix.exact([[0, 1], [0, 0]]))


def test_construct_hypothesis_rule_agrees_with_either_rule():
    """A Hermitian a is its own real part, so asking is_psd for Hermitian a
    and realpart_psd_same_rank otherwise decides as the disjunction does."""
    rng = np.random.default_rng(77)
    pool = [Matrix.exact([[1, 2], [2, 1]]), Matrix.exact([[(1, 3), 0], [0, 0]])]
    for n in (2, 3, 4):
        for rank in (1, n):
            psd = gen.rational_psd(n, rng, rank=rank)
            pool += [psd, -psd, gen.rational_hermitian(n, rng, rank=rank), _random_exact(rng, n),
                     psd + gen.rational_skew_hermitian(n, rng)]
            fpsd = gen.random_psd(n, rng, rank=rank)
            noise = Matrix.from_float(1e-13 * rng.standard_normal((n, n)))
            pool += [fpsd, fpsd + noise, -fpsd, gen.random_hermitian(n, rng, rank=rank),
                     gen.random_realpart_psd(n, rng, rank=rank), gen.random_normal(n, rng, rank=rank),
                     fpsd * GQ(0, 1)]
    seen = set()
    for a in pool:
        herm = is_hermitian(a)
        rule = is_psd(a) if herm else realpart_psd_same_rank(a)
        assert rule == (is_psd(a) or realpart_psd_same_rank(a))
        seen.add((a.backend, herm, rule))
    assert len(seen) == 8  # both backends, Hermitian or not, accepted or not


def test_construct_tests_b_before_a(monkeypatch):
    """An indefinite Hermitian a: its minor sums (the integer charpoly
    coefficients that _psd_violation reads) are read once after a block-form
    EP b, and not at all when an exact b is not in block form."""
    from abba import classes

    calls = []

    def counted(re, im):
        calls.append(re.shape)
        return _charpoly_numerators(re, im)

    monkeypatch.setattr(classes, "_charpoly_numerators", counted)
    a = Matrix.exact([[1, 2], [2, 1]])  # eigenvalues 3 and -1
    with pytest.raises(HypothesisViolation):
        construct_similarity_psd_ep(a, Matrix.diagonal([5, 0]))
    assert calls == [(2, 2)]
    calls.clear()
    with pytest.raises(BackendError):
        construct_similarity_psd_ep(a, Matrix.exact([[1, 1], [1, 1]]))  # EP, not block form
    assert calls == []


def test_construct_extreme_ranks_float():
    rng = np.random.default_rng(321)
    a = gen.random_psd(4, rng, rank=2)
    zero = Matrix.zeros(4, 4, "float")
    cert = construct_similarity_psd_ep(a, zero)
    assert cert.residual <= 1e-12
    full = gen.random_ep(4, rng, rank=4)
    cert2 = construct_similarity_psd_ep(a, full)
    assert cert2.residual <= 1e-10


# the construction as composed before the exact branch ran on numerators, kept as the oracle


def _matrix_certificate(t, m1, m2):
    """(t, det, residual, ok) of certificate_for, from Matrix products and Bareiss."""
    lhs, rhs = t @ m1, m2 @ t
    residual = 0.0
    if lhs != rhs:
        denom = t.frobenius() * max(m1.frobenius(), m2.frobenius())
        residual = (lhs - rhs).frobenius() / denom if denom else float("inf")
    det = determinant(t)
    return t, det, residual, bool(det) and residual == 0.0


def _minor_sums_nonnegative(m):
    return all(c.im == 0 and (c if k % 2 == 0 else -c).re >= 0
               for k, c in enumerate(characteristic_polynomial(m)))


def _composed_construction(a, b):
    n = b.rows
    r, r_joint = _ep_ranks(b, DEFAULT_TOLERANCE)
    if r_joint != r:
        raise HypothesisViolation("matrix is not EP (range differs from adjoint range)")
    if not (b.block(0, r, r, n).is_zero() and b.block(r, n, 0, n).is_zero()):
        raise BackendError(
            "exact decomposition requires the matrix already in invertible-block-plus-zero form")
    herm = a == a.adjoint()
    h = (a + a.adjoint()) * Fraction(1, 2)
    if not (_minor_sums_nonnegative(a) if herm else
            _minor_sums_nonnegative(h) and rank(h) == rank(a)):
        raise HypothesisViolation(
            "a must be positive semidefinite or have a PSD real part of equal rank")
    x = column_inclusion_factor(a, r)
    if x is None:
        raise HypothesisViolation("column inclusion solve failed for a")
    y = x if herm else column_inclusion_factor(a.adjoint(), r)
    if y is None:
        raise HypothesisViolation("row inclusion solve failed for a")
    s = block([[b.block(0, r, 0, r) + x @ y.adjoint(), -x], [-y.adjoint(), Matrix.identity(n - r)]])
    cert = _matrix_certificate(s, a @ b, b @ a)
    if not cert[3]:
        raise HypothesisViolation(
            f"constructed transform failed verification (residual {cert[2]:.3g})")
    return cert


def _invertible(k, rng):
    """A dense exact invertible k x k matrix with non-unit denominators."""
    return gen.rational_unitary(k, rng, span=2) @ gen.rational_diagonal(k, rng, nonzeros=k)


def _direct_sum(x, y):
    return block([[x, Matrix.zeros(x.rows, y.cols)], [Matrix.zeros(y.rows, x.cols), y]])


def _construction_a(kind, n, rng):
    k = int(rng.integers(0, n + 1))
    if kind == "psd":  # Hermitian PSD of rank k, conjugated by a Cayley unitary
        u = gen.rational_unitary(n, rng)
        return u @ gen.rational_psd(n, rng, rank=k) @ u.adjoint()
    if kind == "realpart":  # c* ((I + S) + 0) c: real part c* (I + 0) c, rank k both
        c = _invertible(n, rng)
        core = Matrix.identity(k) + gen.rational_skew_hermitian(k, rng) if k else Matrix.zeros(0, 0)
        return c.adjoint() @ _direct_sum(core, Matrix.zeros(n - k, n - k)) @ c
    if kind == "indefinite":
        return gen.rational_hermitian(n, rng) - gen.rational_psd(n, rng, rank=max(k, 1))
    return _random_exact(rng, n, 2)  # generic, usually neither


def _construction_b(kind, n, rng):
    r = int(rng.integers(0, n + 1))
    b = _direct_sum(_invertible(r, rng), Matrix.zeros(n - r, n - r)) if r else Matrix.zeros(n, n)
    if kind == "block":
        return b
    if kind == "ep":  # EP, in block form only by chance
        u = gen.rational_unitary(n, rng)
        return u @ b @ u.adjoint()
    # [[C, E], [0, 0]] with E != 0: range(b) is the leading r coordinates, range(b*) is not
    r = max(1, min(r, n - 1))
    re, im, den = _direct_sum(_invertible(r, rng), Matrix.zeros(n - r, n - r)).numerators
    re = re.copy()
    re[0, n - 1] = den
    return Matrix.from_ints(re, im, den)


@given(st.integers(1, 5), st.sampled_from(["psd", "realpart", "indefinite", "generic"]),
       st.sampled_from(["block", "ep", "non-ep"]), st.integers(0, 2**32 - 1))
@settings(max_examples=400, deadline=None)
def test_exact_construction_matches_the_composed_construction(n, a_kind, b_kind, seed):
    assume(n > 1 or b_kind != "non-ep")  # every 1 x 1 matrix is EP
    rng = np.random.default_rng(seed)
    a, b = _construction_a(a_kind, n, rng), _construction_b(b_kind, n, rng)
    try:
        want = _composed_construction(a, b)
    except (BackendError, HypothesisViolation) as err:
        with pytest.raises(type(err)) as got:
            construct_similarity_psd_ep(a, b)
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    cert = construct_similarity_psd_ep(a, b)
    assert (cert.t, cert.det, cert.residual, cert.ok) == want


def test_exact_construction_differential_reaches_every_branch():
    """The strategy above reaches success with Hermitian a (Y = X) and with
    non-Hermitian a (Y solved on its own), and each error of the exact path."""
    seen = set()
    for seed in range(60):
        for n in (2, 3, 4):
            for a_kind in ("psd", "realpart", "indefinite"):
                for b_kind in ("block", "ep", "non-ep"):
                    rng = np.random.default_rng(seed)
                    a, b = _construction_a(a_kind, n, rng), _construction_b(b_kind, n, rng)
                    try:
                        _composed_construction(a, b)
                        seen.add(("ok", a == a.adjoint()))
                    except (BackendError, HypothesisViolation) as err:
                        seen.add((type(err).__name__, str(err).split(" (")[0]))
    assert seen >= {("ok", True), ("ok", False), ("BackendError", "exact decomposition requires the"
                    " matrix already in invertible-block-plus-zero form"),
                    ("HypothesisViolation", "matrix is not EP"),
                    ("HypothesisViolation",
                     "a must be positive semidefinite or have a PSD real part of equal rank")}


@given(st.integers(1, 5), st.sampled_from(["block", "ep", "non-ep"]), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_exact_ep_decomposition_accepts_only_the_block_form(n, kind, seed):
    """Block form c + 0 decomposes with V = I; an EP b outside it raises BackendError,
    and a b that is not EP raises HypothesisViolation, whatever its form."""
    assume(n > 1 or kind != "non-ep")  # every 1 x 1 matrix is EP
    b = _construction_b(kind, n, np.random.default_rng(seed))
    r = rank(b)
    re, im, _ = b.numerators
    block_form = not (re[r:].any() or im[r:].any() or re[:, r:].any() or im[:, r:].any())
    if kind == "non-ep":
        with pytest.raises(HypothesisViolation) as err:
            ep_decomposition(b)
        assert str(err.value) == "matrix is not EP (range differs from adjoint range)"
    elif block_form:  # an "ep" draw of rank 0 or n is in block form too
        dec = ep_decomposition(b)
        assert dec.v == Matrix.identity(n) and dec.c == b.block(0, r, 0, r)
        assert dec.r == r and dec.residual == 0.0
    else:
        with pytest.raises(BackendError, match="invertible-block-plus-zero form"):
            ep_decomposition(b)
    assert kind != "block" or block_form


def test_exact_certificate_residual_past_the_float_range_of_the_squares():
    """||t||_F^2 = 10^320 is past the float range, ||t||_F is not: a mismatched t
    gets a certificate that is not ok, with the exact relative residual 1/2."""
    t, eye = Matrix.from_ints([[10**160]]), Matrix.identity(1)
    for cert in (certificate_for(t, eye, eye * 2),
                 verify_certificate(SimilarityCertificate(t=t, residual=0.0), eye, eye * 2)):
        assert cert.invertible and not cert.ok and cert.residual == 0.5


_SMALL = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    *(st.lists(st.lists(_SMALL, min_size=n, max_size=n), min_size=n, max_size=n)
      for _ in range(3)))), st.tuples(*(st.sampled_from([1, 2, 3, 6]) for _ in range(3))))
@settings(max_examples=300, deadline=None)
def test_exact_certificate_for_matches_matrix_products(entries, dens):
    """Mismatches, singular t, and intertwiners whose products have unequal
    denominators (t = u unitary, m2 = u m1 u*) give the fields of the Matrix form."""
    t, m1, m2 = (Matrix.exact([[GQ(Fraction(re, d), Fraction(im, d)) for re, im in row]
                               for row in rows]) for rows, d in zip(entries, dens))
    u = gen.rational_unitary(t.rows, np.random.default_rng(t.rows))
    for args in ((t, m1, m2), (Matrix.zeros(t.rows, t.rows), m1, m2), (m1, m1, m1),
                 (u, m1, u @ m1 @ u.adjoint())):
        cert = certificate_for(*args)
        assert (cert.t, cert.det, cert.residual, cert.ok) == _matrix_certificate(*args)


# -- doubling construction ---------------------------------------------------


def test_hermitian_parts():
    h = Matrix.exact([[2, (1, 1)], [(1, -1), 3]])
    p1, p2 = hermitian_parts(h)
    assert p1 == h and p2.is_zero()
    k = h * GQ(0, 1)
    q1, q2 = hermitian_parts(k)
    assert q1.is_zero() and q2 == h
    x = Matrix.exact([[(1, 1)]])
    assert hermitian_parts(x) == (Matrix.exact([[1]]), Matrix.exact([[1]]))


def test_hermitian_parts_reconstruct():
    rng = np.random.default_rng(54)
    x = _random_exact(rng, 3)
    h, k = hermitian_parts(x)
    assert h + k * GQ(0, 1) == x


def test_normal_doubling_scalar():
    assert normal_doubling(Matrix.exact([[1j]])) == Matrix.exact(
        [[(0, 1), (0, -1)], [(0, -1), (0, 1)]]
    )


def test_normal_doubling_of_hermitian():
    h = Matrix.exact([[1, 2], [2, 5]])
    d = normal_doubling(h)
    assert d.block(0, 2, 2, 4) == h and d.block(2, 4, 0, 2) == h


def test_normal_doubling_always_normal():
    rng = np.random.default_rng(59)
    for _ in range(5):
        x = _random_exact(rng, 3)
        assert is_normal(normal_doubling(x))
        xf = Matrix.from_float(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        assert is_normal(normal_doubling(xf))


def test_doubling_conjugator_shape():
    w = doubling_conjugator(3)
    assert w.shape == (6, 6)
    assert w.block(0, 3, 0, 3) == Matrix.identity(3)


def test_doubling_similarity_trivial_cases():
    one = Matrix.exact([[(2, 5)]])
    cert = doubling_product_similarity(one, Matrix.exact([[(-1, 3)]]), seed=0)
    assert cert.residual == 0.0
    x = _random_exact(np.random.default_rng(61), 2)
    cert2 = doubling_product_similarity(x, x, seed=0)
    assert cert2.residual == 0.0


def test_doubling_similarity_random_pairs():
    rng = np.random.default_rng(62)
    x = _random_exact(rng, 2)
    y = _random_exact(rng, 2)
    cert = doubling_product_similarity(x, y, seed=3)
    assert cert.residual == 0.0 and cert.det
    xf = Matrix.from_float(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    yf = Matrix.from_float(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    certf = doubling_product_similarity(xf, yf, seed=3)
    assert certf.residual <= 1e-10 and certf.condition <= 1e8
