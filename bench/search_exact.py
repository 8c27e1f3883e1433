"""search-exact: seeded counterexample trials and exact verdicts at n = 4.

n = 4 is the size of the paper's minimal counterexample.  Trials draw an
exact pair from each search family (plus `normal` at rank 3) and decide
it; the exact generators (Cayley transforms through solve_linear), exact
matmul and Bareiss rank do most of the work.  Decide, certify and screen
ops run on direct sums of known atoms conjugated by exact Cayley
unitaries; certify uses the PSD-EP transform, so this workload has no
Sylvester kernel and no SVD.
"""

from __future__ import annotations

import importlib

import numpy as np

from harness import Failure, Op
import structures as st

N = 4
# pairs per decide/certify/screen op, each under its own Cayley unitary;
# round r uses pair r % VARIANTS, so a kind's median spans many inputs
VARIANTS = 4
# seeds per trial spec, cycled the same way
TRIAL_SEEDS = 4
# an odd number of specs, so the trial median falls inside one spec's
# trials rather than on the gap between a cheap and a dear family
TRIAL_SPECS = (("normal", None), ("normal", 3), ("hermitian", None), ("hermitian", 2),
               ("psd", None), ("ep", None), ("zero-one-normal", None))
# trials that are re-checked by the sympy oracle besides every finding
ORACLE_SAMPLE_EVERY = 3


def exact(abba, arr):
    return abba.Matrix.exact([[(int(z.real), int(z.imag)) for z in row] for row in arr])


def conjugate(abba, pair: st.Pair, rng, blocks=None):
    """(a, b) = (u x u*, u y u*) with u an exact Cayley unitary, or a direct
    sum of Cayley unitaries over `blocks` (which keeps block form)."""
    gen = abba.generators
    if blocks is None:
        u = gen.rational_unitary(pair.n, rng)
    else:
        parts = [gen.rational_unitary(k, rng) for k in blocks]
        grid = [[parts[i] if i == j else abba.Matrix.zeros(blocks[i], blocks[j])
                 for j in range(len(parts))] for i in range(len(parts))]
        u = abba.block(grid)
    if u @ u.adjoint() != abba.Matrix.identity(pair.n):
        raise RuntimeError("Cayley transform is not unitary")
    ua = u.adjoint()
    return u @ exact(abba, pair.x) @ ua, u @ exact(abba, pair.y) @ ua


def check_verdict(verdict, pair: st.Pair, hard=True) -> Failure | None:
    got = (verdict.similar, verdict.seq_ab.terms, verdict.seq_ba.terms)
    want = (pair.similar, pair.seq_xy, pair.seq_yx)
    if got != want:
        return Failure(f"{pair.name}: verdict {got}, expected {want}", hard=hard)
    return None


class Workload:
    name = "search-exact"
    tail_cap = 90.0
    trace_rounds = 8

    def __init__(self, abba, seed: int, workdir: str):
        self.abba = abba
        self.seed = seed
        rng = np.random.default_rng([seed, 1])
        decide_pairs = [
            st.hermitian_normal4(),
            st.direct_sum(st.nilpotent2(), st.nilpotent2()),
            st.chain(4),
            st.direct_sum(st.nilpotent2(), st.padding(2)),
            st.direct_sum(st.hermitian3(), st.padding(1)),
        ]
        certify_pairs = [
            (lambda: st.chain(3, 1), (3, 1)), (lambda: st.chain(2, 2), (2, 2)), (lambda: st.chain(4), (4,)),
            (lambda: st.psd_ep_mixed(N, 2, rng), (2, 2)), (lambda: st.psd_ep_mixed(N, 3, rng), (3, 1)),
        ]
        screen_pairs = [st.hermitian_normal4(), st.direct_sum(st.nilpotent2(), st.nilpotent2()),
                        st.direct_sum(st.nilpotent2(), st.padding(2))]

        self.ops = [self._trial_op(i, family, rank) for i, (family, rank) in enumerate(TRIAL_SPECS)]
        for p in decide_pairs:
            self.ops.append(self._decide_op(p, [conjugate(abba, p, rng) for _ in range(VARIANTS)]))
        for make, blocks in certify_pairs:
            pairs = [make() for _ in range(VARIANTS)]
            self.ops.append(self._certify_op(pairs, [conjugate(abba, p, rng, blocks) for p in pairs]))
        for p in screen_pairs:
            self.ops.append(self._screen_op(p, [conjugate(abba, p, rng) for _ in range(VARIANTS)]))

    # -- ops ---------------------------------------------------------------------

    def _trial_op(self, index, family, rank):
        abba = self.abba

        def run(r):
            spec = abba.SearchSpec(family, N, rank, trials=1,
                                   seed=(self.seed * TRIAL_SEEDS + r % TRIAL_SEEDS) * len(TRIAL_SPECS) + index)
            return spec, abba.search_counterexample(spec)

        def check(output):
            spec, findings = output
            for f in findings:
                ab, ba = f.seq_ab.terms, f.seq_ba.terms
                ok = (st.valid_sequence(ab) and st.valid_sequence(ba) and ab[0] == ba[0] == N
                      and f.seq_ab.expand(2)[1] == f.seq_ba.expand(2)[1]
                      and f.seq_ab.limit == f.seq_ba.limit and ab != ba)
                if not ok:
                    return Failure(f"search {spec.family}/{spec.seed}: inconsistent finding {ab} / {ba}")
            return None

        return Op("trial", f"search {family} rank={rank}", run, check, variants=TRIAL_SEEDS)

    def _decide_op(self, pair, inputs):
        abba = self.abba

        def run(r):
            a, b = inputs[r % len(inputs)]
            return abba.decide_product_similarity(a, b)

        return Op("decide", f"decide {pair.name}", run, lambda v: check_verdict(v, pair),
                  variants=len(inputs))

    def _certify_op(self, pairs, inputs):
        abba = self.abba
        products = [(a @ b, b @ a) for a, b in inputs]

        def run(r):
            a, b = inputs[r % len(inputs)]
            return r % len(inputs), abba.decide_product_similarity(a, b), abba.construct_similarity_psd_ep(a, b)

        def check(output):
            v, verdict, cert = output
            if not abba.verify_certificate(cert, *products[v]).ok:
                return Failure(f"certify {pairs[v].name}: certificate fails verify_certificate")
            return check_verdict(verdict, pairs[v])

        return Op("certify", f"certify {pairs[0].name}", run, check, variants=len(inputs))

    def _screen_op(self, pair, inputs):
        abba = self.abba
        products = [(a @ b, b @ a) for a, b in inputs]

        def run(r):
            return r % len(inputs), abba.word_trace_screen(*products[r % len(inputs)])

        def check(output):
            v, report = output
            x, y = (st.to_domain(st.entries_of_matrix(m)) for m in products[v])
            word, traces = st.oracle_word_screen(x, y)
            got = (report.word.spell() if report.word else None,
                   tuple(str(t) for t in report.traces) if report.traces else None)
            want = (word, tuple(st.gaussian_str(t) for t in traces) if traces else None)
            if got != want or not report.distinguished:
                return Failure(f"screen {pair.name}: reported {got}, oracle {want}")
            return None

        return Op("screen", f"screen {pair.name}", run, check, variants=len(inputs))

    # -- after the timed phase -----------------------------------------------------

    def final_checks(self, records) -> list[tuple[int, Failure]]:
        """Re-check every finding, and a fixed sample of the other trials,
        with sympy ranks of the powers of ab and ba."""
        draw = importlib.import_module("abba.catalog")._draw
        failures = []
        sampled = 0
        seen = set()
        for index, rec in enumerate(records):
            if self.ops[rec.op].kind != "trial" or rec.error is not None:
                continue
            spec, findings = rec.output
            if spec.seed in seen:
                continue
            seen.add(spec.seed)
            if not findings:
                if spec.seed % ORACLE_SAMPLE_EVERY:
                    continue
                sampled += 1
                rng = np.random.default_rng([spec.seed, 0])
                a = draw(spec.family, N, rng, spec.rank)
                b = draw(spec.family, N, rng, None)
                pairs = [(a, b, None)]
            else:
                pairs = [(f.a, f.b, (f.seq_ab.terms, f.seq_ba.terms)) for f in findings]
            for a, b, reported in pairs:
                da, db = (st.to_domain(st.entries_of_matrix(m)) for m in (a, b))
                truth = (st.oracle_rank_sequence(da.matmul(db)), st.oracle_rank_sequence(db.matmul(da)))
                if reported is None and truth[0] != truth[1]:
                    failures.append((index, Failure(
                        f"search {spec.family}/{spec.seed}: missed a non-similar pair {truth}")))
                elif reported is not None and reported != truth:
                    failures.append((index, Failure(
                        f"search {spec.family}/{spec.seed}: finding {reported}, oracle {truth}")))
        return failures
