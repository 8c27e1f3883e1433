"""float-decide: the float backend at n = 8, 32 and 64.

Inputs are direct sums of atoms with known rank sequences, conjugated by
random unitaries; some have a limit-0 nilpotent part (some power of the
product is zero), others carry a well-conditioned invertible padding
block.  The exact layers sit idle here, so an exact-kernel change should
leave this workload unchanged.  While the float rank cutoff stays
relative to the power it is given (ROADMAP item 1), limit-0 inputs come
back with a lost zero tail; those ops are counted as failed, not left
out.
"""

from __future__ import annotations

import numpy as np

from harness import Failure, Op
import structures as st
from search_exact import check_verdict

TRIAL_SPECS = (("hermitian", "hermitian"), ("psd", "normal"), ("psd", "ep"))
TRIAL_SIZES = (8, 32, 64)
# pairs per decide/certify/screen op and seeds per trial op; round r uses
# variant r % VARIANTS (or r % TRIAL_SEEDS)
VARIANTS = 3
TRIAL_SEEDS = 10


def _decide_pairs():
    s = st
    return [
        lambda: s.chain(8),
        lambda: s.direct_sum(s.hermitian_normal4(), s.hermitian_normal4()),
        lambda: s.direct_sum(s.nilpotent2(), s.hermitian3(), s.padding(3)),
        lambda: s.realized((8, 6, 4, 3, 2, 2)),
        lambda: s.direct_sum(s.hermitian_normal4(), s.padding(28)),
        lambda: s.direct_sum(*[s.chain(8)] * 4),
        lambda: s.direct_sum(s.realized((16, 12, 9, 7, 6, 6)), s.padding(16)),
        lambda: s.direct_sum(s.hermitian_normal4(), s.padding(60)),
        lambda: s.direct_sum(*[s.chain(16)] * 4),
        lambda: s.direct_sum(*[s.nilpotent2()] * 32),
        lambda: s.chain(6),
    ]


def _construct_pairs(rng):
    s = st
    return [lambda: s.chain(6, 2), lambda: s.psd_ep_mixed(8, 4, rng), lambda: s.chain(8, 24),
            lambda: s.psd_ep_mixed(32, 16, rng), lambda: s.direct_sum(s.padding(16), s.chain(16)),
            lambda: s.psd_ep_mixed(64, 32, rng), lambda: s.direct_sum(*[s.chain(16)] * 4)]


class Workload:
    name = "float-decide"
    tail_cap = 95.0
    trace_rounds = 15

    def __init__(self, abba, seed: int, workdir: str):
        self.abba = abba
        self.seed = seed
        rng = np.random.default_rng([seed, 3])
        self.ops = [self._trial_op(i, fa, fb, n)
                    for i, (n, (fa, fb)) in enumerate((n, spec) for n in TRIAL_SIZES for spec in TRIAL_SPECS)]
        for make in _decide_pairs():
            self.ops.append(self._decide_op(self._variants(make, rng)))
        for make in _construct_pairs(rng):
            self.ops.append(self._certify_op("construct", self._variants(make, rng)))
        for make in (lambda: st.realized((8, 6, 4, 3, 2, 2)),
                     lambda: st.direct_sum(st.hermitian3(), st.padding(5))):
            self.ops.append(self._certify_op("intertwine", self._variants(make, rng)))
        for make in (lambda: st.direct_sum(st.hermitian_normal4(), st.padding(4)),
                     lambda: st.direct_sum(st.hermitian_normal4(), st.padding(28)),
                     lambda: st.direct_sum(st.hermitian_normal4(), st.padding(60)),
                     lambda: st.direct_sum(st.hermitian3(), st.padding(61))):
            variants = self._variants(make, rng)
            screens = [(a @ b, b @ a) for _, a, b in variants]
            self.ops.append(self._screen_op(variants[0][0].name + " ab/ba", screens, distinguished=True))
        for n in (8, 32, 64):
            screens = []
            for _ in range(VARIANTS):
                z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                x = abba.Matrix.from_float(z / np.sqrt(2 * n))
                u = abba.generators.random_unitary(n, rng)
                screens.append((x, u @ x @ u.adjoint()))
            self.ops.append(self._screen_op(f"x/uxu* n={n}", screens, distinguished=False))

    def final_checks(self, records):
        return []

    def _variants(self, make, rng):
        """VARIANTS (pair, a, b), each pair conjugated by its own random unitary."""
        out = []
        for _ in range(VARIANTS):
            pair = make()
            u = self.abba.generators.random_unitary(pair.n, rng)
            ua = u.adjoint()
            f = self.abba.Matrix.from_float
            out.append((pair, u @ f(pair.x) @ ua, u @ f(pair.y) @ ua))
        return out

    # -- ops -----------------------------------------------------------------------

    def _trial_op(self, index, family_a, family_b, n):
        gen = self.abba.generators

        def run(r):
            rng = np.random.default_rng([self.seed, 4, index, r % TRIAL_SEEDS])
            a = getattr(gen, f"random_{family_a}")(n, rng, rank=n // 2)
            b = getattr(gen, f"random_{family_b}")(n, rng, rank=3 * n // 4)
            return self.abba.decide_product_similarity(a, b)

        def check(v):
            # Hermitian pairs, PSD-normal and PSD-EP pairs have similar products
            ab, ba = v.seq_ab, v.seq_ba
            ok = (v.similar and st.valid_sequence(ab.terms) and ab.terms[0] == n
                  and ab.expand(2)[1] == ba.expand(2)[1] and ab.limit == ba.limit)
            return None if ok else Failure(f"trial {family_a}-{family_b} n={n}: {ab} / {ba}", hard=False)

        return Op("trial", f"draw {family_a}-{family_b} n={n}", run, check, exact=False, variants=TRIAL_SEEDS)

    def _decide_op(self, variants):
        abba = self.abba

        def run(r):
            v = r % len(variants)
            return v, abba.decide_product_similarity(*variants[v][1:])

        def check(output):
            v, verdict = output
            return check_verdict(verdict, variants[v][0], hard=False)

        return Op("decide", f"decide {variants[0][0].name}", run, check, exact=False, variants=len(variants))

    def _certify_op(self, how, variants):
        abba = self.abba
        products = [(a @ b, b @ a) for _, a, b in variants]

        def run(r):
            v = r % len(variants)
            _, a, b = variants[v]
            verdict = abba.decide_product_similarity(a, b)
            if how == "construct":
                return v, verdict, abba.construct_similarity_psd_ep(a, b)
            return v, verdict, abba.find_intertwiner(a @ b, b @ a)

        def check(output):
            v, verdict, cert = output
            pair = variants[v][0]
            if cert is None:
                return Failure(f"{how} {pair.name}: no certificate for a similar pair", hard=False)
            if not abba.verify_certificate(cert, *products[v]).ok:
                return Failure(f"{how} {pair.name}: certificate fails verify_certificate")
            return check_verdict(verdict, pair, hard=False)

        return Op("certify", f"{how} {variants[0][0].name}", run, check, exact=False, variants=len(variants))

    def _screen_op(self, label, screens, distinguished):
        abba = self.abba

        def run(r):
            return abba.word_trace_screen(*screens[r % len(screens)])

        def check(report):
            if report.distinguished != distinguished:
                return Failure(f"screen {label}: distinguished={report.distinguished}", hard=False)
            return None

        return Op("screen", f"screen {label}", run, check, exact=False, variants=len(screens))
