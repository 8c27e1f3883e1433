"""cli-exact: the `abba` command, called in-process on exact JSON files.

Set-up generates the inputs with the program's exact generators and
writes them as matrix files; the timed ops are `abba.cli.main(argv)`
calls with stdout captured.  The n^2 x n^2 Sylvester null space, exact
word-product chains, the Faddeev-LeVerrier PSD test, matrix I/O and the
CLI itself dominate.  Every command must print the same bytes each time
it runs on the same files; one that ran once in the timed phase is run
again during the checks.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os

import numpy as np

from harness import Failure, Op
import structures as st
from search_exact import exact

SIZES = (3, 4, 5)
SEARCH_TRIALS = 4
# each search spec cycles through four seeds, round by round
SEARCH_SEEDS = 4
# generated Hermitian and PSD-normal pairs: each command cycles through
# this many draws, round by round, so that a kind's median and tail do
# not hang on the entry heights of one random pair
DRAWS = 3
SEARCH_SPECS = (("normal", None), ("normal", 3), ("hermitian", None), ("hermitian", 2),
                ("psd", None), ("psd", 2), ("ep", None), ("zero-one-normal", None),
                ("zero-one-normal", 3))
# Every command runs once per round, on the files of its request.  The
# op lists are odd-sized and spread in cost, so that a kind's median
# falls inside a cluster of similar costs rather than on one input's cost.
# Commands that take over ~0.3 s run in every HEAVY_PERIOD-th round only,
# so that a run makes enough rounds.
HEAVY_PERIOD = 3
# decide --construct at n = 5 takes ~0.6 s, so one n = 5 pair is certified;
# herm3+pad1 (a catalog pair plus a 1x1 block) certifies at n = 4
CONSTRUCT = ("catalog-nil2", "nil2+nil2", "catalog-hn4", "catalog-herm3", "herm3", "psdnormal3",
             "herm3+pad1", "herm4")
CONSTRUCT_HEAVY = ("herm5",)
# ab and ba of a Hermitian or PSD-normal pair agree on every word of
# length 2 and first differ at a length that depends on the seed, so the
# generated ab/ba screens use Hermitian-EP pairs, which differ at x x*
SCREEN_PRODUCTS = ("catalog-nil2", "nil2+nil2", "catalog-hn4", "hn4+pad1")
SCREEN_PRODUCTS_HEAVY = ("catalog-herm3",)
CATALOG_HEAVY = ("hermitian-products-3x3", "transpose-3x3")
CLASSIFY = ("herm3", "herm4", "herm5", "psdnormal3", "psdnormal4", "psdnormal5")
SCHEMA_DIR = os.path.join("docs", "schemas")


class Workload:
    name = "cli-exact"
    tail_cap = 75.0
    trace_rounds = HEAVY_PERIOD

    def __init__(self, abba, seed: int, workdir: str):
        self.abba = abba
        self.seed = seed
        self.cli = importlib.import_module("abba.cli")
        self.workdir = workdir
        self.schemas = {}
        rng = np.random.default_rng([seed, 2])
        gen = abba.generators

        # name -> [(a, b, truth, path a, path b), one per request]; truth None
        # means "similar by theorem"
        cases = {}
        for n in SIZES:
            for name, draw_a, draw_b in ((f"herm{n}", gen.rational_hermitian, gen.rational_hermitian),
                                         (f"psdnormal{n}", gen.rational_psd, gen.rational_normal)):
                cases[name] = [self._case(f"{name}_{d}", draw_a(n, rng, rank=n - 1),
                                          draw_b(n, rng, rank=n - 1), None) for d in range(DRAWS)]
        for atom in (st.nilpotent2(), st.hermitian3(), st.hermitian_normal4()):
            name = f"catalog-{atom.name}"
            cases[name] = [self._case(name, exact(abba, atom.x), exact(abba, atom.y), atom)]
        for atom in (st.direct_sum(st.hermitian3(), st.padding(1)),
                     st.direct_sum(st.nilpotent2(), st.nilpotent2())):
            cases[atom.name] = [self._case(atom.name, exact(abba, atom.x), exact(abba, atom.y), atom)]

        self.ops = [self._search_op(i, family, rank) for i, (family, rank) in enumerate(SEARCH_SPECS)]
        self.ops += [self._decide_op(case, construct=False) for case in cases.values()]
        self.ops += [self._decide_op(cases[name], construct=True) for name in CONSTRUCT]
        self.ops += [self._decide_op(cases[name], construct=True, period=HEAVY_PERIOD)
                     for name in CONSTRUCT_HEAVY]
        screened = {name: cases[name][0][:2] for name in SCREEN_PRODUCTS + SCREEN_PRODUCTS_HEAVY
                    if name in cases}
        for atom in (st.direct_sum(st.hermitian_normal4(), st.padding(1)),
                     st.direct_sum(st.nilpotent2(), st.padding(2))):
            screened[atom.name] = exact(abba, atom.x), exact(abba, atom.y)
        for n in (3, 4):
            screened[f"hermep{n}"] = gen.rational_hermitian(n, rng, rank=n - 1), gen.rational_ep(n, rng, rank=n - 1)
        for name, (a, b) in screened.items():
            period = HEAVY_PERIOD if name in SCREEN_PRODUCTS_HEAVY else 1
            self.ops.append(self._unitary_op(a @ b, b @ a, period=period))
        x = gen.rational_hermitian(3, rng, rank=2) @ gen.rational_normal(3, rng, rank=2)
        u = gen.rational_unitary(3, rng)
        self.ops.append(self._unitary_op(x, u @ x @ u.adjoint(), similar=True, period=HEAVY_PERIOD))
        for name in CLASSIFY:
            self.ops.append(self._classify_op(cases[name][0], psd=name.startswith("psd")))
        for seq in ((4, 2, 1, 0), (5, 3, 2)):
            pair = st.realized(seq)
            u = gen.rational_unitary(pair.n, rng)
            self.ops.append(self._rankseq_op(pair.name, u @ exact(abba, pair.x) @ u.adjoint(), pair.seq_xy))
        for atom in (st.nilpotent2(), st.hermitian3(), st.hermitian_normal4()):
            self.ops.append(self._rankseq_op(atom.name, exact(abba, atom.x) @ exact(abba, atom.y), atom.seq_xy))
        for fixture in abba.catalog():
            period = HEAVY_PERIOD if fixture.name in CATALOG_HEAVY else 1
            self.ops.append(self._catalog_op(fixture.name, period))

    def final_checks(self, records):
        return []

    # -- plumbing ------------------------------------------------------------------

    def _save(self, name, m) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        self.abba.save_matrix(m, path)
        return path

    def _case(self, name, a, b, truth):
        return a, b, truth, self._save(f"{name}_a", a), self._save(f"{name}_b", b)

    def _call(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def _op(self, kind, argvs, check_result, period=1):
        """An op running `abba argv` for argv in argvs, one per request;
        check_result(request, result) returns None or what is wrong with
        the report's result."""

        def run(r):
            request = r // period % len(argvs)
            return (request,) + self._call(argvs[request])

        def check(output):
            request, code, text = output
            argv = argvs[request]
            where = "abba " + " ".join(argv)
            if code != 0:
                return Failure(f"{where}: exit code {code}")
            report = json.loads(text)
            error = self._schema_error(argv[0], report)
            if error:
                return Failure(f"{where}: report violates {argv[0]}.schema.json: {error}")
            if report["command"] != argv[0]:
                return Failure(f"{where}: report for command {report['command']!r}")
            message = check_result(request, report["result"])
            return Failure(f"{where}: {message}") if message else None

        return Op(kind, "abba " + " ".join(argvs[0]), run, check, byte_identical=True,
                  variants=len(argvs), period=period)

    def _schema_error(self, command, report):
        import jsonschema

        if command not in self.schemas:
            with open(os.path.join(SCHEMA_DIR, f"{command}.schema.json")) as fh:
                self.schemas[command] = jsonschema.Draft7Validator(json.load(fh))
        error = jsonschema.exceptions.best_match(self.schemas[command].iter_errors(report))
        return error.message if error else None

    # -- ops -----------------------------------------------------------------------

    def _search_op(self, index, family, rank):
        argvs = []
        for seed in range(SEARCH_SEEDS):
            argv = ["search", "--family", family, "--size", "4", "--trials", str(SEARCH_TRIALS),
                    "--seed", str((self.seed * SEARCH_SEEDS + seed) * len(SEARCH_SPECS) + index)]
            argvs.append(argv + (["--rank", str(rank)] if rank is not None else []))

        def check(request, result):
            if result["count"] != len(result["findings"]):
                return "count disagrees with the findings"
            for f in result["findings"]:
                ab, ba = tuple(f["seq_ab"]["terms"]), tuple(f["seq_ba"]["terms"])
                if not (st.valid_sequence(ab) and st.valid_sequence(ba) and ab != ba
                        and (ab + (ab[-1],))[1] == (ba + (ba[-1],))[1] and ab[-1] == ba[-1]):
                    return f"inconsistent finding {ab} / {ba}"
                da, db = (st.to_domain(st.entries_of_report(f[k])) for k in ("a", "b"))
                truth = (st.oracle_rank_sequence(da.matmul(db)), st.oracle_rank_sequence(db.matmul(da)))
                if truth != (ab, ba):
                    return f"finding {ab} / {ba}, oracle {truth}"
            return None

        return self._op("trial", argvs, check)

    def _decide_op(self, cases, construct, period=1):
        abba = self.abba

        def check(request, result):
            a, b, truth = cases[request][:3]
            verdict = result["verdict"]
            if truth is None:  # Hermitian pairs and PSD-normal pairs: similar by theorem
                da, db = (st.to_domain(st.entries_of_matrix(m)) for m in (a, b))
                want = (True, st.oracle_rank_sequence(da.matmul(db)), st.oracle_rank_sequence(db.matmul(da)))
            else:
                want = (truth.similar, truth.seq_xy, truth.seq_yx)
            got = (verdict["similar"], tuple(verdict["seq_ab"]["terms"]), tuple(verdict["seq_ba"]["terms"]))
            if got != want:
                return f"verdict {got}, expected {want}"
            if not construct:
                return None
            cert = result["certificate"]
            if (cert is not None) != want[0]:
                return "certificate for a non-similar pair" if cert else "no certificate for a similar pair"
            if cert is not None:
                t = abba.parse_matrix(cert["t"])
                evidence = abba.SimilarityCertificate(t=t, residual=0.0)
                if not abba.verify_certificate(evidence, a @ b, b @ a).ok:
                    return "certificate fails verify_certificate"
            return None

        argvs = [["decide", *case[3:]] + (["--construct"] if construct else []) for case in cases]
        return self._op("certify" if construct else "decide", argvs, check, period)

    def _unitary_op(self, x, y, similar=False, period=1):
        tag = len(self.ops)
        paths = [self._save(f"screen{tag}_x", x), self._save(f"screen{tag}_y", y)]

        def check(request, result):
            word, traces = st.oracle_word_screen(st.to_domain(st.entries_of_matrix(x)),
                                                 st.to_domain(st.entries_of_matrix(y)))
            screen = result["word_screen"]
            want_traces = [st.gaussian_str(t) for t in traces] if traces else None
            if (screen["word"], screen["traces"]) != (word, want_traces):
                return f"word {screen['word']}, oracle {word}"
            if similar and word is not None:
                return "unitarily similar inputs distinguished"
            if x.rows == 2 and result["triple_invariant_equal"] != (word is None):
                return "2x2 triple invariant disagrees with the oracle"
            return None

        return self._op("screen", [["unitary", *paths]], check, period)

    def _classify_op(self, case, psd):
        def check(request, result):
            r = result["class_report"]
            known = {"hermitian": True, "normal": True, "ep": True, "rank": case[0].rows - 1}
            if psd:
                known["psd"] = True
            wrong = {k: r[k] for k, want in known.items() if r[k] != want}
            return f"{wrong}, expected {known}" if wrong else None

        return self._op("other", [["classify", case[3]]], check)

    def _rankseq_op(self, name, m, seq):
        path = self._save(f"rankseq_{name}", m)

        def check(request, result):
            got = tuple(result["rank_sequence"]["terms"])
            return f"terms {got}, expected {seq}" if got != seq else None

        return self._op("other", [["rankseq", path]], check)

    def _catalog_op(self, name, period):
        def check(request, result):
            failed = [c["name"] for c in result["claims"] if not c["pass"]]
            if result["name"] != name or failed:
                return f"fixture {result['name']}: failed claims {failed}"
            return None

        return self._op("other", [["catalog", "show", name]], check, period)
