"""Command line interface: classify, rankseq, decide, unitary, search, catalog.

Reports are JSON on stdout, written from the objects the library returns
by one encoder, ``_encode``; no other module knows the report format.
``matio._json_text`` writes them as ``json.dumps(indent=2, sort_keys=True)``
does.  Every input file is read once, before any is parsed.  ``decide`` forms
AB and BA itself only for the ``--construct`` Sylvester fallback.
Exit codes: 0 for a completed run (verdicts live in the payload, never in
the exit code), 2 for invalid input or usage, 1 for internal errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
import warnings
from pathlib import Path

from .catalog import FAMILIES, SearchSpec, catalog, get_fixture, search_counterexample
from .classes import classify
from .errors import BackendError, HypothesisViolation, MatrixFormatError
from .matio import _json_text, _read_matrix, dump_matrix, save_matrix
from .matrix import Matrix
from .rankseq import rank_sequence
from .scalars import DEFAULT_TOLERANCE, GaussianRational, TolerancePolicy
from .similarity import (
    SimilarityCertificate,
    construct_similarity_psd_ep,
    decide_product_similarity,
    find_intertwiner,
)
from .unitary import WordTraceReport, decide_unitary_2x2, word_trace_screen

SCHEMA_VERSION = 1

_USAGE_ERRORS = (ValueError, KeyError, OSError)  # the abba input errors subclass ValueError


def _policy(args) -> TolerancePolicy:
    return TolerancePolicy(*(getattr(args, f.name, getattr(DEFAULT_TOLERANCE, f.name))
                             for f in dataclasses.fields(TolerancePolicy)))


def _report(command: str, inputs: dict, result: dict, caught) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "result": result,
        "warnings": [str(w.message) for w in caught],
    }


def _encode(obj):
    """The report form of each library value json cannot write itself."""
    if isinstance(obj, Matrix):
        return dump_matrix(obj)
    if isinstance(obj, (GaussianRational, complex)):
        return str(obj)
    if isinstance(obj, SimilarityCertificate):
        return {"t": obj.t, "residual": obj.residual,
                "det_or_cond": obj.det if obj.det is not None else obj.condition}
    if isinstance(obj, WordTraceReport):
        return {"verdict": obj.verdict, "word": obj.word.spell() if obj.word else None,
                "traces": obj.traces or None}
    if dataclasses.is_dataclass(obj):
        # one level deep: dataclasses.asdict would deep-copy every Matrix
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"no report form for {type(obj).__name__}")


def _load_square(args, attr: str) -> Matrix:
    path = getattr(args, attr)
    m = _read_matrix(args.data[path], path)
    if not m.is_square:
        raise MatrixFormatError(f"{path}: expected a square matrix, got {m.rows}x{m.cols}")
    return m


def cmd_classify(args) -> dict:
    tol = _policy(args)
    m = _load_square(args, "matrix")
    report = classify(m, tol)
    return {"class_report": report}


def cmd_rankseq(args) -> dict:
    tol = _policy(args)
    m = _load_square(args, "matrix")
    return {"rank_sequence": rank_sequence(m, tol)}


def cmd_decide(args) -> dict:
    tol = _policy(args)
    if args.attempts < 1:
        raise ValueError("attempts must be positive")
    a = _load_square(args, "a")
    b = _load_square(args, "b")
    verdict = decide_product_similarity(a, b, tol)
    result = {"verdict": verdict}
    if args.construct:
        try:
            cert = construct_similarity_psd_ep(a, b, tol)
            method = "psd-ep-transform"
        except (BackendError, HypothesisViolation):
            cert = method = None
        if cert is None and verdict.similar:
            cert = find_intertwiner(a @ b, b @ a, seed=args.seed, attempts=args.attempts, tol=tol)
            if cert is not None:
                method = "sylvester-sampling"
        result["certificate"] = cert
        result["construction"] = method
    return result


def cmd_unitary(args) -> dict:
    tol = _policy(args)
    a = _load_square(args, "a")
    b = _load_square(args, "b")
    screen = word_trace_screen(a, b, max_len=args.max_word_len, tol=tol)
    # the screen has checked that a and b have one shape
    triple = decide_unitary_2x2(a, b, tol) if a.shape == (2, 2) else None
    return {"word_screen": screen, "triple_invariant_equal": triple}


def _search_spec(args) -> SearchSpec:
    return SearchSpec(family=args.family, size=args.size, rank=args.rank,
                      trials=args.trials, seed=args.seed)


def cmd_search(args) -> dict:
    spec = _search_spec(args)
    findings = search_counterexample(spec)
    return {"spec": spec, "count": len(findings), "findings": findings}


def cmd_catalog_list(args) -> dict:
    return {"fixtures": [{"name": f.name, "description": f.description} for f in catalog()]}


def cmd_catalog_show(args) -> dict:
    fixture = get_fixture(args.name)
    result = {
        "name": fixture.name,
        "description": fixture.description,
        "matrices": fixture.matrices,
        "claims": [{"name": n, "pass": ok} for n, ok in fixture.evaluate()],
    }
    if args.export:
        out_dir = Path(args.export)
        out_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for k, v in fixture.matrices.items():
            path = out_dir / f"{fixture.name}__{k}.json"
            save_matrix(v, path)
            written.append(str(path))
        result["exported"] = written
    return result


def build_parser() -> argparse.ArgumentParser:
    # a command takes the flag of each TolerancePolicy field that a path it runs
    # reads, and --seed when it draws random numbers
    rank_tol, residual_tol, max_condition = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    rank_tol.add_argument("--rank-rel-tol", type=float, default=DEFAULT_TOLERANCE.rank_rel_tol)
    residual_tol.add_argument("--residual-tol", type=float, default=DEFAULT_TOLERANCE.residual_tol)
    max_condition.add_argument("--max-condition", type=float, default=DEFAULT_TOLERANCE.max_condition)
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)

    parser = argparse.ArgumentParser(
        prog="abba",
        description="Decide and certify (non-)similarity of the products AB and BA",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[rank_tol, residual_tol],
                       help="structural predicates of one matrix")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("rankseq", parents=[rank_tol], help="rank sequence of one matrix")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_rankseq)

    p = sub.add_parser("decide", parents=[rank_tol, residual_tol, max_condition, seeded],
                       help="similarity verdict for AB vs BA")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--construct", action="store_true",
                   help="also attempt an explicit similarity certificate")
    p.add_argument("--attempts", type=int, default=32)
    p.set_defaults(fn=cmd_decide)

    p = sub.add_parser("unitary", parents=[residual_tol], help="unitary-similarity word screen")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--max-word-len", type=int, default=6)
    p.set_defaults(fn=cmd_unitary)

    p = sub.add_parser("search", parents=[seeded], help="randomized counterexample search")
    p.add_argument("--family", required=True, choices=FAMILIES)
    p.add_argument("--size", required=True, type=int)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--trials", type=int, default=500)
    p.set_defaults(fn=cmd_search)

    p = sub.add_parser("catalog", help="built-in fixtures")
    actions = p.add_subparsers(dest="action", required=True)
    actions.add_parser("list", help="names and descriptions").set_defaults(fn=cmd_catalog_list)
    p = actions.add_parser("show", help="one fixture's matrices and claims")
    p.add_argument("name")
    p.add_argument("--export", default=None, metavar="DIR")
    p.set_defaults(fn=cmd_catalog_show)

    return parser


_PARSER = build_parser()  # built once per process; main() only parses with it


def _gather_inputs(args) -> dict:
    """The report's inputs.  Reads each input file once, into args.data by path."""
    paths = {attr: path for attr in ("matrix", "a", "b")
             if (path := getattr(args, attr, None)) is not None}
    args.data = {path: Path(path).read_bytes() for path in dict.fromkeys(paths.values())}
    inputs = {attr: {"path": str(path), "sha256": hashlib.sha256(args.data[path]).hexdigest()[:16]}
              for attr, path in paths.items()}
    if args.command == "search":
        inputs["spec"] = _search_spec(args)
    if args.command == "catalog":
        inputs["action"] = args.action
        if args.action == "show":
            inputs["name"] = args.name
    return inputs


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inputs = _gather_inputs(args)
            result = args.fn(args)
        text = _json_text(_report(args.command, inputs, result, caught), 2, _encode)
    except _USAGE_ERRORS as exc:
        print(f"abba: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal failure
        print(f"abba: internal error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
