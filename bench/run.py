"""The abba benchmark.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src.
Workloads: search-exact, cli-exact, float-decide (see bench/NOTES.md);
BENCHMARK.json lists the first two.

--trace 0 measures the end-to-end metrics for S seconds.  --trace 1 runs
a fixed number of rounds untraced, then the same rounds traced, and
reports per-layer metrics.  The second-to-last stdout line holds the run
header and details; the last line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import os

# pin BLAS/OpenMP to one thread before numpy loads, so float timings
# measure the program and not the thread scheduler
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {"search-exact": "search_exact", "cli-exact": "cli_exact", "float-decide": "float_decide"}
# set-ups before the timed phase, and after it: the machine's speed
# drifts in spells of seconds, so the set-ups are spread over the run
SETUP_BEFORE, SETUP_AFTER = 2, 3
SETUP_REFS = 5
OUT_DIR = ".bench_out"
SRC = os.path.abspath("src")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def import_program():
    """Import abba afresh from ./src (dropping any earlier import)."""
    for name in [k for k in sys.modules if k == "abba" or k.startswith("abba.")]:
        del sys.modules[name]
    abba = importlib.import_module("abba")
    if not os.path.abspath(abba.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported abba from {abba.__file__}, not from {SRC}")
    return abba


def set_up(workload_cls, seed, workdir, repeats):
    """Import the program and build the inputs `repeats` times; returns
    the last set-up and every set-up's time in seconds at the reference
    speed (see harness), scaled by the reference loop's median time over
    SETUP_REFS runs before and after it."""
    times = []
    for _ in range(repeats):
        refs = [harness.reference() for _ in range(SETUP_REFS)]
        t0 = time.perf_counter()
        abba = import_program()
        workload = workload_cls(abba, seed, workdir)
        seconds = time.perf_counter() - t0
        refs += [harness.reference() for _ in range(SETUP_REFS)]
        times.append(seconds * harness.REF_MS / statistics.median(refs))
    return abba, workload, times


def header(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def traced_runs(workload, rounds: int, out_path: str):
    """`rounds` rounds traced, with as many untraced rounds split around
    them; per-layer metrics."""
    before = harness.run_phase(workload.ops, rounds=rounds // 2)
    rec = tracing.Recorder()
    tracing.instrument(rec)
    op_ids = itertools.count()

    def wrap(index, op):
        root = rec.wrap(f"bench.{op.kind}", op.run)

        def run(r):
            rec.op = next(op_ids)
            return root(r)

        return run

    traced = harness.run_phase(workload.ops, rounds=rounds, wrap=wrap)
    rec.op = -1
    metrics = rec.metrics()
    rec.write(out_path)
    # the untraced rounds after tracing run through the wrappers' originals
    rec.uninstall()
    after = harness.run_phase(workload.ops, rounds=rounds - rounds // 2)
    # each request's median time at the reference speed, traced against untraced
    plain = harness.charged(workload.ops, before.records + after.records)
    timed = harness.charged(workload.ops, traced.records)
    common = timed.keys() & plain.keys()
    metrics["trace.overhead_ratio"] = sum(timed[k] for k in common) / sum(plain[k] for k in common)
    units = tracing.per_layer_units()
    metrics = {name: (value, units[name]) for name, value in metrics.items()}
    details = {"rounds": rounds, "spans": len(rec.spans), "span_file": out_path}
    return [before, traced, after], metrics, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "abba", "__init__.py")):
        print(f"bench: no program at {SRC}/abba; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload_cls = importlib.import_module(WORKLOADS[args.workload]).Workload
    workdir = os.path.join(OUT_DIR, args.workload)
    os.makedirs(workdir, exist_ok=True)

    abba, workload, setup_times = set_up(workload_cls, args.seed, workdir, SETUP_BEFORE)
    warnings.simplefilter("ignore", abba.ToleranceWarning)

    if args.trace:
        phases, metrics, details = traced_runs(
            workload, workload.trace_rounds, os.path.join(OUT_DIR, f"{args.workload}.spans.json"))
    else:
        phase = harness.run_phase(workload.ops, seconds=args.seconds)
        phases = [phase]
        metrics, details = harness.latency_metrics(workload.ops, phase, workload.tail_cap)

    failures = []
    attempted = 0
    for phase in phases:
        found = harness.check_records(workload.ops, phase.records)
        found += workload.final_checks(phase.records)
        failures += [(attempted + index, f) for index, f in found]
        attempted += len(phase.records)
    if not args.trace:
        setup_times += set_up(workload_cls, args.seed, workdir, SETUP_AFTER)[2]
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    details["setup_s"] = setup_times
    failed_ops = {index for index, _ in failures}
    hard = [f for _, f in failures if f.hard]
    details["failures"] = {
        "hard": len(hard), "soft": len(failures) - len(hard),
        "examples": sorted({f.message for _, f in failures})[:20],
    }
    print(json.dumps({"header": header(args), "details": details}))
    print(json.dumps({
        "correct": not hard,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
