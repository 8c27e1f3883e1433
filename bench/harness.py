"""Closed-loop op runner, output checks and latency statistics.

One client runs the workload's ops in a fixed round, one after another,
each op starting when the previous one has returned; an op with a period
p runs in every p-th round.  Statistics use whole cycles of rounds only,
so every run's samples have the same mix of ops.

Latencies are reported at a fixed reference speed.  On a shared 2-core
VM a fixed pure-Python loop, timed in one-second windows, swung between
two speeds about 1.8x apart, in spells of seconds to minutes, so raw
latencies measure the neighbours as much as the program.  Before every
op the runner times a fixed pure-Python Fraction loop (`reference`), and
each op's time is scaled by REF_MS over the median reference time around
it.  In a 60 s run on that VM the raw per-op times drifted by up to 12%
between 10 s windows; the scaled times by under 1%.

Each op cycles through a few requests (inputs), so every request runs
several times in a run, and the statistics charge every run of a request
the median of the request's scaled times, so that one slow run does not
land in a tail.  The raw figures are reported in the details line.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

KINDS = ("trial", "decide", "certify", "screen")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# the reference loop's time at the reference speed; about its median on
# the 2-core VM the benchmark was sized on
REF_MS = 2.0
# an op's reference time is the median of the reference times of the ops
# up to REF_SPAN before and after it
REF_SPAN = 5


def reference() -> float:
    """Milliseconds taken by a fixed pure-Python Fraction loop, the kind
    of arithmetic the exact backend spends its time on."""
    t0 = time.perf_counter()
    s = Fraction(0)
    for i in range(1, 300):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
    return (time.perf_counter() - t0) * 1e3


@dataclass
class Failure:
    message: str
    hard: bool = True  # False: a tolerance-governed float result missed its known truth


@dataclass
class Op:
    """One kind of request.

    The op runs in the rounds r with r % period == 0.  run(r) performs
    the request of round r and returns its output; the request depends on
    r only through request(r).  check(output) returns None or a Failure.
    Ops with byte_identical set must return the same output every time
    they run one request (the CLI's determinism promise).
    """

    kind: str  # trial | decide | certify | screen | other
    label: str
    run: Callable[[int], object]
    check: Callable[[object], Failure | None]
    exact: bool = True
    byte_identical: bool = False
    variants: int = 1
    period: int = 1

    def request(self, round_index: int) -> int:
        return round_index // self.period % self.variants


@dataclass
class Record:
    op: int
    round: int
    ms: float
    ref_ms: float  # the reference loop's time just before the op
    output: object
    error: str | None


@dataclass
class Phase:
    records: list[Record] = field(default_factory=list)
    round_ends: list[tuple[float, int]] = field(default_factory=list)  # (seconds, records so far)
    wall: float = 0.0
    cycle: int = 1  # rounds after which every op has run equally often

    def measured(self) -> tuple[list[Record], float]:
        """Records and wall time of the whole cycles of rounds (everything
        if no cycle completed)."""
        whole = len(self.round_ends) // self.cycle * self.cycle
        if not whole:
            return self.records, self.wall
        seconds, count = self.round_ends[whole - 1]
        return self.records[:count], seconds


def run_phase(ops: list[Op], seconds: float | None = None, rounds: int | None = None,
              wrap: Callable | None = None) -> Phase:
    """Run rounds of ops until `seconds` pass or `rounds` rounds complete.

    wrap(op_index, op) may return a replacement runner (used by tracing).
    """
    runners = [wrap(i, op) if wrap else op.run for i, op in enumerate(ops)]
    phase = Phase(cycle=math.lcm(*(op.period for op in ops)))
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds if seconds is not None else None
    while rounds is None or len(phase.round_ends) < rounds:
        r = len(phase.round_ends)
        for index, run in enumerate(runners):
            if r % ops[index].period:
                continue
            if deadline is not None and clock() >= deadline:
                phase.wall = clock() - start
                return phase
            ref = reference()
            t0 = clock()
            try:
                output, error = run(r), None
            except Exception as exc:  # an op that raises is a failed op, not a crash
                output, error = None, f"{type(exc).__name__}: {exc}"
            phase.records.append(Record(index, r, (clock() - t0) * 1e3, ref, output, error))
        phase.round_ends.append((clock() - start, len(phase.records)))
    phase.wall = clock() - start
    return phase


def _same(a, b) -> bool:
    try:
        return bool(a == b)
    except (TypeError, ValueError):
        return False


def check_records(ops: list[Op], records: list[Record]) -> list[tuple[int, Failure]]:
    """Check every record; the full check runs once per distinct output of
    a request.  A byte_identical request that ran only once is run again
    here, untimed, so that every one is compared with a second run."""
    failures = []
    first: dict[tuple[int, int], tuple[object, Failure | None]] = {}
    keys = [(rec.op, ops[rec.op].request(rec.round)) for rec in records]
    runs = Counter(keys)
    for index, (rec, key) in enumerate(zip(records, keys)):
        op = ops[rec.op]
        if rec.error is not None:
            failures.append((index, Failure(f"{op.label}: raised {rec.error}", hard=op.exact)))
            continue
        seen = first.get(key)
        if seen is not None and _same(seen[0], rec.output):
            result = seen[1]
        elif seen is not None and op.byte_identical:
            result = Failure(f"{op.label}: output differs between identical runs")
        else:
            result = _check(op, rec.output)
            if seen is None:
                first[key] = (rec.output, result)
        if op.byte_identical and runs[key] == 1 and result is None:
            if not _same(rec.output, op.run(rec.round)):
                result = Failure(f"{op.label}: output differs between identical runs")
        if result is not None:
            failures.append((index, result))
    return failures


def _check(op: Op, output) -> Failure | None:
    try:
        return op.check(output)
    except Exception as exc:  # a check that cannot read the output fails the op
        return Failure(f"{op.label}: unreadable output ({type(exc).__name__}: {exc})", hard=op.exact)


def tail(samples: list[float], cap: float) -> tuple[float, float]:
    """(percentile, value): the highest ladder percentile, up to cap, with
    at least ten samples beyond it, by nearest rank; the median when there
    are fewer than twenty samples.

    The cap keeps the percentile from climbing when a faster program
    completes more samples, which would make a speed-up read as a worse
    tail.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in TAIL_LADDER:
        k = math.ceil(q / 100 * n)
        if q > cap:
            continue
        if n - k >= 10:
            return q, xs[k - 1]
    return 50.0, statistics.median(xs)


def scaled_ms(records: list[Record]) -> list[float]:
    """Each record's time at the reference speed: its ms times REF_MS over
    the median reference time of the records around it."""
    refs = [r.ref_ms for r in records]
    return [r.ms * REF_MS / statistics.median(refs[max(0, i - REF_SPAN):i + REF_SPAN + 1])
            for i, r in enumerate(records)]


def charged(ops: list[Op], records: list[Record]) -> dict[tuple[int, int], float]:
    """Each request's median time at the reference speed, keyed by
    (op, request)."""
    runs = defaultdict(list)
    for r, ms in zip(records, scaled_ms(records)):
        runs[r.op, ops[r.op].request(r.round)].append(ms)
    return {key: statistics.median(times) for key, times in runs.items()}


def latency_metrics(ops: list[Op], phase: Phase, tail_cap: float) -> tuple[dict, dict]:
    """End-to-end throughput and per-kind latency metrics, plus details.

    Every record is charged its request's median time at the reference
    speed (see the module docstring); ops_per_s is the closed loop's rate
    at those times.
    """
    records, seconds = phase.measured()
    per_request = charged(ops, records)
    costs = [per_request[r.op, ops[r.op].request(r.round)] for r in records]
    metrics = {"ops_per_s": (1000 * len(records) / sum(costs), "1/s")}
    details = {"measured_ops": len(records), "rounds": len(phase.round_ends),
               "raw_ops_per_s": len(records) / seconds,
               "ref_p50_ms": statistics.median(r.ref_ms for r in records)}
    for kind in KINDS:
        picked = [i for i, r in enumerate(records) if ops[r.op].kind == kind]
        if not picked:
            raise RuntimeError(f"no complete {kind} samples; the run is too short")
        samples = [costs[i] for i in picked]
        q, value = tail(samples, tail_cap)
        metrics[f"{kind}_p50_ms"] = (statistics.median(samples), "ms")
        metrics[f"{kind}_tail_ms"] = (value, "ms")
        details[f"{kind}_tail_ms"] = {"percentile": q, "samples": len(samples)}
        details[f"{kind}_raw_p50_ms"] = statistics.median(records[i].ms for i in picked)
    return metrics, details
