"""Span recorder that instruments the program from outside.

Tracing wraps the public functions of each program module and rebinds the
wrappers in every program module namespace that holds the original,
because `from .linalg import rank` copies the binding.  Matrix products,
adjoints and Gaussian-rational constructions are wrapped at class level.
Nothing in the program is edited.

Each span records name, start, end, parent and the id of the benchmark op
it belongs to.  Spans stay in memory and are written out at the end.  The
recorder's own bookkeeping is excluded from every span: timestamps come
from a clock that is paused while the recorder works.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
import warnings
from collections import Counter, defaultdict

# bottom-up order of the program's modules
LAYERS = ("scalars", "matrix", "linalg", "rankseq", "classes", "similarity",
          "unitary", "generators", "catalog", "matio", "cli")

GENERATORS = ("random_unitary", "random_normal", "random_hermitian", "random_psd", "random_ep",
              "rational_skew_hermitian", "rational_unitary", "rational_diagonal", "rational_normal",
              "rational_hermitian", "rational_psd", "rational_ep", "zero_one_normal")

_CALLS_AND_SELF = ("linalg.rank", "linalg.nullspace_basis", "linalg.solve_linear",
                   "linalg.determinant", "linalg.characteristic_polynomial",
                   "rankseq.rank_sequence")
_SELF_ONLY = (("matrix.matmul", "matrix.adjoint", "classes.is_psd", "classes.is_ep",
               "classes.classify", "similarity.decide_product_similarity",
               "similarity.intertwiner_space", "similarity.construct_similarity_psd_ep",
               "unitary.word_trace_screen", "catalog.search_counterexample",
               "matio.load_matrix", "matio.dump_matrix", "cli.main")
              + tuple(f"generators.{g}" for g in GENERATORS))
_MODULE_TOTALS = LAYERS[1:]

COUNT, SECONDS, RATIO, BITS = "count", "s", "ratio", "bit"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"scalars.gq_new": COUNT, "matrix.matmul.calls": COUNT, "matrix.matmul.mults": COUNT,
             "matrix.kron.calls": COUNT, "matrix.max_entry_bits": BITS,
             "linalg.rank.cells": COUNT, "linalg.nullspace_basis.cells": COUNT,
             "rankseq.powers": COUNT, "rankseq.clamped": COUNT,
             "similarity.intertwiner_space.dim": COUNT,
             "similarity.find_intertwiner.samples": COUNT,
             "similarity.find_intertwiner.useful_ratio": RATIO,
             "unitary.words": COUNT, "unitary.matmuls": COUNT,
             "generators.accept_ratio": RATIO}
    for name in _CALLS_AND_SELF:
        units[f"{name}.calls"] = COUNT
        units[f"{name}.self_s"] = SECONDS
    for name in _SELF_ONLY:
        units[f"{name}.self_s"] = SECONDS
    for layer in _MODULE_TOTALS:
        units[f"{layer}.self_s"] = SECONDS
    units["trace.overhead_ratio"] = RATIO
    return dict(sorted(units.items()))


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index, op id]
        self._stack: list[int] = []
        self._paused = 0
        self.op = -1
        self.counts: Counter = Counter()
        self.gq_new = 0
        self._undo: list[tuple[object, str, object]] = []  # (owner, attribute, original)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_return=None):
        """fn wrapped in a span; on_return(result, args) runs off the clock."""
        nid = self.name_id(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = [nid, 0, 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            t1 = clock()
            self._paused += t1 - t0
            span[1] = t1 - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                t2 = clock()
                span[2] = t2 - self._paused
                stack.pop()
            if on_return is not None:
                on_return(result, args)
            self._paused += clock() - t2
            return result

        return traced

    # -- derived metrics -----------------------------------------------------

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put back everything instrument() replaced."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        names = self.names
        child = defaultdict(int)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, (nid, start, end, parent, _) in enumerate(self.spans):
            calls[names[nid]] += 1
            self_ns[names[nid]] += end - start - child[idx]

        def parent_name(span):
            return names[self.spans[span[3]][0]] if span[3] >= 0 else ""

        def under(span, target):
            while span[3] >= 0:
                span = self.spans[span[3]]
                if names[span[0]] == target:
                    return True
            return False

        powers = words = screen_matmuls = samples = attempts = 0
        drawing = set()
        for idx, span in enumerate(self.spans):
            name, parent = names[span[0]], parent_name(span)
            if name == "matrix.matmul" and parent == "rankseq.rank_sequence":
                powers += 1
            if name == "unitary.trace_word" and parent == "unitary.word_trace_screen":
                words += 1
            if name == "matrix.matmul" and under(span, "unitary.word_trace_screen"):
                screen_matmuls += 1
            if name == "similarity.certificate_for" and parent == "similarity.find_intertwiner":
                samples += 1
            if (name == "linalg.rank" and parent in ("generators.rational_psd", "generators.rational_ep")) or (
                    name == "classes.is_normal" and parent == "generators.zero_one_normal"):
                attempts += 1
                drawing.add(span[3])

        out: dict[str, float] = {}
        for metric in per_layer_units():
            base, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[base]
            elif field == "self_s" and base in _MODULE_TOTALS:
                out[metric] = sum(v for k, v in self_ns.items() if k.startswith(base + ".")) / 1e9
            elif field == "self_s":
                out[metric] = self_ns[base] / 1e9
        out.update({
            "scalars.gq_new": self.gq_new,
            "matrix.matmul.mults": self.counts["matmul_mults"],
            "matrix.max_entry_bits": self.counts["max_entry_bits"],
            "linalg.rank.cells": self.counts["rank_cells"],
            "linalg.nullspace_basis.cells": self.counts["nullspace_cells"],
            "rankseq.powers": powers,
            "rankseq.clamped": self.counts["clamped"],
            "similarity.intertwiner_space.dim": self.counts["intertwiner_dim"],
            "similarity.find_intertwiner.samples": samples,
            "similarity.find_intertwiner.useful_ratio":
                self.counts["intertwiner_found"] / samples if samples else 0.0,
            "unitary.words": words,
            "unitary.matmuls": screen_matmuls,
            "generators.accept_ratio": len(drawing) / attempts if attempts else 0.0,
        })
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
            fh.write("\n")


def _entry_bits(arr) -> int:
    best = 0
    for z in arr.flat:
        best = max(best, z.re.numerator.bit_length(), z.re.denominator.bit_length(),
                   z.im.numerator.bit_length(), z.im.denominator.bit_length())
    return best


class _CountingWarnings:
    """Stands in for the `warnings` module inside abba.rankseq, counting
    ToleranceWarning (a clamped float rank sequence) before passing it on."""

    def __init__(self, rec: Recorder, category):
        self._rec, self._category = rec, category

    def warn(self, message, category=None, stacklevel=1, **kwargs):
        if category is self._category:
            self._rec.counts["clamped"] += 1
        warnings.warn(message, category, stacklevel=stacklevel + 1, **kwargs)


def instrument(rec: Recorder) -> None:
    """Wrap every layer of the imported program; see the module docstring.
    rec.uninstall() undoes it."""
    modules = {layer: importlib.import_module(f"abba.{layer}") for layer in LAYERS}
    matrix, scalars = modules["matrix"], modules["scalars"]
    counts = rec.counts

    def on_matmul(result, args):
        if result is NotImplemented:
            return
        a, b = args
        counts["matmul_mults"] += a.rows * a.cols * b.cols
        if result.backend == matrix.EXACT and result.rows and result.cols:
            counts["max_entry_bits"] = max(counts["max_entry_bits"], _entry_bits(result.array))

    def on_rank(result, args):
        counts["rank_cells"] += args[0].rows * args[0].cols

    def on_nullspace(result, args):
        counts["nullspace_cells"] += args[0].rows * args[0].cols

    def on_space(result, args):
        counts["intertwiner_dim"] += len(result)

    def on_found(result, args):
        counts["intertwiner_found"] += result is not None

    hooks = {"linalg.rank": on_rank, "linalg.nullspace_basis": on_nullspace,
             "similarity.intertwiner_space": on_space, "similarity.find_intertwiner": on_found}

    replacements = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            replacements[id(obj)] = (obj, rec.wrap(name, obj, hooks.get(name)))
    program = [m for k, m in sys.modules.items() if k == "abba" or k.startswith("abba.")]
    for mod in program:
        for attr, obj in list(vars(mod).items()):
            hit = replacements.get(id(obj))
            if hit is not None and hit[0] is obj:
                rec.replace(mod, attr, hit[1])

    rec.replace(matrix.Matrix, "__matmul__", rec.wrap("matrix.matmul", matrix.Matrix.__matmul__, on_matmul))
    rec.replace(matrix.Matrix, "adjoint", rec.wrap("matrix.adjoint", matrix.Matrix.adjoint))

    gq_init = scalars.GaussianRational.__init__

    def counting_init(self, *args, **kwargs):
        rec.gq_new += 1
        gq_init(self, *args, **kwargs)

    rec.replace(scalars.GaussianRational, "__init__", counting_init)
    tolerance_warning = importlib.import_module("abba.errors").ToleranceWarning
    rec.replace(modules["rankseq"], "warnings", _CountingWarnings(rec, tolerance_warning))
