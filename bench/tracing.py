"""Spans around the package's public functions, recorded from outside it.

``install`` wraps every public function of the ``bergtoep`` modules, plus
the two public methods the per-layer metrics need, and rebinds each
wrapper in every module namespace that holds the original: ``spectrum``
imports ``boundary_curve`` by name, ``kernel`` calls ``_cp.roots``, and
``cli`` calls through module attributes.  ``uninstall`` puts the originals
back.

A span is (name, start, end, parent, query id).  Spans stay in memory in
flat arrays and are written once, when the run ends.  Self time is a span's
duration minus the time its child spans cover; a layer's self time is the
sum over the spans of that layer's functions.  Work inside numpy counts
towards the layer whose function called it.  Span times are raw wall time;
only ``trace.overhead_share`` compares the scaled times of the untraced
and traced passes (see ``run.py``).
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("cli", "kernel", "odekernel", "spectrum", "symbols", "cpoly", "finsect")

# values-only SVD of a complex n x n matrix: Householder bidiagonalisation
# costs (8/3) n^3 complex flops (Golub & Van Loan, 4th ed., sec. 8.6.3),
# and one complex flop is four real ones; the bidiagonal stage is O(n^2)
SVD_FLOPS_PER_N3 = 32.0 / 3.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.qid = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._last_exc = None

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.query.append(self.qid)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.end[idx] = time.perf_counter()
            self._stack.pop()
            self._count_error(name, exc)
            raise
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._count(name, idx, args, kwargs, result)
        return result

    def _count_error(self, name, exc):
        if exc is self._last_exc:     # already counted where it was raised
            return
        self._last_exc = exc
        kind = type(exc).__name__
        if name.startswith("spectrum.") and kind in ("OnCurveError", "RouteMismatchError"):
            self.counts["spectrum.errors"] += 1
        if name == "cpoly.roots" and kind == "RootFindingError":
            self.counts["cpoly.root_failures"] += 1

    def _count(self, name, idx, args, kwargs, result):
        c = self.counts
        if name.startswith("kernel.recursion_"):
            c["kernel.terms"] += len(result)
        elif name == "kernel.l2_membership":
            c["kernel.verdicts"] += 1
            c[f"kernel.route_{route(result)}"] += 1
            c["kernel.undecided"] += result.status == "undecided"
        elif name == "symbols.boundary_curve":
            c["symbols.boundary_samples"] += int(_arg(args, kwargs, 1, "samples"))
            parent = self.parent[idx]
            if parent >= 0 and self.names[self.name[parent]] == "spectrum.winding_of_symbol":
                c["spectrum.curves_in_winding"] += 1
        elif name == "odekernel.OdeKernelBasis.eval_basis":
            c["odekernel.eval_points"] += int(np.size(_arg(args, kwargs, 2, "z")))
        elif name == "finsect.min_singular_value":
            T = _arg(args, kwargs, 0, "T")
            n = T.n if hasattr(T, "n") else np.shape(T)[0]
            c["finsect.svd_flops"] += SVD_FLOPS_PER_N3 * n**3

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, np.int32),
                "query": np.frombuffer(self.query, np.int32)}


def route(verdict) -> str:
    """Which test in ``l2_membership`` decided, read from the verdict's fields.

    ratio: the stride ratios decided (no tail ratio recorded);
    tail: the partial sums' tail was negligible (tail_ratio 0);
    dyadic: the dyadic tail comparison was reached (tail_ratio > 0);
    none: undecided before any test applied.
    """
    if verdict.tail_ratio is None:
        return "none" if verdict.status == "undecided" else "ratio"
    return "tail" if verdict.tail_ratio == 0.0 else "dyadic"


def _arg(args, kwargs, pos, key):
    return kwargs[key] if key in kwargs else args[pos]


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    return traced


def install(tracer: Tracer, package, modules) -> list:
    """Wrap the public functions; return what ``uninstall`` needs."""
    wrappers = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, val in vars(mod).items():
            if (inspect.isfunction(val) and not attr.startswith("_")
                    and val.__module__ == mod.__name__):
                wrappers[val] = _wrap(tracer, f"{layer}.{attr}", val)
    undo = []
    for ns in (package, *modules):
        for attr, val in list(vars(ns).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(ns, attr, wrappers[val])
                undo.append((ns, attr, val))
    kernel = next(m for m in modules if m.__name__.endswith(".kernel"))
    odekernel = next(m for m in modules if m.__name__.endswith(".odekernel"))
    for cls, attr, layer in ((kernel.CoefficientStream, "to_csv", "kernel"),
                             (odekernel.OdeKernelBasis, "eval_basis", "odekernel")):
        val = cls.__dict__[attr]
        setattr(cls, attr, _wrap(tracer, f"{layer}.{cls.__name__}.{attr}", val))
        undo.append((cls, attr, val))
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, val in reversed(undo):
        setattr(ns, attr, val)


# self times per query, by metric name: the span-name prefixes each covers
TIMES = {
    "kernel.recursion_ms": ("kernel.recursion_",),
    "kernel.membership_ms": ("kernel.l2_membership",),
    "kernel.to_csv_ms": ("kernel.CoefficientStream.to_csv",),
    "odekernel.eval_ms": ("odekernel.OdeKernelBasis.eval_basis",),
    "spectrum.membership_ms": ("spectrum.spectrum_membership",),
    "spectrum.curve_distance_ms": ("spectrum.curve_distance",),
    "spectrum.winding_ms": ("spectrum.winding_",),
    "spectrum.classify_ms": ("spectrum.classify_projective",),
    "spectrum.index_ms": ("spectrum.fredholm_index",),
    "symbols.boundary_curve_ms": ("symbols.boundary_curve",),
    "cpoly.roots_ms": ("cpoly.roots",),
    "cpoly.schur_cohn_ms": ("cpoly.schur_cohn",),
    "finsect.truncation_ms": ("finsect.truncation",),
    "finsect.svd_ms": ("finsect.min_singular_value",),
}


def layer_metrics(tracer: Tracer, queries: int, bytes_out: int) -> tuple[dict, dict]:
    """Per-layer numbers from the spans and the boundary counts.

    Returns (metrics, times).  ``times`` holds each layer's and each named
    function's self time in ms per query.  ``metrics`` carries the same
    times as shares of the traced query time (``_ms`` becomes ``_share``),
    plus ``trace.query_ms`` to turn a share back into ms, and the counts,
    per query.  A layer a workload never calls has an exact zero time;
    as a share it is a ratio rather than a timing.
    """
    a = tracer.arrays()
    names = list(a["names"])
    dur = a["end"] - a["start"]
    child = np.zeros_like(dur)
    has_parent = a["parent"] >= 0
    np.add.at(child, a["parent"][has_parent], dur[has_parent])
    self_t = dur - child
    by_name = np.zeros(len(names))
    np.add.at(by_name, a["name"], self_t)
    span_count = np.bincount(a["name"], minlength=len(names))
    total = float(np.sum(dur[~has_parent]))

    def self_time(match):
        return float(sum(v for nm, v in zip(names, by_name) if match(nm)))

    def calls(name):
        return float(span_count[names.index(name)]) / queries if name in names else 0.0

    seconds = {f"{layer}.self_ms": self_time(lambda nm, l=layer: nm.split(".", 1)[0] == l)
               for layer in LAYERS}
    seconds.update({key: self_time(lambda nm, p=prefixes: nm.startswith(p))
                    for key, prefixes in TIMES.items()})
    times = {key: (1e3 * t / queries, "ms") for key, t in seconds.items()}
    metrics = {key.replace("_ms", "_share"): (t / total, "ratio") for key, t in seconds.items()}

    c = tracer.counts
    verdicts = c["kernel.verdicts"]
    recursion = seconds["kernel.recursion_ms"]
    times["kernel.ns_per_term"] = (1e9 * recursion / c["kernel.terms"] if c["kernel.terms"]
                                   else 0.0, "ns")
    metrics.update({
        "trace.query_ms": (1e3 * total / queries, "ms"),
        "cli.self_ms": times["cli.self_ms"],
        "cli.bytes_out": (bytes_out / queries, "B"),
        "kernel.terms": (c["kernel.terms"] / queries, "count"),
        "kernel.terms_per_s": (c["kernel.terms"] / recursion if recursion else 0.0, "1/s"),
        "kernel.route_ratio_share": (c["kernel.route_ratio"] / verdicts if verdicts else 0.0,
                                     "ratio"),
        "kernel.route_tail_share": (c["kernel.route_tail"] / verdicts if verdicts else 0.0,
                                    "ratio"),
        "kernel.route_dyadic_share": (c["kernel.route_dyadic"] / verdicts if verdicts else 0.0,
                                      "ratio"),
        "kernel.undecided": (c["kernel.undecided"] / queries, "count"),
        "odekernel.eval_points": (c["odekernel.eval_points"] / queries, "count"),
        "odekernel.quadratures": (calls("odekernel.adaptive_gk"), "count"),
        "spectrum.winding_refinements": (
            c["spectrum.curves_in_winding"] / queries - calls("spectrum.winding_of_symbol"),
            "count"),
        "spectrum.errors": (c["spectrum.errors"] / queries, "count"),
        "symbols.boundary_samples": (c["symbols.boundary_samples"] / queries, "count"),
        "cpoly.roots_calls": (calls("cpoly.roots"), "count"),
        "cpoly.root_failures": (c["cpoly.root_failures"] / queries, "count"),
        "cpoly.schur_cohn_calls": (calls("cpoly.schur_cohn"), "count"),
        "finsect.svd_calls": (calls("finsect.min_singular_value"), "count"),
        "finsect.svd_flops": (c["finsect.svd_flops"] / queries, "flop"),
        "trace.spans": (len(dur) / queries, "count"),
    })
    return metrics, times
