"""Span tracing around the public functions of the modforms layers.

The tracer wraps, from outside, every public function defined in the layer
modules, plus ``QExpansion.__mul__``/``__add__``/``evaluate`` and
``SkewPolynomial.apply``, and rebinds every module-level name in the
package that refers to a wrapped function (``mlde.to_qexpansion``,
``skew.serre_derivative``, ...), so calls between layers are seen too.
Spans stay in memory; self times and per-layer metrics are computed from
the span tree when the traced pass ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("qseries", "classical", "skew", "mlde", "linalg", "vvmf", "structure", "serialize", "cli")

METHODS = {
    ("qseries", "QExpansion", "__mul__"): "qseries.mul",
    ("qseries", "QExpansion", "__add__"): "qseries.add",
    ("qseries", "QExpansion", "evaluate"): "qseries.evaluate",
    ("skew", "SkewPolynomial", "apply"): "skew.apply",
}

#: Span name for the tracer's own counting work; it shields the enclosing
#: layer's self time from the cost of measuring it.
BOOKKEEPING = "trace.bookkeeping"

#: Per-layer metrics: name -> (layer, the end-to-end metric and workload it
#: should move).  Units and better-directions are in BENCHMARK.json.
PER_LAYER = {
    "qseries.mul.calls": ("qseries", "latency_p50_s/ops_per_s on series (most), free_basis and the verify half of mlde; barely cli"),
    "qseries.mul.self_s": ("qseries", "latency_p50_s/ops_per_s on series (most), free_basis and the verify half of mlde; barely cli"),
    "qseries.mul.coeff_pairs": ("qseries", "computed from input lengths, not counted in the kernel; series latency"),
    "qseries.mul.max_bits": ("qseries", "rational height of products; series and mlde latency"),
    "qseries.add.self_s": ("qseries", "latency_p50_s on free_basis and series"),
    "qseries.evaluate.self_s": ("qseries", "latency_p50_s on mlde and the cli monodromy command"),
    "classical.to_qexpansion.calls": ("classical", "latency_p50_s on free_basis; no change on mlde"),
    "classical.to_qexpansion.self_s": ("classical", "latency_p50_s on free_basis; no change on mlde"),
    "classical.eisenstein.self_s": ("classical", "latency_tail_s/peak_rss_mib on series"),
    "classical.eta_power.self_s": ("classical", "latency_tail_s/peak_rss_mib on series"),
    "classical.serre_derivative.self_s": ("classical", "latency_p50_s on series and mlde"),
    "classical.from_qexpansion.self_s": ("classical", "latency_tail_s on series"),
    "classical.series_requests": ("classical", "calls to eisenstein, delta and eta_power; series"),
    "classical.series_reuse_ratio": ("classical", "input property: 1 - distinct (form, terms) / requests; what a cache could save on series"),
    "skew.apply.calls": ("skew", "latency_p50_s on mlde; no change on free_basis"),
    "skew.apply.self_s": ("skew", "latency_p50_s on mlde; no change on free_basis"),
    "mlde.solve_frobenius.calls": ("mlde", "latency_p50_s/latency_tail_s on mlde; no change on free_basis/series"),
    "mlde.solve_frobenius.self_s": ("mlde", "latency_p50_s/latency_tail_s on mlde (order 4 in the tail); no change on free_basis/series"),
    "mlde.solve_frobenius.max_bits": ("mlde", "rational height of Frobenius solutions; mlde tail"),
    "mlde.verify_solution.self_s": ("mlde", "latency_p50_s on mlde"),
    "linalg.rank.calls": ("linalg", "latency_p50_s on free_basis"),
    "linalg.rank.cells": ("linalg", "rows x columns handed to rank; free_basis"),
    "linalg.rank.self_s": ("linalg", "latency_p50_s on free_basis"),
    "linalg.solve_overdetermined.self_s": ("linalg", "latency_p50_s on series (from_qexpansion)"),
    "vvmf.serre_vvmf.self_s": ("vvmf", "latency_p50_s on free_basis"),
    "vvmf.recover_rho_S.self_s": ("vvmf", "latency_p50_s on mlde and the cli monodromy command"),
    "vvmf.check_relations.self_s": ("vvmf", "latency_p50_s on mlde and the cli monodromy command"),
    "structure.free_basis_verify.calls": ("structure", "latency_p50_s on free_basis"),
    "structure.free_basis_verify.self_s": ("structure", "row assembly and coefficient lookup; free_basis latency"),
    "structure.free_basis_verify.members": ("structure", "candidate multiples handed to rank; free_basis"),
    "serialize.dumps.self_s": ("serialize", "latency_p50_s on cli; no change on library workloads"),
    "serialize.bytes_out": ("serialize", "latency_p50_s on cli; no change on library workloads"),
    "cli.import_s": ("cli", "latency_p50_s on cli; no change on library workloads"),
    "cli.main.self_s": ("cli", "latency_p50_s on cli; no change on library workloads"),
    "trace_overhead_ratio": ("whole run", "traced wall / untraced wall over the same ops; moves nothing"),
}


class Tracer:
    """In-memory span recorder: [name, start, end, parent index] per span."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, int] = defaultdict(int)
        self.requests: list[tuple] = []

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def summarize(tracer: Tracer) -> dict:
    """Per span name: call count and total self time; plus the counters."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        self_s[name] += own
    distinct = len(set(tracer.requests))
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "counters": dict(tracer.counters),
        "maxima": dict(tracer.maxima),
        "requests": len(tracer.requests),
        "distinct_requests": distinct,
        "import_s": [],
    }


def merge(summaries) -> dict:
    """Combine summaries of separate processes: sums, maxima of maxima, and
    the list of every process's import time."""
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counters": defaultdict(float),
           "maxima": defaultdict(int), "requests": 0, "distinct_requests": 0, "import_s": []}
    for s in summaries:
        out["import_s"] += s["import_s"]
        for key in ("calls", "self_s", "counters"):
            for name, value in s[key].items():
                out[key][name] += value
        for name, value in s["maxima"].items():
            out["maxima"][name] = max(out["maxima"][name], value)
        out["requests"] += s["requests"]
        out["distinct_requests"] += s["distinct_requests"]
    return out


def per_layer_metrics(summary: dict, overhead_ratio: float) -> dict[str, float]:
    """The PER_LAYER values from a (merged) summary; layers not called read 0."""
    calls, self_s = summary["calls"], summary["self_s"]
    counters, maxima = summary["counters"], summary["maxima"]
    requests = summary["requests"]
    values = {}
    for name in PER_LAYER:
        if name == "trace_overhead_ratio":
            values[name] = overhead_ratio
        elif name == "cli.import_s":
            values[name] = statistics.median(summary["import_s"]) if summary["import_s"] else 0.0
        elif name == "classical.series_requests":
            values[name] = requests
        elif name == "classical.series_reuse_ratio":
            values[name] = 1 - summary["distinct_requests"] / requests if requests else 0.0
        elif name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_s.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".max_bits"):
            values[name] = maxima.get(name, 0)
        else:
            values[name] = counters.get(name, 0)
    return values


def self_time_total(summary: dict) -> float:
    """Sum of self times over every layer span (bookkeeping and ops excluded)."""
    return sum(v for k, v in summary["self_s"].items() if k.split(".")[0] in LAYERS)


# -- counting hooks, run inside a bookkeeping span after the call returns --

def _bits(series) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length()) for c in series.coeffs), default=0)


def _on_mul(tracer, args, kwargs, result):
    a, b = args[0], args[1]
    if type(b) is type(a):
        n_out = min(len(a.coeffs), len(b.coeffs)) - 1
        tracer.counters["qseries.mul.coeff_pairs"] += (n_out + 1) * (n_out + 2) // 2
        tracer.maxima["qseries.mul.max_bits"] = max(tracer.maxima["qseries.mul.max_bits"], _bits(result))


def _on_frobenius(tracer, args, kwargs, result):
    key = "mlde.solve_frobenius.max_bits"
    tracer.maxima[key] = max(tracer.maxima[key], _bits(result))


def _on_rank(tracer, args, kwargs, result):
    rows = args[0] if args else kwargs["rows"]
    tracer.counters["linalg.rank.cells"] += len(rows) * (len(rows[0]) if rows else 0)
    if tracer.inside("structure.free_basis_verify"):
        tracer.counters["structure.free_basis_verify.members"] += len(rows)


def _on_dumps(tracer, args, kwargs, result):
    tracer.counters["serialize.bytes_out"] += len(result.encode())


def _request(kind):
    def hook(tracer, args, kwargs, result):
        tracer.requests.append((kind,) + tuple(args) + tuple(sorted(kwargs.items())))
    return hook


HOOKS = {
    "qseries.mul": _on_mul,
    "mlde.solve_frobenius": _on_frobenius,
    "linalg.rank": _on_rank,
    "serialize.dumps": _on_dumps,
    "classical.eisenstein": _request("eisenstein"),
    "classical.delta": _request("delta"),
    "classical.eta_power": _request("eta_power"),
}


def _wrap(tracer: Tracer, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if hook is not None:
            idx = tracer.open(BOOKKEEPING)
            hook(tracer, args, kwargs, result)
            tracer.close(idx)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every layer's public functions; returns a callable that undoes it.

    The request key of eisenstein/delta/eta_power uses the arguments as
    passed, so a call relying on a default and one spelling it out count as
    distinct; the library and the benchmark always pass ``terms``.
    """
    modules = {layer: importlib.import_module(f"modforms.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            wrapped[id(obj)] = (obj, _wrap(tracer, f"{layer}.{attr}", obj))
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "modforms" and not modname.startswith("modforms."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])
                undo.append((mod, attr, obj))
    for (layer, cls_name, meth), name in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[meth]
        setattr(cls, meth, _wrap(tracer, name, original))
        undo.append((cls, meth, original))

    def uninstall():
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
