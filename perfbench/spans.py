"""Span tracing of the mcdiv layers, applied from outside the package.

`Tracer.install()` replaces the public functions of each mcdiv module, and
the listed methods and constructors, by wrappers that record one span per
call: name, start, end, parent span and op id.  `uninstall()` puts the
originals back.  Nothing under src/ knows about the tracer.

Two traps of wrapping from outside:
  * `mcdiv.rank` is the `rank` function (the package re-exports it), so
    modules are fetched with importlib.import_module.
  * callers that did `from .x import f` hold their own reference to f.
    Every module attribute that *is* a wrapped original is patched, and
    `install()` fails if one of the known import sites was missed.

Span times are CPU time of the benchmark's thread, the clock run.py times
ops with.  Self time of a span is its duration minus the durations of its
direct children; spans nest strictly because the benchmark is
single-threaded.
Generator functions are not wrapped: a span would close before the
generator runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from time import thread_time

MODULES = ["exact", "metric", "curves", "complexes", "reduction", "rank",
           "decomposition", "limitseries", "io", "cli"]

# Span names that differ from "<module>.<function>".
RENAMED = {
    ("limitseries", "crude_limit_check"): "limitseries.crude_check",
    ("reduction", "reduce_divisor"): "reduction.reduce",
    ("rank", "nonneg_rank"): "rank.nonneg",
    ("rank", "site_divisor"): "rank.test_divisors",
}

# (module, class, attribute) -> span name
METHODS = [
    ("exact", "Poly", "divmod", "exact.poly_divmod"),
    ("exact", "Poly", "mult_at", "exact.poly_mult_at"),
    ("exact", "Poly", "rational_roots", "exact.rational_roots"),
    ("exact", "MatrixF", "rref", "exact.rref"),
    ("metric", "Refinement", "__init__", "metric.refinement"),
    ("metric", "PLFunction", "__init__", "metric.plfunction"),
    ("curves", "P1Oracle", "curve_rank", "curves.curve_rank"),
    ("curves", "EllipticOracle", "curve_rank", "curves.curve_rank"),
    ("curves", "TableOracle", "curve_rank", "curves.curve_rank"),
    ("curves", "P1Oracle", "classes_equal", "curves.classes_equal"),
    ("curves", "EllipticOracle", "classes_equal", "curves.classes_equal"),
    ("curves", "TableOracle", "classes_equal", "curves.classes_equal"),
    ("complexes", "ComplexDivisor", "__init__", "complexes.divisor"),
    ("complexes", "ComplexRationalFunction", "__init__", "complexes.rational_function"),
    ("decomposition", "EtaFunction", "__call__", "decomposition.eta"),
    ("limitseries", "FunctionSpace", "__init__", "limitseries.function_space"),
    ("limitseries", "FunctionSpace", "subspace_meets", "limitseries.subspace_meets"),
]

# Import sites that must end up patched: (module, attribute).
REQUIRED_SITES = [
    ("rank", "reduce_divisor"),
    ("decomposition", "rank"),
    ("limitseries", "rank"),
    ("limitseries", "ord_at"),
    ("limitseries", "laurent_at"),
    ("cli", "rank_of"),
    ("cli", "parse_document"),
]

SPAN_CAP = 100_000  # spans kept for the trace file; aggregates cover all spans


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [span id, name, child time]
        self.calls = {}  # name -> count
        self.self_s = {}  # name -> summed self time
        self.edges = {}  # (parent name, child name) -> count
        self.top_s = 0.0  # summed duration of spans with no parent
        self.op = None  # id of the op in progress
        self.spans = []  # (id, parent id, op, name, start, end), first SPAN_CAP
        self.next_id = 0
        self._patches = []  # (owner, attribute, original)

    def _wrap(self, name, fn):
        tracer = self
        stack = self.stack
        calls, self_s, edges, spans = self.calls, self.self_s, self.edges, self.spans
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            sid = tracer.next_id
            tracer.next_id = sid + 1
            entry = [sid, name, 0.0]
            stack.append(entry)
            start = thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                end = thread_time()
                stack.pop()
                dur = end - start
                calls[name] += 1
                self_s[name] += dur - entry[2]
                if parent is None:
                    tracer.top_s += dur
                    pname = None
                else:
                    parent[2] += dur
                    pname = parent[1]
                key = (pname, name)
                edges[key] = edges.get(key, 0) + 1
                if len(spans) < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else None, tracer.op, name, start, end))

        return functools.wraps(fn)(wrapper)

    def install(self, callers=()):
        """Wrap the layers; `callers` are further modules (the benchmark's
        own) whose bindings of mcdiv functions get patched too."""
        mods = {m: importlib.import_module(f"mcdiv.{m}") for m in MODULES}
        wrapped = {}  # id(original) -> wrapper
        originals = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                name = RENAMED.get((short, attr), f"{short}.{attr}")
                wrapped[id(obj)] = self._wrap(name, obj)
                originals[id(obj)] = obj
        for short, cls_name, attr, name in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))
        # patch every binding of a wrapped function, including `from` imports
        package = importlib.import_module("mcdiv")
        for mod in [package, *mods.values(), *callers]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped and originals[id(obj)] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        for short, attr in REQUIRED_SITES:
            if getattr(getattr(mods[short], attr), "__wrapped__", None) is None:
                self.uninstall()
                raise RuntimeError(f"import site mcdiv.{short}.{attr} was not patched")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "op": op, "name": name,
                                     "start": start, "end": end}) + "\n")


def layer_metrics(t: Tracer):
    """The per-layer metrics, by name: `.calls`/`.built` are exact counts,
    `.self_s` summed self time in seconds."""
    out = {}
    counted = {
        "exact.poly_divmod": ("calls", "self_s"),
        "exact.poly_mult_at": ("calls", "self_s"),
        "exact.ord_at": ("calls", "self_s"),
        "exact.rref": ("calls", "self_s"),
        "exact.rational_roots": ("calls",),
        "limitseries.restricted_rank": ("calls", "self_s"),
        "limitseries.subspace_meets": ("calls", "self_s"),
        "limitseries.crude_check": ("self_s",),
        "limitseries.function_space": ("built", "self_s"),
        "reduction.reduce": ("calls", "self_s"),
        "reduction.burn": ("calls", "self_s"),
        "reduction.fire_cut": ("calls", "self_s"),
        "reduction.clear_debt": ("self_s",),
        "metric.refinement": ("built", "self_s"),
        "metric.plfunction": ("built",),
        "complexes.rational_function": ("built",),
        "complexes.divisor": ("built",),
        "rank.rank": ("calls", "self_s"),
        "rank.nonneg": ("calls", "self_s"),
        "rank.linear_equiv": ("calls",),
        "curves.curve_rank": ("calls", "self_s"),
        "curves.classes_equal": ("calls",),
        "decomposition.eta": ("self_s",),
        "decomposition.weighted_rank": ("self_s",),
        "decomposition.connected_sum_rank": ("self_s",),
        "decomposition.bn_search": ("self_s",),
        "io.parse_document": ("calls", "self_s"),
        "cli.main": ("self_s",),
    }
    for name, kinds in counted.items():
        for kind in kinds:
            out[f"{name}.{kind}"] = t.self_s[name] if kind == "self_s" else t.calls[name]
    out["rank.test_divisors"] = t.calls["rank.test_divisors"]
    reduces = t.calls["reduction.reduce"]
    out["reduction.events_per_reduce"] = t.calls["reduction.fire_cut"] / reduces if reduces else 0.0
    nonneg = t.calls["rank.nonneg"]
    out["rank.nonneg.reduce_ratio"] = (
        t.edges.get(("rank.nonneg", "reduction.reduce"), 0) / nonneg if nonneg else 0.0)
    return out
