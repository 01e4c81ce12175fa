"""Spans and counters around the public functions of each ``mukai`` layer.

The library has no tracing of its own, so the benchmark measures each
layer from outside: it wraps the public functions (and the few methods
that hold a layer's loops) and installs each wrapper in every module
namespace that imported the function, so a call is seen whichever name it
goes through.  Spans (layer, name, start, end, parent, request) stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import Counter
from time import perf_counter_ns

LAYERS = ("rational", "rings", "chern", "pairings", "flags", "linalg", "moduli", "schubert", "documents")

# Methods that hold a layer's work (the rho^3 loops live in ThreefoldRing).
METHODS = {
    "rings": {
        "ThreefoldRing": ("graded", "cubic", "square_to_h4", "exp_h2"),
        "GradedClass": ("__post_init__", "__add__", "scale"),
        "K3Restriction": ("from_ring", "dot"),
    },
    "chern": {"ChernData": ("__post_init__",)},
    "flags": {"FlagDescriptor": ("__post_init__",), "GluingDescriptor": ("__post_init__",)},
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.active = False
        self.request = -1

    def span(self, layer: str, name: str, fn, on_call=None):
        """Wrap ``fn`` so each call while active records a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(tracer.counts, args)
            index = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer.stack.pop()
                tracer.spans[index] = (layer, name, start, end, parent, tracer.request)

        return wrapper

    def run_request(self, request_index: int, fn, *args):
        """Run one request under a root span of layer ``bench``."""
        self.request = request_index
        self.active = True
        try:
            return self.span("bench", "request", fn)(*args)
        finally:
            self.active = False

    def install(self, lib) -> None:
        """Wrap every layer's public functions in every ``mukai`` namespace."""
        namespaces = [m for name, m in sys.modules.items() if name == "mukai" or name.startswith("mukai.")]
        for layer in LAYERS:
            module = getattr(lib, layer)
            for name in module.__all__:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                wrapper = self.span(layer, name, fn, ON_CALL.get((layer, name)))
                for namespace in namespaces:
                    for attr, value in list(vars(namespace).items()):
                        if value is fn:
                            setattr(namespace, attr, wrapper)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for method in methods:
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.span(layer, f"{cls_name}.{method}", raw.__func__))
                    else:
                        wrapped = self.span(layer, f"{cls_name}.{method}", raw)
                    setattr(cls, method, wrapped)
        # The IntegralityWarning path of euler_chi: count the warnings it raises.
        lib.pairings.warnings = _CountingWarnings(lib.pairings.warnings, self)

    def layer_totals(self, requests: int) -> dict:
        """Per-request calls and self time (span minus its children) per layer."""
        child_ns = [0] * len(self.spans)
        for layer, name, start, end, parent, request in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        names: Counter = Counter()
        for index, (layer, name, start, end, parent, request) in enumerate(self.spans):
            calls[layer] += 1
            self_ns[layer] += end - start - child_ns[index]
            names[name] += 1
        metrics = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls_per_op"] = calls[layer] / requests
            metrics[f"{layer}.self_us_per_op"] = self_ns[layer] / 1000 / requests
        chi_calls = names["euler_chi"]
        metrics.update(
            {
                "rings.graded_new_per_op": names["GradedClass.__post_init__"] / requests,
                "rings.square_to_h4_per_op": names["ThreefoldRing.square_to_h4"] / requests,
                "chern.todd_per_op": names["todd_class"] / requests,
                "pairings.fractional_share": self.counts["fractional"] / chi_calls if chi_calls else 0.0,
                "documents.bytes_per_op": self.counts["document_bytes"] / requests,
                "linalg.rref_cells_per_op": self.counts["rref_cells"] / requests,
                "schubert.pieri_calls_per_op": names["pieri_mult"] / requests,
                "schubert.pieri_terms_per_op": self.counts["pieri_terms"] / requests,
            }
        )
        return metrics

    def dump(self, path) -> None:
        """Write the spans, one JSON array per line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class _CountingWarnings:
    """Stands in for the ``warnings`` module inside ``mukai.pairings``."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer

    def warn(self, *args, **kwargs):
        if self._tracer.active:
            self._tracer.counts["fractional"] += 1
        return self._module.warn(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _rref_cells(counts, args):
    matrix = args[0]
    counts["rref_cells"] += len(matrix) * (len(matrix[0]) if len(matrix) else 0)


def _pieri_terms(counts, args):
    counts["pieri_terms"] += len(args[0].terms)


def _document_file_bytes(counts, args):
    counts["document_bytes"] += os.path.getsize(args[0])


def count_document_text(counts, args):
    counts["document_bytes"] += len(args[0].encode("utf-8"))


ON_CALL = {
    ("linalg", "rref"): _rref_cells,
    ("schubert", "pieri_mult"): _pieri_terms,
    ("documents", "load_manifold"): _document_file_bytes,
    ("documents", "load_bundle"): _document_file_bytes,
    ("documents", "load_gluing"): _document_file_bytes,
}
