"""The library names the benchmark's tracer wraps by name all still exist.

`bench/tracing.py` wraps every function in each layer's ``__all__`` and the
methods listed in its ``METHODS``, and `bench/workloads.py` renders outputs
through `rational.format_fraction`.  A deletion that breaks either fails
here, in the tier-1 suite, and not only in the benchmark's smoke test.
"""

import importlib
import sys
from pathlib import Path

import mukai

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
tracing = importlib.import_module("tracing")


def test_every_traced_layer_exports_only_names_that_resolve():
    for layer in tracing.LAYERS:
        module = getattr(mukai, layer)
        assert module.__all__, layer
        for name in module.__all__:
            assert hasattr(module, name), f"{layer}.{name}"


def test_every_traced_method_is_defined_on_its_class():
    for layer, classes in tracing.METHODS.items():
        module = getattr(mukai, layer)
        for cls_name, methods in classes.items():
            cls = getattr(module, cls_name)
            for method in methods:
                assert method in cls.__dict__, f"{layer}.{cls_name}.{method}"


def test_the_workload_formatter_exists():
    assert callable(mukai.rational.format_fraction)
