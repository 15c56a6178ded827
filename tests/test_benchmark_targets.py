"""The functions the benchmark's tracer wraps, as benchmark/layers.py lists
them, exist in kslab: renaming or deleting one fails here, not only in the
benchmark run."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_targets_resolve(monkeypatch):
    # layers.py imports its sibling spans.py
    monkeypatch.syspath_prepend(os.path.join(ROOT, "benchmark"))
    spec = importlib.util.spec_from_file_location(
        "benchmark_layers", os.path.join(ROOT, "benchmark", "layers.py"))
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.TARGETS
    for module_name, attr, _ in layers.TARGETS:
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer rewraps Class.method as a classmethod
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            assert isinstance(vars(cls).get(method), classmethod), attr
        else:
            assert callable(getattr(owner, attr)), attr
    assert ("kslab.config", "RunConfig.from_file") in {
        target[:2] for target in layers.TARGETS}
