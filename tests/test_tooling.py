"""The benchmark's layer tracer must find every binding it wraps."""
import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_binding_resolves():
    wrapped = load_spans().WRAPPED
    assert wrapped
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in wrapped
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []
