"""The benchmark's span table names only callables of hccm.

The tracer wraps each (module, attribute) pair of ``bench/tracer.py``'s SPANS; a
pair that no longer resolves would read 0 calls rather than fail, so check here.
"""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_spans_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    missing = [
        f"{span}: {module}.{name}"
        for span, pairs in tracer.SPANS.items()
        for module, name in pairs
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert tracer.SPANS
    assert not missing, missing
