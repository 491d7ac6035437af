"""The benchmark's span table names only callables of hccm.

The tracer wraps each (module, attribute) pair of ``bench/tracer.py``'s SPANS; a
pair that no longer resolves would read 0 calls rather than fail, so check here.
"""

import importlib
import importlib.util
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


def test_mc_small_operations_run(monkeypatch):
    # the mc-small workload reads result attributes (the fit, each DetResult, the
    # summary, the blocked-LO estimate) that a rename would break only when the
    # benchmark runs; run its set-up round and eight operations in process
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    workload = run.McSmall(seed=3)
    workload.setup_round()
    assert all(workload.run_op(index, None)[1] for index in range(8))
    assert workload.fingerprint(workload.run_once(0)) == workload.fingerprints[0]
