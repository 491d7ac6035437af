"""The benchmark's span table names only callables of hccm.

The tracer wraps each (module, attribute) pair of ``bench/tracer.py``'s SPANS; a
pair that no longer resolves would read 0 calls rather than fail, so check here.
"""

import dataclasses
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


def load_bench_run(monkeypatch):
    """bench/run.py as a module, with bench/ on the import path."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_mc_small_operations_run(monkeypatch):
    # the mc-small workload reads result attributes (the fit, each DetResult, the
    # summary, the blocked-LO estimate) that a rename would break only when the
    # benchmark runs; run its set-up round and eight operations in process
    workload = load_bench_run(monkeypatch).McSmall(seed=3)
    workload.setup_round()
    assert all(workload.run_op(index, None)[1] for index in range(8))
    assert workload.fingerprint(workload.run_once(0)) == workload.fingerprints[0]


def test_paper_full_operation_runs(monkeypatch):
    # the paper-full workload reads the phase grid, the DetResults and both
    # separations at the LO-scan phase; run its set-up round and one operation in
    # process, on the paper preset with 1 000 samples per phase
    workload = load_bench_run(monkeypatch).PaperFull(seed=3)
    workload.setup_round()
    workload.cfg = dataclasses.replace(workload.cfg, samples_per_phase=1_000, blocked_samples=10_000)
    assert isinstance(workload.run_op(0, None)[1], bool)


def test_cli_records_outputs_check(monkeypatch, tmp_path):
    # the cli-records workload runs simulate, analyze and test as child processes,
    # then checks that their reports agree with reproduce-paper's and that the
    # records hold the plan's rows; run the three commands in process and that check
    from hccm.cli import main
    from hccm.config import preset_config

    run = load_bench_run(monkeypatch)
    workload = run.CliRecords(seed=3)
    workload.samples_per_op = run.plan_samples(preset_config(workload.PRESET), with_lo=True)
    workload.record_mb = []
    seed = str(run.config_seed(workload.seed, 0))
    for stage in ("simulate", "analyze", "test"):
        assert main([stage, "--preset", workload.PRESET, "--seed", seed, "--out", str(tmp_path)]) == 0
    assert workload.check_outputs(tmp_path, seed) is True
