"""Benchmark of the hccm measurement chain.

    python3 bench/run.py --workload paper-full --seed 1 --seconds 30 --trace 0

Runs one workload in this process (the cli-records commands run as child
processes, one at a time), checks every operation's outputs, and prints one
JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1``
they are the per-layer metrics.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_ROUNDS = 5
# the probe runs at the start of the timed loop and then whenever this many
# seconds have passed since it last ran
PROBE_EVERY_S = 2.0
# CPU seconds of one probe at the reference core speed; reported times are
# scaled to that speed (see op_seconds)
PROBE_REF_S = 0.2
# operation i of a run with --seed s uses config seed s * SEED_STRIDE + i
SEED_STRIDE = 1_000_000
COVERAGE_1SIGMA = 0.682689492
# a run-level statistical check may fail by chance at most this often
FALSE_ALARM = 1e-6
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

perf_counter = time.perf_counter


def cpu_seconds() -> float:
    """CPU time of this process and of its children that have been waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def config_seed(seed: int, index: int) -> int:
    return seed * SEED_STRIDE + index


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def binomial_allowance(trials: int, p: float) -> int:
    """Smallest c with P(Binomial(trials, p) > c) < FALSE_ALARM."""
    cdf = 0.0
    for c in range(trials + 1):
        cdf += math.comb(trials, c) * p**c * (1.0 - p) ** (trials - c)
        if 1.0 - cdf < FALSE_ALARM:
            return c
    return trials


def plan_samples(cfg, with_lo: bool) -> int:
    from hccm.detector import lo_scan_plan, phase_scan_plan

    specs = phase_scan_plan(cfg)
    if with_lo:
        specs += lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
    return sum(spec.n for spec in specs)


class Workload:
    """One workload: set-up, operations in whole rounds, checks, metrics."""

    round_size = 1
    trace_in_process = True
    probe_kind = "bulk"

    def __init__(self, seed: int):
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.samples_per_op = 0
        self.probe_times = []
        self.last_probe = -math.inf

    def probe(self):
        import probe

        work = getattr(probe, self.probe_kind)
        t0 = cpu_seconds()
        work()
        self.probe_times.append(cpu_seconds() - t0)
        self.last_probe = perf_counter()

    def maybe_probe(self):
        if perf_counter() - self.last_probe >= PROBE_EVERY_S:
            self.probe()

    def at_reference(self, timed) -> float:
        """A (CPU seconds, probes run before) pair, scaled to the reference speed.

        The probes just before and just after the timed work measure the
        speed the host gave the core meanwhile.
        """
        seconds, before = timed
        around = self.probe_times[before - 1 : before + 1]
        return seconds * PROBE_REF_S / statistics.fmean(around)

    def setup(self) -> float:
        """CPU seconds of set-up, not yet scaled.

        The median of SETUP_ROUNDS rounds, each a fresh interpreter that
        imports numpy and hccm plus the workload's own set-up.
        """
        # the first probe of a process pays for page faults and cold caches
        self.probe()
        self.probe_times.clear()
        times = []
        for _ in range(SETUP_ROUNDS):
            t0 = cpu_seconds()
            run_child([sys.executable, "-c", "import numpy, hccm, hccm.cli"], OUT_DIR / "import.log")
            self.setup_round()
            times.append(cpu_seconds() - t0)
        return statistics.median(times)

    def run_scale(self) -> float:
        """Reference speed over the run's median speed, for the set-up time.

        Two probes around the set-up would be too few: one probe's time
        scatters by 20 % and more.
        """
        return PROBE_REF_S / statistics.median(self.probe_times)

    def attempt(self, index: int, tracer) -> float | None:
        """Run operation `index`; returns its CPU time, None when it raised."""
        self.attempted += 1
        try:
            seconds, ok = self.run_op(index, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        if not ok:
            print(f"{type(self).__name__}: operation {index} failed a check", file=sys.stderr)
            self.failed += 1
        return seconds

    def rounds(self, first: int, seconds: float, tracer=None):
        """Whole rounds until `seconds` have passed: (round times, next index).

        A round time is a pair (CPU seconds, probes run before the round); a
        round with an operation that raised has none. A probe runs first, last
        and whenever PROBE_EVERY_S have passed since the last one.
        """
        times = []
        index = first
        deadline = perf_counter() + seconds
        self.probe()
        while True:
            before = len(self.probe_times)
            op_times = []
            for _ in range(self.round_size):
                if tracer is not None:
                    tracer.op_id = index
                op_times.append(self.attempt(index, tracer))
                self.maybe_probe()
                index += 1
            if None not in op_times:
                times.append((sum(op_times), before))
            if perf_counter() >= deadline:
                self.probe()
                return times, index

    def op_seconds(self, round_times, traced=False) -> float:
        """CPU time of one operation at the reference core speed.

        Each workload runs on one thread, so its CPU time is its wall time
        less the time the process waited: for the core, for the disk, or for
        the virtual machine's CPU while the host ran something else (the
        kernel leaves such steal time out of a process's CPU time). CPU time
        still moves with the speed the shared host gives a core, so each round
        is scaled by the probes around it before the median is taken.
        """
        return statistics.median(map(self.at_reference, round_times)) / self.round_size

    def end_to_end(self, round_times):
        op = self.op_seconds(round_times)
        return {
            "pipeline_s": (op, "s"),
            "mc_runs_per_s": (1.0 / op, "runs/s"),
            "samples_per_s": (self.samples_per_op / op, "samples/s"),
            "peak_rss_mb": (self.peak_rss_mb(), "MB"),
        }

    def peak_rss_mb(self) -> float:
        return self_rss_mb()

    def cli_stage_metrics(self):
        return {"simulate_s": 0.0, "analyze_s": 0.0, "test_s": 0.0, "record_mb": 0.0}

    def final_checks(self) -> bool:
        """Run-level checks after the timed loop."""
        return True

    # subclasses: setup_round(), run_op(index, tracer) -> (seconds, ok)


class PaperFull(Workload):
    """run_pipeline(preset "paper") with the LO scan, one run per operation."""

    def setup_round(self):
        import reference
        from hccm.config import preset_config
        from hccm.pipeline import run_pipeline

        self.cfg = preset_config("paper")
        self.samples_per_op = plan_samples(self.cfg, with_lo=True)
        truth = reference.fourier_coefficients(self.cfg)
        self.truth = [truth[k] for k in ("a0", "a1", "b1", "a2", "b2")]
        self.truth_lo = reference.separated_at(self.cfg, self.cfg.lo_scan_phi)
        self.chi2 = self.dof = 0.0
        self.c1_outside = 0
        self.ops_checked = 0
        small = dataclasses.replace(self.cfg, samples_per_phase=1_000, blocked_samples=10_000)
        run_pipeline(small, with_lo_scan=True)

    def run_op(self, index, tracer):
        import numpy as np
        from hccm.pipeline import run_pipeline

        cfg = self.cfg.with_seed(config_seed(self.seed, index))
        t0 = cpu_seconds()
        result = run_pipeline(cfg, with_lo_scan=True)
        seconds = cpu_seconds() - t0

        fit = result.phase.fit
        pulls = np.abs(fit.coeffs - self.truth) / np.sqrt(np.diag(fit.cov))
        phis = result.phase.estimates.phis
        det = result.det_results[int(np.argmin(np.abs(phis - 0.75 * np.pi)))]
        # C0, C1, C2 at the LO-scan phase by both separation methods
        v_ph, c_ph = result.phase.separation.contributions_at(self.cfg.lo_scan_phi)
        v_lo, c_lo = result.lo.separation.contributions_at(self.cfg.lo_scan_phi)
        for values, cov in ((v_ph, c_ph), (v_lo, c_lo)):
            pulls = np.append(pulls, np.abs(values - self.truth_lo) / np.sqrt(np.diag(cov)))
        if abs(v_ph[1] - v_lo[1]) > 3.0 * math.sqrt(c_ph[1, 1] + c_lo[1, 1]):
            self.c1_outside += 1
        self.chi2 += fit.chi2
        self.dof += fit.dof
        self.ops_checked += 1
        ok = bool(np.all(pulls <= 5.0)) and det.det < 0 and det.significance >= 5.0
        return seconds, ok

    def final_checks(self):
        if self.ops_checked == 0:
            return False
        chi2_dof = self.chi2 / self.dof
        allowed = binomial_allowance(self.ops_checked, 0.0027)
        ok = 0.7 <= chi2_dof <= 1.3 and self.c1_outside <= allowed
        if not ok:
            print(
                f"paper-full: pooled chi2/dof {chi2_dof:.3f}; C1 methods beyond 3 sigma in "
                f"{self.c1_outside}/{self.ops_checked} runs (allowed {allowed})",
                file=sys.stderr,
            )
        return ok


class McSmall(Workload):
    """Small runs without LO scan: squeezed, noisy coherent, squeezed, noisy thermal."""

    round_size = 4
    probe_kind = "small"

    def setup_round(self):
        import numpy as np
        import reference
        from hccm.detector import DetectorConfig, ExperimentConfig, SignalParams
        from hccm.splitter import symmetric_splitter

        base = dict(
            e_l=2.8,
            phases=tuple(2 * np.pi * i / 16 for i in range(16)),
            samples_per_phase=2_000,
            blocked_samples=2_000,
            seed=0,
            splitter=symmetric_splitter(0.14),
            visibility=0.96,
        )
        squeezed = ExperimentConfig(
            signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
            detector=DetectorConfig(eta1=0.94, eta2=0.94),
            **base,
        )
        noisy = DetectorConfig(
            eta1=0.94,
            eta2=0.94,
            dark_uncorr1=2.0,
            dark_uncorr2=2.0,
            dark_corr=1.0,
            lo_excess=0.1,
        )
        v_th = 10.0 ** (4.0 / 10.0)
        coherent = ExperimentConfig(
            signal=SignalParams(v_min=1.0, v_max=1.0, angle=0.0, alpha=3.0 + 0j),
            detector=noisy,
            **base,
        )
        thermal = ExperimentConfig(
            signal=SignalParams(v_min=v_th, v_max=v_th, angle=0.0, alpha=1.5 + 0j),
            detector=noisy,
            **base,
        )
        self.configs = (squeezed, coherent, squeezed, thermal)
        self.samples_per_op = plan_samples(squeezed, with_lo=False)
        truth = reference.fourier_coefficients(squeezed)
        self.truth = np.array([truth[k] for k in ("a0", "a1", "b1", "a2", "b2")])
        self.hits = np.zeros(5)
        self.n_squeezed = self.n_null = self.false_positive_runs = 0
        self.fingerprints = {}
        for index in range(self.round_size):
            self.run_once(index)

    def run_once(self, index):
        from hccm.pipeline import run_pipeline

        cfg = self.configs[index % self.round_size]
        return run_pipeline(cfg.with_seed(config_seed(self.seed, index)), with_lo_scan=False)

    @staticmethod
    def fingerprint(result):
        """Bytes of the fit coefficients and of every determinant result."""
        import numpy as np

        dets = np.array([[d.det, d.sigma, d.significance] for d in result.det_results])
        verdicts = tuple(d.verdict for d in result.det_results)
        return result.phase.fit.coeffs.tobytes(), dets.tobytes(), verdicts

    def run_op(self, index, tracer):
        import numpy as np

        t0 = cpu_seconds()
        result = self.run_once(index)
        seconds = cpu_seconds() - t0

        if index < self.round_size:
            self.fingerprints[index] = self.fingerprint(result)
        if index % 2 == 0:
            fit = result.phase.fit
            self.hits += np.abs(fit.coeffs - self.truth) <= np.sqrt(np.diag(fit.cov))
            self.n_squeezed += 1
            return seconds, True
        self.n_null += 1
        self.false_positive_runs += result.summary.n_nonclassical > 0
        c_block = result.phase.c_block
        return seconds, c_block.value >= -3.0 * c_block.stderr

    def final_checks(self):
        for index, expected in self.fingerprints.items():
            if self.fingerprint(self.run_once(index)) != expected:
                print(f"mc-small: operation {index} is not reproducible", file=sys.stderr)
                self.failed += 1
        if self.n_squeezed == 0 or self.n_null == 0:
            return False
        coverage = self.hits / self.n_squeezed
        p = COVERAGE_1SIGMA
        band = 5.0 * math.sqrt(p * (1.0 - p) / self.n_squeezed)
        fp_rate = self.false_positive_runs / self.n_null
        ok = bool(all(abs(c - p) <= band for c in coverage)) and fp_rate <= 0.05
        if not ok:
            print(
                f"mc-small: coverage {coverage.round(3).tolist()} (band {p:.3f} +- {band:.3f}); "
                f"false-positive run rate {fp_rate:.3f}",
                file=sys.stderr,
            )
        return ok


PHASE_RECORD, LO_RECORD = "phase_scan.txt", "lo_scan.txt"
REPORTS = ("fit_report.txt", "phase_table.txt", "lo_table.txt", "det_table.txt")
NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def reports_agree(text_a: str, text_b: str) -> bool:
    """Same words and verdicts; every number equal to 1e-9 relative."""
    if NUMBER.sub("#", text_a) != NUMBER.sub("#", text_b):
        return False
    return all(
        math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=0.0)
        for a, b in zip(NUMBER.findall(text_a), NUMBER.findall(text_b))
    )


def data_rows(path: Path) -> int:
    header = 0
    with open(path, "rb") as fh:
        for line in fh:
            if not line.startswith(b"#"):
                break
            header += 1
    newlines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 24):
            newlines += chunk.count(b"\n")
    return newlines - header


def run_child(argv, log_path: Path):
    """Run one child process to its end: (CPU seconds, exit code, peak RSS in MB)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_utime + usage.ru_stime, proc.returncode, usage.ru_maxrss / 1024.0


class CliRecords(Workload):
    """hccm simulate -> analyze -> test on preset paper-quick, one child each."""

    trace_in_process = False
    probe_kind = "text"
    PRESET = "paper-quick"

    def setup_round(self):
        from hccm.config import preset_config

        cfg = preset_config(self.PRESET)
        self.samples_per_op = plan_samples(cfg, with_lo=True)
        # stage times of the untraced (False) and traced (True) operations
        self.stage_times = {t: {"simulate": [], "analyze": [], "test": []} for t in (False, True)}
        self.child_rss = []
        self.record_mb = []
        (OUT_DIR / "tmp").mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR / "tmp") as tmp:
            run_child([sys.executable, "-m", "hccm.cli", "--help"], Path(tmp) / "help.log")

    def run_op(self, index, tracer):
        seed = str(config_seed(self.seed, index))
        with tempfile.TemporaryDirectory(dir=OUT_DIR / "tmp") as tmp:
            out = Path(tmp)
            total = 0.0
            for stage in ("simulate", "analyze", "test"):
                before = len(self.probe_times)
                args = [stage, "--preset", self.PRESET, "--seed", seed, "--out", tmp]
                if tracer is None:
                    argv = [sys.executable, "-m", "hccm.cli", *args]
                else:
                    spans = str(out / f"{stage}.spans.json")
                    argv = [sys.executable, str(BENCH_DIR / "cli_child.py"), spans, *args]
                seconds, code, rss = run_child(argv, out / f"{stage}.log")
                if code != 0:
                    sys.stderr.write((out / f"{stage}.log").read_text(errors="replace")[-2000:])
                    return total, False
                if tracer is not None:
                    tracer.merge(spans, index)
                total += seconds
                self.stage_times[tracer is not None][stage].append((seconds, before))
                # a probe after every command, so that each has one on either
                # side: an operation is only three commands long
                self.probe()
                if tracer is None:
                    self.child_rss.append(rss)
            ok = self.check_outputs(out, seed)
        return total, ok

    def check_outputs(self, out: Path, seed: str) -> bool:
        from hccm import cli

        records = [out / PHASE_RECORD, out / LO_RECORD]
        self.record_mb.append(sum(p.stat().st_size for p in records) / 1e6)
        rows = sum(data_rows(p) for p in records)
        ref_dir = out / "reproduce"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(
                ["reproduce-paper", "--preset", self.PRESET, "--seed", seed, "--out", str(ref_dir)]
            )
        agree = code == 0 and all(
            reports_agree((out / name).read_text(), (ref_dir / name).read_text())
            for name in REPORTS
        )
        if not agree or rows != self.samples_per_op:
            print(
                f"cli-records: rows {rows} (plan {self.samples_per_op}), reports agree {agree}",
                file=sys.stderr,
            )
        return agree and rows == self.samples_per_op

    def op_seconds(self, round_times, traced=False) -> float:
        # the sum of each command's median: one slow command does not make
        # its whole operation the median one
        times = self.stage_times[traced].values()
        return sum(statistics.median(map(self.at_reference, t)) for t in times)

    def peak_rss_mb(self) -> float:
        return max(self.child_rss)

    def cli_stage_metrics(self):
        out = {
            f"{stage}_s": statistics.median(map(self.at_reference, t))
            for stage, t in self.stage_times[False].items()
        }
        out["record_mb"] = statistics.median(self.record_mb)
        return out


WORKLOADS = {"paper-full": PaperFull, "mc-small": McSmall, "cli-records": CliRecords}


def layer_metrics(workload, tracer, untraced, traced):
    import tracer as tracer_mod

    n_ops = len(traced) * workload.round_size
    metrics = {}
    for name, (calls, self_s) in tracer_mod.self_times(tracer.spans).items():
        metrics[f"{name}.calls"] = (calls / n_ops, "count")
        metrics[f"{name}.self_s"] = (self_s / n_ops, "s")
    units = {"calls": "count", "samples": "count", "rows": "count", "bytes": "bytes"}
    for key, value in tracer.counters.items():
        metrics[key] = (value / n_ops, units[key.rsplit(".", 1)[1]])
    read_s = sum(
        end - start for name, start, end, _, _ in tracer.spans if name == "records.read_record"
    )
    read_rows = tracer.counters["records.read_record.rows"]
    metrics["records.read_record.rows_per_s"] = (read_rows / read_s if read_s else 0.0, "rows/s")
    metrics["records.read_record.peak_rss_mb"] = (tracer.read_peak_rss_mb, "MB")
    overhead = workload.op_seconds(traced, traced=True) - workload.op_seconds(untraced)
    metrics["tracing.overhead_s"] = (overhead, "s")
    stage = workload.cli_stage_metrics()
    for key, value in stage.items():
        metrics[key] = (value, "MB" if key.endswith("_mb") else "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "hccm" / "__init__.py").is_file():
        print(f"hccm sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    # one thread per process, children included: a BLAS thread pool would
    # contend for the cores with the neighbours and make timings noisier
    for var in THREAD_VARS:
        os.environ[var] = "1"
    import numpy  # noqa: F401

    import hccm  # noqa: F401
    import hccm.cli  # noqa: F401

    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = workload.setup()

    if args.trace:
        from tracer import Tracer

        untraced, index = workload.rounds(0, args.seconds / 2)
        tracer = Tracer()
        if workload.trace_in_process:
            tracer.install()
        try:
            traced, _ = workload.rounds(index, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        tracer.dump(OUT_DIR / f"trace-{args.workload}-{args.seed}.json")
        metrics = layer_metrics(workload, tracer, untraced, traced)
    else:
        wall0, cpu0 = perf_counter(), cpu_seconds()
        round_times, _ = workload.rounds(0, args.seconds)
        raw = [seconds for seconds, _ in round_times]
        print(
            f"timed loop: {perf_counter() - wall0:.2f} s wall, {cpu_seconds() - cpu0:.2f} s CPU; "
            f"{len(raw)} rounds, fastest {min(raw):.4f} s, "
            f"median {statistics.median(raw):.4f} s CPU; {len(workload.probe_times)} "
            f"probes, fastest {min(workload.probe_times):.4f} s, "
            f"median {statistics.median(workload.probe_times):.4f} s CPU",
            file=sys.stderr,
        )
        metrics = workload.end_to_end(round_times)
        metrics["setup_s"] = (setup_s * workload.run_scale(), "s")
    correct = workload.final_checks()
    result = {
        "correct": bool(correct),
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
