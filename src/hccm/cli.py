"""Command-line entry point.

Subcommands:

* ``simulate``        write phase-scan (and, if configured, LO-scan) records
* ``analyze``         read records, emit fit report, per-phase and LO tables
* ``test``            read the analyze output, emit the determinant verdict
* ``reproduce-paper`` run the full pipeline on the built-in full-scale preset

Exit codes: 0 success, 2 configuration error, 3 data error, 4 test
precondition error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import config as config_mod
from . import records, reports
from .analysis import SeparatedContributions
from .detector import scan_estimates
from .errors import (
    AnomalousTermInaccessibleError,
    ConfigError,
    DataError,
    DegenerateDesignError,
    InsufficientDataError,
)
from .nonclassicality import build_L, classify_phase_range, det_with_error, squeezed_phases
from .pipeline import (
    PipelineResult,
    analyze_lo_estimates,
    analyze_phase_estimates,
    det_scan,
    run_pipeline,
)
from .splitter import splitter_coefficients

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PRECONDITION = 4

PHASE_RECORD = "phase_scan.txt"
LO_RECORD = "lo_scan.txt"
SEPARATION_FILE = "separation.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hccm",
        description="Virtual homodyne cross-correlation laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "simulate scan records and write them to disk"),
        ("analyze", "estimate, fit, and separate contributions from records"),
        ("test", "run the determinant nonclassicality test on analyze output"),
        ("reproduce-paper", "full pipeline at the built-in full-scale preset"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument(
            "--preset",
            choices=sorted(config_mod.PRESETS),
            help="named built-in configuration",
        )
        p.add_argument("--out", default=".", help="output (and record) directory")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument(
            "--format", choices=("text", "structured"), default="text", help="report format"
        )
    return parser


@dataclass(frozen=True)
class RunManifest:
    """What one CLI invocation is asked to do."""

    command: str
    out_dir: str
    config_path: str | None
    preset: str | None
    seed_override: int | None
    report_format: str  # "text" | "structured"

    @classmethod
    def from_args(cls, args) -> "RunManifest":
        return cls(args.command, args.out, args.config, args.preset, args.seed, args.format)

    def resolve_config(self, default_preset: str | None = None):
        if self.config_path and self.preset:
            raise ConfigError("give either --config or --preset, not both")
        if self.config_path:
            cfg = config_mod.load_config(self.config_path)
        elif self.preset:
            cfg = config_mod.preset_config(self.preset)
        elif default_preset:
            cfg = config_mod.preset_config(default_preset)
        else:
            raise ConfigError("one of --config or --preset is required")
        if self.seed_override is not None:
            cfg = cfg.with_seed(self.seed_override)  # ExperimentConfig rejects a negative seed
        return cfg

    def ensure_out_dir(self) -> None:
        try:
            os.makedirs(self.out_dir, exist_ok=True)
        except OSError as exc:
            raise DataError(f"output directory not writable: {exc}") from exc

    def path(self, name: str) -> str:
        return os.path.join(self.out_dir, name)


def _write(path: str, text: str) -> None:
    with records.atomic_open(path) as fh:
        fh.write(text)


def cmd_simulate(manifest: RunManifest) -> int:
    cfg = manifest.resolve_config(default_preset="paper-quick")
    manifest.ensure_out_dir()
    phase_path = manifest.path(PHASE_RECORD)
    rows = records.stream_record(cfg, phase_path, kind="phase_scan")
    print(f"wrote {phase_path}: {len(cfg.phases)} phases x {cfg.samples_per_phase} samples")
    if cfg.lo_scan_e_l:
        lo_path = manifest.path(LO_RECORD)
        lo_rows = records.stream_record(cfg, lo_path, kind="lo_scan")
        print(f"wrote {lo_path}: {len(cfg.lo_scan_e_l)} LO strengths x 2 phases")
        rows += lo_rows
    print(f"seed={cfg.seed} total_rows={rows}")
    return EXIT_OK


def _read_estimates(path: str, kind: str):
    record = records.read_record(path)
    if record.kind != kind:
        raise DataError(f"{path} holds a {record.kind} record, expected {kind}")
    return scan_estimates(kind, record.config, record.segments)


def cmd_analyze(manifest: RunManifest) -> int:
    phase_analysis = analyze_phase_estimates(
        _read_estimates(manifest.path(PHASE_RECORD), "phase_scan")
    )

    lo_analysis = None
    lo_path = manifest.path(LO_RECORD)
    if os.path.exists(lo_path):
        lo_analysis = analyze_lo_estimates(_read_estimates(lo_path, "lo_scan"))

    if manifest.report_format == "structured":
        doc = {
            "fit": reports.fit_report_dict(phase_analysis),
            "phase_table": reports.phase_table_rows(phase_analysis),
        }
        if lo_analysis is not None:
            doc["lo_table"] = reports.lo_table_rows(lo_analysis)
        _write(manifest.path("analyze_report.json"), json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(manifest.path("analyze_report.json"))
    else:
        _write(manifest.path("fit_report.txt"), reports.fit_report_text(phase_analysis))
        _write(manifest.path("phase_table.txt"), reports.phase_table_text(phase_analysis))
        print(manifest.path("fit_report.txt"))
        print(manifest.path("phase_table.txt"))
        if lo_analysis is not None:
            _write(manifest.path("lo_table.txt"), reports.lo_table_text(lo_analysis))
            print(manifest.path("lo_table.txt"))
    payload = {
        "config": config_mod.config_to_flat(phase_analysis.estimates.config),
        "method": phase_analysis.separation.method,
        **phase_analysis.separation.to_dict(),
        "drift_error": phase_analysis.drift,
        "phis": phase_analysis.estimates.phis.tolist(),
    }
    if lo_analysis is not None:
        payload["lo"] = lo_analysis.separation.to_dict()
    _write(manifest.path(SEPARATION_FILE), json.dumps(payload, sort_keys=True, indent=1) + "\n")
    print(manifest.path(SEPARATION_FILE))
    chi2_dof = phase_analysis.fit.chi2 / max(phase_analysis.fit.dof, 1)
    print(f"chi2/dof = {chi2_dof:.4f}")
    return EXIT_OK


def cmd_test(manifest: RunManifest) -> int:
    path = manifest.path(SEPARATION_FILE)
    if not os.path.exists(path):
        raise DataError(
            f"missing {path}; run `hccm analyze` first (the determinant test "
            "consumes the separated contributions)"
        )
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    cfg = config_mod.build_config(payload["config"])
    sep = SeparatedContributions.from_dict(payload)
    lo_sep = SeparatedContributions.from_dict(payload["lo"]) if "lo" in payload else None
    phis = np.array(payload["phis"], dtype=float)
    dets = det_scan(sep, cfg, phis)
    flags = squeezed_phases(cfg.signal.state(), phis)
    summary = classify_phase_range(dets, flags)
    lo_det = None
    if lo_sep is not None:
        lo_det = det_with_error(
            build_L(lo_sep, splitter_coefficients(cfg.splitter), lo_sep.phi_ref),
            threshold=cfg.sig_threshold,
        )
    result = PipelineResult(cfg, None, dets, flags, summary, lo_det=lo_det)  # no phase analysis
    if manifest.report_format == "structured":
        doc = {"det_table": reports.det_table_rows(result), "summary": reports.det_summary_dict(result)}
        _write(manifest.path("det_report.json"), json.dumps(doc, sort_keys=True, indent=1) + "\n")
        print(manifest.path("det_report.json"))
    else:
        _write(manifest.path("det_table.txt"), reports.det_table_text(result))
        print(manifest.path("det_table.txt"))
    print(
        f"nonclassical fraction = {summary.fraction_nonclassical:.3f} "
        f"({summary.n_nonclassical}/{summary.n_total} phases)"
    )
    if lo_det is not None:
        print(
            f"LO-scan point at phi={lo_det.phi:.4f}: det = {lo_det.det:.4e} "
            f"({lo_det.significance:.1f} sigma, {lo_det.verdict})"
        )
    return EXIT_OK


def cmd_reproduce_paper(manifest: RunManifest) -> int:
    cfg = manifest.resolve_config(default_preset="paper")
    manifest.ensure_out_dir()
    result = run_pipeline(cfg)
    if manifest.report_format == "structured":
        _write(manifest.path("report.json"), reports.structured_report(result))
        print(manifest.path("report.json"))
    else:
        _write(manifest.path("fit_report.txt"), reports.fit_report_text(result.phase))
        _write(manifest.path("phase_table.txt"), reports.phase_table_text(result.phase))
        _write(manifest.path("det_table.txt"), reports.det_table_text(result))
        if result.lo is not None:
            _write(manifest.path("lo_table.txt"), reports.lo_table_text(result.lo))
        for name in ("fit_report.txt", "phase_table.txt", "det_table.txt", "lo_table.txt"):
            print(manifest.path(name))
    chi2_dof = result.phase.fit.chi2 / max(result.phase.fit.dof, 1)
    print(f"chi2/dof = {chi2_dof:.4f}")
    print(
        f"nonclassical fraction = {result.summary.fraction_nonclassical:.3f}; "
        f"extends outside squeezed interval: {result.summary.outside_squeezed}"
    )
    if result.lo_det is not None:
        print(
            f"LO-scan point: det = {result.lo_det.det:.4e} "
            f"({result.lo_det.significance:.1f} sigma, {result.lo_det.verdict})"
        )
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "test": cmd_test,
    "reproduce-paper": cmd_reproduce_paper,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    manifest = RunManifest.from_args(args)
    try:
        return _COMMANDS[manifest.command](manifest)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (AnomalousTermInaccessibleError, InsufficientDataError, DegenerateDesignError) as exc:
        print(f"test precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
