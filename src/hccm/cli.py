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
import contextlib
import json
import os
import sys

import numpy as np

from . import config as config_mod
from . import records, reports
from .analysis import SeparatedContributions
from .detector import scan_estimates
from .errors import ConfigError, DataError, PreconditionError
from .pipeline import (
    DetAnalysis,
    PhaseScanAnalysis,
    analyze_lo_estimates,
    analyze_phase_estimates,
    determinant_test,
    run_pipeline,
)

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
        if name != "simulate":  # the commands that write reports
            p.add_argument(
                "--format", choices=("text", "structured"), default="text", help="report format"
            )
    return parser


def _config(args, default_preset: str):
    """The config of --config or --preset (default_preset when neither gives
    one) with --seed applied; creates the --out directory."""
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        try:
            cfg = config_mod.load_config(args.config)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read --config: {exc}") from exc
    else:
        cfg = config_mod.preset_config(args.preset or default_preset)
    if args.seed is not None:
        cfg = cfg.with_seed(args.seed)  # with_seed rejects a negative seed
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise DataError(f"output directory not writable: {exc}") from exc
    return cfg


def _named_config(args, echo: dict, source: str):
    """The config that --config, --preset and --seed name (resolved as simulate does),
    or None when none is given.  analyze and test read their config from source, whose
    config echo is echo: the named config's echo must equal it, string for string."""
    if not (args.config or args.preset or args.seed is not None):
        return None
    cfg = _config(args, "paper-quick")
    named = config_mod.config_to_flat(cfg)
    actual = {k: v for k, v in echo.items() if k not in config_mod.LEGACY_KEYS}
    if keys := ", ".join(sorted(k for k in named | actual if named.get(k) != actual.get(k))):
        raise ConfigError(f"--config/--preset/--seed name another config than {source}: {keys}")
    return cfg


def _write_files(out_dir: str, files: dict) -> None:
    """Write each {file name: text} into out_dir, printing its path.  Every file
    goes to its temporary file before any replaces its target, so a failed
    write leaves the earlier output set as it was."""
    paths = {os.path.join(out_dir, name): text for name, text in files.items()}
    with contextlib.ExitStack() as stack:
        for path, text in paths.items():
            stack.enter_context(records.atomic_open(path)).write(text.encode("utf-8"))
    print("\n".join(paths))


def _print_fit(phase: PhaseScanAnalysis) -> None:
    print(f"chi2/dof = {phase.fit.chi2 / phase.fit.dof:.4f}")


def _print_verdict(det: DetAnalysis) -> None:
    s = det.summary
    print(
        f"nonclassical fraction = {s.fraction_nonclassical:.3f} "
        f"({s.n_nonclassical}/{s.n_total} phases); "
        f"extends outside squeezed interval: {s.outside_squeezed}"
    )
    if det.lo_det is not None:
        d = det.lo_det
        print(
            f"LO-scan point at phi={d.phi:.4f}: det = {d.det:.4e} "
            f"({d.significance:.1f} sigma, {d.verdict})"
        )


def cmd_simulate(args) -> int:
    cfg = _config(args, default_preset="paper-quick")
    phase_path, lo_path = os.path.join(args.out, PHASE_RECORD), os.path.join(args.out, LO_RECORD)
    records.refuse_directories(phase_path, *([lo_path] if cfg.lo_scan_e_l else []))
    rows = records.stream_record(cfg, phase_path, kind="phase_scan")
    print(f"wrote {phase_path}: {len(cfg.phases)} phases x {cfg.samples_per_phase} samples")
    if cfg.lo_scan_e_l:
        lo_rows = records.stream_record(cfg, lo_path, kind="lo_scan")
        print(f"wrote {lo_path}: {len(cfg.lo_scan_e_l)} LO strengths x 2 phases")
        rows += lo_rows
    print(f"seed={cfg.seed} total_rows={rows}")
    return EXIT_OK


def _estimates(record: records.Record, kind: str):
    if record.kind != kind:
        raise DataError(f"{record.path} holds a {record.kind} record, expected {kind}")
    return scan_estimates(kind, record.config, record.segments)


def cmd_analyze(args) -> int:
    phase_path, lo_path = os.path.join(args.out, PHASE_RECORD), os.path.join(args.out, LO_RECORD)
    phase_record = records.read_record(phase_path)
    phase_est = _estimates(phase_record, "phase_scan")
    echo = config_mod.config_to_flat(phase_record.config)
    _named_config(args, echo, phase_path)
    lo_record = records.read_record(lo_path, like=phase_record) if os.path.exists(lo_path) else None
    lo_est = None if lo_record is None else _estimates(lo_record, "lo_scan")
    phase = analyze_phase_estimates(phase_est)
    lo = None if lo_est is None else analyze_lo_estimates(lo_est)

    payload = {
        "config": echo,
        "phis": phase.estimates.phis.tolist(),
        "phase": phase.separation.to_dict(),
    }
    if lo is not None:
        payload["lo"] = lo.separation.to_dict()
    separation = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    files = reports.analyze_files(phase, lo, args.format)
    _write_files(args.out, {**files, SEPARATION_FILE: separation})
    _print_fit(phase)
    return EXIT_OK


def _read_separation(args):
    """The config, separations and phase grid that analyze left in --out."""
    path = os.path.join(args.out, SEPARATION_FILE)
    if not os.path.exists(path):
        raise DataError(
            f"missing {path}; run `hccm analyze` first (the determinant test "
            "consumes the separated contributions)"
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        echo = payload["config"]
        cfg = _named_config(args, echo, path) or config_mod.build_config(echo)
        sep = SeparatedContributions.from_dict(payload["phase"])
        lo_sep = SeparatedContributions.from_dict(payload["lo"]) if "lo" in payload else None
        if sep.phi_ref is not None or (lo_sep is not None and lo_sep.phi_ref is None):
            raise ValueError("phi_ref belongs to lo, and only to lo")
        phis = np.array(payload["phis"], dtype=float)
        if phis.ndim != 1 or phis.size == 0 or not np.all(np.isfinite(phis)):
            raise ValueError("phis must be a non-empty list of finite phases")
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"malformed {path}: {type(exc).__name__}: {exc}") from exc
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return cfg, sep, phis, lo_sep


def cmd_test(args) -> int:
    det = determinant_test(*_read_separation(args))
    _write_files(args.out, reports.det_files(det, args.format))
    _print_verdict(det)
    return EXIT_OK


def cmd_reproduce_paper(args) -> int:
    cfg = _config(args, default_preset="paper")
    result = run_pipeline(cfg)
    _write_files(args.out, reports.pipeline_files(result, args.format))
    _print_fit(result.phase)
    _print_verdict(result)
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "analyze": cmd_analyze,
    "test": cmd_test,
    "reproduce-paper": cmd_reproduce_paper,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except PreconditionError as exc:
        print(f"test precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
