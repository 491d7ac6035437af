"""Deterministic text and JSON report rendering.

Every report exists in two equivalent forms: a plain-text table with
``# key=value`` header lines, and a structured JSON document mirroring the
same content.  analyze_files, det_files and pipeline_files (both stages, one
merged JSON document) map each stage's file names to their text.  Rendering is
purely a function of the inputs, so identical configs and seeds give
byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import astuple

import numpy as np

from .analysis import drift_error, lo_design
from .nonclassicality import SIG_THRESHOLD, verdicts
from .pipeline import DetAnalysis, LoScanAnalysis, PhaseScanAnalysis, PipelineResult

STRUCTURED = "structured"  # the JSON report format; any other is text


def _fmt(x: float) -> str:
    return format(float(x), ".9e")


def _table_text(header: list, rows: list, footer=()) -> str:
    """Header lines, a columns line naming the rows' keys, one line per row."""
    lines = [*header, "# columns=" + ",".join(rows[0])]
    for row in rows:
        lines.append(" ".join(str(v) if isinstance(v, (str, bool)) else _fmt(v) for v in row.values()))
    return "\n".join([*lines, *footer]) + "\n"


def fit_report_dict(phase: PhaseScanAnalysis) -> dict:
    fit, offset = phase.fit, phase.estimates.blocked_signal
    names = ["a0", "a1", "b1", "a2", "b2"]
    return {
        "coefficients": {n: float(c) for n, c in zip(names, fit.coeffs)},
        "stderr": {n: float(np.sqrt(fit.cov[i, i])) for i, n in enumerate(names)},
        "covariance": [[float(v) for v in row] for row in fit.cov],
        "chi2": float(fit.chi2),
        "dof": int(fit.dof),
        "chi2_per_dof": float(fit.chi2 / fit.dof),
        "c_block": {
            "value": phase.c_block.value,
            "stderr": phase.c_block.stderr,
            "n": phase.c_block.n,
        },
        "drift_error": float(drift_error(*phase.estimates.blocked_lo)),
        "offset": {"value": offset.value, "stderr": offset.stderr},
    }


def fit_report_text(phase: PhaseScanAnalysis) -> str:
    d = fit_report_dict(phase)
    lines = ["# fit report (weighted least squares, trigonometric degree 2)"]
    for name in ("a0", "a1", "b1", "a2", "b2"):
        lines.append(f"{name} = {_fmt(d['coefficients'][name])} +- {_fmt(d['stderr'][name])}")
    lines.append(f"chi2 = {_fmt(d['chi2'])}")
    lines.append(f"dof = {d['dof']}")
    lines.append(f"chi2_per_dof = {_fmt(d['chi2_per_dof'])}")
    lines.append(f"c_block = {_fmt(d['c_block']['value'])} +- {_fmt(d['c_block']['stderr'])}")
    lines.append(f"drift_error = {_fmt(d['drift_error'])}")
    lines.append(f"offset = {_fmt(d['offset']['value'])} +- {_fmt(d['offset']['stderr'])}")
    for i in range(5):
        for j in range(5):
            lines.append(f"cov.{i}.{j} = {_fmt(d['covariance'][i][j])}")
    return "\n".join(lines) + "\n"


def phase_table_rows(phase: PhaseScanAnalysis):
    phis = phase.estimates.phis
    values, _ = phase.separation.contributions_at(phis)
    columns = (phis, phase.corrected, phase.estimates.stderr, phase.fit.predict(phis), *values.T)
    keys = ("phase_rad", "C", "stderr", "C_fit", "C0", "C1", "C2")
    return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]


def phase_table_text(phase: PhaseScanAnalysis) -> str:
    return _table_text(["# per-phase correlation table (offset-corrected)"], phase_table_rows(phase))


def lo_table_rows(lo: LoScanAnalysis):
    e_values, stderr = lo.estimates.e_values, lo.estimates.stderr
    # the separation's model on its own design: rows at phi, then at phi + pi
    fit = (lo_design(e_values) @ lo.separation.params).reshape(2, -1)
    columns = (e_values, lo.corrected[0], stderr[0], lo.corrected[1], stderr[1], *fit)
    keys = ("e_l", "C_phi", "stderr_phi", "C_phi_pi", "stderr_phi_pi", "fit_phi", "fit_phi_pi")
    return [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))]


def lo_table_text(lo: LoScanAnalysis) -> str:
    header = [
        "# LO-strength scan table (offset-corrected)",
        f"# phi={lo.estimates.phi!r}",
        f"# e_ref={float(np.max(lo.estimates.e_values))!r}",
    ]
    return _table_text(header, lo_table_rows(lo))


# a determinant result's columns after its phase, in the order of DetResult's fields
_DET_KEYS = ("detL", "sigma", "significance", "verdict")


def det_table_rows(result: DetAnalysis):
    columns = [c.tolist() for c in (result.phis, result.det, result.sigma, result.significance)]
    rows = zip(*columns, verdicts(result.nonclassical), result.squeezed_flags.tolist())
    return [dict(zip(("phase_rad", *_DET_KEYS, "squeezed_flag"), row)) for row in rows]


def det_summary_dict(result: DetAnalysis) -> dict:
    s = result.summary
    out = {
        "fraction_nonclassical": s.fraction_nonclassical,
        "n_nonclassical": s.n_nonclassical,
        "n_total": s.n_total,
        "nonclassical_intervals": [[float(a), float(b)] for a, b in s.intervals],
        "extends_outside_squeezed": s.outside_squeezed,
        "threshold_sigma": SIG_THRESHOLD,
    }
    if result.lo_det is not None:
        out["lo_scan_point"] = dict(zip(("phi", *_DET_KEYS), astuple(result.lo_det)))
    return out


def det_table_text(result: DetAnalysis) -> str:
    summary = det_summary_dict(result)
    footer = [f"# {k}={json.dumps(summary[k], sort_keys=True)}" for k in sorted(summary)]
    return _table_text(["# determinant test table"], det_table_rows(result), ["# summary", *footer])


def _dumps(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _analyze_document(phase: PhaseScanAnalysis, lo: LoScanAnalysis | None) -> dict:
    doc = {"fit": fit_report_dict(phase), "phase_table": phase_table_rows(phase)}
    if lo is not None:
        doc["lo_table"] = lo_table_rows(lo)
    return doc


def _det_document(result: DetAnalysis) -> dict:
    return {"det_table": det_table_rows(result), "summary": det_summary_dict(result)}


def structured_report(result: PipelineResult) -> str:
    return _dumps({**_analyze_document(result.phase, result.lo), **_det_document(result)})


def analyze_files(phase: PhaseScanAnalysis, lo: LoScanAnalysis | None, report_format: str) -> dict:
    """The analyze stage's report files."""
    if report_format == STRUCTURED:
        return {"analyze_report.json": _dumps(_analyze_document(phase, lo))}
    files = {"fit_report.txt": fit_report_text(phase), "phase_table.txt": phase_table_text(phase)}
    if lo is not None:
        files["lo_table.txt"] = lo_table_text(lo)
    return files


def det_files(result: DetAnalysis, report_format: str) -> dict:
    """The determinant-test stage's report files."""
    if report_format == STRUCTURED:
        return {"det_report.json": _dumps(_det_document(result))}
    return {"det_table.txt": det_table_text(result)}


def pipeline_files(result: PipelineResult, report_format: str) -> dict:
    """Both stages' report files; in structured form, one merged report.json."""
    if report_format == STRUCTURED:
        return {"report.json": structured_report(result)}
    return {**analyze_files(result.phase, result.lo, report_format), **det_files(result, report_format)}
