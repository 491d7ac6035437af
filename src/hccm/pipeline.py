"""End-to-end orchestration in three stages: analyze (offset correction, fit,
separation), determinant test, then reports (``hccm.reports``).  run_pipeline
and every CLI command call the same stage functions.

The blocked-signal offset (LO classical noise plus correlated dark noise) is
subtracted from every unblocked correlation before fitting; the subtraction is
a common shift, so it moves only the constant parameter (a0 or the by-LO C0),
whose variance picks up the offset variance.  The blocked-LO result is used as
measured; its uncertainty carries the drift error (difference of the two
blocked runs) in quadrature.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    CorrelationEstimate,
    SeparatedContributions,
    TrigFit,
    drift_error,
    fit_trig_poly,
    separate_by_lo,
    separate_by_phase,
)
from .detector import ExperimentConfig, LoScanEstimates, PhaseScanEstimates, simulate_estimates
from .nonclassicality import (
    DetResult,
    PhaseRangeSummary,
    build_L,
    classify_phase_range,
    det_rows,
    det_with_error,
    squeezed_phases,
)
from .splitter import splitter_coefficients


@dataclass(frozen=True)
class PhaseScanAnalysis:
    """The phase scan offset-corrected (corrected: (P,) values), fitted and separated.
    The stderr, the offset (blocked_signal) and both blocked-LO runs, whose difference
    is the drift error, are the estimates'; c_block is blocked-LO run a."""

    estimates: PhaseScanEstimates
    corrected: np.ndarray
    c_block: CorrelationEstimate
    fit: TrigFit
    separation: SeparatedContributions


@dataclass(frozen=True)
class LoScanAnalysis:
    """The LO scan offset-corrected (corrected: (2, J) values, as the estimates'; the
    offset is their blocked_signal) and separated at the largest E_L of the estimates."""

    estimates: LoScanEstimates
    corrected: np.ndarray
    separation: SeparatedContributions


@dataclass(frozen=True)
class DetAnalysis:
    """The determinant test over a phase scan, one entry per phase of each (P,) array,
    and at the LO-scan point."""

    phis: np.ndarray
    det: np.ndarray
    sigma: np.ndarray
    significance: np.ndarray
    nonclassical: np.ndarray
    squeezed_flags: np.ndarray
    summary: PhaseRangeSummary
    lo_det: DetResult | None = None

    @functools.cached_property
    def det_results(self) -> tuple:
        """The per-phase arrays as one DetResult per phase, built on first access."""
        return det_rows(self.phis, self.det, self.sigma, self.significance, self.nonclassical)


@dataclass(frozen=True, kw_only=True)
class PipelineResult(DetAnalysis):
    """The determinant test with the analyses it was computed from."""

    phase: PhaseScanAnalysis
    lo: LoScanAnalysis | None = None


def _offset_corrected(est, solve, grid, *args):
    """The estimates' values less the blocked-signal offset, and solve(grid, those
    values, stderr, *args) with the offset variance added to parameter 0 (a0 or
    C0): the shift is common to every design row, so it moves parameter 0 alone."""
    offset = est.blocked_signal
    corrected = est.values - offset.value
    result = solve(grid, corrected, est.stderr, *args)
    cov = result.cov.copy()
    cov[0, 0] += offset.stderr**2
    return corrected, replace(result, cov=cov)


def analyze_phase_estimates(est: PhaseScanEstimates) -> PhaseScanAnalysis:
    """Offset-correct, fit the trigonometric polynomial, and separate."""
    corrected, fit = _offset_corrected(est, fit_trig_poly, est.phis)
    run_a, run_b = est.blocked_lo
    sep = separate_by_phase(fit, run_a, drift=drift_error(run_a, run_b))
    return PhaseScanAnalysis(est, corrected, run_a, fit, sep)


def analyze_lo_estimates(est: LoScanEstimates) -> LoScanAnalysis:
    """Offset-correct the LO scan and separate by LO-strength scaling."""
    corrected, sep = _offset_corrected(est, separate_by_lo, est.e_values, est.phi)
    return LoScanAnalysis(est, corrected, sep)


def determinant_test(cfg: ExperimentConfig, sep, phis, lo_sep=None) -> DetAnalysis:
    """The classical determinant inequality at every scanned phase, and at
    the LO-scan phase when the LO-strength separation is given."""
    coeffs = splitter_coefficients(cfg.splitter)
    phis = np.asarray(phis, dtype=float)
    det, sigma, significance, nonclassical = det_with_error(*build_L(sep, coeffs, phis), coeffs)
    flags = squeezed_phases(cfg.signal, phis)
    lo_det = None
    if lo_sep is not None:
        lo_phi = np.array([lo_sep.phi_ref])
        [lo_det] = det_rows(lo_phi, *det_with_error(*build_L(lo_sep, coeffs, lo_phi), coeffs))
    summary = classify_phase_range(phis, nonclassical, flags)
    return DetAnalysis(phis, det, sigma, significance, nonclassical, flags, summary, lo_det)


def run_pipeline(cfg: ExperimentConfig, with_lo_scan: bool | None = None) -> PipelineResult:
    """Simulate and analyze a full run (streaming; full-scale friendly).

    The LO-strength scan runs when the config carries a grid (or when forced
    by with_lo_scan).
    """
    est = simulate_estimates(cfg, "phase_scan")
    phase = analyze_phase_estimates(est)
    do_lo = bool(cfg.lo_scan_e_l) if with_lo_scan is None else with_lo_scan
    lo = analyze_lo_estimates(simulate_estimates(cfg, "lo_scan")) if do_lo else None
    det = determinant_test(cfg, phase.separation, est.phis, None if lo is None else lo.separation)
    return PipelineResult(**vars(det), phase=phase, lo=lo)
