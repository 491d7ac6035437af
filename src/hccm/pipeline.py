"""End-to-end orchestration: scan -> offset correction -> fit -> separation ->
determinant test.

The blocked-signal offset (LO classical noise plus correlated dark noise) is
subtracted from every unblocked correlation before fitting; the subtraction is
a common shift, so it moves only the constant Fourier coefficient, whose
variance picks up the offset variance.  The blocked-LO result is used as
measured; its uncertainty carries the drift error (difference of the two
blocked runs) in quadrature.
"""

from __future__ import annotations

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
    det_with_error,
    squeezed_phases,
)
from .splitter import splitter_coefficients


@dataclass(frozen=True)
class PhaseScanAnalysis:
    estimates: PhaseScanEstimates
    offset: CorrelationEstimate
    corrected: tuple
    c_block: CorrelationEstimate
    drift: float
    fit: TrigFit
    separation: SeparatedContributions


@dataclass(frozen=True)
class LoScanAnalysis:
    estimates: LoScanEstimates
    offset: CorrelationEstimate
    corrected_phi: tuple
    corrected_phi_pi: tuple
    separation: SeparatedContributions
    e_ref: float


@dataclass(frozen=True)
class PipelineResult:
    config: ExperimentConfig
    phase: PhaseScanAnalysis
    det_results: tuple
    squeezed_flags: np.ndarray
    summary: PhaseRangeSummary
    lo: LoScanAnalysis | None = None
    lo_det: DetResult | None = None


def _subtract_offset(est: CorrelationEstimate, offset: CorrelationEstimate) -> CorrelationEstimate:
    # only the offset value is removed per point; its variance is a common-mode
    # term and is added once to the constant coefficient after fitting
    return CorrelationEstimate(value=est.value - offset.value, stderr=est.stderr, n=est.n)


def analyze_phase_estimates(est: PhaseScanEstimates) -> PhaseScanAnalysis:
    """Offset-correct, fit the trigonometric polynomial, and separate."""
    offset = est.blocked_signal
    corrected = tuple(_subtract_offset(e, offset) for e in est.estimates)
    fit = fit_trig_poly(list(zip(est.phis, corrected)))
    fit = fit.shifted(0.0, offset.stderr**2)
    run_a, run_b = est.blocked_lo
    drift = drift_error(run_a, run_b)
    sep = separate_by_phase(fit, run_a, drift=drift)
    return PhaseScanAnalysis(est, offset, corrected, run_a, drift, fit, sep)


def analyze_lo_estimates(est: LoScanEstimates, e_ref: float | None = None) -> LoScanAnalysis:
    """Offset-correct the LO scan and separate by LO-strength scaling."""
    offset = est.blocked_signal
    corr_phi = tuple(_subtract_offset(e, offset) for e in est.at_phi)
    corr_pi = tuple(_subtract_offset(e, offset) for e in est.at_phi_pi)
    points = list(zip(est.e_values, corr_phi, corr_pi))
    sep = separate_by_lo(points, est.phi, e_ref=e_ref)
    ref_cov = sep.ref_cov.copy()
    ref_cov[0, 0] += offset.stderr**2
    sep = replace(sep, ref_cov=ref_cov, c0_sigma=float(np.sqrt(ref_cov[0, 0])))
    used_ref = e_ref if e_ref is not None else float(np.max(est.e_values))
    return LoScanAnalysis(est, offset, corr_phi, corr_pi, sep, used_ref)


def det_scan(sep: SeparatedContributions, cfg: ExperimentConfig, phis=None) -> tuple:
    """Determinant results over a phase grid."""
    coeffs = splitter_coefficients(cfg.splitter)
    grid = np.asarray(cfg.phases if phis is None else phis, dtype=float)
    return tuple(
        det_with_error(build_L(sep, coeffs, p), threshold=cfg.sig_threshold) for p in grid
    )


def run_pipeline(cfg: ExperimentConfig, with_lo_scan: bool | None = None) -> PipelineResult:
    """Simulate and analyze a full run (streaming; full-scale friendly).

    The LO-strength scan runs when the config carries a grid (or when forced
    by with_lo_scan).
    """
    est = simulate_estimates(cfg, "phase_scan")
    phase = analyze_phase_estimates(est)
    dets = det_scan(phase.separation, cfg, est.phis)
    flags = squeezed_phases(cfg.signal.state(), est.phis)
    summary = classify_phase_range(dets, flags)
    lo = lo_det = None
    do_lo = bool(cfg.lo_scan_e_l) if with_lo_scan is None else with_lo_scan
    if do_lo:
        lo = analyze_lo_estimates(simulate_estimates(cfg, "lo_scan"))
        coeffs = splitter_coefficients(cfg.splitter)
        lo_det = det_with_error(
            build_L(lo.separation, coeffs, cfg.lo_scan_phi), threshold=cfg.sig_threshold
        )
    return PipelineResult(cfg, phase, dets, flags, summary, lo, lo_det)
