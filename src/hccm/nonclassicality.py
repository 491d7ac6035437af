"""Determinant-based test for anomalous quantum correlations.

From the separated contributions one builds a 2x2 matrix whose determinant is
non-negative for every classically correlated field, independent of detector
efficiencies, gains, and the LO strength.  A significantly negative
determinant certifies nonclassicality without any quantum assumptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import SeparatedContributions
from .errors import AnomalousTermInaccessibleError
from .gaussian import GaussianState, normal_ordered_signal_moments, quadrature_variance
from .splitter import SplitterCoefficients

VERDICT_NONCLASSICAL = "nonclassical"
VERDICT_CLASSICAL = "classical-consistent"

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class LMatrix:
    """Measured moment matrix [[C0/t0, C1/t1], [C1/t1, C2/t2]] at one phase,
    with the covariance of the underlying contribution triple."""

    phi: float
    matrix: np.ndarray
    c_cov: np.ndarray
    coeffs: SplitterCoefficients


@dataclass(frozen=True)
class DetResult:
    """Determinant of the L matrix with first-order error and verdict."""

    phi: float
    det: float
    sigma: float
    significance: float
    verdict: str


@dataclass(frozen=True)
class PhaseRangeSummary:
    """Aggregate of the per-phase verdicts over a scan."""

    fraction_nonclassical: float
    intervals: tuple
    n_nonclassical: int
    n_total: int
    outside_squeezed: bool | None


def build_L(
    sep: SeparatedContributions, coeffs: SplitterCoefficients, phi: float
) -> LMatrix:
    """Assemble the measured moment matrix from the separated contributions."""
    if coeffs.is_balanced:
        raise AnomalousTermInaccessibleError(
            "balanced splitter: the mixed field-intensity term cancels (t1 = 0); "
            "use an unbalanced intensity partition"
        )
    values, cov = sep.contributions_at(phi)
    c0, c1, c2 = values
    matrix = np.array(
        [
            [c0 / coeffs.t0, c1 / coeffs.t1],
            [c1 / coeffs.t1, c2 / coeffs.t2],
        ]
    )
    return LMatrix(phi=float(phi), matrix=matrix, c_cov=cov, coeffs=coeffs)


def det_with_error(lmat: LMatrix, threshold: float = 3.0) -> DetResult:
    """Determinant with first-order (delta-method) error propagation.

    The verdict is nonclassical iff the determinant is negative by at least
    `threshold` standard deviations.  A non-finite sigma (a NaN or infinite
    variance) measures nothing: its significance is NaN and its verdict
    classical-consistent.
    """
    m = lmat.matrix
    det = float(m[0, 0] * m[1, 1] - m[0, 1] ** 2)
    jac = np.array(
        [
            m[1, 1] / lmat.coeffs.t0,
            -2.0 * m[0, 1] / lmat.coeffs.t1,
            m[0, 0] / lmat.coeffs.t2,
        ]
    )
    var = float(jac @ lmat.c_cov @ jac)
    sigma = float(np.sqrt(max(var, 0.0)))
    if not math.isfinite(sigma):
        significance = math.nan
    elif det < 0:
        significance = -det / sigma if sigma > 0 else np.inf
    else:
        significance = 0.0
    verdict = (
        VERDICT_NONCLASSICAL
        if det < 0 and significance >= threshold
        else VERDICT_CLASSICAL
    )
    return DetResult(
        phi=lmat.phi, det=det, sigma=sigma, significance=float(significance), verdict=verdict
    )


def classify_phase_range(results, squeezed=None) -> PhaseRangeSummary:
    """Summarize the per-phase determinant verdicts.

    squeezed, when given, flags per phase whether the analytic signal state is
    squeezed there (field variance below vacuum); the summary then reports
    whether nonclassicality extends beyond the squeezed interval.
    """
    results = list(results)
    if not results:
        raise ValueError("results must be non-empty")
    flags = np.array([r.verdict == VERDICT_NONCLASSICAL for r in results])
    phis = np.array([r.phi for r in results])
    order = np.argsort(phis)
    flags_o, phis_o = flags[order], phis[order]
    intervals = _runs_to_intervals(phis_o, flags_o)
    outside = None
    if squeezed is not None:
        sq = np.asarray(squeezed, dtype=bool)
        if sq.shape != flags.shape:
            raise ValueError("squeezed flags must match the number of results")
        outside = bool(np.any(flags & ~sq))
    return PhaseRangeSummary(
        fraction_nonclassical=float(flags.mean()),
        intervals=tuple(intervals),
        n_nonclassical=int(flags.sum()),
        n_total=int(flags.size),
        outside_squeezed=outside,
    )


def _runs_to_intervals(phis: np.ndarray, flags: np.ndarray):
    intervals = []
    start = None
    for phi, on in zip(phis, flags):
        if on and start is None:
            start = phi
        elif not on and start is not None:
            intervals.append((float(start), float(prev)))
            start = None
        prev = phi
    if start is not None:
        intervals.append((float(start), float(phis[-1])))
    # merge a wrap-around pair (scan is periodic in phase)
    if len(intervals) >= 2 and flags[0] and flags[-1] and intervals[0][0] == phis[0]:
        first, last = intervals[0], intervals[-1]
        intervals = intervals[1:-1] + [(last[0], first[1])]
    return intervals


def squeezed_phases(state: GaussianState, phis) -> np.ndarray:
    """Flags per phase whether the field variance is below vacuum."""
    return np.array([quadrature_variance(state, p) < 1.0 for p in np.atleast_1d(phis)])


def quantum_condition_analytic(state: GaussianState, phi: float):
    """Analytic check of the anomalous-correlation condition at one phase.

    Returns (lhs, rhs, violated) with lhs the squared mixed moment and rhs the
    product of intensity and field variances; violated means lhs > rhs, which
    no classical field can achieve.
    """
    m = normal_ordered_signal_moments(state, phi)
    lhs = m.anom**2
    rhs = m.var_i * m.var_e
    return float(lhs), float(rhs), bool(lhs > rhs)


def moment_matrix_det(state: GaussianState, phi: float) -> float:
    """Analytic determinant of the normal-ordered moment matrix."""
    m = normal_ordered_signal_moments(state, phi)
    return float(m.var_i * m.var_e - m.anom**2)
