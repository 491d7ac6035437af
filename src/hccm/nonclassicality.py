"""Determinant-based test for anomalous quantum correlations.

From the separated contributions one builds a 2x2 matrix whose determinant is
non-negative for every classically correlated field, independent of detector
efficiencies, gains, and the LO strength.  A significantly negative
determinant certifies nonclassicality without any quantum assumptions.

Phase axis: build_L, det_with_error and squeezed_phases follow phi, numpy-style.
A scalar phi gives one matrix, DetResult and flag; a (P,) array of phases gives
a (P, ...) stack, a tuple of P DetResults and P flags, all in one array pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import SeparatedContributions
from .detector import SignalParams
from .errors import AnomalousTermInaccessibleError
from .gaussian import GaussianState, normal_ordered_signal_moments
from .splitter import SplitterCoefficients

VERDICT_NONCLASSICAL = "nonclassical"
VERDICT_CLASSICAL = "classical-consistent"
SIG_THRESHOLD = 3.0  # standard deviations below zero that certify nonclassicality


@dataclass(frozen=True)
class LMatrix:
    """Measured moment matrix [[C0/t0, C1/t1], [C1/t1, C2/t2]] with the
    covariance of the contribution triple, at a phase or a (P,) array of them."""

    phi: np.ndarray
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


def build_L(sep: SeparatedContributions, coeffs: SplitterCoefficients, phi) -> LMatrix:
    """Assemble the measured moment matrix from the separated contributions."""
    if coeffs.is_balanced:
        raise AnomalousTermInaccessibleError(
            "balanced splitter: the mixed field-intensity term cancels (t1 = 0); "
            "use an unbalanced intensity partition"
        )
    values, cov = sep.contributions_at(phi)
    scaled = values / np.array([coeffs.t0, coeffs.t1, coeffs.t2])
    matrix = scaled[..., [0, 1, 1, 2]].reshape(values.shape[:-1] + (2, 2))
    return LMatrix(np.asarray(phi, dtype=float), matrix, cov, coeffs)


def det_with_error(lmat: LMatrix):
    """Determinant with first-order (delta-method) error propagation: one
    DetResult for an LMatrix at one phase, a tuple of them for P phases.

    The verdict is nonclassical iff the determinant is negative by at least
    SIG_THRESHOLD standard deviations.  A non-finite sigma (a NaN or infinite
    variance) measures nothing: its significance is NaN and its verdict
    classical-consistent.
    """
    m, coeffs = lmat.matrix.reshape(-1, 2, 2), lmat.coeffs
    m00, m01, m11 = m[:, 0, 0], m[:, 0, 1], m[:, 1, 1]
    # a float's x ** 2 is libm pow, as for a NumPy scalar; array x * x can move the last bit
    det = m00 * m11 - np.array([x**2 for x in m01.tolist()])
    # the variance is formed on jac / 2**kj and c_cov / 4**kc, each of order 1, exact in
    # binary: it neither under- nor overflows for any gains or any size of c_cov beside L
    jac = np.stack([m11 / coeffs.t0, -2.0 * m01 / coeffs.t1, m00 / coeffs.t2], axis=-1)
    kj = math.frexp(float(np.abs(jac).max(initial=0.0)))[1]
    kc = math.frexp(float(np.abs(lmat.c_cov).max(initial=0.0)))[1] // 2
    jac = np.ldexp(jac, -kj)
    with np.errstate(invalid="ignore", divide="ignore"):
        # batched (1, 3) @ (3, 3) @ (3, 1): the same products and sums as a 1-D jac @ cov @ jac
        c_cov = np.ldexp(lmat.c_cov.reshape(-1, 3, 3), -2 * kc)
        var = ((jac[:, None, :] @ c_cov) @ jac[:, :, None])[:, 0, 0]
        sigma = np.ldexp(np.sqrt(np.where(var < 0, 0.0, var)), kj + kc)
        strength = np.where(det < 0, np.where(sigma > 0, -det / sigma, np.inf), 0.0)
        significance = np.where(np.isfinite(sigma), strength, np.nan)
    nonclassical = (det < 0) & (significance >= SIG_THRESHOLD)
    verdicts = np.where(nonclassical, VERDICT_NONCLASSICAL, VERDICT_CLASSICAL)
    columns = (np.atleast_1d(lmat.phi), det, sigma, significance, verdicts)
    results = tuple(DetResult(*row) for row in zip(*(c.tolist() for c in columns)))
    return results if np.ndim(lmat.phi) else results[0]


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


def squeezed_phases(signal: SignalParams, phis) -> np.ndarray:
    """Flags per phase whether the signal's field variance is below vacuum:
    V(phi) = (v_min + v_max)/2 + (v_min - v_max)/2 cos 2(phi - angle) < 1."""
    mid, half = (signal.v_min + signal.v_max) / 2.0, (signal.v_min - signal.v_max) / 2.0
    return mid + half * np.cos(2.0 * (np.asarray(phis, dtype=float) - signal.angle)) < 1.0


def moment_matrix_det(state: GaussianState, phi: float) -> float:
    """Analytic determinant var_I var_E - anom^2 of the normal-ordered moment
    matrix at one phase; no classical field makes it negative."""
    m = normal_ordered_signal_moments(state, phi)
    return float(m.var_i * m.var_e - m.anom**2)
