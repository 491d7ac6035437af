"""Determinant-based test for anomalous quantum correlations.

From the separated contributions one builds a 2x2 matrix whose determinant is
non-negative for every classically correlated field, independent of detector
efficiencies, gains, and the LO strength.  A significantly negative
determinant certifies nonclassicality without any quantum assumptions.

Phase axis: build_L and det_with_error work on a (P,) array of phases and give
(P, ...) arrays, all phases in one array pass; a DetResult is one phase's row
of them (det_rows), for the LO-scan point and for callers that want rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import SeparatedContributions
from .errors import PreconditionError
from .splitter import COEFF_TOL, SplitterCoefficients

VERDICT_NONCLASSICAL = "nonclassical"
VERDICT_CLASSICAL = "classical-consistent"
SIG_THRESHOLD = 3.0  # standard deviations below zero that certify nonclassicality


@dataclass(frozen=True)
class DetResult:
    """One phase's determinant of the L matrix with first-order error and verdict."""

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
    outside_squeezed: bool


def build_L(sep: SeparatedContributions, coeffs: SplitterCoefficients, phis):
    """The measured moment matrices [[C0/t0, C1/t1], [C1/t1, C2/t2]] at P phases, a
    (P, 2, 2) stack, and the (P, 3, 3) covariances of their contribution triples.
    Refuses a balanced splitter (t1 = 0), one with t0 != 1, where t1 is not exact, and
    a matrix entry that overflows to inf or NaN, whose determinant would measure nothing."""
    if coeffs.is_balanced:
        raise PreconditionError(
            "balanced splitter: the mixed field-intensity term cancels (t1 = 0); "
            "use an unbalanced intensity partition"
        )
    if abs(coeffs.t0 - 1.0) > COEFF_TOL:
        raise PreconditionError(
            f"splitter with |T_S R_S| != |T_L R_L| (t0 = {coeffs.t0:.6g}): the order-1 "
            "coefficient t1 holds only for t0 = 1; use ts2 * rs2 = tl2 * rl2"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        values, cov = sep.contributions_at(np.reshape(phis, -1))
        scaled = values / np.array([coeffs.t0, coeffs.t1, coeffs.t2])
    if not np.isfinite(scaled).all():
        raise PreconditionError("the contributions overflow: the moment matrix is not finite")
    return scaled[:, [0, 1, 1, 2]].reshape(-1, 2, 2), cov


def det_with_error(matrix: np.ndarray, c_cov: np.ndarray, coeffs: SplitterCoefficients):
    """Determinants of build_L's (P, 2, 2) matrices with first-order (delta-method)
    errors from their (P, 3, 3) c_cov: the (P,) arrays det, sigma, significance and
    nonclassical.

    A phase is nonclassical iff its determinant is negative by at least
    SIG_THRESHOLD standard deviations.  A non-finite variance (NaN or infinite)
    measures nothing: its significance is NaN and it is not nonclassical.
    """
    m00, m01, m11 = matrix[:, 0, 0], matrix[:, 0, 1], matrix[:, 1, 1]
    # det and its variance are formed on L / 2**k, jac / 2**kj and c_cov / 4**kc, exact in
    # binary, so the significance and the verdict neither under- nor overflow for any size
    # of L or c_cov, even where det or sigma does.  k is a multiple of 200, so 0 for
    # 2**-100 <= max|L| < 2**100, where the square must see the entry itself: the last
    # bit of libm pow is not invariant under a power-of-two scale
    k = 200 * round(math.frexp(float(np.abs(matrix).max(initial=0.0)))[1] / 200)
    s00, s01, s11 = (np.ldexp(x, -k) for x in (m00, m01, m11))
    # a float's x ** 2 is libm pow, as for a NumPy scalar; array x * x can move the last bit
    det = s00 * s11 - np.array([x**2 for x in s01.tolist()])  # det L / 4**k
    jac = np.stack([m11 / coeffs.t0, -2.0 * m01 / coeffs.t1, m00 / coeffs.t2], axis=-1)
    kj = math.frexp(float(np.abs(jac).max(initial=0.0)))[1]
    kc = math.frexp(float(np.abs(c_cov).max(initial=0.0)))[1] // 2
    jac = np.ldexp(jac, -kj)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        # batched (1, 3) @ (3, 3) @ (3, 1): the same products and sums as a 1-D jac @ cov @ jac
        var = ((jac[:, None, :] @ np.ldexp(c_cov, -2 * kc)) @ jac[:, :, None])[:, 0, 0]
        sd = np.sqrt(np.where(var < 0, 0.0, var))  # sigma / 2**(kj + kc)
        ratio = np.where(sd > 0, np.ldexp(-det / sd, 2 * k - kj - kc), np.inf)
        significance = np.where(np.isfinite(sd), np.where(det < 0, ratio, 0.0), np.nan)
        nonclassical = (det < 0) & (significance >= SIG_THRESHOLD)
        return np.ldexp(det, 2 * k), np.ldexp(sd, kj + kc), significance, nonclassical


def verdicts(nonclassical) -> list:
    """The verdict string of each flag of det_with_error's nonclassical array."""
    return np.where(nonclassical, VERDICT_NONCLASSICAL, VERDICT_CLASSICAL).tolist()


def det_rows(phis, det, sigma, significance, nonclassical) -> tuple:
    """One DetResult per phase of det_with_error's arrays."""
    columns = (np.reshape(phis, -1).tolist(), det.tolist(), sigma.tolist(), significance.tolist())
    return tuple(DetResult(*row) for row in zip(*columns, verdicts(nonclassical)))


def classify_phase_range(phis, nonclassical, squeezed) -> PhaseRangeSummary:
    """Summarize the per-phase determinant verdicts: (P,) arrays of the phases, of
    their nonclassical flags and of their squeezed flags (squeezed_phases: the
    signal's field variance is below vacuum there).  The summary reports whether
    nonclassicality extends beyond the squeezed interval.  Raises ValueError for
    no phase, or for either flag array of another length than phis.
    """
    phis, flags = np.asarray(phis, dtype=float), np.asarray(nonclassical, dtype=bool)
    sq = np.asarray(squeezed, dtype=bool)
    if flags.size == 0 or flags.shape != phis.shape:
        raise ValueError("need one nonclassical flag per phase, for at least one phase")
    if sq.shape != flags.shape:
        raise ValueError("squeezed flags must match the phases")
    order = np.argsort(phis)
    phis_o, flags_o = phis[order], flags[order]
    # runs of nonclassical phases in phase order: edges +1 at a start, -1 past an end
    edges = np.diff(flags_o.astype(int), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1) - 1
    intervals = [(float(phis_o[a]), float(phis_o[b])) for a, b in zip(starts, ends)]
    if len(intervals) >= 2 and flags_o[0] and flags_o[-1]:
        # merge the runs at both ends: the scan is periodic in phase
        intervals = intervals[1:-1] + [(intervals[-1][0], intervals[0][1])]
    return PhaseRangeSummary(
        fraction_nonclassical=float(flags.mean()),
        intervals=tuple(intervals),
        n_nonclassical=int(flags.sum()),
        n_total=int(flags.size),
        outside_squeezed=bool(np.any(flags & ~sq)),
    )


def squeezed_phases(signal, phis) -> np.ndarray:
    """Flags per phase whether the field variance of signal (a detector.SignalParams)
    is below vacuum: V(phi) = (v_min + v_max)/2 + (v_min - v_max)/2 cos 2(phi - angle) < 1."""
    mid, half = (signal.v_min + signal.v_max) / 2.0, (signal.v_min - signal.v_max) / 2.0
    return mid + half * np.cos(2.0 * (np.asarray(phis, dtype=float) - signal.angle)) < 1.0


def moment_matrix_det(state, phi: float) -> float:
    """Analytic determinant var_I var_E - anom^2 of the normal-ordered moment
    matrix of state (a gaussian.GaussianState) at one phase; no classical field
    makes it negative."""
    from .gaussian import normal_ordered_signal_moments
    m = normal_ordered_signal_moments(state, phi)
    return float(m.var_i * m.var_e - m.anom**2)
