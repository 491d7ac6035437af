"""Correlation estimation, trigonometric regression, and moment separation.

The measured correlation over the LO phase is a second-degree trigonometric
polynomial; its Fourier coefficients together with the blocked-LO result
separate the three contributions.  Alternatively the contributions separate by
their scaling with the LO field strength.  Both are one weighted least-squares
fit, one design row per segment estimate, with exact error propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, InsufficientDataError, PreconditionError

DESIGN_COND_MAX = 1e8
# pairs per chunk of sampling and reduction, its two columns in cache; the samples depend on it
CHUNK_ROWS = 1 << 15

BY_PHASE = "by-phase"
BY_LO = "by-lo-strength"


@dataclass(frozen=True)
class CorrelationEstimate:
    """Sample mean of paired current products with its standard error."""

    value: float
    stderr: float
    n: int

    def __post_init__(self):
        if self.stderr < 0 or not math.isfinite(self.stderr):
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


def reduce_chunks(chunks) -> CorrelationEstimate:
    """Mean of the products c1*c2 of one segment's pairs and its standard error
    (sample std / sqrt(n)).  chunks yields the pairs as consecutive (k, 2) arrays of
    CHUNK_ROWS rows from the segment start (only the last may be shorter), so the
    estimate depends on the samples alone.  Each chunk is reduced in two passes while
    in cache, then merged with the update of Chan, Golub & LeVeque (1979).  Raises
    PreconditionError for a chunk whose products differ while their squared
    deviations all underflow to 0.0 (samples too small for a standard error)."""
    n, mean, m2, buffer = 0, 0.0, 0.0, None
    for pairs in chunks:
        k = len(pairs)
        if n % CHUNK_ROWS or k > CHUNK_ROWS:
            raise ValueError(f"chunks must hold {CHUNK_ROWS} pairs; only the last may be shorter")
        if buffer is None:  # the first chunk is the longest
            buffer = np.empty(k)
        products = np.multiply(pairs[:, 0], pairs[:, 1], out=buffer[:k])
        chunk_mean = float(products.sum()) / k
        products -= chunk_mean
        products *= products
        squares = float(products.sum())
        if squares == 0.0 and np.ptp(pairs[:, 0] * pairs[:, 1]) > 0.0:
            raise PreconditionError("sample products vary, but their squared deviations underflow")
        total, delta = n + k, chunk_mean - mean
        mean += delta * (k / total)
        m2 += squares + delta * delta * (n * k / total)
        n = total
    if n < 2:
        raise InsufficientDataError(f"need at least 2 sample pairs, got {n}")
    stderr = math.sqrt(m2 / (n - 1)) / math.sqrt(n)
    return CorrelationEstimate(value=mean, stderr=stderr, n=n)


def estimate_correlation(samples) -> CorrelationEstimate:
    """Same-time correlation of paired fluctuation samples.

    samples is an (N, 2) array-like of (c1, c2) pairs; returns the mean of the
    products and its standard error (reduce_chunks over CHUNK_ROWS slices).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) array of pairs, got shape {arr.shape}")
    return reduce_chunks(arr[at : at + CHUNK_ROWS] for at in range(0, len(arr), CHUNK_ROWS))


def drift_error(block_run_a: CorrelationEstimate, block_run_b: CorrelationEstimate) -> float:
    """Systematic drift estimate: difference of two subsequent blocked-LO runs."""
    return abs(block_run_a.value - block_run_b.value)


@dataclass(frozen=True)
class TrigFit:
    """Weighted least-squares fit on the basis {1, cos, sin, cos 2, sin 2}."""

    coeffs: np.ndarray  # (a0, a1, b1, a2, b2)
    cov: np.ndarray  # 5x5 parameter covariance
    chi2: float
    dof: int

    def predict(self, phi) -> np.ndarray:
        # one row product per phase: an array of phases gives the bits of one call per phase
        design = _design(np.atleast_1d(np.asarray(phi, dtype=float)))
        return (design[:, None, :] @ self.coeffs)[:, 0]


def _design(phi: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)]
    )


def _weights(stderr: np.ndarray) -> np.ndarray:
    variances = stderr**2
    if np.all(variances >= np.finfo(float).tiny):
        return 1.0 / variances
    if np.all(stderr == 0):
        return np.ones_like(variances)
    raise DegenerateDesignError(
        "per-point standard errors must be all positive or all zero, "
        "and no positive one may square to a subnormal or zero variance"
    )


def _wls(design: np.ndarray, values: np.ndarray, stderr: np.ndarray):
    """Weighted least squares on the rows of design, one row per estimate: the
    parameters L @ values, their covariance (L / w) @ L.T and the weights w,
    1/stderr^2, L being the estimator matrix.  When every stderr is 0 the
    estimates are exact: w is all 1 and the covariance is zero.
    Raises DegenerateDesignError when the weighted design has condition number
    above DESIGN_COND_MAX, or when the stderrs are mixed zero and positive or
    square to subnormal or zero variances (whose weights would overflow)."""
    w = _weights(stderr)
    sw = np.sqrt(w)
    u, s, vt = np.linalg.svd(design * sw[:, None], full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > DESIGN_COND_MAX:
        raise DegenerateDesignError(
            f"design matrix condition number {s[0] / max(s[-1], 1e-300):.2e} "
            f"exceeds {DESIGN_COND_MAX:g}"
        )
    est = (vt.T / s) @ (u.T * sw)
    cov = (est / w) @ est.T if np.any(stderr) else np.zeros((len(est), len(est)))
    return est @ values, cov, w


def fit_trig_poly(phis, values, stderr) -> TrigFit:
    """Fit C(phi) = a0 + a1 cos(phi) + b1 sin(phi) + a2 cos(2phi) + b2 sin(2phi).

    phis, values and stderr are (P,) arrays, one correlation estimate per phase;
    weights are 1/stderr^2.  Raises DegenerateDesignError when the weighted
    design matrix has condition number above DESIGN_COND_MAX (e.g. all phases
    equal mod pi), or when some stderrs are zero and others not (e.g. a
    constant segment).
    """
    phis, y = np.asarray(phis, dtype=float), np.asarray(values, dtype=float)
    if np.unique(phis).size < 6:
        raise InsufficientDataError(
            f"need at least 6 distinct phases, got {np.unique(phis).size}"
        )
    design = _design(phis)
    coeffs, cov, w = _wls(design, y, np.asarray(stderr, dtype=float))
    resid = y - design @ coeffs
    chi2 = float(w @ resid**2)
    return TrigFit(coeffs=coeffs, cov=cov, chi2=chi2, dof=int(phis.size - 5))


@dataclass(frozen=True)
class SeparatedContributions:
    """The three correlation contributions: parameters and their covariance.

    By phase (phi_ref None): params = (a0, a1, b1, a2, b2, C0), the fit's
    Fourier coefficients and the blocked-LO C0, whose variance carries the
    drift error, with their 6x6 cov.  By LO strength: params = (C0, C1, C2) at
    phi_ref, with their 3x3 cov.  contributions_at evaluates (C0, C1(phi),
    C2(phi)) with its joint 3x3 covariance.  to_dict/from_dict convert to and
    from plain JSON values; from_dict raises ValueError or TypeError unless
    every number is a finite float, there are 6 params without phi_ref, 3 with
    it, and cov is a square matrix of that size that is a covariance: no
    negative variance, and symmetric and positive semidefinite within rounding.
    """

    params: np.ndarray
    cov: np.ndarray
    phi_ref: float | None = None

    @property
    def method(self) -> str:
        return BY_PHASE if self.phi_ref is None else BY_LO

    def to_dict(self) -> dict:
        out = {"params": self.params.tolist(), "cov": self.cov.tolist()}
        if self.phi_ref is not None:
            out["phi_ref"] = self.phi_ref
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SeparatedContributions":
        phi_ref = None if payload.get("phi_ref") is None else float(payload["phi_ref"])
        n = 6 if phi_ref is None else 3
        params, cov = (np.array(payload.get(key, []), dtype=float) for key in ("params", "cov"))
        if params.shape != (n,) or cov.shape != (n, n):
            raise ValueError(f"params and cov must have shapes ({n},) and ({n}, {n})")
        if not np.isfinite([*params, *cov.ravel(), phi_ref or 0.0]).all():
            raise ValueError("params, cov and phi_ref must be finite")
        _check_covariance(cov)
        return cls(params, cov, phi_ref)

    def contributions_at(self, phi):
        """(C0, C1(phi), C2(phi)) and their 3x3 covariance: (3,) and (3, 3) for
        a scalar phi, (P, 3) and (P, 3, 3) for P phases."""
        phi = np.asarray(phi, dtype=float)
        at = self._by_phase_at if self.phi_ref is None else self._by_lo_at
        values, cov = at(phi.reshape(-1))
        return values.reshape(phi.shape + (3,)), cov.reshape(phi.shape + (3, 3))

    def _by_phase_at(self, phi: np.ndarray):
        a0, a1, b1, a2, b2, c0 = self.params
        c, s = np.cos(phi), np.sin(phi)
        c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
        values = np.stack([np.full_like(phi, c0), a1 * c + b1 * s, a2 * c2 + b2 * s2 + a0 - c0], -1)
        jac = np.zeros((phi.size, 3, 6))
        jac[:, 0, 5], jac[:, 1, 1], jac[:, 1, 2] = 1.0, c, s
        jac[:, 2, 0], jac[:, 2, 3], jac[:, 2, 4], jac[:, 2, 5] = 1.0, c2, s2, -1.0
        # one BLAS product per phase on contiguous stacks: the same sums as a 2-D jac @ cov @ jac.T
        return values, (jac @ self.cov) @ np.ascontiguousarray(jac.transpose(0, 2, 1))

    def _by_lo_at(self, phi: np.ndarray):
        delta = (phi - self.phi_ref) % (2.0 * np.pi)
        same = np.minimum(delta, 2.0 * np.pi - delta) < 1e-9
        if not np.all(same | (np.abs(delta - np.pi) < 1e-9)):
            raise ValueError("LO-strength separation is only defined at the scanned phase pair")
        signs = np.stack([np.ones_like(phi), np.where(same, 1.0, -1.0), np.ones_like(phi)], -1)
        return signs * self.params, signs[:, :, None] * self.cov * signs[:, None, :]

    def c1_amplitude(self):
        """Amplitude sqrt(a1^2 + b1^2) of the 2pi-periodic part with its sigma."""
        if self.phi_ref is not None:
            return float(abs(self.params[1])), float(np.sqrt(self.cov[1, 1]))
        a1, b1 = self.params[1], self.params[2]
        amp = float(np.hypot(a1, b1))
        if amp == 0.0:
            return 0.0, float(np.sqrt(self.cov[1, 1] + self.cov[2, 2]))
        jac = np.array([a1 / amp, b1 / amp])
        var = float(jac @ self.cov[1:3, 1:3] @ jac)
        return amp, float(np.sqrt(max(var, 0.0)))


def _check_covariance(cov: np.ndarray) -> None:
    """Raise ValueError for a negative variance, or for a matrix that is not symmetric
    and positive semidefinite to 1e-9 relative, measured on D^-1/2 cov D^-1/2 (D the
    positive variances; a zero variance's row is measured as is)."""
    var = np.diag(cov)
    scale = np.sqrt(np.where(var > 0, var, 1.0))
    with np.errstate(over="ignore"):
        corr = cov / scale[:, None] / scale[None, :]
    symmetric = np.isfinite(corr).all() and np.abs(corr - corr.T).max() <= 1e-9
    if var.min() < 0 or not symmetric or np.linalg.eigvalsh(corr + corr.T)[0] < -2e-9:
        raise ValueError("cov must be symmetric positive semidefinite, with no negative variance")


def separate_by_phase(
    fit: TrigFit, c_block: CorrelationEstimate, drift: float = 0.0
) -> SeparatedContributions:
    """Split the fitted correlation into its three contributions.

    C0 is the blocked-LO result (its sigma includes the drift error in
    quadrature), C1 the 2pi-periodic Fourier part, and C2 the pi-periodic part
    plus the phase-independent remainder a0 - C_block.
    """
    cov = np.zeros((6, 6))
    cov[:5, :5] = fit.cov
    cov[5, 5] = float(np.hypot(c_block.stderr, drift)) ** 2
    return SeparatedContributions(params=np.append(fit.coeffs, c_block.value), cov=cov)


def lo_design(e_values) -> np.ndarray:
    """The (2J, 3) design of an LO scan over J field strengths E_L, one row per
    segment: (1, x, x^2) at phi for each E_L, then (1, -x, x^2) at phi + pi, with
    x = E_L / e_ref, e_ref the largest E_L; the columns are C0, C1 and C2 at e_ref."""
    x = np.asarray(e_values, dtype=float) / np.max(e_values)
    rows = np.column_stack([np.ones_like(x), x, x**2])
    return np.vstack([rows, rows * [1.0, -1.0, 1.0]])


def separate_by_lo(e_values, values, stderr, phi: float) -> SeparatedContributions:
    """Separate the contributions by their scaling with the LO field strength.

    e_values holds the J field strengths E_L, at least three distinct ones
    including 0 (blocked LO); values and stderr are (2, J) arrays of the
    estimates at phi (row 0) and at phi + pi (row 1).  One weighted fit of the
    rows of lo_design, weights 1/stderr^2 as in fit_trig_poly, gives (C0, C1, C2)
    at the largest E_L with their 3x3 covariance.  Raises DegenerateDesignError
    when some stderrs are zero and others not (e.g. a constant segment).
    """
    e_vals = np.asarray(e_values, dtype=float)
    if np.unique(e_vals).size < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct LO field strengths, got {np.unique(e_vals).size}"
        )
    if not np.any(e_vals == 0.0):
        raise InsufficientDataError("the LO grid must include 0 (blocked LO)")
    # row 0 (at phi), then row 1 (at phi + pi): the rows of lo_design
    y, sigma = (np.ravel(np.asarray(a, dtype=float)) for a in (values, stderr))
    params, cov, _ = _wls(lo_design(e_vals), y, sigma)
    return SeparatedContributions(params=params, cov=cov, phi_ref=float(phi))
