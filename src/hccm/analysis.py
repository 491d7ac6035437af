"""Correlation estimation, trigonometric regression, and moment separation.

The measured correlation over the LO phase is a second-degree trigonometric
polynomial; its Fourier coefficients together with the blocked-LO result
separate the three contributions.  Alternatively the contributions separate by
their scaling with the LO field strength.  All estimators are weighted least
squares with exact first-order error propagation.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import DegenerateDesignError, InsufficientDataError

DESIGN_COND_MAX = 1e8
# pairs per chunk of sampling and reduction: a (CHUNK_ROWS, 2) buffer stays in cache
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
        if self.stderr < 0 or not np.isfinite(self.stderr):
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


class ProductMoments:
    """Count, mean and M2 of the products c1*c2 of one segment's pairs, added in
    consecutive (k, 2) chunks of CHUNK_ROWS rows from the segment start (only the
    last may be shorter), so the estimate depends on the samples alone.  Each
    chunk is reduced in two passes while in cache, then merged with the update
    of Chan, Golub & LeVeque (1979)."""

    def __init__(self):
        self.n, self.mean, self.m2 = 0, 0.0, 0.0

    def add(self, pairs: np.ndarray) -> None:
        k = len(pairs)
        if self.n % CHUNK_ROWS or k > CHUNK_ROWS:
            raise ValueError(f"chunks must hold {CHUNK_ROWS} pairs; only the last may be shorter")
        products = pairs[:, 0] * pairs[:, 1]
        mean = float(products.mean())
        products -= mean
        products *= products
        n, delta = self.n + k, mean - self.mean
        self.mean += delta * (k / n)
        self.m2 += float(products.sum()) + delta * delta * (self.n * k / n)
        self.n = n

    def estimate(self) -> CorrelationEstimate:
        """Mean of the products and its standard error (sample std / sqrt(n))."""
        if self.n < 2:
            raise InsufficientDataError(f"need at least 2 sample pairs, got {self.n}")
        stderr = math.sqrt(self.m2 / (self.n - 1)) / math.sqrt(self.n)
        return CorrelationEstimate(value=self.mean, stderr=stderr, n=self.n)


def estimate_correlation(samples) -> CorrelationEstimate:
    """Same-time correlation of paired fluctuation samples.

    samples is an (N, 2) array-like of (c1, c2) pairs; returns the mean of the
    products and its standard error (ProductMoments over CHUNK_ROWS slices).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (N, 2) array of pairs, got shape {arr.shape}")
    moments = ProductMoments()
    for start in range(0, len(arr), CHUNK_ROWS):
        moments.add(arr[start : start + CHUNK_ROWS])
    return moments.estimate()


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
        return _design(np.atleast_1d(np.asarray(phi, dtype=float))) @ self.coeffs

    def shifted(self, offset_value: float, offset_var: float) -> "TrigFit":
        """Fit of y - offset: only the constant coefficient and its variance move."""
        coeffs = self.coeffs.copy()
        coeffs[0] -= offset_value
        cov = self.cov.copy()
        cov[0, 0] += offset_var
        return TrigFit(coeffs=coeffs, cov=cov, chi2=self.chi2, dof=self.dof)


def _design(phi: np.ndarray) -> np.ndarray:
    return np.column_stack(
        [np.ones_like(phi), np.cos(phi), np.sin(phi), np.cos(2 * phi), np.sin(2 * phi)]
    )


def _weights(variances: np.ndarray) -> np.ndarray:
    if np.all(variances > 0):
        return 1.0 / variances
    if np.all(variances == 0):
        return np.ones_like(variances)
    raise ValueError("per-point standard errors must be all positive or all zero")


def fit_trig_poly(points) -> TrigFit:
    """Fit C(phi) = a0 + a1 cos(phi) + b1 sin(phi) + a2 cos(2phi) + b2 sin(2phi).

    points is a sequence of (phi, CorrelationEstimate); weights are
    1/stderr^2.  Raises DegenerateDesignError when the weighted design matrix
    has condition number above 1e8 (e.g. all phases equal mod pi).
    """
    phis = np.array([float(p) for p, _ in points])
    ests = [e for _, e in points]
    if np.unique(phis).size < 6:
        raise InsufficientDataError(
            f"need at least 6 distinct phases, got {np.unique(phis).size}"
        )
    y = np.array([e.value for e in ests])
    w = _weights(np.array([e.stderr for e in ests]) ** 2)
    sw = np.sqrt(w)
    a_mat = _design(phis) * sw[:, None]
    u, s, vt = np.linalg.svd(a_mat, full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > DESIGN_COND_MAX:
        raise DegenerateDesignError(
            f"design matrix condition number {s[0] / max(s[-1], 1e-300):.2e} exceeds 1e8"
        )
    coeffs = vt.T @ ((u.T @ (y * sw)) / s)
    cov = (vt.T / s**2) @ vt
    resid = y - _design(phis) @ coeffs
    chi2 = float(w @ resid**2)
    return TrigFit(coeffs=coeffs, cov=cov, chi2=chi2, dof=int(phis.size - 5))


@dataclass(frozen=True)
class SeparatedContributions:
    """The three correlation contributions with propagated covariances.

    method is "by-phase" (full Fourier payload) or "by-lo-strength" (values
    pinned to the scanned phase pair).  contributions_at evaluates the triple
    (C0, C1(phi), C2(phi)) with its joint 3x3 covariance.  to_dict/from_dict
    convert to and from plain JSON values; the method follows from the payload.
    """

    method: str
    c0_value: float
    c0_sigma: float
    coeffs: np.ndarray | None = None
    coeff_cov: np.ndarray | None = None
    phi_ref: float | None = None
    ref_values: np.ndarray | None = None
    ref_cov: np.ndarray | None = None
    c_block: CorrelationEstimate | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, CorrelationEstimate):
                value = asdict(value)
            if f.name != "method" and value is not None:
                out[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "SeparatedContributions":
        kw = {f.name: payload[f.name] for f in fields(cls) if f.name in payload}
        for name in ("coeffs", "coeff_cov", "ref_values", "ref_cov"):
            if name in kw:
                kw[name] = np.array(kw[name], dtype=float)
        if "c_block" in kw:
            kw["c_block"] = CorrelationEstimate(**kw["c_block"])
        kw["method"] = BY_PHASE if "coeffs" in kw else BY_LO
        return cls(**kw)

    def contributions_at(self, phi: float):
        if self.method == BY_PHASE:
            return self._by_phase_at(phi)
        return self._by_lo_at(phi)

    def _by_phase_at(self, phi: float):
        a0, a1, b1, a2, b2 = self.coeffs
        c, s = np.cos(phi), np.sin(phi)
        c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
        values = np.array(
            [self.c0_value, a1 * c + b1 * s, a2 * c2 + b2 * s2 + a0 - self.c0_value]
        )
        jac = np.array(
            [
                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
                [0.0, c, s, 0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0, c2, s2, -1.0],
            ]
        )
        big = np.zeros((6, 6))
        big[:5, :5] = self.coeff_cov
        big[5, 5] = self.c0_sigma**2
        return values, jac @ big @ jac.T

    def _by_lo_at(self, phi: float):
        delta = (phi - self.phi_ref) % (2.0 * np.pi)
        if min(delta, 2.0 * np.pi - delta) < 1e-9:
            sign = 1.0
        elif abs(delta - np.pi) < 1e-9:
            sign = -1.0
        else:
            raise ValueError(
                "LO-strength separation is only defined at the scanned phase pair"
            )
        flip = np.diag([1.0, sign, 1.0])
        return flip @ self.ref_values, flip @ self.ref_cov @ flip

    def c1_amplitude(self):
        """Amplitude sqrt(a1^2 + b1^2) of the 2pi-periodic part with its sigma."""
        if self.method != BY_PHASE:
            value = abs(self.ref_values[1])
            return float(value), float(np.sqrt(self.ref_cov[1, 1]))
        a1, b1 = self.coeffs[1], self.coeffs[2]
        amp = float(np.hypot(a1, b1))
        if amp == 0.0:
            return 0.0, float(np.sqrt(self.coeff_cov[1, 1] + self.coeff_cov[2, 2]))
        jac = np.array([a1 / amp, b1 / amp])
        var = float(jac @ self.coeff_cov[1:3, 1:3] @ jac)
        return amp, float(np.sqrt(max(var, 0.0)))


def separate_by_phase(
    fit: TrigFit, c_block: CorrelationEstimate, drift: float = 0.0
) -> SeparatedContributions:
    """Split the fitted correlation into its three contributions.

    C0 is the blocked-LO result (its sigma includes the drift error in
    quadrature), C1 the 2pi-periodic Fourier part, and C2 the pi-periodic part
    plus the phase-independent remainder a0 - C_block.
    """
    sigma = float(np.hypot(c_block.stderr, drift))
    return SeparatedContributions(
        method=BY_PHASE,
        c0_value=c_block.value,
        c0_sigma=sigma,
        coeffs=fit.coeffs.copy(),
        coeff_cov=fit.cov.copy(),
        c_block=c_block,
    )


def separate_by_lo(points, phi: float, e_ref: float | None = None) -> SeparatedContributions:
    """Separate the contributions by their scaling with the LO field strength.

    points maps E_L -> (estimate at phi, estimate at phi + pi) and must hold at
    least three distinct field strengths including 0 (blocked LO).  The odd
    part in E_L is fitted linearly through the origin, the even part as
    alpha + beta*E_L^2; contributions are reported at e_ref (largest grid
    value when omitted).
    """
    raw = points.items() if hasattr(points, "items") else points
    items = _normalize_lo_points(sorted(raw, key=lambda item: float(item[0])))
    e_vals = np.array([e for e, *_ in items])
    pairs = [(a, b) for _, a, b in items]
    if np.unique(e_vals).size < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct LO field strengths, got {np.unique(e_vals).size}"
        )
    if not np.any(e_vals == 0.0):
        raise InsufficientDataError("the LO grid must include 0 (blocked LO)")
    if e_ref is None:
        e_ref = float(e_vals.max())

    d_vals = np.array([(a.value - b.value) / 2.0 for a, b in pairs])
    e_even = np.array([(a.value + b.value) / 2.0 for a, b in pairs])
    var_a = np.array([a.stderr**2 for a, _ in pairs])
    var_b = np.array([b.stderr**2 for _, b in pairs])
    var_de = (var_a + var_b) / 4.0
    cov_de = (var_a - var_b) / 4.0
    w = _weights(var_de)

    # odd part: slope through the origin
    denom = float(w @ e_vals**2)
    u_row = w * e_vals / denom
    slope = float(u_row @ d_vals)
    var_slope = 1.0 / denom

    # even part: alpha + beta * E^2
    g_mat = np.column_stack([np.ones_like(e_vals), e_vals**2])
    gtw = g_mat.T * w
    cov_ab = np.linalg.inv(gtw @ g_mat)
    v_rows = cov_ab @ gtw
    alpha_beta = v_rows @ e_even

    # the odd and even samples at one grid point share the same raw data
    cross = np.array([float(u_row @ (cov_de * v_rows[k])) for k in range(2)])

    values = np.array([alpha_beta[0], slope * e_ref, alpha_beta[1] * e_ref**2])
    cov = np.zeros((3, 3))
    cov[0, 0] = cov_ab[0, 0]
    cov[1, 1] = var_slope * e_ref**2
    cov[2, 2] = cov_ab[1, 1] * e_ref**4
    cov[0, 2] = cov[2, 0] = cov_ab[0, 1] * e_ref**2
    cov[0, 1] = cov[1, 0] = cross[0] * e_ref
    cov[1, 2] = cov[2, 1] = cross[1] * e_ref**3
    return SeparatedContributions(
        method=BY_LO,
        c0_value=float(values[0]),
        c0_sigma=float(np.sqrt(cov[0, 0])),
        phi_ref=float(phi),
        ref_values=values,
        ref_cov=cov,
    )


def _normalize_lo_points(items):
    out = []
    for item in items:
        if len(item) == 2:
            e, (a, b) = item
        else:
            e, a, b = item
        out.append((float(e), a, b))
    return out
