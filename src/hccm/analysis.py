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
        if self.stderr < 0 or not math.isfinite(self.stderr):
            raise ValueError(f"stderr must be finite and >= 0, got {self.stderr}")
        if self.n < 1:
            raise ValueError(f"sample count must be >= 1, got {self.n}")


def reduce_chunks(chunks) -> CorrelationEstimate:
    """Mean of the products c1*c2 of one segment's pairs and its standard error
    (sample std / sqrt(n)).  chunks yields the pairs as consecutive (k, 2) arrays of
    CHUNK_ROWS rows from the segment start (only the last may be shorter), so the
    estimate depends on the samples alone.  Each chunk is reduced in two passes while
    in cache, then merged with the update of Chan, Golub & LeVeque (1979)."""
    n, mean, m2 = 0, 0.0, 0.0
    for pairs in chunks:
        k = len(pairs)
        if n % CHUNK_ROWS or k > CHUNK_ROWS:
            raise ValueError(f"chunks must hold {CHUNK_ROWS} pairs; only the last may be shorter")
        products = pairs[:, 0] * pairs[:, 1]
        chunk_mean = float(products.sum()) / k
        products -= chunk_mean
        products *= products
        total, delta = n + k, chunk_mean - mean
        mean += delta * (k / total)
        m2 += float(products.sum()) + delta * delta * (n * k / total)
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


def _wls(design: np.ndarray, stderr: np.ndarray):
    """Weighted least squares on the rows of design: the estimator matrix L
    (parameters = L @ values) and the weights, 1/stderr^2 (all 1 when every
    stderr is 0).  Raises DegenerateDesignError when the weighted design has
    condition number above DESIGN_COND_MAX, or when the stderrs are mixed zero
    and positive or square to subnormal or zero variances (whose weights would
    overflow)."""
    w = _weights(stderr)
    sw = np.sqrt(w)
    u, s, vt = np.linalg.svd(design * sw[:, None], full_matrices=False)
    if s[-1] <= 0 or s[0] / s[-1] > DESIGN_COND_MAX:
        raise DegenerateDesignError(
            f"design matrix condition number {s[0] / max(s[-1], 1e-300):.2e} exceeds 1e8"
        )
    return (vt.T / s) @ (u.T * sw), w


def fit_trig_poly(points) -> TrigFit:
    """Fit C(phi) = a0 + a1 cos(phi) + b1 sin(phi) + a2 cos(2phi) + b2 sin(2phi).

    points is a sequence of (phi, CorrelationEstimate); weights are
    1/stderr^2.  Raises DegenerateDesignError when the weighted design matrix
    has condition number above 1e8 (e.g. all phases equal mod pi), or when
    some stderrs are zero and others not (e.g. a constant segment).
    """
    phis = np.array([float(p) for p, _ in points])
    ests = [e for _, e in points]
    if np.unique(phis).size < 6:
        raise InsufficientDataError(
            f"need at least 6 distinct phases, got {np.unique(phis).size}"
        )
    y = np.array([e.value for e in ests])
    design = _design(phis)
    est, w = _wls(design, np.array([e.stderr for e in ests]))
    coeffs = est @ y
    resid = y - design @ coeffs
    chi2 = float(w @ resid**2)
    return TrigFit(coeffs=coeffs, cov=(est / w) @ est.T, chi2=chi2, dof=int(phis.size - 5))


@dataclass(frozen=True)
class SeparatedContributions:
    """The three correlation contributions with propagated covariances.

    method is "by-phase" (full Fourier payload) or "by-lo-strength" (values
    pinned to the scanned phase pair).  contributions_at evaluates the triple
    (C0, C1(phi), C2(phi)) with its joint 3x3 covariance.  to_dict/from_dict
    convert to and from plain JSON values; the method follows from the payload,
    and from_dict raises ValueError or TypeError when a number is not a finite
    float or an array has the wrong shape.
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
        kw["method"] = BY_PHASE if "coeffs" in kw else BY_LO
        scalars, shapes = ["c0_value", "c0_sigma"], {"coeffs": (5,), "coeff_cov": (5, 5)}
        if kw["method"] == BY_LO:
            scalars, shapes = [*scalars, "phi_ref"], {"ref_values": (3,), "ref_cov": (3, 3)}
        for name in scalars:
            kw[name] = float(kw[name])
        for name, shape in shapes.items():
            kw[name] = np.array(kw.get(name, []), dtype=float)
            if kw[name].shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {kw[name].shape}")
        for name in (*scalars, *shapes):
            if not np.all(np.isfinite(kw[name])):
                raise ValueError(f"{name} must be finite")
        if "c_block" in kw:
            kw["c_block"] = CorrelationEstimate(**kw["c_block"])
        return cls(**kw)

    def contributions_at(self, phi):
        """(C0, C1(phi), C2(phi)) and their 3x3 covariance: (3,) and (3, 3) for
        a scalar phi, (P, 3) and (P, 3, 3) for P phases."""
        phi = np.asarray(phi, dtype=float)
        at = self._by_phase_at if self.method == BY_PHASE else self._by_lo_at
        values, cov = at(phi.reshape(-1))
        return values.reshape(phi.shape + (3,)), cov.reshape(phi.shape + (3, 3))

    def _by_phase_at(self, phi: np.ndarray):
        a0, a1, b1, a2, b2 = self.coeffs
        c, s = np.cos(phi), np.sin(phi)
        c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
        c0 = np.full_like(phi, self.c0_value)
        values = np.stack([c0, a1 * c + b1 * s, a2 * c2 + b2 * s2 + a0 - self.c0_value], axis=-1)
        jac = np.zeros((phi.size, 3, 6))
        jac[:, 0, 5] = 1.0
        jac[:, 1, 1], jac[:, 1, 2] = c, s
        jac[:, 2, 0], jac[:, 2, 3], jac[:, 2, 4], jac[:, 2, 5] = 1.0, c2, s2, -1.0
        big = np.zeros((6, 6))
        big[:5, :5] = self.coeff_cov
        big[5, 5] = self.c0_sigma**2
        # one BLAS product per phase on contiguous stacks: the same sums as a 2-D jac @ big @ jac.T
        return values, (jac @ big) @ np.ascontiguousarray(jac.transpose(0, 2, 1))

    def _by_lo_at(self, phi: np.ndarray):
        delta = (phi - self.phi_ref) % (2.0 * np.pi)
        same = np.minimum(delta, 2.0 * np.pi - delta) < 1e-9
        if not np.all(same | (np.abs(delta - np.pi) < 1e-9)):
            raise ValueError(
                "LO-strength separation is only defined at the scanned phase pair"
            )
        signs = np.stack([np.ones_like(phi), np.where(same, 1.0, -1.0), np.ones_like(phi)], -1)
        return signs * self.ref_values, signs[:, :, None] * self.ref_cov * signs[:, None, :]

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


def separate_by_lo(points, phi: float) -> SeparatedContributions:
    """Separate the contributions by their scaling with the LO field strength.

    points is a sequence of (E_L, estimate at phi, estimate at phi + pi) and
    must hold at least three distinct field strengths including 0 (blocked
    LO).  With x = E_L / e_ref, e_ref the largest field strength, one weighted
    fit gives (C0, C1, C2) at e_ref from the odd parts (a - b)/2 = C1 x and the
    even parts (a + b)/2 = C0 + C2 x^2, each weighted 4/(var_a + var_b); its
    estimator matrix, applied to the raw estimates a and b, carries their
    variances to the full 3x3 covariance.
    """
    e_vals = np.array([float(e) for e, _, _ in points])
    if np.unique(e_vals).size < 3:
        raise InsufficientDataError(
            f"need at least 3 distinct LO field strengths, got {np.unique(e_vals).size}"
        )
    if not np.any(e_vals == 0.0):
        raise InsufficientDataError("the LO grid must include 0 (blocked LO)")
    n, x = e_vals.size, e_vals / e_vals.max()
    one, zero = np.ones_like(x), np.zeros_like(x)
    design = np.vstack([np.column_stack([zero, x, zero]), np.column_stack([one, zero, x**2])])
    ests = [a for _, a, _ in points] + [b for _, _, b in points]
    stderr = np.array([e.stderr for e in ests])
    est, _ = _wls(design, np.tile(np.hypot(stderr[:n], stderr[n:]) / 2.0, 2))
    # the same estimator on the raw estimates (a, b): rows (a - b)/2, then (a + b)/2
    odd, even = est[:, :n] / 2.0, est[:, n:] / 2.0
    lmat = np.hstack([even + odd, even - odd])
    values = lmat @ np.array([e.value for e in ests])
    cov = (lmat * stderr**2) @ lmat.T
    return SeparatedContributions(
        method=BY_LO,
        c0_value=float(values[0]),
        c0_sigma=float(np.sqrt(cov[0, 0])),
        phi_ref=float(phi),
        ref_values=values,
        ref_cov=cov,
    )
