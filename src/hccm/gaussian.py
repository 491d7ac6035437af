"""Gaussian states of one or two optical modes and their photocurrent moments.

Conventions used throughout the package: quadratures x = a + a*, p = -i(a - a*),
so the vacuum covariance matrix is the identity and a coherent amplitude alpha
has mean vector (2 Re alpha, 2 Im alpha).  All normal-ordered expectations are
evaluated in closed form via Gaussian (Isserlis/Wick) moment factorization,
which for normal ordering is the same as taking classical moments of the
Glauber-Sudarshan quasi-distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UnphysicalStateError

SYMMETRY_RTOL = 1e-12
PHYSICALITY_ATOL = 1e-9

TWO_PI = 2.0 * np.pi


def symplectic_form(n_modes: int) -> np.ndarray:
    """Block-diagonal symplectic form for quadrature order (x1, p1, x2, p2)."""
    omega = np.zeros((2 * n_modes, 2 * n_modes))
    for k in range(n_modes):
        omega[2 * k, 2 * k + 1] = 1.0
        omega[2 * k + 1, 2 * k] = -1.0
    return omega


def _rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class GaussianState:
    """Mean vector and covariance matrix of an n-mode Gaussian state.

    mean has length 2*n_modes in quadrature order (x1, p1, x2, p2, ...);
    cov is the symmetrized covariance matrix in the same basis with vacuum
    variance 1 per quadrature.
    """

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float).copy()
        cov = np.asarray(self.cov, dtype=float).copy()
        if mean.ndim != 1 or mean.size % 2 != 0 or mean.size == 0:
            raise ValueError(f"mean must have even positive length, got shape {mean.shape}")
        d = mean.size
        if cov.shape != (d, d):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {d}")
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("mean and cov must be finite")
        scale = max(np.abs(cov).max(), 1.0)
        if np.abs(cov - cov.T).max() > SYMMETRY_RTOL * scale:
            raise ValueError("cov must be symmetric")
        cov = 0.5 * (cov + cov.T)
        omega = symplectic_form(d // 2)
        eigs = np.linalg.eigvalsh(cov + 1j * omega)
        if eigs.min() < -PHYSICALITY_ATOL:
            raise UnphysicalStateError(
                f"cov + i*Omega has eigenvalue {eigs.min():.3e} < -{PHYSICALITY_ATOL}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def n_modes(self) -> int:
        return self.mean.size // 2

    def displacement(self, mode: int = 0) -> complex:
        """Coherent amplitude <a> of the given mode."""
        return 0.5 * (self.mean[2 * mode] + 1j * self.mean[2 * mode + 1])


@dataclass(frozen=True)
class LocalOscillator:
    """Weak coherent phase reference with real amplitude and phase in [0, 2pi)."""

    amplitude: float
    phase: float = 0.0

    def __post_init__(self):
        if not np.isfinite(self.amplitude) or self.amplitude < 0:
            raise ValueError(f"LO amplitude must be finite and >= 0, got {self.amplitude}")
        if not np.isfinite(self.phase):
            raise ValueError("LO phase must be finite")
        object.__setattr__(self, "phase", float(self.phase) % TWO_PI)

    @property
    def alpha(self) -> complex:
        return self.amplitude * np.exp(1j * self.phase)


@dataclass(frozen=True)
class MomentTriple:
    """Normal-ordered signal moments: intensity variance, mixed field-intensity
    moment, and field-strength variance at a fixed quadrature phase."""

    var_i: float
    anom: float
    var_e: float


def vacuum(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), np.eye(2 * n_modes))


def squeezed_coherent(r: float, theta: float, alpha: complex) -> GaussianState:
    """Displaced squeezed state: principal variances exp(-2r), exp(+2r) with the
    squeezed axis at angle theta, displaced by alpha."""
    if not (np.isfinite(r) and np.isfinite(theta) and np.isfinite(alpha)):
        raise ValueError("squeezed_coherent arguments must be finite")
    if r < 0:
        raise ValueError(f"squeezing parameter must be >= 0, got {r}")
    return from_quadrature_variances(np.exp(-2.0 * r), np.exp(2.0 * r), theta, alpha)


def from_quadrature_variances(
    v_min: float, v_max: float, theta: float, alpha: complex
) -> GaussianState:
    """State with principal quadrature variances (v_min, v_max) at angle theta.

    Allows impure states; rejects v_min*v_max < 1 (uncertainty violation).
    """
    if not (np.isfinite(v_min) and np.isfinite(v_max) and np.isfinite(theta) and np.isfinite(alpha)):
        raise ValueError("from_quadrature_variances arguments must be finite")
    if v_min <= 0 or v_max < v_min:
        raise ValueError(f"need 0 < v_min <= v_max, got ({v_min}, {v_max})")
    if v_min * v_max < 1.0 - 1e-9:
        raise UnphysicalStateError(
            f"variance product {v_min * v_max:.6g} < 1 violates the uncertainty relation"
        )
    rot = _rotation(theta)
    cov = rot @ np.diag([v_min, v_max]) @ rot.T
    mean = np.array([2.0 * np.real(alpha), 2.0 * np.imag(alpha)])
    return GaussianState(mean, cov)


def thermal_state(nbar: float, alpha: complex = 0.0) -> GaussianState:
    """Displaced thermal state with mean photon number nbar on top of alpha."""
    if nbar < 0:
        raise ValueError(f"nbar must be >= 0, got {nbar}")
    v = 2.0 * nbar + 1.0
    return from_quadrature_variances(v, v, 0.0, alpha)


def rotate(state: GaussianState, delta: float, mode: int = 0) -> GaussianState:
    """Phase-space rotation a -> a * exp(i*delta) of one mode."""
    big = np.eye(2 * state.n_modes)
    big[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2] = _rotation(delta)
    return GaussianState(big @ state.mean, big @ state.cov @ big.T)


def apply_loss(state: GaussianState, eta) -> GaussianState:
    """Pure-loss channel: mean -> sqrt(eta)*mean, cov -> eta*cov + (1-eta)*I.

    eta may be a scalar (same efficiency for every mode) or a sequence with one
    efficiency per mode.
    """
    etas = np.broadcast_to(np.asarray(eta, dtype=float), (state.n_modes,))
    if np.any(etas < 0) or np.any(etas > 1) or not np.all(np.isfinite(etas)):
        raise ValueError(f"efficiencies must lie in [0, 1], got {etas}")
    d = np.sqrt(np.repeat(etas, 2))
    cov = d[:, None] * state.cov * d[None, :] + np.diag(1.0 - d**2)
    return GaussianState(d * state.mean, cov)


def quadrature_variance(state: GaussianState, phi: float, mode: int = 0) -> float:
    """Symmetrized variance of the field strength a*e^{-i phi} + a*dag e^{i phi}."""
    u = np.array([np.cos(phi), np.sin(phi)])
    block = state.cov[2 * mode : 2 * mode + 2, 2 * mode : 2 * mode + 2]
    return float(u @ block @ u)


def complex_moments(state: GaussianState):
    """Return (alpha, M, N): coherent amplitudes and the normal-ordered central
    second moments M[j,k] = <da_j da_k>, N[j,k] = <da_j* da_k>.

    These are the classical second moments of the Glauber-Sudarshan
    distribution; the vacuum contribution is removed on the diagonal of N.
    """
    n = state.n_modes
    alpha = np.array([state.displacement(k) for k in range(n)])
    m_mat = np.zeros((n, n), dtype=complex)
    n_mat = np.zeros((n, n), dtype=complex)
    for j in range(n):
        for k in range(n):
            b = state.cov[2 * j : 2 * j + 2, 2 * k : 2 * k + 2]
            m_mat[j, k] = 0.25 * (b[0, 0] - b[1, 1]) + 0.25j * (b[0, 1] + b[1, 0])
            n_mat[j, k] = 0.25 * (b[0, 0] + b[1, 1]) + 0.25j * (b[0, 1] - b[1, 0])
            if j == k:
                n_mat[j, k] -= 0.5
    return alpha, m_mat, n_mat


def from_complex_moments(alpha, m_mat, n_mat) -> GaussianState:
    """Inverse of complex_moments."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=complex))
    m_mat = np.atleast_2d(np.asarray(m_mat, dtype=complex))
    n_mat = np.atleast_2d(np.asarray(n_mat, dtype=complex))
    n = alpha.size
    mean = np.zeros(2 * n)
    cov = np.zeros((2 * n, 2 * n))
    mean[0::2] = 2.0 * alpha.real
    mean[1::2] = 2.0 * alpha.imag
    for j in range(n):
        for k in range(n):
            m, nn = m_mat[j, k], n_mat[j, k]
            b = np.array(
                [
                    [2.0 * (m + nn).real, 2.0 * (m + nn).imag],
                    [2.0 * (m - nn).imag, 2.0 * (nn - m).real],
                ]
            )
            if j == k:
                b += np.eye(2)
            cov[2 * j : 2 * j + 2, 2 * k : 2 * k + 2] = b
    return GaussianState(mean, cov)


def normal_ordered_signal_moments(state: GaussianState, phi: float) -> MomentTriple:
    """Normal-ordered intensity variance, mixed moment and field variance of a
    single-mode state at quadrature phase phi.

    The mixed moment correlates field-strength noise with intensity noise; for
    any coherent state all three moments vanish.
    """
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode state, got {state.n_modes} modes")
    alpha, m_mat, n_mat = complex_moments(state)
    a, m, n = alpha[0], m_mat[0, 0], n_mat[0, 0].real
    ph = np.exp(-1j * phi)
    var_i = 2.0 * (np.conj(a) ** 2 * m).real + 2.0 * abs(a) ** 2 * n + abs(m) ** 2 + n**2
    anom = 2.0 * (ph * (np.conj(a) * m + a * n)).real
    var_e = 2.0 * (m * ph**2).real + 2.0 * n
    return MomentTriple(float(var_i), float(anom), float(var_e))


def two_mode_output(state: GaussianState, lo: LocalOscillator, bs) -> GaussianState:
    """Joint Gaussian state of the two splitter outputs.

    The linear map is b1 = t_s a + r_l alpha_L, b2 = -r_s a + t_l alpha_L with
    real amplitude coefficients; for a lossy splitter the missing commutator is
    made up by vacuum admixture, which leaves all normal-ordered moments equal
    to the plain transformed ones.
    """
    if state.n_modes != 1:
        raise ValueError(f"expected a single-mode signal state, got {state.n_modes} modes")
    t_map = np.array([[bs.t_s, bs.r_l], [-bs.r_s, bs.t_l]])
    smax = np.linalg.svd(t_map, compute_uv=False)[0]
    if smax > 1.0 + 1e-9:
        raise ValueError(
            f"splitter amplitude map is not passive (max singular value {smax:.6f}); "
            "no vacuum completion exists for these coefficients"
        )
    alpha, m_mat, n_mat = complex_moments(state)
    a_in = np.array([alpha[0], lo.alpha])
    m_in = np.zeros((2, 2), dtype=complex)
    n_in = np.zeros((2, 2), dtype=complex)
    m_in[0, 0] = m_mat[0, 0]
    n_in[0, 0] = n_mat[0, 0]
    a_out = t_map @ a_in
    m_out = t_map @ m_in @ t_map.T
    n_out = t_map @ n_in @ t_map.T
    return from_complex_moments(a_out, m_out, n_out)


def photocurrent_covariance(state: GaussianState) -> np.ndarray:
    """Exact photon-number covariance matrix of a two-mode Gaussian state.

    Entry (j, k) is <dn_j dn_k> for n_k = b_k*dag b_k, obtained from the
    fourth-order Wick expansion; the diagonal carries the shot-noise term
    <n_k> on top of the normal-ordered part.
    """
    if state.n_modes != 2:
        raise ValueError(f"expected a two-mode state, got {state.n_modes} modes")
    alpha, m_mat, n_mat = complex_moments(state)
    out = np.zeros((2, 2))
    for j in range(2):
        for k in range(2):
            aj, ak = alpha[j], alpha[k]
            m, nn = m_mat[j, k], n_mat[j, k]
            val = (
                2.0 * (np.conj(aj) * np.conj(ak) * m).real
                + 2.0 * (np.conj(aj) * ak * np.conj(nn)).real
                + abs(m) ** 2
                + abs(nn) ** 2
            )
            if j == k:
                val += abs(aj) ** 2 + nn.real
            out[j, k] = val
    return out
