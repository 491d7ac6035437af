"""Brute-force reference on a truncated Fock space.

Builds displaced squeezed states by dense operator exponentials, applies the
beam-splitter unitary, and evaluates photon statistics and normal-ordered
moments directly from matrix elements.  Slow by design; used to validate the
closed-form Gaussian results on small-amplitude states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm
from scipy.sparse import diags, kron
from scipy.sparse.linalg import expm_multiply

from hccm.gaussian import MomentTriple
from hccm.splitter import BeamSplitter

DEFAULT_LEAK_BOUND = 1e-8


class TruncationError(ValueError):
    """Fock-space truncation leaks more probability than allowed."""


def annihilation(dim: int) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1, dim)), 1)


def _edge_band(dim: int) -> int:
    return max(2, dim // 10)


@dataclass(frozen=True)
class FockState:
    """Single-mode state vector on the truncated basis |0> .. |dim-1>."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).copy()
        if amp.ndim != 1 or amp.size < 2:
            raise ValueError("amplitudes must be a vector of length >= 2")
        if not np.all(np.isfinite(amp)):
            raise ValueError("amplitudes must be finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    @property
    def norm_deficit(self) -> float:
        return float(abs(1.0 - np.vdot(self.amplitudes, self.amplitudes).real))

    @property
    def edge_mass(self) -> float:
        """Probability sitting in the top levels of the truncated basis.

        The exponential construction is exactly norm preserving, so a
        too-small basis shows up as probability piling against the cutoff, not
        as a norm deficit.
        """
        band = _edge_band(self.dim)
        return float(np.sum(np.abs(self.amplitudes[-band:]) ** 2))

    def expectation(self, op: np.ndarray) -> complex:
        return complex(np.vdot(self.amplitudes, op @ self.amplitudes))


@dataclass(frozen=True)
class JointPhotonPMF:
    """Joint photon-number distribution p(n1, n2) on [0..dim-1]^2."""

    probabilities: np.ndarray

    @property
    def leakage(self) -> float:
        return float(1.0 - self.probabilities.sum())

    @property
    def edge_mass(self) -> float:
        band = _edge_band(self.probabilities.shape[0])
        p = self.probabilities
        return float(p[-band:, :].sum() + p[:-band, -band:].sum())

    def moments(self):
        """First and second moments (mean1, mean2, var1, var2, cov)."""
        p = self.probabilities
        n = np.arange(p.shape[0])
        p1 = p.sum(axis=1)
        p2 = p.sum(axis=0)
        mean1 = float(n @ p1)
        mean2 = float(n @ p2)
        var1 = float(n**2 @ p1) - mean1**2
        var2 = float(n**2 @ p2) - mean2**2
        cov = float(n @ p @ n) - mean1 * mean2
        return mean1, mean2, var1, var2, cov

    def photocurrent_covariance(self) -> np.ndarray:
        _, _, var1, var2, cov = self.moments()
        return np.array([[var1, cov], [cov, var2]])


def fock_squeezed_coherent(
    r: float, theta: float, alpha: complex, dim: int, leak_bound: float = DEFAULT_LEAK_BOUND
) -> FockState:
    """Displaced squeezed state D(alpha) S(r e^{2i theta}) |0> on dim levels."""
    if dim < 2:
        raise ValueError("dim must be >= 2")
    a = annihilation(dim)
    ad = a.conj().T
    zeta = r * np.exp(2j * theta)
    sq = expm(0.5 * (np.conj(zeta) * (a @ a) - zeta * (ad @ ad)))
    disp = expm(alpha * ad - np.conj(alpha) * a)
    vec = np.zeros(dim, dtype=complex)
    vec[0] = 1.0
    state = FockState(disp @ (sq @ vec))
    deficit = max(state.norm_deficit, state.edge_mass)
    if deficit > leak_bound:
        raise TruncationError(
            f"truncation deficit {deficit:.3e} exceeds {leak_bound:.1e}; raise dim"
        )
    return state


def coherent_fock(alpha: complex, dim: int, leak_bound: float = DEFAULT_LEAK_BOUND) -> FockState:
    return fock_squeezed_coherent(0.0, 0.0, alpha, dim, leak_bound)


def joint_photon_statistics(
    signal: FockState,
    lo_alpha: complex,
    bs: BeamSplitter,
    leak_bound: float = DEFAULT_LEAK_BOUND,
) -> JointPhotonPMF:
    """Exact joint output photon statistics behind a lossless splitter.

    The two-mode unitary realizes the same amplitude map as the Gaussian
    machinery, b1 = t a + r a_L and b2 = -r a + t a_L, including the sign flip
    on the reflected signal.  Only lossless (hence symmetric) splitters admit
    a two-mode unitary; anything else is rejected.
    """
    lossless = abs(bs.ts2 + bs.rs2 - 1.0) <= 1e-9 and abs(bs.tl2 + bs.rl2 - 1.0) <= 1e-9
    if not lossless or abs(bs.ts2 - bs.tl2) > 1e-9 or abs(bs.rs2 - bs.rl2) > 1e-9:
        raise ValueError("the Fock oracle supports lossless symmetric splitters only")
    dim = signal.dim
    lo = coherent_fock(lo_alpha, dim, leak_bound)
    joint = np.kron(signal.amplitudes, lo.amplitudes)
    a = diags(np.sqrt(np.arange(1, dim)), 1)
    mix = kron(a.conj().T, a, format="csr") - kron(a, a.conj().T, format="csr")
    # mixing angle chosen so cos -> t, sin -> r in the Heisenberg map above
    angle = np.arctan2(bs.r_s, bs.t_s)
    out = expm_multiply(angle * mix, joint)
    probs = np.abs(out.reshape(dim, dim)) ** 2
    pmf = JointPhotonPMF(probs)
    leak = max(pmf.leakage, pmf.edge_mass)
    if leak > leak_bound:
        raise TruncationError(
            f"joint PMF truncation deficit {leak:.3e} > {leak_bound:.1e}; raise dim"
        )
    return pmf


def oracle_moments(state: FockState, phi: float) -> MomentTriple:
    """Normal-ordered moment triple evaluated from operator matrix elements."""
    a = annihilation(state.dim)
    ad = a.conj().T
    ea = state.expectation(a)
    n_mean = state.expectation(ad @ a).real
    aa = state.expectation(a @ a)
    ada2 = state.expectation(ad @ a @ a)
    ad2a2 = state.expectation(ad @ ad @ a @ a).real
    ph = np.exp(-1j * phi)
    var_i = ad2a2 - n_mean**2
    anom = 2.0 * (ph * (ada2 - ea * n_mean)).real
    var_e = 2.0 * (ph**2 * (aa - ea**2)).real + 2.0 * (n_mean - abs(ea) ** 2)
    return MomentTriple(float(var_i), float(anom), float(var_e))


def oracle_mean_photon(state: FockState) -> float:
    a = annihilation(state.dim)
    return float(state.expectation(a.conj().T @ a).real)
