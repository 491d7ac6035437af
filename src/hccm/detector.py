"""Finite-sample photocurrent-fluctuation records for phase and LO scans.

Sampling model: at each phase the pair of ac-coupled detector currents is
drawn from a bivariate normal whose covariance is the exact photon-number
covariance of the two splitter outputs (including detector efficiencies and
mode-mismatch) scaled by the gains, plus additive electronic noise:

* uncorrelated dark noise per channel,
* correlated dark noise common to both channels,
* classical LO intensity noise, common to both channels and proportional to
  the mean LO flux on each detector.

Every segment draws from its own seed-derived substream, so segments are
reproducible independently of evaluation order.  Mode mismatch (visibility v)
reduces the interfering LO amplitude to v*E_L; the orthogonal LO remainder
only adds shot noise.

Analysis sees a segment only as a SegmentEstimate, its spec plus its
correlation estimate.  simulate_segments yields them from chunked draws and
records.read_record from files, both through analysis.ProductMoments;
scan_estimates assembles either stream into PhaseScanEstimates or LoScanEstimates.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import analysis
from .analysis import CHUNK_ROWS, CorrelationEstimate
from .errors import ConfigError
from .gaussian import from_quadrature_variances
from .splitter import BeamSplitter, symmetric_splitter

TWO_PI = 2.0 * np.pi

SCHEDULE_DEFAULT = ("blocked_lo_a", "phases", "blocked_lo_b", "blocked_signal")

# segment kinds (also used as substream domain tags)
KIND_PHASE = "phase"
KIND_BLOCKED_LO_A = "blocked_lo_a"
KIND_BLOCKED_LO_B = "blocked_lo_b"
KIND_BLOCKED_SIGNAL = "blocked_signal"
KIND_LO_PHASE = "lo_phase"
KIND_LO_PHASE_PI = "lo_phase_pi"

_KIND_IDS = {
    KIND_PHASE: 0,
    KIND_BLOCKED_LO_A: 1,
    KIND_BLOCKED_LO_B: 2,
    KIND_BLOCKED_SIGNAL: 3,
    KIND_LO_PHASE: 4,
    KIND_LO_PHASE_PI: 5,
}

# independent noise sources get their own substreams so that switching one
# on or off never perturbs the draws of the others (paired-seed tests)
_SRC_QUANTUM, _SRC_DARK1, _SRC_DARK2, _SRC_DARK_CORR, _SRC_RIN = range(5)


def _require_finite(obj, *names):
    """Raise ConfigError naming the first attribute (number or tuple) that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class SignalParams:
    """Principal quadrature variances, squeezed-axis angle and displacement."""

    v_min: float
    v_max: float
    angle: float
    alpha: complex

    def __post_init__(self):
        from_quadrature_variances(self.v_min, self.v_max, self.angle, self.alpha)

    def state(self, amplitude_scale: float = 1.0):
        """The signal as a validated gaussian.GaussianState."""
        return from_quadrature_variances(
            self.v_min, self.v_max, self.angle, self.alpha * amplitude_scale
        )


@dataclass(frozen=True)
class DetectorConfig:
    """Efficiencies, gains, and additive noise variances of the two detectors.

    Dark-noise variances are expressed in squared photon-number units at the
    detector input (they are scaled by the squared gains); lo_excess is the
    relative intensity-noise variance of the LO.
    """

    eta1: float = 1.0
    eta2: float = 1.0
    gain1: float = 1.0
    gain2: float = 1.0
    dark_uncorr1: float = 0.0
    dark_uncorr2: float = 0.0
    dark_corr: float = 0.0
    lo_excess: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.eta1 <= 1.0 and 0.0 <= self.eta2 <= 1.0):
            raise ConfigError("efficiencies must lie in [0, 1]")
        _require_finite(
            self, "gain1", "gain2", "dark_uncorr1", "dark_uncorr2", "dark_corr", "lo_excess"
        )
        if self.gain1 <= 0 or self.gain2 <= 0:
            raise ConfigError("gains must be positive")
        for name in ("dark_uncorr1", "dark_uncorr2", "dark_corr", "lo_excess"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one simulated run."""

    signal: SignalParams
    e_l: float
    phases: tuple
    samples_per_phase: int
    seed: int
    blocked_samples: int | None = None
    drift_rate: float = 0.0
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    splitter: BeamSplitter = field(default_factory=lambda: symmetric_splitter(0.14))
    visibility: float = 1.0
    schedule: tuple = SCHEDULE_DEFAULT
    sig_threshold: float = 3.0
    lo_scan_e_l: tuple = ()
    lo_scan_phi: float = 0.75 * np.pi

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "lo_scan_e_l", tuple(float(e) for e in self.lo_scan_e_l))
        _require_finite(
            self, "e_l", "drift_rate", "sig_threshold", "lo_scan_phi", "phases", "lo_scan_e_l"
        )
        if self.samples_per_phase < 2:
            raise ConfigError("samples_per_phase must be >= 2")
        if len(self.phases) == 0:
            raise ConfigError("phases must be non-empty")
        if self.e_l < 0:
            raise ConfigError("lo field strength must be >= 0")
        if self.lo_scan_e_l and (self.lo_scan_e_l[0] != 0.0 or min(self.lo_scan_e_l) < 0):
            raise ConfigError("the LO scan grid must start with 0 (blocked LO) and be >= 0")
        if self.drift_rate < 0:
            raise ConfigError("drift_rate must be >= 0")
        if not 0.0 < self.visibility <= 1.0:
            raise ConfigError("visibility must lie in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if sorted(self.schedule) != sorted(SCHEDULE_DEFAULT):
            raise ConfigError(
                f"schedule must be a permutation of {SCHEDULE_DEFAULT}, got {self.schedule}"
            )
        if self.blocked_samples is not None and self.blocked_samples < 2:
            raise ConfigError("blocked_samples must be >= 2")
        bs = self.splitter
        smax = np.linalg.svd([[bs.t_s, bs.r_l], [-bs.r_s, bs.t_l]], compute_uv=False)[0]
        if smax > 1.0 + 1e-9:
            raise ConfigError(f"splitter amplitude map is not passive: singular value {smax:.6f}")
        # the largest segment (last block of either scan, strongest LO) must not overflow
        last_block = max(len(self.phases) + len(SCHEDULE_DEFAULT) - 2, 2 * len(self.lo_scan_e_l))
        probe = SegmentSpec(KIND_PHASE, 0, 0.0, max((self.e_l, *self.lo_scan_e_l)), last_block, 2)
        try:
            finite = bool(np.isfinite(segment_statistics(self, probe)[1]).all())
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("sampling covariance overflows: drift, gain, LO or noise too large")

    @property
    def n_blocked(self) -> int:
        if self.blocked_samples is not None:
            return self.blocked_samples
        return 10 * self.samples_per_phase

    def with_seed(self, seed: int) -> "ExperimentConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class SegmentSpec:
    """Where a segment sits in the acquisition (kind, index, block) and what it
    measures (phi, e_l, n samples)."""

    kind: str
    index: int
    phi: float
    e_l: float
    block: int
    n: int


class SegmentEstimate(NamedTuple):
    """A segment's spec and estimate: all analysis needs from a sample source."""

    spec: SegmentSpec
    estimate: CorrelationEstimate


def drift_factor(cfg: ExperimentConfig, block: int) -> float:
    """Relative signal-amplitude scale at the given acquisition block."""
    return 1.0 + cfg.drift_rate * block


def segment_statistics(cfg: ExperimentConfig, spec: SegmentSpec):
    """Exact sampling covariance of one segment.

    Returns (sigma_quantum, sigma_total, lo_flux) where sigma_quantum is the
    gain-scaled photocurrent covariance, sigma_total additionally carries the
    dark and LO-noise terms, and lo_flux is the detected mean LO photon flux
    per channel (drives the classical LO noise).

    Closed form of gaussian.photocurrent_covariance: the detected outputs are
    b_k = u_k a + w_k alpha_L, so their normal-ordered moments are u_j u_k
    times the signal's M = (v_min - v_max) e^{2i angle}/4 and
    N = (v_min + v_max - 2)/4.
    """
    det, bs, sig = cfg.detector, cfg.splitter, cfg.signal
    e_l = 0.0 if spec.kind in (KIND_BLOCKED_LO_A, KIND_BLOCKED_LO_B) else spec.e_l
    a_sig, m, n = 0j, 0j, 0.0
    if spec.kind != KIND_BLOCKED_SIGNAL:
        a_sig = sig.alpha * drift_factor(cfg, spec.block)
        m = 0.25 * (sig.v_min - sig.v_max) * cmath.exp(2j * sig.angle)
        n = 0.25 * (sig.v_min + sig.v_max - 2.0)
    a_lo = cfg.visibility * e_l * cmath.exp(1j * spec.phi)
    etas, gains = (det.eta1, det.eta2), (det.gain1, det.gain2)
    u = (math.sqrt(det.eta1) * bs.t_s, -math.sqrt(det.eta2) * bs.r_s)
    w = (math.sqrt(det.eta1) * bs.r_l, math.sqrt(det.eta2) * bs.t_l)
    amp = [u[k] * a_sig + w[k] * a_lo for k in range(2)]
    lo_ports, darks = (bs.rl2, bs.tl2), (det.dark_uncorr1, det.dark_uncorr2)
    lo_flux = [etas[k] * e_l**2 * lo_ports[k] for k in range(2)]
    sigma_q, sigma_total = np.empty((2, 2)), np.empty((2, 2))
    for j, k in ((0, 0), (0, 1), (1, 1)):
        aj_bar, ak = amp[j].conjugate(), amp[k]
        m_jk, n_jk = u[j] * u[k] * m, u[j] * u[k] * n
        pcov = 2.0 * (aj_bar * ak.conjugate() * m_jk).real + 2.0 * (aj_bar * ak).real * n_jk
        pcov = pcov + abs(m_jk) ** 2 + n_jk**2
        if j == k:
            pcov += abs(aj_bar) ** 2 + n_jk
            # non-interfering LO remainder: independent coherent field, shot noise only
            pcov += etas[j] * (1.0 - cfg.visibility**2) * e_l**2 * lo_ports[j]
        g = gains[j] * gains[k]
        total = g * pcov + det.dark_corr * g
        if j == k:
            total += gains[j] ** 2 * darks[j]
        total += det.lo_excess * ((gains[j] * lo_flux[j]) * (gains[k] * lo_flux[k]))
        sigma_q[j, k] = sigma_q[k, j] = g * pcov
        sigma_total[j, k] = sigma_total[k, j] = total
    return sigma_q, sigma_total, np.array(lo_flux)


def _chol2(sigma: np.ndarray):
    """Entries (a, b, c) of the lower Cholesky factor [[a, 0], [b, c]]."""
    a = np.sqrt(max(sigma[0, 0], 0.0))
    b = sigma[1, 0] / a if a > 0 else 0.0
    c = np.sqrt(max(sigma[1, 1] - b * b, 0.0))
    return a, b, c


def _segment_rng(cfg: ExperimentConfig, spec: SegmentSpec, source: int):
    seq = np.random.SeedSequence([cfg.seed, _KIND_IDS[spec.kind], spec.index, source])
    return np.random.default_rng(seq)


def segment_chunks(cfg: ExperimentConfig, spec: SegmentSpec):
    """Yield one segment's (c1, c2) pairs as (k, 2) chunks of CHUNK_ROWS rows, the
    last maybe shorter, each a view of one reused buffer that the next overwrites.
    Each source draws into its own buffer from its own substream, chunk after
    chunk, so the samples equal one whole-segment draw per substream bit for bit.
    """
    det, g1, g2 = cfg.detector, cfg.detector.gain1, cfg.detector.gain2
    sigma_q, _, lo_flux = segment_statistics(cfg, spec)
    a, b, c = _chol2(sigma_q)
    rin = (g1 * lo_flux[0], g2 * lo_flux[1])
    # extra noise sources: (substream, on, scale, weight on c1, weight on c2)
    sources = (
        (_SRC_DARK1, det.dark_uncorr1 > 0, g1 * np.sqrt(det.dark_uncorr1), 1.0, None),
        (_SRC_DARK2, det.dark_uncorr2 > 0, g2 * np.sqrt(det.dark_uncorr2), None, 1.0),
        (_SRC_DARK_CORR, det.dark_corr > 0, np.sqrt(det.dark_corr), g1, g2),
        (_SRC_RIN, det.lo_excess > 0 and np.any(lo_flux > 0), np.sqrt(det.lo_excess), *rin),
    )
    rows = min(CHUNK_ROWS, spec.n)
    buffer, scratch = np.empty((rows, 2)), np.empty(rows)
    quantum = _segment_rng(cfg, spec, _SRC_QUANTUM)
    noises = [(_segment_rng(cfg, spec, src), np.empty(rows), *w) for src, on, *w in sources if on]
    for start in range(0, spec.n, rows):
        k = min(rows, spec.n - start)
        pairs, tmp = buffer[:k], scratch[:k]
        quantum.standard_normal(out=pairs)
        # in place, elementwise (no BLAS threads, no fused multiply-add): c1 = a*z0, c2 = b*z0 + c*z1
        c1, c2 = pairs[:, 0], pairs[:, 1]
        c2 *= c
        c2 += np.multiply(c1, b, out=tmp)
        c1 *= a
        for rng, noise, scale, w1, w2 in noises:
            z = rng.standard_normal(out=noise[:k])
            z *= scale
            for column, weight in ((c1, w1), (c2, w2)):
                if weight is not None:
                    column += np.multiply(z, weight, out=tmp)
        yield pairs


def draw_segment(cfg: ExperimentConfig, spec: SegmentSpec):
    """Draw the (c1, c2) fluctuation samples of one segment: segment_chunks joined."""
    pairs = np.empty((spec.n, 2))
    for i, chunk in enumerate(segment_chunks(cfg, spec)):
        pairs[i * CHUNK_ROWS : i * CHUNK_ROWS + len(chunk)] = chunk
    return pairs[:, 0], pairs[:, 1]


def phase_scan_plan(cfg: ExperimentConfig):
    """Ordered segment specs of a phase scan, following cfg.schedule."""
    specs = []
    block = 0
    for entry in cfg.schedule:
        if entry == "phases":
            for i, phi in enumerate(cfg.phases):
                specs.append(
                    SegmentSpec(KIND_PHASE, i, float(phi), cfg.e_l, block, cfg.samples_per_phase)
                )
                block += 1
        else:
            specs.append(SegmentSpec(entry, 0, 0.0, cfg.e_l, block, cfg.n_blocked))
            block += 1
    return specs


def lo_scan_plan(cfg: ExperimentConfig, phi: float, e_l_grid):
    """Ordered segment specs of an LO-strength scan at phases phi and phi+pi."""
    grid = [float(e) for e in e_l_grid]
    if len(grid) == 0:
        raise ValueError("LO grid must be non-empty")
    if grid[0] != 0.0:
        raise ValueError("LO grid must start with 0 (blocked LO)")
    if any(e < 0 for e in grid):
        raise ValueError("LO grid values must be >= 0")
    specs = []
    block = 0
    for j, e in enumerate(grid):
        specs.append(SegmentSpec(KIND_LO_PHASE, j, phi, e, block, cfg.samples_per_phase))
        block += 1
        specs.append(
            SegmentSpec(KIND_LO_PHASE_PI, j, (phi + np.pi) % TWO_PI, e, block, cfg.samples_per_phase)
        )
        block += 1
    specs.append(SegmentSpec(KIND_BLOCKED_SIGNAL, 0, phi, cfg.e_l, block, cfg.n_blocked))
    return specs


@dataclass(frozen=True)
class PhaseScanEstimates:
    """Per-phase correlation estimates plus the calibration results."""

    phis: np.ndarray
    estimates: tuple
    blocked_lo: tuple  # (run a, run b)
    blocked_signal: CorrelationEstimate
    config: ExperimentConfig


@dataclass(frozen=True)
class LoScanEstimates:
    """Correlation estimates over the LO grid at the scanned phase pair."""

    phi: float
    e_values: np.ndarray
    at_phi: tuple
    at_phi_pi: tuple
    blocked_signal: CorrelationEstimate
    config: ExperimentConfig


def scan_plan(cfg: ExperimentConfig, kind: str):
    """Ordered segment specs of a "phase_scan" or an "lo_scan" record of cfg."""
    if kind == "phase_scan":
        return phase_scan_plan(cfg)
    if kind == "lo_scan":
        return lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
    raise ValueError(f"unknown record kind {kind!r}")


def simulate_segments(cfg: ExperimentConfig, specs):
    """Draw and reduce one segment at a time, chunk by chunk: a lazy SegmentEstimate stream."""
    for spec in specs:
        moments = analysis.ProductMoments()
        for pairs in segment_chunks(cfg, spec):
            moments.add(pairs)
        yield SegmentEstimate(spec, moments.estimate())


def scan_estimates(kind: str, cfg: ExperimentConfig, segments):
    """Assemble SegmentEstimates of one scan, from any sample source, into
    PhaseScanEstimates ("phase_scan") or LoScanEstimates ("lo_scan").

    Phases and LO strengths come from the segment specs, grid points in index
    order; a missing calibration segment raises ValueError naming its kind.
    """
    by_key = {(spec.kind, spec.index): (spec, est) for spec, est in segments}

    def find(seg_kind, index=0):
        if (seg_kind, index) not in by_key:
            raise ValueError(f"no {seg_kind!r} segment with index {index}")
        return by_key[seg_kind, index]

    def grid(seg_kind):
        return [by_key[key] for key in sorted(by_key) if key[0] == seg_kind]

    blocked_signal = find(KIND_BLOCKED_SIGNAL)[1]
    if kind == "phase_scan":
        phases = grid(KIND_PHASE)
        return PhaseScanEstimates(
            phis=np.array([spec.phi for spec, _ in phases]),
            estimates=tuple(est for _, est in phases),
            blocked_lo=(find(KIND_BLOCKED_LO_A)[1], find(KIND_BLOCKED_LO_B)[1]),
            blocked_signal=blocked_signal,
            config=cfg,
        )
    at_phi = grid(KIND_LO_PHASE)
    return LoScanEstimates(
        phi=float(at_phi[0][0].phi),
        e_values=np.array([spec.e_l for spec, _ in at_phi]),
        at_phi=tuple(est for _, est in at_phi),
        at_phi_pi=tuple(find(KIND_LO_PHASE_PI, spec.index)[1] for spec, _ in at_phi),
        blocked_signal=blocked_signal,
        config=cfg,
    )


def simulate_estimates(cfg: ExperimentConfig, kind: str = "phase_scan"):
    """Simulate one scan of cfg streaming segment by segment (full-scale friendly)."""
    return scan_estimates(kind, cfg, simulate_segments(cfg, scan_plan(cfg, kind)))
