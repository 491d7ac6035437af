"""Finite-sample photocurrent-fluctuation records for phase and LO scans.

Sampling model: at each phase the pair of ac-coupled detector currents is
drawn from a bivariate normal whose covariance is the exact photon-number
covariance of the two splitter outputs (including detector efficiencies and
mode-mismatch) scaled by the gains, plus additive electronic noise:

* uncorrelated dark noise per channel,
* correlated dark noise common to both channels,
* classical LO intensity noise, common to both channels and proportional to
  the mean LO flux on each detector.

The noise sources are independent Gaussians, so their sum with the quantum
fluctuations is a Gaussian of the summed covariance, sigma_total of
segment_statistics: a segment draws (c1, c2) = chol(sigma_total) z, two
standard normals z per pair, whatever noise is on; a chunk of k pairs draws its z0
then its z1 as one block of 2k, so the samples depend on CHUNK_ROWS.  A chunk of at
least CHUNK_ROWS // 2 pairs fills it by numpy's ziggurat run on whole arrays of raw
SFC64 words, faster there than standard_normal, which fills a shorter one.  Each
segment draws z from its own seed-derived substream, an SFC64 generator (numpy's
cheapest per normal), so segments are reproducible independently of evaluation
order, and one seed gives the same z for every noise setting (paired-seed tests).
plan_chunks, the one seeding path of every sampler, seeds a whole plan with
plan_seeds: one SeedSequence([seed, kind id]) per segment kind, whose
generate_state words give segment (kind, index) its three SFC64 state words,
row index of them.  Mode mismatch (visibility v) reduces the interfering LO
amplitude to v*E_L; the orthogonal LO remainder only adds shot noise.

Only the normals depend on the seed.  Building a config builds and checks its
seed-free plan: each scan's specs (scan_plan) and every segment's Cholesky
factors (segment_factors), shared by its with_seed copies only.

Analysis sees a segment only as a SegmentEstimate, its spec plus its
correlation estimate.  simulate_segments yields them from chunked draws and
records.read_record from files, each with one analysis.reduce_chunks call per
segment; scan_estimates assembles either stream into PhaseScanEstimates or
LoScanEstimates.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import CHUNK_ROWS, CorrelationEstimate, reduce_chunks
from .errors import ConfigError
from .splitter import BeamSplitter, symmetric_splitter

TWO_PI = 2.0 * np.pi

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


def _require_finite(obj, *names):
    """Raise ConfigError naming the first attribute (number or tuple) that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not all(cmath.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def _require_seed(seed):
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SignalParams:
    """Principal quadrature variances, squeezed-axis angle and displacement."""

    v_min: float
    v_max: float
    angle: float
    alpha: complex

    def __post_init__(self):
        # from_quadrature_variances's checks in closed form; exp(2i angle) needs a finite 2*angle
        _require_finite(self, "v_min", "v_max", "angle", "alpha")
        if not math.isfinite(2.0 * self.angle):
            raise ConfigError(f"squeeze angle must be finite when doubled, got {self.angle!r}")
        v_min, v_max = self.v_min, self.v_max
        if v_min <= 0 or v_max < v_min:
            raise ConfigError(f"need 0 < v_min <= v_max, got ({v_min}, {v_max})")
        if v_min * v_max < 1.0 - 1e-9:
            raise ConfigError(
                f"variance product {v_min * v_max:.6g} < 1 violates the uncertainty relation"
            )

    def state(self, amplitude_scale: float = 1.0):
        """The signal as a validated gaussian.GaussianState (the oracle; no run calls it)."""
        from .gaussian import from_quadrature_variances
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
    lo_scan_e_l: tuple = ()
    lo_scan_phi: float = 0.75 * np.pi
    # the seed-free sampling plan, built by __post_init__ and shared by with_seed copies
    # only: each scan's specs by record kind, and each planned segment's Cholesky factors
    _plans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "phases", tuple(float(p) for p in self.phases))
        object.__setattr__(self, "lo_scan_e_l", tuple(float(e) for e in self.lo_scan_e_l))
        _require_finite(self, "e_l", "drift_rate", "lo_scan_phi", "phases", "lo_scan_e_l")
        if self.samples_per_phase < 2:
            raise ConfigError("samples_per_phase must be >= 2")
        if len(self.phases) == 0:
            raise ConfigError("phases must be non-empty")
        if self.e_l < 0:
            raise ConfigError("lo field strength must be >= 0")
        if self.drift_rate < 0:
            raise ConfigError("drift_rate must be >= 0")
        if not 0.0 < self.visibility <= 1.0:
            raise ConfigError("visibility must lie in (0, 1]")
        _require_seed(self.seed)
        if self.blocked_samples is not None and self.blocked_samples < 2:
            raise ConfigError("blocked_samples must be >= 2")
        bs = self.splitter
        smax = np.linalg.svd([[bs.t_s, bs.r_l], [-bs.r_s, bs.t_l]], compute_uv=False)[0]
        if smax > 1.0 + 1e-9:
            raise ConfigError(f"splitter amplitude map is not passive: singular value {smax:.6f}")
        for kind in ("phase_scan", "lo_scan") if self.lo_scan_e_l else ("phase_scan",):
            self._plans[kind] = plan = tuple(scan_plan(self, kind))
            self._factors.update((spec, segment_factors(self, spec)) for spec in plan)
        if self.lo_scan_e_l and len(set(self.lo_scan_e_l)) < 3:
            raise ConfigError(
                f"the LO scan grid needs at least 3 distinct field strengths, got {self.lo_scan_e_l}"
            )

    @property
    def n_blocked(self) -> int:
        if self.blocked_samples is not None:
            return self.blocked_samples
        return 10 * self.samples_per_phase

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """This config with another seed, which alone is checked; it shares the seed-free plan."""
        _require_seed(seed)
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, seed=seed)
        return copy


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


def segment_factors(cfg: ExperimentConfig, spec: SegmentSpec):
    """The lower Cholesky factor [[a, 0], [b, c]] of a segment's sigma_total as (a, b, c):
    the one place that computes a segment's covariance, once per segment of the plans of
    a seed-free config (and afresh for any other spec).  ConfigError refuses it when not
    finite, and products c1*c2 (variance s11*s22 + s12**2) whose squared deviations over
    n pairs may overflow (margin 40**4 for the draws' tails) or, when nonzero, whose
    variance over n is below 4 smallest normal floats."""
    if (factors := cfg._factors.get(spec)) is not None:
        return factors
    try:
        (s11, s12), (_, s22) = segment_statistics(cfg, spec)[1].tolist()
        finite = all(map(math.isfinite, (s11, s12, s22)))
    except OverflowError:
        finite = False
    if not finite:
        raise ConfigError("sampling covariance overflows: drift, gain, LO or noise too large")
    n = min(spec.n, sys.float_info.max)  # a count past the float range: the sum overflows
    if not math.isfinite(n * 40.0**4 * (s11 * s22 + s12 * s12)):
        raise ConfigError("sample products overflow: drift, gain, LO or noise too large")
    a, d = math.sqrt(max(s11, 0.0)), math.sqrt(max(s22, 0.0))
    # sqrt(s11*s22 + s12**2) from a*d, so that it does not underflow
    if 0.0 < math.hypot(a * d, s12) < math.sqrt(4.0 * n * sys.float_info.min):
        raise ConfigError("sample products underflow: gain or efficiency too small")
    b = s12 / a if a > 0 else 0.0
    return a, b, math.sqrt(max(s22 - b * b, 0.0))


@functools.cache
def _state_words_type():
    """A seed sequence that hands SFC64 its state words, computed ahead: SFC64
    seeds itself from generate_state(3, np.uint64) and nothing else.  Built on
    first use, so that importing hccm does not import numpy.random (analyze and
    test never draw)."""

    class StateWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return StateWords


def plan_seeds(cfg: ExperimentConfig, specs) -> np.ndarray:
    """The seed words of every segment's substream of a plan, a (len(specs), 3)
    uint64 array; substream(words[i]) is the generator of segment i.

    Samplers reach it through plan_chunks.  Each kind of the plan draws the words
    SeedSequence([seed, kind id]).generate_state(3 * count) once, count being 1 plus
    its largest index; segment (kind, index) takes row index of them (words 3 index
    to 3 index + 2).  The words of generate_state do not depend on how many are
    asked for, so a segment's row depends on neither the plan nor the order.
    """
    counts = {}
    for s in specs:
        counts[s.kind] = max(counts.get(s.kind, 0), s.index + 1)
    rows = {
        kind: np.random.SeedSequence([cfg.seed, _KIND_IDS[kind]])
        .generate_state(3 * count, np.uint64)
        .reshape(count, 3)
        for kind, count in counts.items()
    }
    return np.array([rows[s.kind][s.index] for s in specs], np.uint64).reshape(-1, 3)


def substream(words: np.ndarray) -> np.random.Generator:
    """The SFC64 generator seeded with words (a row of plan_seeds), the three state
    words that SFC64 takes from a seed sequence."""
    return np.random.Generator(np.random.SFC64(_state_words_type()(words)))


@functools.cache
def _ziggurat_tables():
    """numpy's normal ziggurat (Marsaglia & Tsang 2000): 256 layers of area v, layer 0 the
    base with the tail past r, layer l >= 1 the box [0, x_l] x [f_l, f_{l-1}], f_l =
    exp(-x_l^2/2), x_0 = 0, x_255 = r.  Returns (k, w, f, r), k and w by a word's 9 low bits
    (layer, sign): k the rabs below which x is under the curve, w the signed width per rabs."""
    r, v = 3.6541528853610088, 4.92867323399e-3
    x = np.append(np.zeros(255), r)
    for i in range(255, 1, -1):
        x[i - 1] = math.sqrt(-2.0 * math.log(v / x[i] + math.exp(-0.5 * x[i] * x[i])))
    f = np.exp(-0.5 * x * x)
    w = np.append(v / f[255], x[1:])  # the base's width: its rectangle plus the tail
    k = (np.append(r / w[0], x[:-1] / x[1:]) * 2.0**52).astype(np.int64)
    return np.tile(k, 2), np.concatenate([w, -w]) * 2.0**-52, f, r


def _ziggurat_normals(rng: np.random.Generator, out: np.ndarray, layer: np.ndarray):
    """Fill out with standard normals by numpy's ziggurat on whole arrays (layer: an int64
    work array of out's size), one SFC64 word per candidate: bits 0-7 its layer, bit 8 its
    sign, 12-63 its 52-bit rabs.  Wedge and tail candidates take numpy's tests; a rejected
    wedge one is redrawn by standard_normal, as numpy restarts there: every value is exact."""
    k, w, f, r = _ziggurat_tables()
    words = rng.bit_generator.random_raw(out.size)
    np.bitwise_and(words.view(np.int64), 511, out=layer)
    rabs = np.right_shift(words, 12, out=words).view(np.int64)
    k.take(layer, mode="wrap", out=out.view(np.int64))  # intp indices: numpy's fast take
    miss = np.flatnonzero(rabs >= out.view(np.int64))
    w.take(layer, mode="wrap", out=out)
    out *= rabs
    lay = layer[miss] & 255
    wedge, lay, tail = miss[lay > 0], lay[lay > 0], miss[lay == 0]
    x = out[wedge]
    redraw = wedge[(f[lay - 1] - f[lay]) * rng.random(wedge.size) + f[lay] >= np.exp(-0.5 * x * x)]
    while tail.size:
        xx = -np.log1p(-rng.random(tail.size)) / r
        keep = -2.0 * np.log1p(-rng.random(tail.size)) > xx * xx
        out[tail[keep]] = np.copysign(r + xx[keep], out[tail[keep]])
        tail = tail[~keep]
    out[redraw] = rng.standard_normal(redraw.size)


def segment_chunks(cfg: ExperimentConfig, spec: SegmentSpec, seeds: np.ndarray):
    """Yield one segment's (c1, c2) pairs as (k, 2) chunks of CHUNK_ROWS rows, the
    last maybe shorter, each a view of one reused buffer that the next overwrites.
    seeds is the segment's row of plan_seeds.  The pairs are chol(sigma_total) z:
    each chunk draws its 2k normals as one block from the segment's substream, the
    first k its z0 and the next k its z1, so each column is contiguous and the
    samples depend on CHUNK_ROWS.  A chunk of k >= CHUNK_ROWS // 2 pairs draws them
    with _ziggurat_normals, which skips standard_normal's per-normal branches but pays
    some 25 numpy calls per chunk, a loss below about 4 000 to 6 800 normals, far under
    the CHUNK_ROWS normals of the shortest such chunk; a shorter chunk, and so every
    segment shorter than CHUNK_ROWS // 2, draws them with standard_normal.
    """
    a, b, c = segment_factors(cfg, spec)
    rows = min(CHUNK_ROWS, spec.n)
    buffer, scratch = np.empty(2 * rows), np.empty(2 * rows)
    rng = substream(seeds)
    for start in range(0, spec.n, rows):
        k = min(rows, spec.n - start)
        flat, tmp = buffer[: 2 * k], scratch[:k]
        if k >= CHUNK_ROWS // 2:
            _ziggurat_normals(rng, flat, scratch[: 2 * k].view(np.int64))
        else:
            rng.standard_normal(out=flat)
        pairs = flat.reshape(2, k).T
        # in place, elementwise (no BLAS threads, no fused multiply-add): c1 = a*z0, c2 = b*z0 + c*z1
        c1, c2 = pairs[:, 0], pairs[:, 1]
        c2 *= c
        c2 += np.multiply(c1, b, out=tmp)
        c1 *= a
        yield pairs


def plan_chunks(cfg: ExperimentConfig, specs):
    """Yield (spec, segment_chunks of spec) for each segment of a plan, in order:
    the one place that pairs a segment with its row of plan_seeds."""
    specs = list(specs)
    for spec, seeds in zip(specs, plan_seeds(cfg, specs)):
        yield spec, segment_chunks(cfg, spec, seeds)


def draw_segment(cfg: ExperimentConfig, spec: SegmentSpec):
    """Draw the (c1, c2) fluctuation samples of one segment: segment_chunks joined."""
    columns = np.empty((2, spec.n))
    [(_, chunks)] = plan_chunks(cfg, [spec])
    for i, chunk in enumerate(chunks):
        columns[:, i * CHUNK_ROWS : i * CHUNK_ROWS + len(chunk)] = chunk.T
    return columns[0], columns[1]


def phase_scan_plan(cfg: ExperimentConfig):
    """Ordered segment specs of a phase scan, each one's block its plan position."""
    planned = [  # blocked-LO run a, the phases, blocked-LO run b, then the blocked-signal run
        (KIND_BLOCKED_LO_A, 0, 0.0, cfg.n_blocked),
        *((KIND_PHASE, i, phi, cfg.samples_per_phase) for i, phi in enumerate(cfg.phases)),
        (KIND_BLOCKED_LO_B, 0, 0.0, cfg.n_blocked),
        (KIND_BLOCKED_SIGNAL, 0, 0.0, cfg.n_blocked),
    ]
    return [SegmentSpec(k, i, phi, cfg.e_l, b, n) for b, (k, i, phi, n) in enumerate(planned)]


def lo_scan_plan(cfg: ExperimentConfig, phi: float, e_l_grid):
    """Ordered segment specs of an LO-strength scan at phases phi and phi+pi."""
    grid = [float(e) for e in e_l_grid]
    if not grid or grid[0] != 0.0 or min(grid) < 0:
        raise ConfigError("the LO scan grid must start with 0 (blocked LO) and be >= 0")
    specs, phi_pi = [], (phi + np.pi) % TWO_PI  # a segment's block is its plan position
    for j, e in enumerate(grid):
        specs.append(SegmentSpec(KIND_LO_PHASE, j, phi, e, len(specs), cfg.samples_per_phase))
        specs.append(SegmentSpec(KIND_LO_PHASE_PI, j, phi_pi, e, len(specs), cfg.samples_per_phase))
    # index 1: the phase scan's offset segment has index 0, and the index picks the substream
    specs.append(SegmentSpec(KIND_BLOCKED_SIGNAL, 1, phi, cfg.e_l, len(specs), cfg.n_blocked))
    return specs


@dataclass(frozen=True)
class PhaseScanEstimates:
    """Per-phase correlation estimates, as (P,) values and stderr arrays, plus the
    calibration results."""

    phis: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    blocked_lo: tuple  # (run a, run b)
    blocked_signal: CorrelationEstimate


@dataclass(frozen=True)
class LoScanEstimates:
    """Correlation estimates over the LO grid of J strengths at the scanned phase pair:
    (2, J) values and stderr arrays, row 0 at phi and row 1 at phi + pi."""

    phi: float
    e_values: np.ndarray
    values: np.ndarray
    stderr: np.ndarray
    blocked_signal: CorrelationEstimate


def scan_plan(cfg: ExperimentConfig, kind: str):
    """Ordered segment specs of a "phase_scan" or an "lo_scan" record of cfg: a new list
    per call, of the specs built with cfg (an LO scan of an empty grid is built here,
    and refused)."""
    if (plan := cfg._plans.get(kind)) is not None:
        return list(plan)
    if kind == "phase_scan":
        return phase_scan_plan(cfg)
    if kind == "lo_scan":
        return lo_scan_plan(cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
    raise ValueError(f"unknown record kind {kind!r}")


def simulate_segments(cfg: ExperimentConfig, specs):
    """Draw and reduce one segment at a time, chunk by chunk: a lazy SegmentEstimate stream."""
    for spec, chunks in plan_chunks(cfg, specs):
        yield SegmentEstimate(spec, reduce_chunks(chunks))


def expected_segments(cfg: ExperimentConfig, kind: str = "phase_scan"):
    """The exact SegmentEstimates of a scan of cfg, in plan order: the products' mean s12
    of segment_statistics' sigma_total, and its standard error sqrt((s11 s22 + s12^2) / n)."""
    for spec in scan_plan(cfg, kind):
        (s11, s12), (_, s22) = segment_statistics(cfg, spec)[1].tolist()
        stderr = math.sqrt((s11 * s22 + s12 * s12) / spec.n)
        yield SegmentEstimate(spec, CorrelationEstimate(value=s12, stderr=stderr, n=spec.n))


def scan_estimates(kind: str, cfg: ExperimentConfig, segments):
    """Assemble one scan's SegmentEstimates, in plan order from any sample source, by
    position into PhaseScanEstimates ("phase_scan") or LoScanEstimates ("lo_scan"): their
    kinds must be those of scan_plan(cfg, kind) (ValueError otherwise)."""
    specs, ests = tuple(zip(*segments)) or ((), ())
    if tuple(spec.kind for spec in specs) != tuple(s.kind for s in scan_plan(cfg, kind)):
        raise ValueError(f"the segments do not follow the {kind} plan of the config")
    values, stderr = np.array([(e.value, e.stderr) for e in ests]).T
    if kind == "phase_scan":
        return PhaseScanEstimates(
            phis=np.array([spec.phi for spec in specs[1:-2]]),
            values=values[1:-2],
            stderr=stderr[1:-2],
            blocked_lo=(ests[0], ests[-2]),
            blocked_signal=ests[-1],
        )
    # grid point j at phi and at phi + pi, then the blocked-signal run
    return LoScanEstimates(
        phi=float(specs[0].phi),
        e_values=np.array([spec.e_l for spec in specs[:-1:2]]),
        values=values[:-1].reshape(-1, 2).T,
        stderr=stderr[:-1].reshape(-1, 2).T,
        blocked_signal=ests[-1],
    )


def simulate_estimates(cfg: ExperimentConfig, kind: str = "phase_scan"):
    """Simulate one scan of cfg streaming segment by segment (full-scale friendly)."""
    return scan_estimates(kind, cfg, simulate_segments(cfg, scan_plan(cfg, kind)))
