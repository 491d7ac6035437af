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
standard normals z per pair, whatever noise is on.  Each segment draws z from
its own seed-derived substream, an SFC64 generator (numpy's cheapest per
normal), so segments are reproducible independently of evaluation order:
the substream of a segment is SFC64(SeedSequence([seed, kind id, index, 0])),
and one seed gives the same z for every noise setting (paired-seed tests).
plan_chunks, the one seeding path of every sampler, seeds a whole plan with
plan_seeds, which computes the SeedSequence words in one vectorised pass of
numpy's hash (seed_sequence_words): the same words, so the same samples, at a
fraction of the cost of one SeedSequence per substream.  Mode mismatch
(visibility v) reduces the interfering LO amplitude to v*E_L; the orthogonal
LO remainder only adds shot noise.

Only the normals depend on the seed.  Each scan's specs (scan_plan) and each
segment's Cholesky factors are built on first use and kept on the config;
every with_seed copy shares them, any other change of a field starts anew.

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
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .analysis import CHUNK_ROWS, CorrelationEstimate, reduce_chunks
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

# the last entry of every segment's substream key: one stream draws the sum of all
# noise sources; 0 is the key of the quantum stream of versions that drew each
# noise source from its own stream, so noise-free configs keep their samples
_STREAM_ID = 0


def _require_finite(obj, *names):
    """Raise ConfigError naming the first attribute (number or tuple) that is not finite."""
    for name in names:
        value = getattr(obj, name)
        if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
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
    # the seed-free sampling plan (_seed_free), shared by with_seed copies only
    _plan: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
        if self.sig_threshold <= 0:
            raise ConfigError("sig_threshold must be > 0")
        if not 0.0 < self.visibility <= 1.0:
            raise ConfigError("visibility must lie in (0, 1]")
        _require_seed(self.seed)
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
        # the largest segment (last block of either scan, strongest LO) must not overflow, nor
        # the estimator's sum of squared deviations of its products c1*c2, which have variance
        # s11*s22 + s12**2 (margin 40**4 for the tails of the draws)
        last_block = max(len(self.phases) + len(SCHEDULE_DEFAULT) - 2, 2 * len(self.lo_scan_e_l))
        probe = SegmentSpec(KIND_PHASE, 0, 0.0, max((self.e_l, *self.lo_scan_e_l)), last_block, 2)
        try:
            (s11, s12), (_, s22) = segment_statistics(self, probe)[1].tolist()
            finite = all(map(math.isfinite, (s11, s12, s22)))
        except OverflowError:
            finite = False
        if not finite:
            raise ConfigError("sampling covariance overflows: drift, gain, LO or noise too large")
        n_max = max(self.samples_per_phase, self.n_blocked)
        if not math.isfinite(n_max * 40.0**4 * (s11 * s22 + s12 * s12)):
            raise ConfigError("sample products overflow: drift, gain, LO or noise too large")
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

    def _seed_free(self, key, build):
        """The entry key of the seed-free plan, build() on first use."""
        value = self._plan.get(key)
        if value is None:
            value = self._plan[key] = build()
        return value


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
    """Entries (a, b, c) of the lower Cholesky factor [[a, 0], [b, c]], as Python floats."""
    (s11, _), (s21, s22) = sigma.tolist()
    a = math.sqrt(max(s11, 0.0))
    b = s21 / a if a > 0 else 0.0
    c = math.sqrt(max(s22 - b * b, 0.0))
    return a, b, c


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4 uint32 words
_POOL, _MASK32 = 4, 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_XSHIFT, _MIX_MULT_L, _MIX_MULT_R = np.uint32(16), np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The hash constants init * mult**i (mod 2**32) for i = 0 ... count, as uint32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, np.uint32)


@functools.lru_cache(maxsize=None)
def _mix_constants(n_words: int):
    """The (xor, multiplier) constants of mix_entropy's hashmix calls for n_words
    entropy words, one (4, 1) column per step: the pool fill, the four all-pairs
    steps (row i_src unused) and one step per word past the pool."""
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * (n_words - _POOL))
    calls = iter(range(len(consts) - 1))
    steps = [[next(calls) for _ in range(_POOL)]]
    steps += [[0 if i == src else next(calls) for i in range(_POOL)] for src in range(_POOL)]
    steps += [[next(calls) for _ in range(_POOL)] for _ in range(n_words - _POOL)]
    index = np.array(steps)
    return consts[index][..., None], consts[index + 1][..., None]


# generate_state(3, uint64) hashes six pool words, cycling, into three uint64 words
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 6)[:, None]
_STATE_XOR, _STATE_MUL = _STATE_CONSTS[:-1], _STATE_CONSTS[1:]


def _int_words(value: int):
    """The little-endian uint32 words of value >= 0 ([0] for 0), as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def seed_sequence_words(seed: int, keys) -> np.ndarray:
    """SeedSequence([seed, *key]).generate_state(3, np.uint64) for every key of keys,
    an (m, 3) integer array-like with entries in [0, 2**32), in one vectorised
    pass: an (m, 3) uint64 array.

    SeedSequence splits its entropy into uint32 words, hashes them into a pool of
    4 words (mix_entropy) and hashes the pool out again (generate_state).  Each
    step is a fixed sequence of uint32 operations whose hash constants evolve
    with the number of words hashed, never with their values.  Every entropy
    list here has the same number of words (those of seed, then one per key
    entry), so the same numpy operations, on one column per key, hash every key
    at once and give numpy's words bit for bit.
    """
    keys = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    if seed < 0 or (keys < 0).any() or (keys > _MASK32).any():
        raise ValueError("seed must be >= 0 and every key entry in [0, 2**32)")
    seed_words = _int_words(seed)
    entropy = np.empty((len(seed_words) + 3, len(keys)), np.uint32)
    entropy[: len(seed_words)] = np.array(seed_words, np.uint32)[:, None]
    entropy[len(seed_words) :] = keys.T
    xors, muls = _mix_constants(len(entropy))

    def hashmix(values, step):
        out = values ^ xors[step]
        out *= muls[step]
        out ^= out >> _XSHIFT
        return out

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        result ^= result >> _XSHIFT
        return result

    pool = hashmix(entropy[:_POOL], 0)
    # the all-pairs loop over i_dst != i_src leaves pool[i_src] as it is and
    # updates every other pool word once: one step per i_src
    for src in range(_POOL):
        mixed = mix(pool, hashmix(pool[src], 1 + src))
        mixed[src] = pool[src]
        pool = mixed
    for step, word in enumerate(entropy[_POOL:], start=1 + _POOL):
        pool = mix(pool, hashmix(word, step))
    state = np.concatenate((pool, pool[:2])) ^ _STATE_XOR
    state *= _STATE_MUL
    state ^= state >> _XSHIFT
    # each uint64 word is two uint32 words, low word first
    words = (state[1::2].astype(np.uint64) << np.uint64(32)) | state[0::2]
    return np.ascontiguousarray(words.T)


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

    Samplers reach it through plan_chunks.  The substream of a spec is
    SFC64(SeedSequence([seed, kind id, index, 0])); seed_sequence_words
    computes the SeedSequence words of the whole plan in one pass.
    """
    keys = [(_KIND_IDS[s.kind], s.index, _STREAM_ID) for s in specs]
    return seed_sequence_words(cfg.seed, keys)


def substream(words: np.ndarray) -> np.random.Generator:
    """The SFC64 generator whose seed sequence yields words (a row of plan_seeds);
    its state equals that of SFC64(SeedSequence(...)) of the same key."""
    return np.random.Generator(np.random.SFC64(_state_words_type()(words)))


def segment_chunks(cfg: ExperimentConfig, spec: SegmentSpec, seeds: np.ndarray):
    """Yield one segment's (c1, c2) pairs as (k, 2) chunks of CHUNK_ROWS rows, the
    last maybe shorter, each a view of one reused buffer that the next overwrites.
    seeds is the segment's row of plan_seeds.  The pairs are chol(sigma_total) z
    for normals z drawn chunk after chunk from the segment's substream, so they
    equal one whole-segment draw bit for bit.
    """
    a, b, c = cfg._seed_free(spec, lambda: _chol2(segment_statistics(cfg, spec)[1]))
    rows = min(CHUNK_ROWS, spec.n)
    buffer, scratch = np.empty((rows, 2)), np.empty(rows)
    rng = substream(seeds)
    for start in range(0, spec.n, rows):
        k = min(rows, spec.n - start)
        pairs, tmp = buffer[:k], scratch[:k]
        rng.standard_normal(out=pairs)
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
    pairs = np.empty((spec.n, 2))
    [(_, chunks)] = plan_chunks(cfg, [spec])
    for i, chunk in enumerate(chunks):
        pairs[i * CHUNK_ROWS : i * CHUNK_ROWS + len(chunk)] = chunk
    return pairs[:, 0], pairs[:, 1]


def phase_scan_plan(cfg: ExperimentConfig):
    """Ordered segment specs of a phase scan, following cfg.schedule."""
    specs = []  # a segment's block is its plan position
    for entry in cfg.schedule:
        if entry == "phases":
            for i, phi in enumerate(cfg.phases):
                specs.append(
                    SegmentSpec(KIND_PHASE, i, phi, cfg.e_l, len(specs), cfg.samples_per_phase)
                )
        else:
            specs.append(SegmentSpec(entry, 0, 0.0, cfg.e_l, len(specs), cfg.n_blocked))
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
    specs, phi_pi = [], (phi + np.pi) % TWO_PI  # a segment's block is its plan position
    for j, e in enumerate(grid):
        specs.append(SegmentSpec(KIND_LO_PHASE, j, phi, e, len(specs), cfg.samples_per_phase))
        specs.append(SegmentSpec(KIND_LO_PHASE_PI, j, phi_pi, e, len(specs), cfg.samples_per_phase))
    # index 1: the phase scan's offset segment has index 0, and the index picks the substream
    specs.append(SegmentSpec(KIND_BLOCKED_SIGNAL, 1, phi, cfg.e_l, len(specs), cfg.n_blocked))
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
    """Ordered segment specs of a "phase_scan" or an "lo_scan" record of cfg: a new list
    per call, of specs built once per seed-free config."""
    if kind == "phase_scan":
        build = functools.partial(phase_scan_plan, cfg)
    elif kind == "lo_scan":
        build = functools.partial(lo_scan_plan, cfg, cfg.lo_scan_phi, cfg.lo_scan_e_l)
    else:
        raise ValueError(f"unknown record kind {kind!r}")
    return list(cfg._seed_free(kind, build))


def simulate_segments(cfg: ExperimentConfig, specs):
    """Draw and reduce one segment at a time, chunk by chunk: a lazy SegmentEstimate stream."""
    for spec, chunks in plan_chunks(cfg, specs):
        yield SegmentEstimate(spec, reduce_chunks(chunks))


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

    blocked_signal = find(KIND_BLOCKED_SIGNAL, 0 if kind == "phase_scan" else 1)[1]
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
