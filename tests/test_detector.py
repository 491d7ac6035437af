from dataclasses import replace

import numpy as np
import pytest

from hccm.analysis import CHUNK_ROWS, ProductMoments, estimate_correlation
from hccm.detector import (
    _SRC_DARK1,
    _SRC_DARK2,
    _SRC_DARK_CORR,
    _SRC_QUANTUM,
    _SRC_RIN,
    KIND_PHASE,
    DetectorConfig,
    ExperimentConfig,
    SignalParams,
    _chol2,
    _segment_rng,
    draw_segment,
    drift_factor,
    lo_scan_plan,
    phase_scan_plan,
    segment_statistics,
    simulate_estimates,
    simulate_segments,
)
from hccm.errors import ConfigError
from hccm.gaussian import (
    LocalOscillator,
    apply_loss,
    photocurrent_covariance,
    two_mode_output,
    vacuum,
)
from hccm.splitter import BeamSplitter, symmetric_splitter

from conftest import truth_correlation


def draw_plan(cfg, specs):
    return [draw_segment(cfg, spec) for spec in specs]


def small_config(**overrides):
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 12 for i in range(12)),
        samples_per_phase=2000,
        blocked_samples=4000,
        seed=77,
        detector=DetectorConfig(eta1=0.94, eta2=0.94),
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_bad_samples(self):
        with pytest.raises(ConfigError):
            small_config(samples_per_phase=1)

    def test_empty_phases(self):
        with pytest.raises(ConfigError):
            small_config(phases=())

    def test_bad_visibility(self):
        with pytest.raises(ConfigError):
            small_config(visibility=0.0)

    def test_bad_schedule(self):
        with pytest.raises(ConfigError):
            small_config(schedule=("phases", "blocked_lo_a"))

    def test_negative_seed(self):
        with pytest.raises(ConfigError):
            small_config(seed=-1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["e_l", "drift_rate", "sig_threshold", "lo_scan_phi", "phases", "lo_scan_e_l"]
    )
    def test_non_finite_rejected(self, field, bad):
        value = {"phases": (0.0, bad, 1.0), "lo_scan_e_l": (0.0, bad)}.get(field, bad)
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "field", ["gain1", "gain2", "dark_uncorr1", "dark_uncorr2", "dark_corr", "lo_excess"]
    )
    def test_non_finite_detector_rejected(self, field, bad):
        with pytest.raises(ConfigError, match=field):
            DetectorConfig(**{field: bad})

    def test_non_passive_splitter_rejected(self):
        # a valid BeamSplitter whose amplitude map amplifies: no vacuum completion
        bs = BeamSplitter(ts2=0.9, tl2=0.1, rs2=0.1, rl2=0.9)
        with pytest.raises(ConfigError, match="passive"):
            small_config(splitter=bs)

    @pytest.mark.parametrize(
        "overrides",
        [
            # finite rate, but the drift factor of the last block is not
            dict(drift_rate=1e308),
            dict(drift_rate=1e308, signal=SignalParams(1.0, 1.0, 0.0, 0j)),
            # finite values whose squares overflow the covariance
            dict(drift_rate=1e160),
            dict(e_l=1e160),
            dict(lo_scan_e_l=(0.0, 1e160)),
            dict(detector=DetectorConfig(gain1=1e200)),
            dict(detector=DetectorConfig(dark_corr=1e300, gain1=1e10)),
        ],
    )
    def test_covariance_overflow_rejected(self, overrides):
        with pytest.raises(ConfigError, match="overflows"):
            small_config(**overrides)

    def test_lo_grid_must_start_at_zero(self):
        with pytest.raises(ConfigError, match="LO scan grid"):
            small_config(lo_scan_e_l=(1.0, 2.0))
        with pytest.raises(ConfigError, match="LO scan grid"):
            small_config(lo_scan_e_l=(0.0, -1.0))


def composed_statistics(cfg, spec):
    """segment_statistics through validated Gaussian states: the reference."""
    det = cfg.detector
    e_l = 0.0 if spec.kind in ("blocked_lo_a", "blocked_lo_b") else spec.e_l
    state = cfg.signal.state(drift_factor(cfg, spec.block))
    if spec.kind == "blocked_signal":
        state = vacuum()
    lo = LocalOscillator(cfg.visibility * e_l, spec.phi)
    joint = apply_loss(two_mode_output(state, lo, cfg.splitter), (det.eta1, det.eta2))
    pcov = photocurrent_covariance(joint)
    etas, gains = np.array([det.eta1, det.eta2]), np.array([det.gain1, det.gain2])
    lo_ports = np.array([cfg.splitter.rl2, cfg.splitter.tl2])
    pcov[np.diag_indices(2)] += etas * (1.0 - cfg.visibility**2) * e_l**2 * lo_ports
    lo_flux = etas * e_l**2 * lo_ports
    sigma_q = np.outer(gains, gains) * pcov
    sigma_total = sigma_q + det.dark_corr * np.outer(gains, gains)
    sigma_total[np.diag_indices(2)] += gains**2 * np.array([det.dark_uncorr1, det.dark_uncorr2])
    sigma_total += det.lo_excess * np.outer(gains * lo_flux, gains * lo_flux)
    return sigma_q, sigma_total, lo_flux


def random_passive_splitter(rng):
    """Random asymmetric lossy splitter with a passive amplitude map."""
    while True:
        ts2, tl2 = rng.uniform(0.05, 0.95, size=2)
        rs2, rl2 = rng.uniform(0.02, 1.0 - ts2), rng.uniform(0.0, 1.0 - tl2)
        bs = BeamSplitter(ts2=ts2, tl2=tl2, rs2=rs2, rl2=rl2)
        amp = [[bs.t_s, bs.r_l], [-bs.r_s, bs.t_l]]
        if np.linalg.svd(amp, compute_uv=False)[0] <= 1.0:
            return bs


def test_closed_form_matches_composed_states(rng):
    kinds = set()
    worst = 0.0
    for _ in range(60):
        r, extra = rng.uniform(0.0, 1.0), rng.uniform(1.0, 2.0)
        cfg = small_config(
            signal=SignalParams(
                v_min=extra * np.exp(-2 * r),
                v_max=extra * np.exp(2 * r),
                angle=rng.uniform(0.0, 2 * np.pi),
                alpha=complex(*rng.uniform(-3.0, 3.0, size=2)),
            ),
            e_l=rng.uniform(0.1, 4.0),
            phases=tuple(rng.uniform(0.0, 2 * np.pi, size=4)),
            drift_rate=rng.uniform(0.0, 0.05),
            detector=DetectorConfig(
                eta1=rng.uniform(0.3, 1.0),
                eta2=rng.uniform(0.3, 1.0),
                gain1=rng.uniform(0.2, 3.0),
                gain2=rng.uniform(0.2, 3.0),
                dark_uncorr1=rng.uniform(0.0, 2.0),
                dark_uncorr2=rng.uniform(0.0, 2.0),
                dark_corr=rng.uniform(0.0, 1.0),
                lo_excess=rng.uniform(0.0, 0.1),
            ),
            splitter=random_passive_splitter(rng),
            visibility=rng.uniform(0.5, 1.0),
        )
        grid = (0.0, *rng.uniform(0.1, 4.0, size=2))
        for spec in phase_scan_plan(cfg) + lo_scan_plan(cfg, rng.uniform(0, 2 * np.pi), grid):
            kinds.add(spec.kind)
            for ours, ref in zip(segment_statistics(cfg, spec), composed_statistics(cfg, spec)):
                scale = np.abs(ref).max()
                assert np.abs(ours - ref).max() <= 1e-12 * scale
                worst = max(worst, np.abs(ours - ref).max() / max(scale, 1e-300))
    assert len(kinds) == 6
    print(f"closed form vs composed states: worst relative difference {worst:.1e}")


class TestDeterminism:
    def test_identical_records(self):
        cfg = small_config()
        r1 = draw_plan(cfg, phase_scan_plan(cfg))
        r2 = draw_plan(cfg, phase_scan_plan(cfg))
        for (a1, a2), (b1, b2) in zip(r1, r2):
            np.testing.assert_array_equal(a1, b1)
            np.testing.assert_array_equal(a2, b2)

    def test_order_independent_segments(self, rng):
        # drawing segments in any order reproduces the record bitwise
        cfg = small_config()
        record = draw_plan(cfg, phase_scan_plan(cfg))
        specs = list(phase_scan_plan(cfg))
        order = rng.permutation(len(specs))
        drawn = {i: draw_segment(cfg, specs[i]) for i in order}
        for i, (seg_c1, seg_c2) in enumerate(record):
            c1, c2 = drawn[i]
            np.testing.assert_array_equal(seg_c1, c1)
            np.testing.assert_array_equal(seg_c2, c2)

    def test_seed_changes_samples(self):
        cfg1, cfg2 = small_config(seed=1), small_config(seed=2)
        r1 = draw_plan(cfg1, phase_scan_plan(cfg1))
        r2 = draw_plan(cfg2, phase_scan_plan(cfg2))
        assert not np.array_equal(r1[0][0], r2[0][0])


class TestSamplingStatistics:
    def test_degenerate_blocked_vacuum(self):
        cfg = small_config(
            signal=SignalParams(v_min=1.0, v_max=1.0, angle=0.0, alpha=0.0),
            e_l=0.0,
            detector=DetectorConfig(),
            visibility=1.0,
        )
        spec = [s for s in phase_scan_plan(cfg) if s.kind == KIND_PHASE][0]
        c1, c2 = draw_segment(cfg, spec)
        np.testing.assert_allclose(c1, 0.0, atol=1e-12)
        np.testing.assert_allclose(c2, 0.0, atol=1e-12)

    def test_sample_covariance_matches_model(self):
        cfg = small_config(
            samples_per_phase=200_000,
            detector=DetectorConfig(
                eta1=0.9,
                eta2=0.8,
                gain1=1.3,
                gain2=0.7,
                dark_uncorr1=2.0,
                dark_uncorr2=1.0,
                dark_corr=0.5,
                lo_excess=0.002,
            ),
        )
        spec = phase_scan_plan(cfg)[2]
        assert spec.kind == KIND_PHASE
        c1, c2 = draw_segment(cfg, spec)
        _, sigma_total, _ = segment_statistics(cfg, spec)
        emp = np.cov(np.vstack([c1, c2]))
        scale = np.sqrt(np.outer(np.diag(sigma_total), np.diag(sigma_total)))
        np.testing.assert_allclose(emp / scale, sigma_total / scale, atol=0.02)

    def test_draws_match_matrix_product(self):
        # the elementwise Cholesky product equals z @ L.T up to rounding
        cfg = small_config()
        spec = phase_scan_plan(cfg)[3]
        sigma_q, _, _ = segment_statistics(cfg, spec)
        z = _segment_rng(cfg, spec, _SRC_QUANTUM).standard_normal((spec.n, 2))
        expected = z @ np.linalg.cholesky(sigma_q).T
        c1, c2 = draw_segment(cfg, spec)
        scale = np.sqrt(np.diag(sigma_q))
        np.testing.assert_allclose(c1, expected[:, 0], rtol=0, atol=1e-12 * scale[0])
        np.testing.assert_allclose(c2, expected[:, 1], rtol=0, atol=1e-12 * scale[1])

    def test_ac_coupling_zero_means(self):
        cfg = small_config(samples_per_phase=50_000)
        for spec in [s for s in phase_scan_plan(cfg) if s.kind == KIND_PHASE]:
            for arr in draw_segment(cfg, spec):
                se = arr.std(ddof=1) / np.sqrt(arr.size)
                assert abs(arr.mean()) < 6 * se

    def test_estimates_converge_to_prediction(self):
        cfg = small_config(samples_per_phase=400_000, blocked_samples=400_000)
        est = simulate_estimates(cfg)
        for phi, e in zip(est.phis, est.estimates):
            expected = truth_correlation(cfg, phi) + est.blocked_signal.value
            assert abs(e.value - expected) < 5 * np.hypot(e.stderr, est.blocked_signal.stderr)

    def test_segment_covariance_equals_truth_helper(self):
        # the analytic Fourier truth and the exact covariance builder agree
        cfg = small_config()
        for spec in phase_scan_plan(cfg):
            if spec.kind != KIND_PHASE:
                continue
            _, sigma_total, _ = segment_statistics(cfg, spec)
            expected = truth_correlation(cfg, spec.phi)
            assert sigma_total[0, 1] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_cross_term_equals_predicted_correlation(self):
        # with equal efficiencies, detection loss folds into the signal state
        # and the LO strength, closing the loop with the analytic prediction
        from hccm.gaussian import apply_loss, normal_ordered_signal_moments
        from hccm.splitter import delta_g_contributions, predicted_correlation

        cfg = small_config()
        eta = cfg.detector.eta1
        degraded = apply_loss(cfg.signal.state(), eta)
        e_int = np.sqrt(eta) * cfg.e_l
        for spec in phase_scan_plan(cfg)[1:5]:
            m = normal_ordered_signal_moments(degraded, spec.phi)
            dg = delta_g_contributions(m, e_int, cfg.splitter)
            pred = predicted_correlation(
                dg, cfg.detector.gain1, cfg.detector.gain2, cfg.visibility
            )
            sigma_q, _, _ = segment_statistics(cfg, spec)
            assert sigma_q[0, 1] == pytest.approx(pred, rel=1e-9, abs=1e-12)

    def test_gain_scaling_is_exact(self):
        cfg1 = small_config()
        cfg2 = small_config(
            detector=DetectorConfig(eta1=0.94, eta2=0.94, gain1=2.5, gain2=0.4)
        )
        s1 = draw_segment(cfg1, phase_scan_plan(cfg1)[3])
        s2 = draw_segment(cfg2, phase_scan_plan(cfg2)[3])
        np.testing.assert_allclose(s2[0], 2.5 * s1[0], rtol=1e-12)
        np.testing.assert_allclose(s2[1], 0.4 * s1[1], rtol=1e-12)

    def test_uncorrelated_dark_leaves_expectation(self):
        # paired seeds: the quantum draw is shared, dark noise is additive
        diffs = []
        for seed in range(30):
            cfg_a = small_config(seed=seed, samples_per_phase=4000)
            cfg_b = small_config(
                seed=seed,
                samples_per_phase=4000,
                detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_uncorr1=50.0, dark_uncorr2=50.0),
            )
            spec = phase_scan_plan(cfg_a)[1]
            ca = np.column_stack(draw_segment(cfg_a, spec))
            cb = np.column_stack(draw_segment(cfg_b, spec))
            diffs.append(estimate_correlation(cb).value - estimate_correlation(ca).value)
        diffs = np.array(diffs)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert abs(diffs.mean()) < 4 * se

    def test_correlated_noise_offset_recoverable(self):
        cfg = small_config(
            samples_per_phase=300_000,
            blocked_samples=300_000,
            detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_corr=3.0, lo_excess=0.001),
        )
        est = simulate_estimates(cfg)
        clean = small_config(samples_per_phase=300_000, blocked_samples=300_000)
        est_clean = simulate_estimates(clean)
        # the blocked-signal run recovers the full phi-independent offset
        for e, e0, phi in zip(est.estimates, est_clean.estimates, est.phis):
            corrected = e.value - est.blocked_signal.value
            expected = truth_correlation(cfg, phi)
            tol = 5 * np.hypot(e.stderr, est.blocked_signal.stderr)
            assert abs(corrected - expected) < tol


class TestDrift:
    def test_drift_factor_schedule(self):
        cfg = small_config(drift_rate=0.01)
        specs = phase_scan_plan(cfg)
        assert specs[0].kind == "blocked_lo_a" and specs[0].block == 0
        assert specs[-1].kind == "blocked_signal"
        assert drift_factor(cfg, specs[-2].block) == pytest.approx(
            1.0 + 0.01 * (len(cfg.phases) + 1)
        )

    def test_blocked_runs_separate_with_drift(self):
        gaps = []
        for drift in (0.0, 0.003, 0.008):
            vals = []
            for seed in range(8):
                cfg = small_config(seed=seed, drift_rate=drift, blocked_samples=50_000)
                est = simulate_estimates(cfg)
                vals.append(abs(est.blocked_lo[0].value - est.blocked_lo[1].value))
            gaps.append(np.mean(vals))
        assert gaps[0] < gaps[1] < gaps[2]
        assert gaps[2] > 3 * gaps[0]


class TestLoScan:
    def test_plan_validation(self):
        cfg = small_config()
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [])
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [1.0, 2.0])
        with pytest.raises(ValueError):
            lo_scan_plan(cfg, 0.5, [0.0, -1.0])

    def test_grid_zero_matches_blocked(self):
        cfg = small_config()
        plan = lo_scan_plan(cfg, 3 * np.pi / 4, [0.0, 1.0, 2.0])
        spec0 = [s for s in plan if s.kind != "blocked_signal" and s.index == 0][0]
        _, sigma_total, _ = segment_statistics(cfg, spec0)
        blocked_spec = phase_scan_plan(cfg)[0]
        _, sigma_blocked, _ = segment_statistics(cfg, blocked_spec)
        np.testing.assert_allclose(sigma_total, sigma_blocked, rtol=1e-9)

    def test_phase_pair_recorded(self):
        cfg = small_config(samples_per_phase=500)
        plan = lo_scan_plan(cfg, 1.0, [0.0, 1.5])
        kinds = [s.kind for s in plan]
        assert kinds.count("lo_phase") == 2
        assert kinds.count("lo_phase_pi") == 2
        assert kinds.count("blocked_signal") == 1
        phis = {s.phi for s in plan if s.kind != "blocked_signal"}
        assert phis == {1.0, (1.0 + np.pi) % (2 * np.pi)}


def whole_segment_draw(cfg, spec):
    """The oracle of a chunked draw with every noise source on: one
    whole-segment draw per substream, then the same elementwise operations."""
    det = cfg.detector
    sigma_q, _, lo_flux = segment_statistics(cfg, spec)
    a, b, c = _chol2(sigma_q)

    def normal(source):
        return _segment_rng(cfg, spec, source).standard_normal(spec.n)

    z = _segment_rng(cfg, spec, _SRC_QUANTUM).standard_normal((spec.n, 2))
    c1, c2 = z[:, 0], z[:, 1]
    c2 *= c
    c2 += b * c1
    c1 *= a
    c1 += det.gain1 * np.sqrt(det.dark_uncorr1) * normal(_SRC_DARK1)
    c2 += det.gain2 * np.sqrt(det.dark_uncorr2) * normal(_SRC_DARK2)
    common = np.sqrt(det.dark_corr) * normal(_SRC_DARK_CORR)
    c1 += common * det.gain1
    c2 += common * det.gain2
    rin = np.sqrt(det.lo_excess) * normal(_SRC_RIN)
    c1 += rin * (det.gain1 * lo_flux[0])
    c2 += rin * (det.gain2 * lo_flux[1])
    return c1, c2


class TestChunkBoundaries:
    """Segments of 2 rows, one row either side of a chunk, and past two chunks."""

    SIZES = (2, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 7)

    @pytest.fixture(params=SIZES)
    def segment(self, request):
        noisy = DetectorConfig(
            eta1=0.9,
            eta2=0.8,
            gain1=1.3,
            gain2=0.7,
            dark_uncorr1=2.0,
            dark_uncorr2=1.0,
            dark_corr=0.5,
            lo_excess=0.002,
        )
        cfg = small_config(detector=noisy)
        return cfg, replace(phase_scan_plan(cfg)[3], n=request.param)

    def test_draw_equals_whole_segment_draw(self, segment):
        cfg, spec = segment
        c1, c2 = draw_segment(cfg, spec)
        o1, o2 = whole_segment_draw(cfg, spec)
        np.testing.assert_array_equal(c1, o1)
        np.testing.assert_array_equal(c2, o2)

    def test_streamed_estimate_equals_estimate_correlation(self, segment):
        cfg, spec = segment
        [(_, streamed)] = simulate_segments(cfg, [spec])
        assert streamed == estimate_correlation(np.column_stack(draw_segment(cfg, spec)))
        assert streamed.n == spec.n

    @pytest.mark.parametrize("offset", [0.0, 1e4])
    def test_estimate_matches_numpy(self, segment, offset):
        # offset 1e4: |mean| of the products is about 1e3 times their std
        cfg, spec = segment
        pairs = np.column_stack(draw_segment(cfg, spec)) + offset
        products = pairs[:, 0] * pairs[:, 1]
        est = estimate_correlation(pairs)
        assert est.value == pytest.approx(products.mean(), rel=1e-12, abs=0)
        stderr = products.std(ddof=1) / np.sqrt(spec.n)
        assert est.stderr == pytest.approx(stderr, rel=1e-12, abs=0)


def test_product_moments_take_whole_chunks():
    moments = ProductMoments()
    moments.add(np.ones((5, 2)))
    with pytest.raises(ValueError, match="only the last may be shorter"):
        moments.add(np.ones((5, 2)))
    with pytest.raises(ValueError):
        ProductMoments().add(np.ones((CHUNK_ROWS + 1, 2)))
