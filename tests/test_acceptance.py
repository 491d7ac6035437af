"""Acceptance criteria. Each test prints one pass line with its key numbers."""

import time

import numpy as np
import pytest

from hccm.analysis import estimate_correlation
from hccm.config import preset_config
from hccm.detector import (
    KIND_LO_PHASE,
    KIND_PHASE,
    DetectorConfig,
    ExperimentConfig,
    SignalParams,
    draw_segment,
    phase_scan_plan,
    scan_plan,
    segment_statistics,
    simulate_estimates,
)
from hccm.gaussian import (
    LocalOscillator,
    normal_ordered_signal_moments,
    photocurrent_covariance,
    squeezed_coherent,
    two_mode_output,
)
from hccm.nonclassicality import moment_matrix_det
from hccm.pipeline import analyze_lo_estimates, analyze_phase_estimates, run_pipeline
from hccm.splitter import (
    BeamSplitter,
    delta_g_contributions,
    splitter_coefficients,
    symmetric_splitter,
)

from conftest import analytic_truth, random_physical_state
from oracles.fock import fock_squeezed_coherent, joint_photon_statistics, oracle_moments


@pytest.fixture(scope="module")
def full_scale_run():
    cfg = preset_config("paper")
    t0 = time.monotonic()
    result = run_pipeline(cfg)
    elapsed = time.monotonic() - t0
    return result, elapsed


def test_ac1_decomposition_exactness():
    rng = np.random.default_rng(20250801)
    t0 = time.monotonic()
    phases = 2 * np.pi * np.arange(8) / 8
    checked = 0
    worst = 0.0
    for _ in range(100):
        state = random_physical_state(rng, r_max=1.0, alpha_max=4.0)
        for r2 in (0.14, 0.3):
            bs = symmetric_splitter(r2)
            for e_l in (0.5, 2.0, 10.0):
                for phi in phases:
                    cross = photocurrent_covariance(
                        two_mode_output(state, LocalOscillator(e_l, phi), bs)
                    )[0, 1]
                    dg = delta_g_contributions(
                        normal_ordered_signal_moments(state, phi), e_l, bs
                    )
                    scale = max(abs(dg.g0) + abs(dg.g1) + abs(dg.g2), 1e-9)
                    worst = max(worst, abs(cross - dg.total) / scale)
                    checked += 1
    elapsed = time.monotonic() - t0
    assert worst <= 1e-9, f"worst relative error {worst:.2e}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(
        f"\nAC-1 PASS: cross-covariance decomposition exact "
        f"(worst rel err {worst:.2e} over {checked} cases, {elapsed:.2f}s)"
    )


def test_ac2_oracle_equivalence():
    rng = np.random.default_rng(20250802)
    t0 = time.monotonic()
    dim = 41  # 40 excitations plus the vacuum level
    worst_m = worst_c = 0.0
    points = 0
    for k in range(50):
        r = rng.uniform(0.0, 0.3)
        theta = rng.uniform(0.0, np.pi)
        alpha = (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)) / np.sqrt(2)
        lo_amp = rng.uniform(0.0, 1.0)
        phi = rng.uniform(0.0, 2 * np.pi)
        bs = symmetric_splitter(0.14 if k % 2 == 0 else 0.3)

        fs = fock_squeezed_coherent(r, theta, alpha, dim)
        mo = oracle_moments(fs, phi)
        mg = normal_ordered_signal_moments(squeezed_coherent(r, theta, alpha), phi)
        worst_m = max(
            worst_m,
            abs(mo.var_i - mg.var_i),
            abs(mo.anom - mg.anom),
            abs(mo.var_e - mg.var_e),
        )

        pmf = joint_photon_statistics(fs, lo_amp * np.exp(1j * phi), bs)
        pc_f = pmf.photocurrent_covariance()
        pc_g = photocurrent_covariance(
            two_mode_output(
                squeezed_coherent(r, theta, alpha), LocalOscillator(lo_amp, phi), bs
            )
        )
        worst_c = max(worst_c, np.abs(pc_f - pc_g).max())
        points += 1
    elapsed = time.monotonic() - t0
    assert worst_m <= 1e-6, f"moment mismatch {worst_m:.2e}"
    assert worst_c <= 1e-6, f"covariance mismatch {worst_c:.2e}"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    print(
        f"\nAC-2 PASS: Fock oracle matches closed forms "
        f"(moments {worst_m:.2e}, covariances {worst_c:.2e}, {points} points, {elapsed:.1f}s)"
    )


def test_ac3_optimal_unbalancing():
    xs = np.arange(1e-4, 0.5, 1e-4)
    merit = np.empty(xs.size)
    for i, x in enumerate(xs):
        c = splitter_coefficients(symmetric_splitter(float(x)))
        merit[i] = abs(c.tt * c.t1)
    x_star = float(xs[np.argmax(merit)])
    target = (2.0 - np.sqrt(2.0)) / 4.0
    assert abs(x_star - target) <= 1e-3, f"argmax {x_star:.5f} vs {target:.5f}"
    print(
        f"\nAC-3 PASS: optimal intensity partition at |R|^2 = {x_star:.4f} "
        f"(expected {target:.4f}, a 14:86 split)"
    )


def test_ac4_full_scale_phase_scan(full_scale_run):
    result, elapsed = full_scale_run
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"

    chi2_dof = result.phase.fit.chi2 / result.phase.fit.dof
    assert 0.7 <= chi2_dof <= 1.3, f"chi2/dof {chi2_dof:.3f} outside [0.7, 1.3]"

    phis = result.phase.estimates.phis
    i_star = int(np.argmin(np.abs(phis - 3 * np.pi / 4)))
    det_star = result.det_results[i_star]
    assert det_star.det < 0
    assert det_star.significance >= 5.0, f"significance {det_star.significance:.1f} < 5"
    assert det_star.verdict == "nonclassical"

    half = phis < np.pi
    flags = np.array([r.verdict == "nonclassical" for r in result.det_results])
    squeezed = np.asarray(result.squeezed_flags, dtype=bool)
    frac = flags[half].mean()
    assert frac > 0.6, f"nonclassical fraction {frac:.2f} <= 0.6"
    assert np.any(flags[half] & ~squeezed[half]), "no verdicts outside the squeezed interval"

    # the 2pi-periodic mixed-moment component stands out far beyond 20 sigma
    amp, amp_sigma = result.phase.separation.c1_amplitude()
    assert amp / amp_sigma >= 20.0

    # blocked-LO result implies a non-negative intensity variance
    c_block = result.phase.c_block
    t0 = splitter_coefficients(result.config.splitter).t0
    assert c_block.value / t0 >= -3.0 * c_block.stderr / t0
    print(
        f"\nAC-4 PASS: chi2/dof {chi2_dof:.3f}; det at 3pi/4 = {det_star.det:.3e} "
        f"({det_star.significance:.1f} sigma); nonclassical on {frac:.0%} of [0, pi) "
        f"incl. antisqueezed phases ({elapsed:.1f}s)"
    )


def test_ac5_lo_strength_separation(full_scale_run):
    result, _ = full_scale_run
    assert result.lo is not None and result.lo_det is not None
    phi_ref = result.lo_det.phi
    v_ph, c_ph = result.phase.separation.contributions_at(phi_ref)
    v_lo, c_lo = result.lo.separation.contributions_at(phi_ref)
    diff = abs(v_ph[1] - v_lo[1])
    combined = np.sqrt(c_ph[1, 1] + c_lo[1, 1])
    assert diff <= 3.0 * combined, f"C1 methods differ by {diff / combined:.1f} sigma"
    assert result.lo_det.det < 0
    assert result.lo_det.significance >= 3.0
    assert result.lo_det.verdict == "nonclassical"
    print(
        f"\nAC-5 PASS: by-LO C1 = {v_lo[1]:.4f} vs by-phase {v_ph[1]:.4f} "
        f"({diff / combined:.2f} sigma apart); LO-scan det "
        f"{result.lo_det.det:.3e} at {result.lo_det.significance:.1f} sigma"
    )


def _null_config(kind: str, seed: int) -> ExperimentConfig:
    if kind == "coherent":
        signal = SignalParams(v_min=1.0, v_max=1.0, angle=0.0, alpha=3.0 + 0j)
    else:  # thermal, 4 dB of excess noise, displaced
        v = 10.0 ** (4.0 / 10.0)
        signal = SignalParams(v_min=v, v_max=v, angle=0.0, alpha=1.5 + 0j)
    return ExperimentConfig(
        signal=signal,
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 16 for i in range(16)),
        samples_per_phase=10_000,
        blocked_samples=20_000,
        seed=seed,
        detector=DetectorConfig(eta1=0.94, eta2=0.94),
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )


def test_ac6_classical_null():
    for kind in ("coherent", "thermal"):
        state = _null_config(kind, 0).signal.state()
        dets = [moment_matrix_det(state, p) for p in np.linspace(0, 2 * np.pi, 200)]
        assert min(dets) >= -1e-10, f"{kind}: analytic det M dips to {min(dets):.2e}"

    rates = {}
    for kind in ("coherent", "thermal"):
        false_pos = 0
        for seed in range(100):
            result = run_pipeline(_null_config(kind, 1000 + seed), with_lo_scan=False)
            if result.summary.n_nonclassical > 0:
                false_pos += 1
            # blocked-LO correlation never contradicts a non-negative intensity variance
            cb = result.phase.c_block
            assert cb.value >= -3.0 * cb.stderr
        rates[kind] = false_pos / 100.0
        assert rates[kind] <= 0.05, f"{kind}: false-positive rate {rates[kind]:.0%}"
    print(
        f"\nAC-6 PASS: analytic det M >= 0 everywhere; false-positive run rate "
        f"coherent {rates['coherent']:.0%}, thermal {rates['thermal']:.0%} (3 sigma threshold)"
    )


def _dark_pair_configs(seed: int):
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 8 for i in range(8)),
        samples_per_phase=4_000,
        blocked_samples=4_000,
        seed=seed,
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    clean = ExperimentConfig(detector=DetectorConfig(eta1=0.94, eta2=0.94), **base)
    spec = phase_scan_plan(clean)[1]
    _, sigma, _ = segment_statistics(clean, spec)
    dark = ExperimentConfig(
        detector=DetectorConfig(
            eta1=0.94,
            eta2=0.94,
            dark_uncorr1=10.0 * sigma[0, 0],
            dark_uncorr2=10.0 * sigma[1, 1],
        ),
        **base,
    )
    return clean, dark


def test_ac7_dark_noise_immunity():
    # uncorrelated dark noise at 10x the photocurrent variance: paired seeds
    diffs = []
    for seed in range(200):
        clean, dark = _dark_pair_configs(seed)
        for spec in phase_scan_plan(clean):
            if spec.kind != KIND_PHASE or spec.index % 4 != 0:
                continue
            est_c = estimate_correlation(np.column_stack(draw_segment(clean, spec)))
            est_d = estimate_correlation(np.column_stack(draw_segment(dark, spec)))
            diffs.append(est_d.value - est_c.value)
    diffs = np.array(diffs)
    se = diffs.std(ddof=1) / np.sqrt(diffs.size)
    shift_sigmas = abs(diffs.mean()) / se
    assert shift_sigmas <= 3.0, f"dark-noise shift at {shift_sigmas:.1f} sigma"

    # correlated dark noise: removed exactly by the blocked-signal correction
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 12 for i in range(12)),
        samples_per_phase=100_000,
        blocked_samples=200_000,
        seed=424242,
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    noisy = ExperimentConfig(
        detector=DetectorConfig(eta1=0.94, eta2=0.94, dark_corr=5.0), **base
    )
    est = simulate_estimates(noisy)
    num = den = 0.0
    for phi, value, stderr in zip(est.phis, est.values, est.stderr):
        resid = (value - est.blocked_signal.value) - _truth_at(noisy, phi)
        num += resid / stderr**2
        den += 1.0 / stderr**2
    pooled = num / den
    se_pooled = np.sqrt(1.0 / den + est.blocked_signal.stderr**2)
    resid_sigmas = abs(pooled) / se_pooled
    assert resid_sigmas <= 3.0, f"correlated-dark residual at {resid_sigmas:.1f} sigma"
    print(
        f"\nAC-7 PASS: uncorrelated dark shift {shift_sigmas:.2f} sigma over "
        f"{diffs.size} paired segments; correlated-dark residual after offset "
        f"correction {resid_sigmas:.2f} sigma"
    )


def _truth_at(cfg, phi):
    t = analytic_truth(cfg)
    return (
        t["a0"]
        + t["a1"] * np.cos(phi)
        + t["b1"] * np.sin(phi)
        + t["a2"] * np.cos(2 * phi)
        + t["b2"] * np.sin(2 * phi)
    )


def test_ac8_scaling_and_sign_invariance():
    rng = np.random.default_rng(20250808)
    worst = 0.0
    for k in range(200):
        state = random_physical_state(rng, r_max=1.0, alpha_max=3.0)
        if k % 3 == 0:
            bs = symmetric_splitter(rng.uniform(0.05, 0.45))
        else:
            ts2 = rng.uniform(0.4, 0.9)
            bs = BeamSplitter(
                ts2=ts2,
                tl2=ts2,
                rs2=rng.uniform(0.05, 1.0 - ts2),
                rl2=rng.uniform(0.05, 1.0 - ts2),
            )
        coeffs = splitter_coefficients(bs)
        zeta1, zeta2 = rng.uniform(0.1, 10.0, size=2)
        e_l = rng.uniform(0.1, 5.0)
        phi = rng.uniform(0, 2 * np.pi)
        m = normal_ordered_signal_moments(state, phi)
        dg = delta_g_contributions(m, e_l, bs)
        scale = zeta1 * zeta2
        l00 = scale * dg.g0 / coeffs.t0
        l01 = scale * dg.g1 / coeffs.t1
        l11 = scale * dg.g2 / coeffs.t2
        det_l = l00 * l11 - l01**2
        det_m = m.var_i * m.var_e - m.anom**2
        factor = (zeta1 * zeta2 * coeffs.tt * e_l) ** 2
        mag = factor * (abs(m.var_i * m.var_e) + m.anom**2 + 1e-12)
        worst = max(worst, abs(det_l - factor * det_m) / mag)
    assert worst <= 1e-10, f"det scaling identity off by {worst:.2e}"

    # gain rescaling leaves every verdict and significance unchanged
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 16 for i in range(16)),
        samples_per_phase=20_000,
        blocked_samples=40_000,
        seed=99,
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    res_a = run_pipeline(
        ExperimentConfig(detector=DetectorConfig(eta1=0.94, eta2=0.94), **base),
        with_lo_scan=False,
    )
    res_b = run_pipeline(
        ExperimentConfig(
            detector=DetectorConfig(eta1=0.94, eta2=0.94, gain1=3.7, gain2=0.4), **base
        ),
        with_lo_scan=False,
    )
    for da, db in zip(res_a.det_results, res_b.det_results):
        assert da.verdict == db.verdict
        assert db.significance == pytest.approx(da.significance, rel=1e-6, abs=1e-9)
        assert db.det == pytest.approx((3.7 * 0.4) ** 2 * da.det, rel=1e-6)
    print(
        f"\nAC-8 PASS: det L = (zeta1 zeta2 T E)^2 det M to {worst:.1e}; verdicts "
        f"invariant under gain rescaling"
    )


def test_ac9_coverage_calibration():
    cfg0 = ExperimentConfig(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 16 for i in range(16)),
        samples_per_phase=2_000,
        blocked_samples=2_000,
        seed=0,
        detector=DetectorConfig(eta1=0.94, eta2=0.94),
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
    )
    truth = analytic_truth(cfg0)
    targets = np.array([truth["a0"], truth["a1"], truth["b1"], truth["a2"], truth["b2"]])
    hits = np.zeros(5)
    runs = 500
    for seed in range(runs):
        analysis = analyze_phase_estimates(simulate_estimates(cfg0.with_seed(30_000 + seed)))
        fit = analysis.fit
        err = np.sqrt(np.diag(fit.cov))
        hits += (np.abs(fit.coeffs - targets) <= err).astype(float)
    coverage = hits / runs
    for name, c in zip(("a0", "a1", "b1", "a2", "b2"), coverage):
        assert 0.63 <= c <= 0.73, f"{name}: 1-sigma coverage {c:.3f} outside 68% +- 5%"
    print(
        "\nAC-9 PASS: 1-sigma coverage over 500 runs = "
        + ", ".join(f"{n}={c:.3f}" for n, c in zip(("a0", "a1", "b1", "a2", "b2"), coverage))
    )


def test_ac9_lo_coverage_calibration():
    # AC-9's gate for the LO-strength separation, over 500 LO scans at paper-quick's
    # segment size.  The truth: each segment's exact correlation (sigma_total of
    # segment_statistics) less the blocked-signal one, which C0 + C1 x + C2 x^2 at phi
    # and C0 - C1 x + C2 x^2 at phi + pi (x = E_L / max E_L) fit exactly
    cfg0 = preset_config("paper-quick")
    specs = scan_plan(cfg0, "lo_scan")
    exact = np.array([segment_statistics(cfg0, spec)[1][0, 1] for spec in specs])
    corrected = exact[:-1] - exact[-1]
    x = np.array([spec.e_l for spec in specs[:-1]]) / max(cfg0.lo_scan_e_l)
    sign = np.array([1.0 if spec.kind == KIND_LO_PHASE else -1.0 for spec in specs[:-1]])
    design = np.column_stack([np.ones_like(x), sign * x, x**2])
    targets = np.linalg.lstsq(design, corrected, rcond=None)[0]
    assert np.abs(design @ targets - corrected).max() <= 1e-12 * np.abs(corrected).max()
    hits = np.zeros(3)
    runs = 500
    for seed in range(runs):
        est = simulate_estimates(cfg0.with_seed(5_000 + seed), "lo_scan")
        sep = analyze_lo_estimates(est).separation
        hits += (np.abs(sep.params - targets) <= np.sqrt(np.diag(sep.cov))).astype(float)
    coverage = hits / runs
    for name, c in zip(("C0", "C1", "C2"), coverage):
        assert 0.63 <= c <= 0.73, f"by-LO {name}: 1-sigma coverage {c:.3f} outside 68% +- 5%"
    print(
        "\nAC-9 (by LO strength) PASS: 1-sigma coverage over 500 runs = "
        + ", ".join(f"{n}={c:.3f}" for n, c in zip(("C0", "C1", "C2"), coverage))
    )
