"""The benchmark's closed-form reference agrees with hccm's exact model.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py
"""

import numpy as np
import pytest

import reference
from hccm.detector import (
    KIND_BLOCKED_SIGNAL,
    DetectorConfig,
    ExperimentConfig,
    SegmentSpec,
    SignalParams,
    segment_statistics,
)
from hccm.gaussian import apply_loss, from_quadrature_variances, normal_ordered_signal_moments
from hccm.nonclassicality import moment_matrix_det
from hccm.splitter import BeamSplitter, delta_g_contributions, splitter_coefficients


def random_signal(rng):
    """(v_min, v_max, angle, alpha) of a random physical, possibly impure state."""
    r = rng.uniform(0.0, 1.0)
    extra = rng.uniform(1.0, 2.0)
    alpha = 3.0 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) / np.sqrt(2)
    return extra * np.exp(-2 * r), extra * np.exp(2 * r), rng.uniform(0, 2 * np.pi), alpha


def test_moments_and_contributions_match_hccm():
    rng = np.random.default_rng(20261017)
    worst = 0.0
    for _ in range(200):
        v_min, v_max, angle, alpha = random_signal(rng)
        eta = rng.uniform(0.5, 1.0)
        phi = rng.uniform(0, 2 * np.pi)
        e_l = rng.uniform(0.1, 5.0)
        ts2 = rng.uniform(0.4, 0.9)
        rs2, rl2 = rng.uniform(0.05, 1 - ts2, size=2)
        bs = BeamSplitter(ts2=ts2, tl2=ts2, rs2=rs2, rl2=rl2)

        moments = reference.signal_moments(v_min, v_max, angle, alpha, eta)
        ours = reference.moment_triple(*moments, phi)
        state = apply_loss(from_quadrature_variances(v_min, v_max, angle, alpha), eta)
        m = normal_ordered_signal_moments(state, phi)
        theirs = (m.var_i, m.anom, m.var_e)
        scale = max(1.0, *(abs(x) for x in theirs))
        worst = max(worst, max(abs(a - b) for a, b in zip(ours, theirs)) / scale)

        coeffs = reference.splitter_coefficients(bs.ts2, bs.tl2, bs.rs2, bs.rl2)
        c = splitter_coefficients(bs)
        assert coeffs == pytest.approx((c.t0, c.t1, c.t2, c.tt), rel=1e-12)
        g_ours = reference.contributions(ours, e_l, coeffs)
        g = delta_g_contributions(m, e_l, bs)
        g_scale = max(1e-9, abs(g.g0) + abs(g.g1) + abs(g.g2))
        worst = max(worst, max(abs(a - b) for a, b in zip(g_ours, (g.g0, g.g1, g.g2))) / g_scale)

        det_ours = ours[0] * ours[2] - ours[1] ** 2
        det_scale = abs(ours[0] * ours[2]) + ours[1] ** 2 + 1e-12
        worst = max(worst, abs(det_ours - moment_matrix_det(state, phi)) / det_scale)
    assert worst <= 1e-9, f"worst relative difference {worst:.2e}"


def test_fourier_coefficients_match_exact_segment_covariance():
    """a0..b2 reproduce the simulator's exact offset-corrected cross covariance."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        v_min, v_max, angle, alpha = random_signal(rng)
        eta = rng.uniform(0.5, 1.0)
        r2 = rng.uniform(0.05, 0.45)
        cfg = ExperimentConfig(
            signal=SignalParams(v_min=v_min, v_max=v_max, angle=angle, alpha=alpha),
            e_l=rng.uniform(0.5, 4.0),
            phases=(0.0,),
            samples_per_phase=2,
            seed=0,
            detector=DetectorConfig(
                eta1=eta, eta2=eta, gain1=1.7, gain2=0.6, dark_corr=0.3, lo_excess=0.05
            ),
            splitter=BeamSplitter(ts2=1 - r2, tl2=1 - r2, rs2=r2, rl2=r2),
            visibility=rng.uniform(0.8, 1.0),
        )
        coef = reference.fourier_coefficients(cfg)
        blocked = SegmentSpec(KIND_BLOCKED_SIGNAL, 0, 0.0, cfg.e_l, 0, 2)
        offset = segment_statistics(cfg, blocked)[1]
        for phi in np.linspace(0, 2 * np.pi, 7, endpoint=False):
            spec = SegmentSpec("phase", 0, float(phi), cfg.e_l, 0, 2)
            exact = segment_statistics(cfg, spec)[1][0, 1] - offset[0, 1]
            fourier = (
                coef["a0"]
                + coef["a1"] * np.cos(phi)
                + coef["b1"] * np.sin(phi)
                + coef["a2"] * np.cos(2 * phi)
                + coef["b2"] * np.sin(2 * phi)
            )
            assert fourier == pytest.approx(exact, rel=1e-9, abs=1e-12)
            parts = reference.separated_at(cfg, phi)
            assert sum(parts) == pytest.approx(exact, rel=1e-9, abs=1e-12)
        c0 = reference.separated_at(cfg, 0.0)[0]
        assert c0 == pytest.approx(coef["c0"], rel=1e-12)
        assert reference.det_m(cfg, 0.4) == pytest.approx(
            moment_matrix_det(apply_loss(cfg.signal.state(), eta), 0.4), rel=1e-9, abs=1e-12
        )
