import json

import numpy as np
import pytest

from hccm.analysis import (
    BY_LO,
    BY_PHASE,
    CorrelationEstimate,
    SeparatedContributions,
    drift_error,
    estimate_correlation,
    fit_trig_poly,
    separate_by_lo,
    separate_by_phase,
)
from hccm.errors import DegenerateDesignError, InsufficientDataError


def _est(value, stderr=0.0, n=100):
    return CorrelationEstimate(value=float(value), stderr=float(stderr), n=n)


class TestEstimateCorrelation:
    def test_perfectly_correlated(self):
        est = estimate_correlation([(1.0, 1.0), (-1.0, -1.0)])
        assert est.value == 1.0
        assert est.stderr == 0.0
        assert est.n == 2

    def test_anticorrelated(self):
        est = estimate_correlation([(1.0, -1.0), (-1.0, 1.0)])
        assert est.value == -1.0

    def test_too_few_samples(self):
        with pytest.raises(InsufficientDataError):
            estimate_correlation([(1.0, 1.0)])

    def test_null_distribution(self, rng):
        pairs = rng.standard_normal((100_000, 2))
        est = estimate_correlation(pairs)
        assert abs(est.value) < 4 * est.stderr

    def test_stderr_scaling(self, rng):
        pairs = rng.standard_normal((200_000, 2)) @ np.array([[1.0, 0.4], [0.0, 1.0]])
        full = estimate_correlation(pairs)
        half = estimate_correlation(pairs[: pairs.shape[0] // 2])
        assert half.stderr == pytest.approx(full.stderr * np.sqrt(2.0), rel=0.05)


class TestSeparationDict:
    def test_round_trip(self):
        points = synthetic_points((1.0, 0.5, -0.2, 0.3, 0.1), np.linspace(0, 6, 12), 0.01)
        fit = fit_trig_poly(points)
        by_phase = separate_by_phase(fit, _est(0.4, 0.02, n=50), drift=0.01)
        lo_points = [(e, _est(1 + e, 0.01), _est(1 - e, 0.01)) for e in (0.0, 1.0, 2.0)]
        for sep in (by_phase, separate_by_lo(lo_points, 0.7)):
            back = SeparatedContributions.from_dict(json.loads(json.dumps(sep.to_dict())))
            assert back.method == sep.method
            phi = 0.3 if sep.phi_ref is None else sep.phi_ref
            for got, want in zip(back.contributions_at(phi), sep.contributions_at(phi)):
                np.testing.assert_array_equal(got, want)
        assert SeparatedContributions.from_dict(by_phase.to_dict()).c_block == by_phase.c_block


class TestOffsetAndDrift:
    def test_drift_error(self):
        assert drift_error(_est(1.0), _est(1.0)) == 0.0
        assert drift_error(_est(1.0), _est(0.9)) == pytest.approx(0.1)


def synthetic_points(coeffs, phis, stderr=0.0):
    a0, a1, b1, a2, b2 = coeffs
    values = (
        a0
        + a1 * np.cos(phis)
        + b1 * np.sin(phis)
        + a2 * np.cos(2 * phis)
        + b2 * np.sin(2 * phis)
    )
    return [(p, _est(v, stderr)) for p, v in zip(phis, values)]


class TestTrigFit:
    def test_noiseless_exact(self):
        phis = 2 * np.pi * np.arange(12) / 12
        truth = (2.0, 0.5, 0.0, 0.0, -1.2)
        fit = fit_trig_poly(synthetic_points(truth, phis))
        np.testing.assert_allclose(fit.coeffs, truth, atol=1e-10)
        assert fit.chi2 == pytest.approx(0.0, abs=1e-16)
        assert fit.dof == 7

    def test_weighted_recovery(self, rng):
        phis = 2 * np.pi * np.arange(40) / 40
        truth = (1.0, -0.7, 0.3, 0.2, 0.05)
        pts = []
        for p, e in synthetic_points(truth, phis):
            sigma = rng.uniform(0.01, 0.05)
            pts.append((p, _est(e.value + rng.normal(0, sigma), sigma)))
        fit = fit_trig_poly(pts)
        for k in range(5):
            pull = (fit.coeffs[k] - truth[k]) / np.sqrt(fit.cov[k, k])
            assert abs(pull) < 5

    def test_predict_matches_one_call_per_phase(self, rng):
        phis = rng.uniform(0.0, 2 * np.pi, 60)
        fit = fit_trig_poly(synthetic_points((1.0, -0.7, 0.3, 0.2, 0.05), phis))
        one_by_one = [float(fit.predict(phi)[0]) for phi in phis]
        assert fit.predict(phis).tolist() == one_by_one

    def test_too_few_phases(self):
        phis = 2 * np.pi * np.arange(5) / 5
        with pytest.raises(InsufficientDataError):
            fit_trig_poly(synthetic_points((1, 0, 0, 0, 0), phis))

    def test_degenerate_design(self):
        # all phases equal mod pi: cos/sin columns collapse
        phis = np.array([0.3, 0.3 + np.pi] * 5)
        pts = [(p, _est(1.0, 0.1)) for p in phis]
        with pytest.raises((DegenerateDesignError, InsufficientDataError)):
            fit_trig_poly(pts)

    def test_degenerate_by_condition_number(self):
        # six distinct phases but clustered pathologically close
        phis = np.array([0.1, 0.1 + 1e-12, 0.1 + 2e-12, 0.1 + 3e-12, 0.1 + 4e-12, 0.1 + 5e-12])
        pts = [(p, _est(1.0, 0.1)) for p in phis]
        with pytest.raises(DegenerateDesignError):
            fit_trig_poly(pts)

    def test_mixed_stderr_rejected(self):
        phis = 2 * np.pi * np.arange(8) / 8
        pts = synthetic_points((1, 0, 0, 0, 0), phis)
        pts[0] = (pts[0][0], _est(pts[0][1].value, 0.1))
        with pytest.raises(ValueError):
            fit_trig_poly(pts)

    def test_chi2_calibration(self, rng):
        phis = 2 * np.pi * np.arange(24) / 24
        truth = (0.5, 1.0, -0.2, 0.4, 0.0)
        ratios = []
        for _ in range(300):
            pts = [
                (p, _est(e.value + rng.normal(0, 0.02), 0.02))
                for p, e in synthetic_points(truth, phis)
            ]
            fit = fit_trig_poly(pts)
            ratios.append(fit.chi2 / fit.dof)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


class TestSeparateByPhase:
    def test_exact_recovery(self):
        phis = 2 * np.pi * np.arange(24) / 24
        c0, (a1, b1), (a2, b2) = 0.9, (1.2, -0.4), (0.3, 0.1)
        c2_const = 0.25
        coeffs = (c0 + c2_const, a1, b1, a2, b2)
        fit = fit_trig_poly(synthetic_points(coeffs, phis))
        sep = separate_by_phase(fit, _est(c0, 0.0, n=10))
        for phi in (0.0, 0.7, 2.0):
            values, _ = sep.contributions_at(phi)
            assert values[0] == pytest.approx(c0)
            assert values[1] == pytest.approx(a1 * np.cos(phi) + b1 * np.sin(phi), abs=1e-10)
            assert values[2] == pytest.approx(
                a2 * np.cos(2 * phi) + b2 * np.sin(2 * phi) + c2_const, abs=1e-10
            )

    def test_parity_invariants(self):
        phis = 2 * np.pi * np.arange(24) / 24
        fit = fit_trig_poly(synthetic_points((1.0, 0.5, -0.3, 0.2, 0.4), phis))
        sep = separate_by_phase(fit, _est(0.6, 0.01, n=10))
        for phi in (0.0, 1.1, 2.9):
            v1, _ = sep.contributions_at(phi)
            v2, _ = sep.contributions_at(phi + np.pi)
            assert v2[1] == pytest.approx(-v1[1], abs=1e-12)
            assert v2[2] == pytest.approx(v1[2], abs=1e-12)

    def test_sum_reproduces_fit(self):
        phis = 2 * np.pi * np.arange(24) / 24
        fit = fit_trig_poly(synthetic_points((1.0, 0.5, -0.3, 0.2, 0.4), phis))
        sep = separate_by_phase(fit, _est(0.6, 0.01, n=10))
        for phi in np.linspace(0, 2 * np.pi, 17):
            values, _ = sep.contributions_at(phi)
            assert values.sum() == pytest.approx(float(fit.predict(phi)[0]), abs=1e-12)

    def test_high_precision_c_block(self):
        # a blocked-LO result at 3e8-sample precision enters as C0 directly
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(synthetic_points((1.0, 0.0, 0.0, 0.0, 0.0), phis))
        cb = _est(0.80153, 0.00014, n=300_000_000)
        sep = separate_by_phase(fit, cb)
        values, cov = sep.contributions_at(0.3)
        assert values[0] == pytest.approx(0.80153)
        assert np.sqrt(cov[0, 0]) == pytest.approx(0.00014, rel=1e-9)

    def test_drift_enters_c0_sigma(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(synthetic_points((1.0, 0.0, 0.0, 0.0, 0.0), phis))
        sep = separate_by_phase(fit, _est(0.8, 0.003, n=10), drift=0.004)
        assert sep.c0_sigma == pytest.approx(np.hypot(0.003, 0.004), rel=1e-12)

    def test_c0_c2_anticorrelation(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(synthetic_points((1.0, 0.1, 0.0, 0.0, 0.0), phis))
        sep = separate_by_phase(fit, _est(0.8, 0.02, n=10))
        _, cov = sep.contributions_at(0.5)
        assert cov[0, 2] == pytest.approx(-(0.02**2), rel=1e-9)


class TestSeparateByLo:
    def _points(self, c0, c1_unit, c2_unit, grid, stderr=0.0):
        # C(phi, E) = c0 + c1_unit*E + c2_unit*E^2; at phi+pi the odd part flips
        pts = []
        for e in grid:
            up = c0 + c1_unit * e + c2_unit * e**2
            dn = c0 - c1_unit * e + c2_unit * e**2
            pts.append((e, _est(up, stderr), _est(dn, stderr)))
        return pts

    def test_exact_recovery(self):
        grid = [0.0, 1.0, 1.5, 2.0]
        pts = self._points(0.7, -0.5, 0.3, grid)
        sep = separate_by_lo(pts, phi=0.9)
        assert sep.method == BY_LO
        vals, _ = sep.contributions_at(0.9)
        assert vals[0] == pytest.approx(0.7, abs=1e-12)
        assert vals[1] == pytest.approx(-0.5 * 2.0, abs=1e-12)
        assert vals[2] == pytest.approx(0.3 * 4.0, abs=1e-12)

    def test_pi_shift_flips_odd_part(self):
        grid = [0.0, 1.0, 2.0]
        sep = separate_by_lo(self._points(0.7, -0.5, 0.3, grid), phi=0.9)
        up, _ = sep.contributions_at(0.9)
        dn, _ = sep.contributions_at(0.9 + np.pi)
        assert dn[1] == pytest.approx(-up[1], abs=1e-12)
        assert dn[2] == pytest.approx(up[2], abs=1e-12)
        with pytest.raises(ValueError):
            sep.contributions_at(0.3)

    def test_insufficient_grid(self):
        with pytest.raises(InsufficientDataError):
            separate_by_lo(self._points(1, 0, 0, [0.0, 1.0]), phi=0.0)
        with pytest.raises(InsufficientDataError):
            separate_by_lo(self._points(1, 0, 0, [0.5, 1.0, 2.0]), phi=0.0)

    def test_default_reference_is_max(self):
        grid = [0.0, 1.0, 2.0]
        sep = separate_by_lo(self._points(0.7, -0.5, 0.3, grid), phi=0.9)
        vals, _ = sep.contributions_at(0.9)
        assert vals[1] == pytest.approx(-1.0, abs=1e-12)

    def test_error_propagation_sanity(self, rng):
        # Monte Carlo pulls of the three contributions are standard normal
        grid = np.array([0.0, 1.0, 1.5, 2.0])
        truth = (0.7, -0.5, 0.3)
        sigma = 0.02
        pulls = []
        for _ in range(400):
            pts = []
            for e in grid:
                up = truth[0] + truth[1] * e + truth[2] * e**2 + rng.normal(0, sigma)
                dn = truth[0] - truth[1] * e + truth[2] * e**2 + rng.normal(0, sigma)
                pts.append((e, _est(up, sigma), _est(dn, sigma)))
            sep = separate_by_lo(pts, phi=0.0)
            vals, cov = sep.contributions_at(0.0)
            expect = np.array([truth[0], truth[1] * 2.0, truth[2] * 4.0])
            pulls.append((vals - expect) / np.sqrt(np.diag(cov)))
        pulls = np.array(pulls)
        assert np.all(np.abs(pulls.mean(axis=0)) < 0.2)
        assert np.all(np.abs(pulls.std(axis=0) - 1.0) < 0.15)

    def test_method_tag_by_phase(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(synthetic_points((1.0, 0.1, 0.0, 0.0, 0.0), phis))
        sep = separate_by_phase(fit, _est(0.8, 0.02, n=10))
        assert sep.method == BY_PHASE


class TestNoiselessRoundTrip:
    def test_moments_to_separation_and_back(self):
        # analytic prediction over a phase grid -> fit -> separation recovers
        # each contribution exactly
        from hccm.gaussian import normal_ordered_signal_moments, squeezed_coherent
        from hccm.splitter import (
            delta_g_contributions,
            predicted_correlation,
            symmetric_splitter,
        )

        state = squeezed_coherent(0.35, np.pi / 2, 2.0 + 0.5j)
        bs = symmetric_splitter(0.14)
        e_l, z1, z2, vis = 1.7, 1.3, 0.8, 0.96
        phis = 2 * np.pi * np.arange(24) / 24

        def contribs(phi):
            return delta_g_contributions(
                normal_ordered_signal_moments(state, phi), e_l, bs
            )

        pts = [
            (p, _est(predicted_correlation(contribs(p), z1, z2, vis))) for p in phis
        ]
        fit = fit_trig_poly(pts)
        c_block = _est(z1 * z2 * contribs(0.0).g0)
        sep = separate_by_phase(fit, c_block)
        for phi in np.linspace(0.1, 2 * np.pi, 9):
            dg = contribs(phi)
            values, _ = sep.contributions_at(phi)
            assert values[0] == pytest.approx(z1 * z2 * dg.g0, rel=1e-9)
            assert values[1] == pytest.approx(z1 * z2 * vis * dg.g1, rel=1e-9, abs=1e-10)
            assert values[2] == pytest.approx(
                z1 * z2 * vis**2 * dg.g2, rel=1e-9, abs=1e-10
            )
