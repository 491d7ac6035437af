import json
import math

import numpy as np
import pytest

from hccm import analysis
from hccm.analysis import (
    CorrelationEstimate,
    SeparatedContributions,
    drift_error,
    estimate_correlation,
    fit_trig_poly,
    separate_by_lo,
    separate_by_phase,
)
from hccm.errors import PreconditionError


def _est(value, stderr=0.0, n=100):
    return CorrelationEstimate(value=float(value), stderr=float(stderr), n=n)


def _columns(points):
    """(phi, estimate) points as fit_trig_poly's phis, values and stderr arrays."""
    phis, ests = zip(*points)
    return np.array(phis, dtype=float), *_value_stderr(ests)


def _lo_columns(points):
    """(E_L, estimate at phi, estimate at phi + pi) points as separate_by_lo's E_L
    array and (2, J) values and stderr arrays."""
    e_vals, at_phi, at_phi_pi = zip(*points)
    return np.array(e_vals, dtype=float), *_value_stderr([at_phi, at_phi_pi])


def _value_stderr(ests):
    """The values and the stderrs of an array-like of estimates, as two arrays of its shape."""
    return np.vectorize(lambda e: e.value)(ests), np.vectorize(lambda e: e.stderr)(ests)


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
        with pytest.raises(PreconditionError, match="need at least 2 sample pairs, got 1"):
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


    @pytest.mark.parametrize("shape", [(10,), (10, 3), (2, 5, 2)])
    def test_not_pairs_refused(self, shape):
        with pytest.raises(ValueError, match=r"expected an \(N, 2\) array of pairs"):
            estimate_correlation(np.zeros(shape))

    def test_no_samples_refused(self):
        with pytest.raises(ValueError, match="sample count must be >= 1, got 0"):
            CorrelationEstimate(value=0.0, stderr=0.0, n=0)


class TestSeparationDict:
    def test_round_trip(self):
        points = synthetic_points((1.0, 0.5, -0.2, 0.3, 0.1), np.linspace(0, 6, 12), 0.01)
        fit = fit_trig_poly(*_columns(points))
        by_phase = separate_by_phase(fit, _est(0.4, 0.02, n=50), drift=0.01)
        lo_points = [(e, _est(1 + e, 0.01), _est(1 - e, 0.01)) for e in (0.0, 1.0, 2.0)]
        for sep in (by_phase, separate_by_lo(*_lo_columns(lo_points), 0.7)):
            back = SeparatedContributions.from_dict(json.loads(json.dumps(sep.to_dict())))
            assert back.phi_ref == sep.phi_ref
            phi = 0.3 if sep.phi_ref is None else sep.phi_ref
            for got, want in zip(back.contributions_at(phi), sep.contributions_at(phi)):
                np.testing.assert_array_equal(got, want)

    @staticmethod
    def _separations():
        points = synthetic_points((1.0, 0.5, -0.2, 0.3, 0.1), np.linspace(0, 6, 12), 0.01)
        fit = fit_trig_poly(*_columns(points))
        by_phase = separate_by_phase(fit, _est(0.4, 0.02, n=50), drift=0.01)
        lo_points = [(e, _est(1 + e, 0.01), _est(1 - e, 0.03)) for e in (0.0, 1.0, 2.0)]
        return {"phase": by_phase, "lo": separate_by_lo(*_lo_columns(lo_points), 0.7)}

    def test_round_trip_bits(self):
        # JSON keeps every bit of params, cov and phi_ref: contributions_at agrees bit for bit
        seps = self._separations()
        cases = ((seps["phase"], np.linspace(0, 7, 29)), (seps["lo"], np.array([0.7, 0.7 + np.pi])))
        for sep, phis in cases:
            back = SeparatedContributions.from_dict(json.loads(json.dumps(sep.to_dict())))
            assert back.phi_ref == sep.phi_ref
            for got, want in zip(back.contributions_at(phis), sep.contributions_at(phis)):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "kind, edit",
        [
            ("phase", {"params": [0.0] * 3, "cov": [[0.0] * 3] * 3}),
            ("phase", {"phi_ref": 0.7}),
            ("phase", {"cov": [[0.0] * 6] * 5}),
            ("phase", {"cov": None}),
            ("phase", {"params": None}),
            ("lo", {"params": [0.0] * 6, "cov": [[0.0] * 6] * 6}),
            ("lo", {"phi_ref": math.nan}),
            ("lo", {"phi_ref": math.inf}),
            ("lo", {"phi_ref": "x"}),
            ("lo", {"cov": [[math.nan] * 3] * 3}),
            ("lo", {"cov": None}),
            ("phase", {"cov": (-1e-4 * np.eye(6)).tolist()}),
            ("lo", {"cov": [[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
            ("lo", {"cov": [[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
            ("lo", {"cov": [[0.0, 1e-3, 0.0], [1e-3, 1.0, 0.0], [0.0, 0.0, 1.0]]}),
        ],
        ids=[
            "by-phase-3-params",
            "by-phase-with-phi-ref",
            "by-phase-cov-5x6",
            "by-phase-no-cov",
            "by-phase-no-params",
            "lo-6-params",
            "lo-nan-phi-ref",
            "lo-inf-phi-ref",
            "lo-phi-ref-not-a-number",
            "lo-nan-cov",
            "lo-no-cov",
            "by-phase-negative-variances",
            "lo-not-positive-semidefinite",
            "lo-not-symmetric",
            "lo-covariance-beside-a-zero-variance",
        ],
    )
    def test_from_dict_refuses(self, kind, edit):
        # one shape rule: 6 params without phi_ref, 3 with it, a square cov of that size;
        # and cov must be a covariance, or a negative variance would certify at inf sigma
        payload = {**self._separations()[kind].to_dict(), **edit}
        payload = {key: value for key, value in payload.items() if value is not None}
        with pytest.raises(ValueError):
            SeparatedContributions.from_dict(json.loads(json.dumps(payload)))


    def test_from_dict_takes_rounding(self):
        # a covariance off symmetry by rounding, and a zero variance with its row, still load
        for kind, sep in self._separations().items():
            skewed, zero_row = sep.cov.copy(), sep.cov.copy()
            skewed[0, 1] += 1e-15 * np.sqrt(skewed[0, 0] * skewed[1, 1])
            zero_row[0, :] = zero_row[:, 0] = 0.0
            for cov in (skewed, zero_row):
                payload = json.loads(json.dumps({**sep.to_dict(), "cov": cov.tolist()}))
                assert SeparatedContributions.from_dict(payload).cov.tolist() == cov.tolist(), kind


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
        fit = fit_trig_poly(*_columns(synthetic_points(truth, phis)))
        np.testing.assert_allclose(fit.coeffs, truth, atol=1e-10)
        # every stderr 0: the estimates are exact, and so are the coefficients
        assert fit.cov.shape == (5, 5) and not fit.cov.any()
        assert fit.chi2 == pytest.approx(0.0, abs=1e-16)
        assert fit.dof == 7

    def test_weighted_recovery(self, rng):
        phis = 2 * np.pi * np.arange(40) / 40
        truth = (1.0, -0.7, 0.3, 0.2, 0.05)
        pts = []
        for p, e in synthetic_points(truth, phis):
            sigma = rng.uniform(0.01, 0.05)
            pts.append((p, _est(e.value + rng.normal(0, sigma), sigma)))
        fit = fit_trig_poly(*_columns(pts))
        for k in range(5):
            pull = (fit.coeffs[k] - truth[k]) / np.sqrt(fit.cov[k, k])
            assert abs(pull) < 5

    def test_predict_matches_one_call_per_phase(self, rng):
        phis = rng.uniform(0.0, 2 * np.pi, 60)
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, -0.7, 0.3, 0.2, 0.05), phis)))
        one_by_one = [float(fit.predict(phi)[0]) for phi in phis]
        assert fit.predict(phis).tolist() == one_by_one

    def test_too_few_phases(self):
        phis = 2 * np.pi * np.arange(5) / 5
        with pytest.raises(PreconditionError, match="need at least 6 distinct phases, got 5"):
            fit_trig_poly(*_columns(synthetic_points((1, 0, 0, 0, 0), phis)))

    def test_degenerate_design(self):
        # all phases equal mod pi: cos/sin columns collapse
        phis = np.array([0.3, 0.3 + np.pi] * 5)
        pts = [(p, _est(1.0, 0.1)) for p in phis]
        with pytest.raises(PreconditionError, match="6 distinct phases|condition number"):
            fit_trig_poly(*_columns(pts))

    def test_degenerate_by_condition_number(self):
        # six distinct phases but clustered pathologically close
        phis = np.array([0.1, 0.1 + 1e-12, 0.1 + 2e-12, 0.1 + 3e-12, 0.1 + 4e-12, 0.1 + 5e-12])
        pts = [(p, _est(1.0, 0.1)) for p in phis]
        with pytest.raises(PreconditionError, match="condition number .* exceeds 1e"):
            fit_trig_poly(*_columns(pts))

    def test_condition_bound_quoted(self, monkeypatch):
        # the refusal names the bound in force, DESIGN_COND_MAX
        phis = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        pts = [(p, _est(1.0, 0.1)) for p in phis]
        monkeypatch.setattr(analysis, "DESIGN_COND_MAX", 10.0)
        with pytest.raises(PreconditionError, match=r"condition number .* exceeds 10$"):
            fit_trig_poly(*_columns(pts))

    def test_mixed_stderr_rejected(self):
        phis = 2 * np.pi * np.arange(8) / 8
        pts = synthetic_points((1, 0, 0, 0, 0), phis)
        pts[0] = (pts[0][0], _est(pts[0][1].value, 0.1))
        with pytest.raises(ValueError):
            fit_trig_poly(*_columns(pts))

    @pytest.mark.parametrize("stderr", [1e-160, 1e-170], ids=["subnormal", "zero"])
    def test_tiny_stderr_rejected(self, stderr):
        # the squares are subnormal or 0.0: their weights would be infinite, and
        # 0.0 must not pass for noiseless points
        phis = 2 * np.pi * np.arange(8) / 8
        pts = [
            (p, _est(e.value * 1e-160, stderr))
            for p, e in synthetic_points((1, 0, 0, 0, 0), phis)
        ]
        with pytest.raises(PreconditionError, match="all positive or all zero"):
            fit_trig_poly(*_columns(pts))
        grid = [(e, _est(1e-160, stderr), _est(1e-160, stderr)) for e in (0.0, 1.0, 2.0)]
        with pytest.raises(PreconditionError, match="all positive or all zero"):
            separate_by_lo(*_lo_columns(grid), phi=0.0)

    def test_chi2_calibration(self, rng):
        phis = 2 * np.pi * np.arange(24) / 24
        truth = (0.5, 1.0, -0.2, 0.4, 0.0)
        ratios = []
        for _ in range(300):
            pts = [
                (p, _est(e.value + rng.normal(0, 0.02), 0.02))
                for p, e in synthetic_points(truth, phis)
            ]
            fit = fit_trig_poly(*_columns(pts))
            ratios.append(fit.chi2 / fit.dof)
        assert np.mean(ratios) == pytest.approx(1.0, abs=0.05)


class TestSeparateByPhase:
    def test_c1_amplitude_at_zero(self):
        # a1 = b1 = 0: no direction to propagate along, so sigma is the quadrature sum
        params = np.array([1.0, 0.0, 0.0, 0.2, 0.1, 0.8])
        cov = np.diag([1e-4, 4e-4, 9e-4, 1e-4, 1e-4, 1e-4])
        amp, sigma = SeparatedContributions(params, cov).c1_amplitude()
        assert amp == 0.0
        assert sigma == pytest.approx(np.sqrt(13e-4), rel=1e-12)

    def test_exact_recovery(self):
        phis = 2 * np.pi * np.arange(24) / 24
        c0, (a1, b1), (a2, b2) = 0.9, (1.2, -0.4), (0.3, 0.1)
        c2_const = 0.25
        coeffs = (c0 + c2_const, a1, b1, a2, b2)
        fit = fit_trig_poly(*_columns(synthetic_points(coeffs, phis)))
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
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.5, -0.3, 0.2, 0.4), phis)))
        sep = separate_by_phase(fit, _est(0.6, 0.01, n=10))
        for phi in (0.0, 1.1, 2.9):
            v1, _ = sep.contributions_at(phi)
            v2, _ = sep.contributions_at(phi + np.pi)
            assert v2[1] == pytest.approx(-v1[1], abs=1e-12)
            assert v2[2] == pytest.approx(v1[2], abs=1e-12)

    def test_sum_reproduces_fit(self):
        phis = 2 * np.pi * np.arange(24) / 24
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.5, -0.3, 0.2, 0.4), phis)))
        sep = separate_by_phase(fit, _est(0.6, 0.01, n=10))
        for phi in np.linspace(0, 2 * np.pi, 17):
            values, _ = sep.contributions_at(phi)
            assert values.sum() == pytest.approx(float(fit.predict(phi)[0]), abs=1e-12)

    def test_high_precision_c_block(self):
        # a blocked-LO result at 3e8-sample precision enters as C0 directly
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.0, 0.0, 0.0, 0.0), phis)))
        cb = _est(0.80153, 0.00014, n=300_000_000)
        sep = separate_by_phase(fit, cb)
        values, cov = sep.contributions_at(0.3)
        assert values[0] == pytest.approx(0.80153)
        assert np.sqrt(cov[0, 0]) == pytest.approx(0.00014, rel=1e-9)

    def test_drift_enters_c0_sigma(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.0, 0.0, 0.0, 0.0), phis)))
        sep = separate_by_phase(fit, _est(0.8, 0.003, n=10), drift=0.004)
        assert np.sqrt(sep.cov[5, 5]) == pytest.approx(np.hypot(0.003, 0.004), rel=1e-12)

    def test_c0_c2_anticorrelation(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.1, 0.0, 0.0, 0.0), phis)))
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
        sep = separate_by_lo(*_lo_columns(pts), phi=0.9)
        assert sep.phi_ref == 0.9
        assert sep.cov.shape == (3, 3) and not sep.cov.any()
        vals, _ = sep.contributions_at(0.9)
        assert vals[0] == pytest.approx(0.7, abs=1e-12)
        assert vals[1] == pytest.approx(-0.5 * 2.0, abs=1e-12)
        assert vals[2] == pytest.approx(0.3 * 4.0, abs=1e-12)

    def test_pi_shift_flips_odd_part(self):
        grid = [0.0, 1.0, 2.0]
        sep = separate_by_lo(*_lo_columns(self._points(0.7, -0.5, 0.3, grid)), phi=0.9)
        up, _ = sep.contributions_at(0.9)
        dn, _ = sep.contributions_at(0.9 + np.pi)
        assert dn[1] == pytest.approx(-up[1], abs=1e-12)
        assert dn[2] == pytest.approx(up[2], abs=1e-12)
        with pytest.raises(ValueError):
            sep.contributions_at(0.3)

    def test_insufficient_grid(self):
        with pytest.raises(PreconditionError, match="3 distinct LO field strengths, got 2"):
            separate_by_lo(*_lo_columns(self._points(1, 0, 0, [0.0, 1.0])), phi=0.0)
        with pytest.raises(PreconditionError, match="must include 0"):
            separate_by_lo(*_lo_columns(self._points(1, 0, 0, [0.5, 1.0, 2.0])), phi=0.0)

    def test_default_reference_is_max(self):
        grid = [0.0, 1.0, 2.0]
        sep = separate_by_lo(*_lo_columns(self._points(0.7, -0.5, 0.3, grid)), phi=0.9)
        vals, _ = sep.contributions_at(0.9)
        assert vals[1] == pytest.approx(-1.0, abs=1e-12)

    def test_error_propagation_sanity(self, rng):
        self._check_error_propagation(rng, (0.02,) * 4, (0.02,) * 4)

    def test_error_propagation_unequal_sigma(self, rng):
        # unequal sigma at phi and phi + pi: the odd and even parts correlate
        self._check_error_propagation(
            rng, (0.01, 0.02, 0.015, 0.03), (0.03, 0.01, 0.025, 0.012)
        )

    @staticmethod
    def _check_error_propagation(rng, sigma_phi, sigma_phi_pi):
        # Monte Carlo pulls of the three contributions are standard normal, and the
        # draws' 3x3 covariance is the propagated one, correlations included
        grid = np.array([0.0, 1.0, 1.5, 2.0])
        truth = np.array([0.7, -0.5, 0.3])
        up = truth[0] + truth[1] * grid + truth[2] * grid**2
        dn = truth[0] - truth[1] * grid + truth[2] * grid**2
        draws = []
        for _ in range(4000):
            a = up + rng.normal(0.0, sigma_phi)
            b = dn + rng.normal(0.0, sigma_phi_pi)
            pts = [
                (e, _est(x, sx), _est(y, sy))
                for e, x, sx, y, sy in zip(grid, a, sigma_phi, b, sigma_phi_pi)
            ]
            vals, cov = separate_by_lo(*_lo_columns(pts), phi=0.0).contributions_at(0.0)
            draws.append(vals)
        draws = np.array(draws)
        sigma = np.sqrt(np.diag(cov))
        pulls = (draws - truth * np.array([1.0, 2.0, 4.0])) / sigma
        assert np.all(np.abs(pulls.mean(axis=0)) < 0.1)
        assert np.all(np.abs(pulls.std(axis=0) - 1.0) < 0.05)
        # sampling sd of a correlation from 4000 draws is below 0.016
        corr_mc = np.corrcoef(draws.T)
        assert np.all(np.abs(corr_mc - cov / np.outer(sigma, sigma)) < 0.06)

    def test_matches_independent_gls(self, rng):
        # the fit equals a generalised least-squares solve written out independently
        # (lstsq on whitened rows, covariance inv(X^T W X)), on random grids, in random
        # order, with unequal sigma at phi and phi + pi
        for _ in range(200):
            grid = np.concatenate([[0.0], rng.uniform(0.1, 5.0, rng.integers(2, 8))])
            sigma = rng.uniform(0.01, 0.1, (grid.size, 2))
            pts = [
                (e, _est(rng.normal(), sa), _est(rng.normal(), sb))
                for e, (sa, sb) in zip(rng.permutation(grid), sigma)
            ]
            values, cov = _gls_by_lo(pts)
            sep = separate_by_lo(*_lo_columns(pts), phi=0.0)
            scale = np.sqrt(np.diag(cov))
            # to 1e-12 of sigma, and of sigma_i sigma_j for the covariance
            assert np.all(np.abs(sep.params - values) <= 1e-12 * scale)
            assert np.all(np.abs(sep.cov - cov) <= 1e-12 * np.outer(scale, scale))

    def test_c1_amplitude(self):
        # by LO strength C1 is one signed number at phi_ref: its magnitude and sigma
        grid = [0.0, 1.0, 1.5, 2.0]
        sep = separate_by_lo(*_lo_columns(self._points(0.7, -0.5, 0.3, grid, 0.01)), phi=0.9)
        amp, sigma = sep.c1_amplitude()
        assert amp == pytest.approx(1.0, abs=1e-12)
        assert sigma == np.sqrt(sep.cov[1, 1]) > 0

    def test_method_tag_by_phase(self):
        phis = 2 * np.pi * np.arange(12) / 12
        fit = fit_trig_poly(*_columns(synthetic_points((1.0, 0.1, 0.0, 0.0, 0.0), phis)))
        # the kind of a separation is its phi_ref: None by phase, the scanned phase by LO
        sep = separate_by_phase(fit, _est(0.8, 0.02, n=10))
        assert sep.phi_ref is None


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
        fit = fit_trig_poly(*_columns(pts))
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


def _gls_by_lo(points):
    """(C0, C1, C2) at the largest E_L with their covariance, by generalised least
    squares on the model C0 + C1 x + C2 x^2 at phi and C0 - C1 x + C2 x^2 at
    phi + pi, x = E_L / max E_L: lstsq on the rows whitened by 1/sigma, and the
    covariance inv(X^T W X)."""
    e_vals = np.array([float(e) for e, _, _ in points])
    x = e_vals / e_vals.max()
    rows, y, sigma = [], [], []
    for sign, col in ((1.0, 1), (-1.0, 2)):
        for xj, item in zip(x, points):
            rows.append([1.0, sign * xj, xj**2])
            y.append(item[col].value)
            sigma.append(item[col].stderr)
    design, y, sigma = np.array(rows), np.array(y), np.array(sigma)
    values = np.linalg.lstsq(design / sigma[:, None], y / sigma, rcond=None)[0]
    cov = np.linalg.inv(design.T @ (design / sigma[:, None] ** 2))
    return values, cov
