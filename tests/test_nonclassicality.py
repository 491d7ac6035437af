from dataclasses import replace

import numpy as np
import pytest

from hccm.analysis import BY_LO, SeparatedContributions
from hccm.errors import AnomalousTermInaccessibleError
from hccm.gaussian import squeezed_coherent, thermal_state
from hccm.nonclassicality import (
    DetResult,
    build_L,
    classify_phase_range,
    det_with_error,
    moment_matrix_det,
    quantum_condition_analytic,
    squeezed_phases,
)
from hccm.splitter import splitter_coefficients, symmetric_splitter


REFERENCE_STATE = dict(v_min=0.537, v_max=3.548)


def _sep(values, cov, phi=0.5):
    values = np.asarray(values, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return SeparatedContributions(
        method=BY_LO,
        c0_value=float(values[0]),
        c0_sigma=float(np.sqrt(cov[0, 0])),
        phi_ref=phi,
        ref_values=values,
        ref_cov=cov,
    )


class TestBuildL:
    def test_entries(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _sep([1.0, 0.5, -0.2], np.eye(3) * 1e-4)
        lm = build_L(sep, coeffs, 0.5)
        assert lm.matrix[0, 0] == pytest.approx(1.0)
        assert lm.matrix[0, 1] == pytest.approx(0.5 / coeffs.t1)
        assert lm.matrix[0, 1] == pytest.approx(0.5 / -2.0751, abs=1e-4)
        assert lm.matrix[1, 1] == pytest.approx(0.2)
        assert lm.matrix[1, 0] == lm.matrix[0, 1]

    def test_balanced_splitter_rejected(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.5))
        sep = _sep([1.0, 0.5, -0.2], np.eye(3) * 1e-4)
        with pytest.raises(AnomalousTermInaccessibleError):
            build_L(sep, coeffs, 0.5)


class TestDetWithError:
    def test_zero_matrix(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _sep([0.0, 0.0, 0.0], np.eye(3) * 1e-4)
        res = det_with_error(build_L(sep, coeffs, 0.5))
        assert res.det == 0.0
        assert res.significance == 0.0
        assert res.verdict == "classical-consistent"

    def test_delta_method_matches_monte_carlo(self, rng):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        truth = np.array([2.0, 1.5, -0.5])
        cov = np.diag([0.03, 0.02, 0.025]) ** 2
        cov[0, 2] = cov[2, 0] = -2e-4
        res = det_with_error(build_L(_sep(truth, cov), coeffs, 0.5))
        dets = []
        chol = np.linalg.cholesky(cov)
        for _ in range(4000):
            c0, c1, c2 = truth + chol @ rng.standard_normal(3)
            dets.append((c0 / coeffs.t0) * (c2 / coeffs.t2) - (c1 / coeffs.t1) ** 2)
        assert np.std(dets) == pytest.approx(res.sigma, rel=0.1)
        assert np.mean(dets) == pytest.approx(res.det, abs=4 * np.std(dets) / np.sqrt(4000))

    def test_verdict_threshold(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        cov = np.eye(3) * 1e-6
        res = det_with_error(build_L(_sep([1.0, 1.5, -0.5], cov), coeffs, 0.5))
        assert res.det < 0
        assert res.verdict == "nonclassical"
        loose = det_with_error(
            build_L(_sep([1.0, 1.5, -0.5], np.eye(3) * 100.0), coeffs, 0.5)
        )
        assert loose.verdict == "classical-consistent"

    def test_noiseless_negative_det_is_maximally_significant(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        res = det_with_error(build_L(_sep([1.0, 1.5, -0.5], np.zeros((3, 3))), coeffs, 0.5))
        assert res.det < 0
        assert np.isinf(res.significance)
        assert res.verdict == "nonclassical"


    def test_nan_variance_is_never_nonclassical(self):
        # det < 0 as in the noiseless case, but a covariance that measures nothing
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        lmat = build_L(_sep([1.0, 1.5, -0.5], np.zeros((3, 3))), coeffs, 0.5)
        res = det_with_error(replace(lmat, c_cov=np.full((3, 3), np.nan)))
        assert res.det < 0
        assert np.isnan(res.sigma)
        assert np.isnan(res.significance)
        assert res.verdict == "classical-consistent"


class TestClassify:
    def _results(self, phis, flags):
        return [
            DetResult(
                phi=p,
                det=-1.0 if f else 1.0,
                sigma=0.1,
                significance=10.0 if f else 0.0,
                verdict="nonclassical" if f else "classical-consistent",
            )
            for p, f in zip(phis, flags)
        ]

    def test_all_classical(self):
        phis = np.linspace(0, np.pi, 10, endpoint=False)
        summary = classify_phase_range(self._results(phis, [False] * 10))
        assert summary.fraction_nonclassical == 0.0
        assert summary.intervals == ()

    def test_interval_detection(self):
        phis = np.linspace(0, np.pi, 10, endpoint=False)
        flags = [False, True, True, False, False, False, True, True, True, False]
        summary = classify_phase_range(self._results(phis, flags))
        assert summary.fraction_nonclassical == pytest.approx(0.5)
        assert len(summary.intervals) == 2

    def test_wraparound_merge(self):
        phis = np.linspace(0, np.pi, 8, endpoint=False)
        flags = [True, True, False, False, False, False, False, True]
        summary = classify_phase_range(self._results(phis, flags))
        assert len(summary.intervals) == 1
        start, end = summary.intervals[0]
        assert start == pytest.approx(phis[-1])
        assert end == pytest.approx(phis[1])

    def test_outside_squeezed_flag(self):
        phis = np.linspace(0, np.pi, 6, endpoint=False)
        flags = [False, False, True, True, False, False]
        squeezed = [False, False, True, True, False, False]
        summary = classify_phase_range(self._results(phis, flags), squeezed)
        assert summary.outside_squeezed is False
        squeezed2 = [False, False, True, False, False, False]
        summary2 = classify_phase_range(self._results(phis, flags), squeezed2)
        assert summary2.outside_squeezed is True

    def test_squeezed_phases_definition(self):
        state = squeezed_coherent(0.3, np.pi / 2, 2.0)
        phis = np.linspace(0, np.pi, 50)
        flags = squeezed_phases(state, phis)
        # squeezed axis at pi/2: squeezing present near phi = pi/2 only
        assert flags[np.argmin(np.abs(phis - np.pi / 2))]
        assert not flags[0] and not flags[-1]


class TestQuantumCondition:
    def test_coherent(self):
        lhs, rhs, violated = quantum_condition_analytic(squeezed_coherent(0, 0, 2.0), 0.7)
        assert lhs == pytest.approx(0.0, abs=1e-12)
        assert rhs == pytest.approx(0.0, abs=1e-12)
        assert violated is False

    def test_squeezed_vacuum_no_violation(self):
        lhs, rhs, violated = quantum_condition_analytic(
            squeezed_coherent(0.3, 0.0, 0.0), 0.9
        )
        assert lhs == pytest.approx(0.0, abs=1e-14)
        assert violated is False

    def test_squeezed_reference_state_violates_at_antisqueezed_phase(self):
        from hccm.gaussian import from_quadrature_variances

        state = from_quadrature_variances(
            REFERENCE_STATE["v_min"], REFERENCE_STATE["v_max"], np.pi / 2, 3.0
        )
        lhs, rhs, violated = quantum_condition_analytic(state, 3 * np.pi / 4)
        assert violated is True
        assert lhs > rhs

    def test_classical_states_never_violate(self, rng):
        # coherent, thermal, displaced thermal: det M >= 0 at every phase
        for _ in range(30):
            kind = rng.integers(0, 3)
            if kind == 0:
                st = squeezed_coherent(0.0, 0.0, rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2))
            else:
                alpha = 0.0 if kind == 1 else rng.uniform(-2, 2) + 1j * rng.uniform(-2, 2)
                st = thermal_state(rng.uniform(0.01, 2.0), alpha)
            for phi in rng.uniform(0, 2 * np.pi, size=8):
                assert moment_matrix_det(st, phi) >= -1e-10
