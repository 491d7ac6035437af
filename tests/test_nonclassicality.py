import warnings
from dataclasses import replace

import numpy as np
import pytest

from hccm import analysis, detector, gaussian, nonclassicality, pipeline
from hccm.analysis import BY_PHASE, SeparatedContributions
from hccm.config import build_config, preset_config
from hccm.detector import DetectorConfig, ExperimentConfig, SignalParams
from hccm.errors import AnomalousTermInaccessibleError, ConfigError
from hccm.gaussian import squeezed_coherent, thermal_state
from hccm.nonclassicality import (
    DetResult,
    build_L,
    classify_phase_range,
    det_rows,
    det_with_error,
    moment_matrix_det,
    squeezed_phases,
)
from hccm.splitter import splitter_coefficients, symmetric_splitter


REFERENCE_STATE = dict(v_min=0.537, v_max=3.548)


def _sep(values, cov, phi=0.5):
    values = np.asarray(values, dtype=float)
    cov = np.asarray(cov, dtype=float)
    return SeparatedContributions(params=values, cov=cov, phi_ref=phi)


def _det_at(sep, coeffs, phi):
    """The determinant stage at one phase, as its DetResult row."""
    [row] = det_rows([phi], *det_with_error(*build_L(sep, coeffs, [phi]), coeffs))
    return row


class TestBuildL:
    def test_entries(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _sep([1.0, 0.5, -0.2], np.eye(3) * 1e-4)
        (lm,), _ = build_L(sep, coeffs, [0.5])
        assert lm[0, 0] == pytest.approx(1.0)
        assert lm[0, 1] == pytest.approx(0.5 / coeffs.t1)
        assert lm[0, 1] == pytest.approx(0.5 / -2.0751, abs=1e-4)
        assert lm[1, 1] == pytest.approx(0.2)
        assert lm[1, 0] == lm[0, 1]

    def test_balanced_splitter_rejected(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.5))
        sep = _sep([1.0, 0.5, -0.2], np.eye(3) * 1e-4)
        with pytest.raises(AnomalousTermInaccessibleError):
            build_L(sep, coeffs, [0.5])


class TestDetWithError:
    def test_zero_matrix(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _sep([0.0, 0.0, 0.0], np.eye(3) * 1e-4)
        res = _det_at(sep, coeffs, 0.5)
        assert res.det == 0.0
        assert res.significance == 0.0
        assert res.verdict == "classical-consistent"

    def test_delta_method_matches_monte_carlo(self, rng):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        truth = np.array([2.0, 1.5, -0.5])
        cov = np.diag([0.03, 0.02, 0.025]) ** 2
        cov[0, 2] = cov[2, 0] = -2e-4
        res = _det_at(_sep(truth, cov), coeffs, 0.5)
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
        res = _det_at(_sep([1.0, 1.5, -0.5], cov), coeffs, 0.5)
        assert res.det < 0
        assert res.verdict == "nonclassical"
        loose = _det_at(_sep([1.0, 1.5, -0.5], np.eye(3) * 100.0), coeffs, 0.5)
        assert loose.verdict == "classical-consistent"

    def test_noiseless_negative_det_is_maximally_significant(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        res = _det_at(_sep([1.0, 1.5, -0.5], np.zeros((3, 3))), coeffs, 0.5)
        assert res.det < 0
        assert np.isinf(res.significance)
        assert res.verdict == "nonclassical"


    def test_tiny_l_with_a_larger_covariance(self):
        # L of order 1e-180 with a covariance of order 1: L and the covariance are
        # scaled apart, so sigma = |jac| stays finite (about 2.0e-180)
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        values = np.array([1e-180, 3e-180, -1e-180])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = _det_at(_sep(values, np.eye(3)), coeffs, 0.5)
        c0, c1, c2 = np.ldexp(values, 600) / [coeffs.t0, coeffs.t1, coeffs.t2]
        jac = np.array([c2 / coeffs.t0, -2.0 * c1 / coeffs.t1, c0 / coeffs.t2])
        assert res.sigma == pytest.approx(np.ldexp(np.sqrt(jac @ jac), -600), rel=1e-14)
        assert res.sigma == pytest.approx(2.0e-180, rel=0.05)

    def test_nan_variance_is_never_nonclassical(self):
        # det < 0 as in the noiseless case, but a covariance that measures nothing
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        matrix, c_cov = build_L(_sep([1.0, 1.5, -0.5], np.zeros((3, 3))), coeffs, [0.5])
        [res] = det_rows([0.5], *det_with_error(matrix, np.full_like(c_cov, np.nan), coeffs))
        assert res.det < 0
        assert np.isnan(res.sigma)
        assert np.isnan(res.significance)
        assert res.verdict == "classical-consistent"


@pytest.mark.parametrize("gain", [2.0**-166, 2.0**133], ids=["2**-166", "2**133"])
def test_verdicts_do_not_depend_on_the_gains(gain):
    # det L scales as gain^4 and its variance as gain^8, which under- or overflows
    # at these gains; the verdicts and significances are those of gain 1
    base = dict(
        signal=SignalParams(v_min=0.537, v_max=3.548, angle=np.pi / 2, alpha=3.0 + 0j),
        e_l=2.8,
        phases=tuple(2 * np.pi * i / 16 for i in range(16)),
        samples_per_phase=20_000,
        blocked_samples=40_000,
        seed=99,
        splitter=symmetric_splitter(0.14),
        visibility=0.96,
        lo_scan_e_l=(0.0, 1.4, 2.8),
    )
    runs = [
        pipeline.run_pipeline(
            ExperimentConfig(detector=DetectorConfig(0.94, 0.94, gain1=g, gain2=g), **base)
        )
        for g in (1.0, gain)
    ]
    ref, scaled = ([*r.det_results, r.lo_det] for r in runs)
    assert [d.verdict for d in scaled] == [d.verdict for d in ref]
    significance = [d.significance for d in ref]
    assert [d.significance for d in scaled] == pytest.approx(significance, rel=1e-12)
    assert [d.det for d in scaled] == pytest.approx([d.det * gain**4 for d in ref], rel=1e-12)
    assert 0 < runs[0].summary.n_nonclassical < 16


def test_smallest_gains_keep_the_verdicts():
    # at 1e-75 the products' stderr stays normal on paper-quick, and every
    # verdict and significance is that of gain 1
    runs = [
        pipeline.run_pipeline(build_config({"preset": "paper-quick", "gain1": g, "gain2": g}))
        for g in ("1.0", "1e-75")
    ]
    ref, scaled = ([*r.det_results, r.lo_det] for r in runs)
    assert [d.verdict for d in scaled] == [d.verdict for d in ref]
    significance = [d.significance for d in ref]
    assert [d.significance for d in scaled] == pytest.approx(significance, rel=1e-9)
    assert runs[0].summary.n_nonclassical == runs[1].summary.n_nonclassical == 36


@pytest.mark.parametrize("gain", ["1e-78", "1e-80", "1e-90"])
def test_gains_that_underflow_the_products_are_refused(gain):
    # the products' squared deviations, and with them every stderr, would underflow
    with pytest.raises(ConfigError, match="sample products underflow"):
        build_config({"preset": "paper-quick", "gain1": gain, "gain2": gain})


class TestClassify:
    def test_all_classical(self):
        phis = np.linspace(0, np.pi, 10, endpoint=False)
        summary = classify_phase_range(phis, [False] * 10)
        assert summary.fraction_nonclassical == 0.0
        assert summary.intervals == ()

    def test_interval_detection(self):
        phis = np.linspace(0, np.pi, 10, endpoint=False)
        flags = [False, True, True, False, False, False, True, True, True, False]
        summary = classify_phase_range(phis, flags)
        assert summary.fraction_nonclassical == pytest.approx(0.5)
        assert len(summary.intervals) == 2

    def test_wraparound_merge(self):
        phis = np.linspace(0, np.pi, 8, endpoint=False)
        flags = [True, True, False, False, False, False, False, True]
        summary = classify_phase_range(phis, flags)
        assert len(summary.intervals) == 1
        start, end = summary.intervals[0]
        assert start == pytest.approx(phis[-1])
        assert end == pytest.approx(phis[1])

    def test_outside_squeezed_flag(self):
        phis = np.linspace(0, np.pi, 6, endpoint=False)
        flags = [False, False, True, True, False, False]
        squeezed = [False, False, True, True, False, False]
        summary = classify_phase_range(phis, flags, squeezed)
        assert summary.outside_squeezed is False
        squeezed2 = [False, False, True, False, False, False]
        summary2 = classify_phase_range(phis, flags, squeezed2)
        assert summary2.outside_squeezed is True

    def test_refuses_no_phase_and_mismatched_flags(self):
        phis = np.linspace(0, np.pi, 6, endpoint=False)
        with pytest.raises(ValueError):
            classify_phase_range([], [])
        with pytest.raises(ValueError):
            classify_phase_range(phis, [True] * 5)
        with pytest.raises(ValueError):
            classify_phase_range(phis, [True] * 6, [True] * 5)

    def test_squeezed_phases_definition(self):
        state = SignalParams(np.exp(-0.6), np.exp(0.6), np.pi / 2, 2.0)
        phis = np.linspace(0, np.pi, 50)
        flags = squeezed_phases(state, phis)
        # squeezed axis at pi/2: squeezing present near phi = pi/2 only
        assert flags[np.argmin(np.abs(phis - np.pi / 2))]
        assert not flags[0] and not flags[-1]


    def test_vacuum_level_signal_is_never_squeezed(self):
        # V(phi) = 1 exactly when v_min = v_max = 1; cos^2 + sin^2 rounding must not flag it
        phis = np.linspace(0.0, 2.0 * np.pi, 2000)
        for name in ("coherent", "thermal"):
            assert not squeezed_phases(preset_config(name).signal, phis).any(), name
        for theta in (0.0, 0.3, np.pi / 2, 2.0, 5.9):
            assert not squeezed_phases(SignalParams(1.0, 1.0, theta, 3.0), phis).any()

    @pytest.mark.parametrize("name, n_squeezed", [("paper", 30), ("paper-quick", 14)])
    def test_preset_squeezed_counts(self, name, n_squeezed):
        cfg = preset_config(name)
        assert squeezed_phases(cfg.signal, cfg.phases).sum() == n_squeezed


def _random_by_phase(rng, coeff_cov=None):
    # a large first harmonic (C1) makes det L negative at some phases
    a = rng.standard_normal((5, 5))
    c0_value = float(rng.uniform(0.5, 3.0))
    c0_sigma = float(rng.uniform(0.0, 0.1))
    cov = np.zeros((6, 6))
    cov[:5, :5] = a @ a.T * 1e-3 if coeff_cov is None else coeff_cov
    cov[5, 5] = c0_sigma**2
    coeffs = rng.standard_normal(5) * [1.0, 3.0, 3.0, 1.0, 1.0]
    return SeparatedContributions(params=np.append(coeffs, c0_value), cov=cov)


def _bits(res: DetResult):
    return (res.phi.hex(), res.det.hex(), res.sigma.hex(), res.significance.hex(), res.verdict)


def _reference_det(sep, coeffs, phi: float) -> DetResult:
    """The determinant stage as one phase at a time with NumPy scalars: the
    reference that the array pass must match bit for bit."""
    if sep.method == BY_PHASE:
        a0, a1, b1, a2, b2, c0 = sep.params
        c, s = np.cos(phi), np.sin(phi)
        c2, s2 = np.cos(2 * phi), np.sin(2 * phi)
        values = np.array([c0, a1 * c + b1 * s, a2 * c2 + b2 * s2 + a0 - c0])
        jac = np.array(
            [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [0.0, c, s, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, c2, s2, -1.0]]
        )
        cov = jac @ sep.cov @ jac.T
    else:
        delta = (phi - sep.phi_ref) % (2.0 * np.pi)
        flip = np.diag([1.0, 1.0 if min(delta, 2.0 * np.pi - delta) < 1e-9 else -1.0, 1.0])
        values, cov = flip @ sep.params, flip @ sep.cov @ flip
    c0, c1, c2 = values
    m = np.array([[c0 / coeffs.t0, c1 / coeffs.t1], [c1 / coeffs.t1, c2 / coeffs.t2]])
    det = float(m[0, 0] * m[1, 1] - m[0, 1] ** 2)
    jac = np.array([m[1, 1] / coeffs.t0, -2.0 * m[0, 1] / coeffs.t1, m[0, 0] / coeffs.t2])
    with np.errstate(invalid="ignore"):
        sigma = float(np.sqrt(max(float(jac @ cov @ jac), 0.0)))
    if not np.isfinite(sigma):
        significance = np.nan
    elif det < 0:
        significance = -det / sigma if sigma > 0 else np.inf
    else:
        significance = 0.0
    verdict = "nonclassical" if det < 0 and significance >= 3.0 else "classical-consistent"
    return DetResult(float(phi), det, sigma, float(significance), verdict)


class TestPhaseAxis:
    """One array call over P phases equals P scalar calls, and the per-phase
    reference, bit for bit."""

    def _check_batch(self, sep, coeffs, phis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix, c_cov = build_L(sep, coeffs, phis)
            arrays = det_with_error(matrix, c_cov, coeffs)
        assert matrix.shape == (phis.size, 2, 2)
        assert c_cov.shape == (phis.size, 3, 3)
        assert [a.shape for a in arrays] == [(phis.size,)] * 4
        batch = det_rows(phis, *arrays)
        values, cov = sep.contributions_at(phis)
        for i, phi in enumerate(phis):
            one = _det_at(sep, coeffs, phi)
            assert _bits(batch[i]) == _bits(one) == _bits(_reference_det(sep, coeffs, phi))
            v1, c1 = sep.contributions_at(phi)
            assert v1.shape == (3,) and c1.shape == (3, 3)
            assert values[i].tobytes() == v1.tobytes() and cov[i].tobytes() == c1.tobytes()
        return batch

    def test_random_by_phase(self, rng):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        phis = rng.uniform(0.0, 2.0 * np.pi, 37)
        for _ in range(20):
            self._check_batch(_random_by_phase(rng), coeffs, phis)

    def test_many_phases_match_reference(self, rng):
        # m01 ** 2 of a NumPy scalar (libm pow) and m01 * m01 differ in the last
        # bit for about 1 value in 1 000, so the array pass must square as the reference does
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _random_by_phase(rng)
        phis = rng.uniform(0.0, 2.0 * np.pi, 5000)
        batch = det_rows(phis, *det_with_error(*build_L(sep, coeffs, phis), coeffs))
        assert [_bits(r) for r in batch] == [_bits(_reference_det(sep, coeffs, p)) for p in phis]

    def test_by_lo_phase_pair(self):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _sep([1.0, 1.5, -0.5], np.diag([1e-4, 2e-4, 3e-4]) + 1e-5, phi=0.5)
        batch = self._check_batch(sep, coeffs, np.array([0.5, 0.5 + np.pi, 0.5 - np.pi]))
        assert batch[0].det == batch[1].det
        with pytest.raises(ValueError):
            sep.contributions_at(np.array([0.5, 1.0]))

    def test_zero_covariance_is_infinitely_significant(self, rng):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = replace(_random_by_phase(rng, np.zeros((5, 5))), cov=np.zeros((6, 6)))
        batch = self._check_batch(sep, coeffs, np.linspace(0.0, 2.0 * np.pi, 24))
        negative = [r for r in batch if r.det < 0]
        assert 0 < len(negative) < len(batch)
        assert all(np.isinf(r.significance) for r in negative)
        assert all(r.verdict == "nonclassical" for r in negative)

    def test_nan_covariance_is_never_nonclassical(self, rng):
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        sep = _random_by_phase(rng, np.full((5, 5), np.nan))
        batch = self._check_batch(sep, coeffs, np.linspace(0.0, 2.0 * np.pi, 24))
        assert any(r.det < 0 for r in batch)
        assert all(np.isnan(r.sigma) and np.isnan(r.significance) for r in batch)
        assert all(r.verdict == "classical-consistent" for r in batch)


@pytest.mark.parametrize("with_lo_scan, calls", [(False, 1), (True, 2)])
def test_determinant_stage_is_one_pass(monkeypatch, with_lo_scan, calls):
    # the per-phase quantities stay arrays from the scan estimates to the verdict: a
    # prebuilt config builds no GaussianState, one build_L and one det_with_error call
    # for the scan plus one for the LO point, one CorrelationEstimate per segment (none
    # offset-corrected), and no per-phase DetResult until det_results is read
    cfg = build_config(
        {"preset": "paper-quick", "samples_per_phase": "400", "blocked_samples": "800"}
    )
    names = ("GaussianState", "build_L", "det_with_error", "CorrelationEstimate", "DetResult")
    counts = dict.fromkeys(names, 0)

    def counted(name, func):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(
        gaussian.GaussianState,
        "__post_init__",
        counted("GaussianState", gaussian.GaussianState.__post_init__),
    )
    monkeypatch.setattr(pipeline, "build_L", counted("build_L", pipeline.build_L))
    monkeypatch.setattr(
        pipeline, "det_with_error", counted("det_with_error", pipeline.det_with_error)
    )
    for cls in (analysis.CorrelationEstimate, nonclassicality.DetResult):
        monkeypatch.setattr(cls, "__init__", counted(cls.__name__, cls.__init__))
    result = pipeline.run_pipeline(cfg, with_lo_scan=with_lo_scan)
    kinds = ("phase_scan", "lo_scan")[:calls]
    segments = sum(len(detector.scan_plan(cfg, kind)) for kind in kinds)
    assert counts == {
        "GaussianState": 0,
        "build_L": calls,
        "det_with_error": calls,
        "CorrelationEstimate": segments,
        "DetResult": calls - 1,  # the LO-scan point
    }
    assert len(result.det_results) == len(cfg.phases)
    assert result.det_results is result.det_results
    assert counts["DetResult"] == calls - 1 + len(cfg.phases)


@pytest.mark.parametrize("seed", [5, 7])
def test_det_results_are_the_arrays(seed):
    # the DetResult rows repeat the arrays bit for bit, field by field
    result = pipeline.run_pipeline(preset_config("paper-quick").with_seed(seed))
    rows = result.det_results
    columns = {
        "phi": result.phis,
        "det": result.det,
        "sigma": result.sigma,
        "significance": result.significance,
    }
    for name, column in columns.items():
        assert [getattr(r, name).hex() for r in rows] == [x.hex() for x in column.tolist()]
    verdicts = ["nonclassical" if flag else "classical-consistent" for flag in result.nonclassical]
    assert [r.verdict for r in rows] == verdicts
    assert 0 < result.summary.n_nonclassical == int(result.nonclassical.sum()) < len(rows)


class TestDetScaling:
    """det L is formed on L / 2**k: it neither under- nor overflows, and scaling L by
    2**j scales det by 4**j exactly."""

    def test_tiny_l_keeps_its_sign(self):
        # entries of order 1e-180: det L, about -1e-360, is below the smallest float and
        # reads -0.0, but its sign and its significance are kept
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        values = np.array([1e-180, 3e-180, -1e-180])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = _det_at(_sep(values, np.eye(3)), coeffs, 0.5)
            noiseless = _det_at(_sep(values, np.zeros((3, 3))), coeffs, 0.5)
        ordinary = _det_at(_sep(np.ldexp(values, 600), np.eye(3)), coeffs, 0.5)
        assert ordinary.det < 0 and tiny.det == 0.0 and np.signbit(tiny.det)
        # sigma scales as 2**-600 here (the covariance stays), det as 4**-600
        assert tiny.significance > 0
        assert tiny.significance == pytest.approx(np.ldexp(ordinary.significance, -600), rel=1e-12)
        assert np.isinf(noiseless.significance) and noiseless.verdict == "nonclassical"

    @pytest.mark.parametrize("j", [-600, -400, 0, 400, 600])
    def test_scaling_l_by_two_to_the_j(self, j):
        # det scales by 4**j and, the covariance kept, its significance by 2**j, bit for
        # bit; at |j| = 600 det itself leaves the float range, its significance does not
        coeffs = splitter_coefficients(symmetric_splitter(0.14))
        matrix, c_cov = build_L(_sep([1.0, 3.0, -1.0], np.eye(3)), coeffs, [0.5])
        det, _, significance, _ = det_with_error(matrix, c_cov, coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = det_with_error(np.ldexp(matrix, j), c_cov, coeffs)
        with np.errstate(over="ignore"):
            assert scaled[0].tobytes() == np.ldexp(det, 2 * j).tobytes()
        assert scaled[2].tobytes() == np.ldexp(significance, j).tobytes()
        assert det[0] < 0 and (abs(j) == 600 or np.isfinite(scaled[0][0]) and scaled[0][0] < 0)


class TestQuantumCondition:
    """moment_matrix_det < 0 is the anomalous-correlation condition anom^2 > var_I var_E."""

    def test_coherent(self):
        assert moment_matrix_det(squeezed_coherent(0, 0, 2.0), 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_squeezed_vacuum_no_violation(self):
        state = squeezed_coherent(0.3, 0.0, 0.0)
        m = gaussian.normal_ordered_signal_moments(state, 0.9)
        det = moment_matrix_det(state, 0.9)
        assert det >= 0.0
        assert det == pytest.approx(m.var_i * m.var_e, abs=1e-14)  # no mixed moment

    def test_squeezed_reference_state_violates_at_antisqueezed_phase(self):
        from hccm.gaussian import from_quadrature_variances

        state = from_quadrature_variances(
            REFERENCE_STATE["v_min"], REFERENCE_STATE["v_max"], np.pi / 2, 3.0
        )
        assert moment_matrix_det(state, 3 * np.pi / 4) < 0.0

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
