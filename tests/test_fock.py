import numpy as np
import pytest
from scipy.special import factorial

from hccm.gaussian import (
    LocalOscillator,
    normal_ordered_signal_moments,
    photocurrent_covariance,
    squeezed_coherent,
    two_mode_output,
)
from hccm.splitter import BeamSplitter, symmetric_splitter

from oracles.fock import (
    FockState,
    TruncationError,
    coherent_fock,
    fock_squeezed_coherent,
    joint_photon_statistics,
    oracle_mean_photon,
    oracle_moments,
)


class TestStateConstruction:
    def test_vacuum(self):
        st = fock_squeezed_coherent(0.0, 0.0, 0.0, 20)
        np.testing.assert_allclose(st.amplitudes[0], 1.0)
        np.testing.assert_allclose(st.amplitudes[1:], 0.0, atol=1e-14)

    def test_coherent_amplitudes(self):
        st = coherent_fock(1.0, 40)
        n = np.arange(40)
        expected = np.exp(-0.5) / np.sqrt(factorial(n))
        np.testing.assert_allclose(st.amplitudes.real, expected, atol=1e-10)
        np.testing.assert_allclose(st.amplitudes.imag, 0.0, atol=1e-10)

    def test_squeezed_vacuum_structure(self):
        st = fock_squeezed_coherent(0.2, 0.0, 0.0, 40)
        np.testing.assert_allclose(st.amplitudes[1::2], 0.0, atol=1e-12)
        x2 = _quad_second_moment(st)
        assert x2 == pytest.approx(np.exp(-0.4), abs=1e-8)

    def test_truncation_error(self):
        with pytest.raises(TruncationError):
            fock_squeezed_coherent(0.0, 0.0, 4.0, 8)


def _quad_second_moment(st: FockState) -> float:
    from oracles.fock import annihilation

    a = annihilation(st.dim)
    x = a + a.conj().T
    return float(st.expectation(x @ x).real)


class TestJointStatistics:
    def test_vacuum_in(self):
        pmf = joint_photon_statistics(coherent_fock(0.0, 15), 0.0, symmetric_splitter(0.14))
        assert pmf.probabilities[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_lo_only_poisson(self):
        bs = symmetric_splitter(0.3)
        alpha = 0.9 + 0.2j
        pmf = joint_photon_statistics(coherent_fock(0.0, 35), alpha, bs)
        m1, m2, v1, v2, cov = pmf.moments()
        assert m1 == pytest.approx(bs.rl2 * abs(alpha) ** 2, abs=1e-9)
        assert m2 == pytest.approx(bs.tl2 * abs(alpha) ** 2, abs=1e-9)
        assert v1 == pytest.approx(m1, abs=1e-8)
        assert v2 == pytest.approx(m2, abs=1e-8)
        assert cov == pytest.approx(0.0, abs=1e-9)

    def test_lossy_splitter_rejected(self):
        lossy = BeamSplitter(ts2=0.8, tl2=0.8, rs2=0.1, rl2=0.1)
        with pytest.raises(ValueError):
            joint_photon_statistics(coherent_fock(0.0, 10), 0.0, lossy)

    def test_unitarity_on_validation_domain(self, rng):
        for _ in range(5):
            st = fock_squeezed_coherent(
                rng.uniform(0, 0.3), rng.uniform(0, np.pi), 0.5 + 0.3j, 40
            )
            pmf = joint_photon_statistics(st, 0.8, symmetric_splitter(0.14))
            assert pmf.leakage < 1e-8


class TestOracleAgainstGaussian:
    def test_moment_examples(self):
        mo = oracle_moments(coherent_fock(1.0, 40), 0.7)
        assert abs(mo.var_i) < 1e-10 and abs(mo.anom) < 1e-10 and abs(mo.var_e) < 1e-10
        mo = oracle_moments(fock_squeezed_coherent(0.2, 0.0, 0.0, 40), 0.0)
        assert mo.var_e == pytest.approx(np.exp(-0.4) - 1.0, abs=1e-9)

    def test_displaced_squeezed_triple(self):
        r, alpha, phi = 0.3, 1.0, np.pi / 3
        mo = oracle_moments(fock_squeezed_coherent(r, 0.0, alpha, 60), phi)
        mg = normal_ordered_signal_moments(squeezed_coherent(r, 0.0, alpha), phi)
        assert mo.var_i == pytest.approx(mg.var_i, abs=1e-6)
        assert mo.anom == pytest.approx(mg.anom, abs=1e-6)
        assert mo.var_e == pytest.approx(mg.var_e, abs=1e-6)

    def test_bright_displaced_squeezed_triple(self):
        # brighter displacement needs a taller basis (60 levels)
        r, alpha, phi = 0.311, 3.0, np.pi / 4
        mo = oracle_moments(fock_squeezed_coherent(r, 0.0, alpha, 60), phi)
        mg = normal_ordered_signal_moments(squeezed_coherent(r, 0.0, alpha), phi)
        assert mo.var_i == pytest.approx(mg.var_i, abs=1e-6)
        assert mo.anom == pytest.approx(mg.anom, abs=1e-6)
        assert mo.var_e == pytest.approx(mg.var_e, abs=1e-6)

    def test_mandel_relation(self, rng):
        # normal-ordered intensity variance equals <dn^2> - <n> with the photon
        # statistics taken directly from the Fock amplitudes
        for _ in range(5):
            r = rng.uniform(0, 0.3)
            theta = rng.uniform(0, np.pi)
            alpha = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            st = fock_squeezed_coherent(r, theta, alpha, 45)
            probs = np.abs(st.amplitudes) ** 2
            n = np.arange(st.dim)
            mean_n = float(n @ probs)
            var_n = float(n**2 @ probs) - mean_n**2
            mg = normal_ordered_signal_moments(
                squeezed_coherent(r, theta, alpha), 0.0
            )
            assert mg.var_i == pytest.approx(var_n - mean_n, abs=1e-7)

    def test_cross_covariance_14_86(self):
        r, alpha, lo_amp, phi = 0.25, 0.6 - 0.2j, 0.8, 0.9
        bs = symmetric_splitter(0.14)
        st = fock_squeezed_coherent(r, 0.4, alpha, 45)
        pmf = joint_photon_statistics(st, lo_amp * np.exp(1j * phi), bs)
        pc_fock = pmf.photocurrent_covariance()
        joint = two_mode_output(
            squeezed_coherent(r, 0.4, alpha), LocalOscillator(lo_amp, phi), bs
        )
        pc_gauss = photocurrent_covariance(joint)
        np.testing.assert_allclose(pc_fock, pc_gauss, atol=1e-6)

    def test_mean_photon(self):
        st = coherent_fock(1.2, 40)
        assert oracle_mean_photon(st) == pytest.approx(1.44, abs=1e-10)
