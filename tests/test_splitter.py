import numpy as np
import pytest

from hccm.errors import ConfigError, PreconditionError
from hccm.gaussian import normal_ordered_signal_moments, squeezed_coherent
from hccm.splitter import (
    BeamSplitter,
    Contributions,
    delta_g_contributions,
    predicted_correlation,
    splitter_coefficients,
    symmetric_splitter,
)


class TestBeamSplitter:
    def test_symmetric_constructor(self):
        bs = symmetric_splitter(0.14)
        assert bs.ts2 == pytest.approx(0.86)
        assert abs(bs.ts2 + bs.rs2 - 1.0) <= 1e-9 and abs(bs.tl2 + bs.rl2 - 1.0) <= 1e-9

    def test_invalid_coefficients(self):
        with pytest.raises(ConfigError):
            BeamSplitter(ts2=0.9, tl2=0.9, rs2=0.2, rl2=0.2)  # sums above one
        with pytest.raises(ConfigError):
            BeamSplitter(ts2=1.0, tl2=1.0, rs2=0.0, rl2=0.0)  # rs2 must be > 0
        with pytest.raises(ConfigError):
            BeamSplitter(ts2=-0.1, tl2=0.5, rs2=0.5, rl2=0.5)

    def test_non_passive_map_rejected_at_use(self):
        from hccm.gaussian import LocalOscillator, two_mode_output, vacuum

        bs = BeamSplitter(ts2=0.98, tl2=0.01, rs2=0.01, rl2=0.98)
        with pytest.raises(ValueError, match="passive"):
            two_mode_output(vacuum(), LocalOscillator(1.0), bs)


class TestCoefficients:
    def test_balanced(self):
        c = splitter_coefficients(symmetric_splitter(0.5))
        assert c.t0 == pytest.approx(1.0)
        assert c.t1 == pytest.approx(0.0, abs=1e-15)
        assert c.t2 == -1.0
        assert c.tt == pytest.approx(0.25)
        assert c.is_balanced

    def test_14_86_partition(self):
        c = splitter_coefficients(symmetric_splitter(0.14))
        assert c.t0 == pytest.approx(1.0, rel=1e-12)  # symmetric case
        assert c.t1 == pytest.approx(np.sqrt(0.14 / 0.86) - np.sqrt(0.86 / 0.14), rel=1e-12)
        assert c.t1 == pytest.approx(-2.0751, abs=1e-4)
        assert c.tt == pytest.approx(0.14 * 0.86, rel=1e-12)

    def test_asymmetric_reflectance(self):
        bs = BeamSplitter(ts2=0.8, tl2=0.8, rs2=0.2, rl2=0.1)
        c = splitter_coefficients(bs)
        assert c.t0 == pytest.approx(np.sqrt(0.2 / 0.1), rel=1e-12)

    def test_degenerate_inputs(self):
        # rl2 = 0 passes BeamSplitter (rs2 and tl2 > 0) but leaves t0 infinite
        with pytest.raises(PreconditionError, match="need rl2 > 0 and ts2 > 0"):
            splitter_coefficients(BeamSplitter(ts2=0.5, tl2=0.5, rs2=0.1, rl2=0.0))

    def test_optimal_unbalancing(self):
        # |tt * t1| over symmetric lossless splitters peaks at x = (2 - sqrt 2)/4
        xs = np.arange(1e-4, 0.5, 1e-4)
        merit = []
        for x in xs:
            c = splitter_coefficients(symmetric_splitter(float(x)))
            merit.append(abs(c.tt * c.t1))
        x_star = xs[int(np.argmax(merit))]
        assert x_star == pytest.approx((2.0 - np.sqrt(2.0)) / 4.0, abs=1e-3)


class TestContributions:
    def test_blocked_lo(self):
        m = normal_ordered_signal_moments(squeezed_coherent(0.3, 0.2, 1.0), 0.5)
        dg = delta_g_contributions(m, 0.0, symmetric_splitter(0.14))
        assert dg.g1 == 0.0
        assert dg.g2 == 0.0
        assert dg.g0 != 0.0

    def test_coherent_signal(self):
        m = normal_ordered_signal_moments(squeezed_coherent(0.0, 0.0, 2.0), 0.5)
        dg = delta_g_contributions(m, 1.5, symmetric_splitter(0.14))
        assert abs(dg.g0) < 1e-10 and abs(dg.g1) < 1e-10 and abs(dg.g2) < 1e-10

    def test_squeezed_vacuum_value(self):
        # squeezed phase: g1 vanishes by parity and g2 is positive
        m = normal_ordered_signal_moments(squeezed_coherent(0.2, 0.0, 0.0), 0.0)
        dg = delta_g_contributions(m, 1.0, symmetric_splitter(0.14))
        assert dg.g1 == pytest.approx(0.0, abs=1e-14)
        assert dg.g2 == pytest.approx(0.14 * 0.86 * (-1.0) * (np.exp(-0.4) - 1.0), rel=1e-12)
        assert dg.g2 == pytest.approx(0.0397, abs=1e-4)

    def test_contribution_parity(self, rng):
        # g1 flips sign and g2 is invariant when the phase advances by pi
        st = squeezed_coherent(0.4, 0.6, 1.2 + 0.4j)
        bs = symmetric_splitter(0.14)
        for _ in range(10):
            phi = rng.uniform(0, 2 * np.pi)
            e_l = rng.uniform(0.1, 3.0)
            d1 = delta_g_contributions(normal_ordered_signal_moments(st, phi), e_l, bs)
            d2 = delta_g_contributions(
                normal_ordered_signal_moments(st, phi + np.pi), e_l, bs
            )
            assert d2.g1 == pytest.approx(-d1.g1, rel=1e-10, abs=1e-12)
            assert d2.g2 == pytest.approx(d1.g2, rel=1e-10, abs=1e-12)
            assert d2.g0 == pytest.approx(d1.g0, rel=1e-12)


class TestPredictedCorrelation:
    def test_unit_factors(self):
        c = Contributions(g0=1.0, g1=-0.4, g2=0.2)
        assert predicted_correlation(c) == pytest.approx(0.8)

    def test_gain_linearity(self):
        c = Contributions(g0=1.0, g1=-0.4, g2=0.2)
        assert predicted_correlation(c, zeta1=2.0) == pytest.approx(
            2.0 * predicted_correlation(c)
        )

    def test_visibility_attenuation(self):
        c = Contributions(g0=1.0, g1=-0.4, g2=0.2)
        v = 0.96
        expected = 1.0 + v * (-0.4) + v**2 * 0.2
        assert predicted_correlation(c, visibility=v) == pytest.approx(expected, rel=1e-12)

    def test_blocked_lo_independent_of_visibility(self):
        m = normal_ordered_signal_moments(squeezed_coherent(0.3, 0.1, 1.0), 0.7)
        dg = delta_g_contributions(m, 0.0, symmetric_splitter(0.2))
        assert predicted_correlation(dg, visibility=0.5) == predicted_correlation(dg)

    def test_invalid_inputs(self):
        c = Contributions(g0=1.0, g1=0.0, g2=0.0)
        with pytest.raises(ValueError):
            predicted_correlation(c, zeta1=0.0)
        with pytest.raises(ValueError):
            predicted_correlation(c, visibility=1.5)
        with pytest.raises(ValueError):
            delta_g_contributions(
                normal_ordered_signal_moments(squeezed_coherent(0.1, 0, 0), 0.0),
                -1.0,
                symmetric_splitter(0.14),
            )
