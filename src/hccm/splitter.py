"""Beam-splitter coefficient algebra and the three-term correlation prediction.

The measured intensity-noise cross correlation of the two splitter outputs
splits into contributions of order 0, 1 and 2 in the local-oscillator field
strength.  The order-1 piece carries the mixed field-intensity moment and is
visible only on an unbalanced splitter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateSplitterError

COEFF_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitter:
    """Intensity transmittances/reflectances |T_S|^2, |T_L|^2, |R_S|^2, |R_L|^2.

    Lossy splitters (per-beam sums below one) are allowed.  The coefficient
    algebra needs only the intensity ratios; detector.ExperimentConfig and
    gaussian.two_mode_output check that the amplitude map is passive.
    """

    ts2: float
    tl2: float
    rs2: float
    rl2: float

    def __post_init__(self):
        vals = (self.ts2, self.tl2, self.rs2, self.rl2)
        if not all(np.isfinite(v) and 0.0 <= v <= 1.0 for v in vals):
            raise ConfigError(f"intensity coefficients must lie in [0, 1], got {vals}")
        if self.ts2 + self.rs2 > 1.0 + 1e-12 or self.tl2 + self.rl2 > 1.0 + 1e-12:
            raise ConfigError("per-beam intensity coefficients must sum to <= 1")
        if self.rs2 <= 0.0 or self.tl2 <= 0.0:
            raise ConfigError("rs2 and tl2 must be > 0 for the correlation analysis")

    @property
    def t_s(self) -> float:
        return float(np.sqrt(self.ts2))

    @property
    def t_l(self) -> float:
        return float(np.sqrt(self.tl2))

    @property
    def r_s(self) -> float:
        return float(np.sqrt(self.rs2))

    @property
    def r_l(self) -> float:
        return float(np.sqrt(self.rl2))


def symmetric_splitter(r2: float) -> BeamSplitter:
    """Lossless splitter with the same intensity reflectance r2 for both beams."""
    return BeamSplitter(ts2=1.0 - r2, tl2=1.0 - r2, rs2=r2, rl2=r2)


@dataclass(frozen=True)
class SplitterCoefficients:
    """Derived coefficients (t0, t1, t2, tt) of the three-term decomposition."""

    t0: float
    t1: float
    t2: float
    tt: float

    @property
    def is_balanced(self) -> bool:
        return abs(self.t1) <= COEFF_TOL


@dataclass(frozen=True)
class Contributions:
    """The three additive parts of the predicted correlation at one phase:
    g0 is LO-independent, g1 is linear and g2 quadratic in the LO strength."""

    g0: float
    g1: float
    g2: float

    @property
    def total(self) -> float:
        return self.g0 + self.g1 + self.g2


def splitter_coefficients(bs: BeamSplitter) -> SplitterCoefficients:
    """Coefficients (t0, t1, t2, tt) for a general (asymmetric, lossy) splitter.

    t0 = (|R_S||T_S|)/(|R_L||T_L|), t1 = |R_S|/|T_L| - |T_L|/|R_S|, t2 = -1,
    tt = |T_S||T_L||R_S||R_L|.  t1 is exact only for |T_S R_S| = |T_L R_L|; the
    general order-1 term is |T_S||R_S|(|R_S||R_L| - |T_S||T_L|) E_L anom.
    """
    if bs.rs2 * bs.tl2 <= 0.0:
        raise DegenerateSplitterError("need rs2 > 0 and tl2 > 0")
    if bs.rl2 <= 0.0 or bs.ts2 <= 0.0:
        raise DegenerateSplitterError("need rl2 > 0 and ts2 > 0 for finite coefficients")
    t0 = (bs.r_s / bs.r_l) * (bs.t_s / bs.t_l)
    t1 = bs.r_s / bs.t_l - bs.t_l / bs.r_s
    tt = bs.t_s * bs.t_l * bs.r_s * bs.r_l
    return SplitterCoefficients(t0=t0, t1=t1, t2=-1.0, tt=tt)


def delta_g_contributions(m, e_l: float, bs: BeamSplitter) -> Contributions:
    """Analytic contributions to the intensity-noise cross correlation for a
    signal with normal-ordered moments m (a gaussian.MomentTriple) and LO field
    strength e_l."""
    if e_l < 0:
        raise ValueError(f"LO field strength must be >= 0, got {e_l}")
    c = splitter_coefficients(bs)
    return Contributions(
        g0=c.tt * c.t0 * m.var_i,
        g1=c.tt * c.t1 * e_l * m.anom,
        g2=c.tt * c.t2 * e_l**2 * m.var_e,
    )


def predicted_correlation(
    c: Contributions, zeta1: float = 1.0, zeta2: float = 1.0, visibility: float = 1.0
) -> float:
    """Predicted detector-current correlation zeta1*zeta2*(g0 + v*g1 + v^2*g2).

    Imperfect mode overlap reduces only the interfering LO amplitude, so the
    order-1 term picks up one factor of the visibility and the order-2 term
    two.
    """
    if zeta1 <= 0 or zeta2 <= 0:
        raise ValueError("detector scale factors must be positive")
    if not 0.0 < visibility <= 1.0:
        raise ValueError(f"visibility must be in (0, 1], got {visibility}")
    return zeta1 * zeta2 * (c.g0 + visibility * c.g1 + visibility**2 * c.g2)
