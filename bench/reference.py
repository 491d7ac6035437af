"""Independent closed-form reference for the benchmark's correctness checks.

numpy only; no call into ``hccm.gaussian`` or ``hccm.splitter``.  The
formulas are the paper's, written out from the field operators:

* A single-mode Gaussian signal with principal quadrature variances
  (v_min, v_max) along the squeezed axis at angle theta (vacuum variance 1)
  and displacement alpha has the normal-ordered central moments
  M = <da da> = (v_min - v_max) e^{2i theta} / 4 and
  N = <da^dag da> = (v_min + v_max - 2) / 4.
  Loss eta maps alpha -> sqrt(eta) alpha, M -> eta M, N -> eta N.
* Wick factorization gives the three normal-ordered signal moments at the
  quadrature phase phi:
  var_i = 2 Re(alpha*^2 M) + 2 |alpha|^2 N + |M|^2 + N^2,
  anom  = 2 Re(e^{-i phi} (alpha* M + alpha N)),
  var_e = 2 Re(M e^{-2i phi}) + 2 N.
* The splitter coefficients are t0 = |R_S||T_S| / (|R_L||T_L|),
  t1 = |R_S|/|T_L| - |T_L|/|R_S|, t2 = -1 and tt = |T_S||T_L||R_S||R_L|, and
  the correlation splits into tt*t0*var_i + tt*t1*E*anom + tt*t2*E^2*var_e.

The config argument of the functions below is any object with the fields of
``hccm.detector.ExperimentConfig``; only plain attributes are read.
"""

from __future__ import annotations

import math

import numpy as np


def signal_moments(v_min, v_max, angle, alpha, eta=1.0):
    """(alpha, M, N) of the signal behind a pure loss of efficiency eta."""
    m = (v_min - v_max) * np.exp(2j * angle) / 4.0
    n = (v_min + v_max - 2.0) / 4.0
    return math.sqrt(eta) * complex(alpha), eta * m, eta * n


def moment_triple(alpha, m, n, phi):
    """(var_i, anom, var_e) of a signal with moments (alpha, M, N) at phase phi."""
    a = complex(alpha)
    var_i = 2.0 * (a.conjugate() ** 2 * m).real + 2.0 * abs(a) ** 2 * n + abs(m) ** 2 + n**2
    anom = 2.0 * (np.exp(-1j * phi) * (a.conjugate() * m + a * n)).real
    var_e = 2.0 * (m * np.exp(-2j * phi)).real + 2.0 * n
    return float(var_i), float(anom), float(var_e)


def splitter_coefficients(ts2, tl2, rs2, rl2):
    """(t0, t1, t2, tt) from the intensity coefficients of the splitter."""
    t_s, t_l, r_s, r_l = (math.sqrt(x) for x in (ts2, tl2, rs2, rl2))
    return (r_s * t_s) / (r_l * t_l), r_s / t_l - t_l / r_s, -1.0, t_s * t_l * r_s * r_l


def contributions(triple, e_l, coeffs):
    """(g0, g1, g2): the parts of the correlation of order 0, 1, 2 in e_l."""
    var_i, anom, var_e = triple
    t0, t1, t2, tt = coeffs
    return tt * t0 * var_i, tt * t1 * e_l * anom, tt * t2 * e_l**2 * var_e


def _cfg_parts(cfg):
    det, sig, bs = cfg.detector, cfg.signal, cfg.splitter
    if det.eta1 != det.eta2:
        raise ValueError("the closed form needs equal detector efficiencies")
    if bs.ts2 * bs.rs2 != bs.tl2 * bs.rl2:
        raise ValueError("the closed form needs |T_S R_S| = |T_L R_L|")
    alpha, m, n = signal_moments(sig.v_min, sig.v_max, sig.angle, sig.alpha, det.eta1)
    coeffs = splitter_coefficients(bs.ts2, bs.tl2, bs.rs2, bs.rl2)
    return alpha, m, n, coeffs, det.gain1 * det.gain2


def interfering_lo(cfg, e_l):
    """Interfering LO strength on the loss-degraded signal: sqrt(eta) v E_L."""
    return math.sqrt(cfg.detector.eta1) * cfg.visibility * e_l


def fourier_coefficients(cfg, e_l=None):
    """Exact a0, a1, b1, a2, b2 of the offset-corrected correlation C(phi).

    The blocked-signal offset (correlated dark noise plus LO intensity noise)
    is common to every segment at the same LO strength, so after its
    subtraction only the signal terms remain.  Also returns C0, the exact
    blocked-LO correlation without dark noise.
    """
    alpha, m, n, (t0, t1, t2, tt), k_gain = _cfg_parts(cfg)
    e = interfering_lo(cfg, cfg.e_l if e_l is None else e_l)
    k = k_gain * tt
    var_i = moment_triple(alpha, m, n, 0.0)[0]
    big_b = alpha.conjugate() * m + alpha * n
    return {
        "a0": k * t0 * var_i + k * t2 * e**2 * 2.0 * n,
        "a1": 2.0 * k * t1 * e * big_b.real,
        "b1": 2.0 * k * t1 * e * big_b.imag,
        "a2": 2.0 * k * t2 * e**2 * m.real,
        "b2": 2.0 * k * t2 * e**2 * m.imag,
        "c0": k * t0 * var_i,
    }


def separated_at(cfg, phi, e_l=None):
    """Exact (C0, C1, C2) at phase phi and LO strength e_l (default cfg.e_l)."""
    alpha, m, n, coeffs, k_gain = _cfg_parts(cfg)
    e = interfering_lo(cfg, cfg.e_l if e_l is None else e_l)
    g = contributions(moment_triple(alpha, m, n, phi), e, coeffs)
    return tuple(k_gain * x for x in g)


def det_m(cfg, phi):
    """det of the normal-ordered moment matrix of the detected signal."""
    alpha, m, n, _, _ = _cfg_parts(cfg)
    var_i, anom, var_e = moment_triple(alpha, m, n, phi)
    return var_i * var_e - anom**2
