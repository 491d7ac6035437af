"""Beam-splitter algebra and the three-term correlation decomposition.

The photon-number cross covariance of the two splitter outputs splits into
contributions of order 0, 1, and 2 in the LO field strength.  The order-1
piece carries the mixed field-intensity moment; its weight |tt*t1| vanishes
on a balanced splitter and peaks at a 14:86 intensity partition.
"""

import numpy as np

from hccm.gaussian import (
    LocalOscillator,
    normal_ordered_signal_moments,
    photocurrent_covariance,
    squeezed_coherent,
    two_mode_output,
)
from hccm.splitter import delta_g_contributions, splitter_coefficients, symmetric_splitter

print("coefficient weight of the mixed term vs intensity reflectance")
print(f"{'|R|^2':>8s}{'t1':>12s}{'|tt*t1|':>12s}")
for r2 in (0.05, 0.1, 0.1464, 0.2, 0.3, 0.4, 0.5):
    c = splitter_coefficients(symmetric_splitter(r2))
    print(f"{r2:8.4f}{c.t1:12.4f}{abs(c.tt * c.t1):12.4f}")

xs = np.arange(1e-4, 0.5, 1e-4)
weights = [abs((lambda c: c.tt * c.t1)(splitter_coefficients(symmetric_splitter(x)))) for x in xs]
x_star = xs[int(np.argmax(weights))]
print(f"\nfine scan: weight peaks at |R|^2 = {x_star:.4f} "
      f"(analytic (2-sqrt2)/4 = {(2 - np.sqrt(2)) / 4:.4f})")

print("\nexactness of the decomposition on a squeezed coherent state")
state = squeezed_coherent(0.4, np.pi / 2, 2.5)
bs = symmetric_splitter(0.14)
print(f"{'phi/pi':>8s}{'E_L':>6s}{'Wick cross':>14s}{'g0+g1+g2':>14s}{'g0':>10s}{'g1':>10s}{'g2':>10s}")
for phi in (0.0, 0.25 * np.pi, 0.75 * np.pi):
    for e_l in (0.5, 2.0):
        cross = photocurrent_covariance(
            two_mode_output(state, LocalOscillator(e_l, phi), bs)
        )[0, 1]
        dg = delta_g_contributions(normal_ordered_signal_moments(state, phi), e_l, bs)
        print(
            f"{phi / np.pi:8.2f}{e_l:6.1f}{cross:14.6f}{dg.total:14.6f}"
            f"{dg.g0:10.4f}{dg.g1:10.4f}{dg.g2:10.4f}"
        )
print("(the two middle columns agree to machine precision)")
