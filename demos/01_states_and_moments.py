"""States and their noise moments.

Builds coherent, squeezed, and noisy squeezed states, shows how the field
variance swings with the quadrature phase, and evaluates the three
normal-ordered moments the cross-correlation scheme measures: intensity
noise, field noise, and their mixed correlation.
"""

import numpy as np

from hccm.gaussian import (
    from_quadrature_variances,
    normal_ordered_signal_moments,
    quadrature_variance,
    squeezed_coherent,
    thermal_state,
)

states = {
    "coherent (alpha=3)": squeezed_coherent(0.0, 0.0, 3.0),
    "squeezed vacuum (r=0.311)": squeezed_coherent(0.311, 0.0, 0.0),
    "phase-squeezed coherent": from_quadrature_variances(
        10 ** (-2.7 / 10), 10 ** (5.5 / 10), np.pi / 2, 3.0
    ),
    "displaced thermal (nbar=0.76)": thermal_state(0.76, 1.5),
}

print("quadrature variance vs phase (vacuum = 1)")
phis = np.linspace(0, np.pi, 7)
header = "phase/pi".ljust(30) + "".join(f"{p / np.pi:8.2f}" for p in phis)
print(header)
for name, st in states.items():
    row = "".join(f"{quadrature_variance(st, p):8.3f}" for p in phis)
    print(name.ljust(30) + row)

print("\nnormal-ordered moments at phi = 3pi/4")
print(f"{'state':30s}{'<:dI^2:>':>12s}{'<:dE dI:>':>12s}{'<:dE^2:>':>12s}")
for name, st in states.items():
    m = normal_ordered_signal_moments(st, 3 * np.pi / 4)
    print(f"{name:30s}{m.var_i:12.4f}{m.anom:12.4f}{m.var_e:12.4f}")
print("(coherent rows vanish; squeezing makes <:dE^2:> negative at the squeezed phase)")
