"""Separation by LO field strength instead of phase periodicity.

Scans the LO strength over a five-point amplitude grid at a fixed phase pair
(phi, phi+pi).  The odd-in-E part isolates the mixed moment C1, the even part
gives C0 + C2*E^2.  The result cross-checks the phase-periodicity separation
on the same simulated state.
"""

import numpy as np

from hccm.config import preset_config
from hccm.detector import simulate_estimates
from hccm.pipeline import analyze_lo_estimates, analyze_phase_estimates

cfg = preset_config("paper-quick")
phi = cfg.lo_scan_phi
print(
    f"LO scan at phi = {phi / np.pi:.2f} pi over field strengths "
    + ", ".join(f"{e:.2f}" for e in cfg.lo_scan_e_l)
)
lo = analyze_lo_estimates(simulate_estimates(cfg, "lo_scan"))

print(f"\n{'E_L':>6s}{'C(phi)':>11s}{'+-':>8s}{'C(phi+pi)':>11s}{'+-':>8s}{'odd':>9s}{'even':>9s}")
(up, dn), (up_err, dn_err) = lo.corrected, lo.estimates.stderr
for e, a, a_err, b, b_err in zip(lo.estimates.e_values, up, up_err, dn, dn_err):
    odd, even = (a - b) / 2, (a + b) / 2
    print(f"{e:6.2f}{a:11.4f}{a_err:8.4f}{b:11.4f}{b_err:8.4f}{odd:9.4f}{even:9.4f}")

values, cov = lo.separation.contributions_at(phi)
err = np.sqrt(np.diag(cov))
print(f"\nby-LO separation at the reference strength E_ref = {lo.e_ref:.2f}:")
for name, v, s in zip(("C0", "C1", "C2"), values, err):
    print(f"  {name} = {v:+9.4f} +- {s:.4f}")

phase_sep = analyze_phase_estimates(simulate_estimates(cfg)).separation
v_ph, c_ph = phase_sep.contributions_at(phi)
diff = v_ph[1] - values[1]
combined = np.sqrt(c_ph[1, 1] + cov[1, 1])
print(
    f"\nby-phase C1 at the same phase: {v_ph[1]:+9.4f} +- {np.sqrt(c_ph[1, 1]):.4f}"
    f"\nmethod difference: {diff:+9.4f}  ({abs(diff) / combined:.2f} combined sigma)"
)
