"""Phase scan: simulate, fit, and separate the three contributions.

Simulates two-detector photocurrent records of a phase-squeezed coherent
state over a full phase scan, fits the second-degree trigonometric
polynomial, and splits the correlation into the LO-independent part C0
(from the blocked-LO run), the 2pi-periodic mixed part C1, and the
pi-periodic field part C2.
"""

import numpy as np

from hccm.analysis import drift_error
from hccm.config import preset_config
from hccm.pipeline import analyze_phase_estimates
from hccm.detector import simulate_estimates

cfg = preset_config("paper-quick")
print(
    f"simulating {len(cfg.phases)} phases x {cfg.samples_per_phase} samples "
    f"(seed {cfg.seed}, 14:86 splitter, visibility {cfg.visibility})"
)
analysis = analyze_phase_estimates(simulate_estimates(cfg))

fit = analysis.fit
names = ("a0", "a1", "b1", "a2", "b2")
print("\nfitted Fourier coefficients:")
for k, name in enumerate(names):
    print(f"  {name} = {fit.coeffs[k]:+9.4f} +- {np.sqrt(fit.cov[k, k]):.4f}")
print(f"  chi2/dof = {fit.chi2 / fit.dof:.3f}  (dof {fit.dof})")
print(
    f"  blocked-LO C_block = {analysis.c_block.value:.4f} +- {analysis.c_block.stderr:.4f}"
    f"   drift error {drift_error(*analysis.estimates.blocked_lo):.4f}"
)
offset = analysis.estimates.blocked_signal
print(f"  blocked-signal offset = {offset.value:+.4f} +- {offset.stderr:.4f}")

print("\nper-phase table (every 6th phase):")
print(f"{'phi/pi':>8s}{'C':>10s}{'+-':>8s}{'fit':>10s}{'C0':>8s}{'C1':>8s}{'C2':>8s}")
phis = analysis.estimates.phis
values, _ = analysis.separation.contributions_at(phis)
rows = zip(phis, analysis.corrected, analysis.estimates.stderr, fit.predict(phis), values)
for phi, c, err, c_fit, (c0, c1, c2) in list(rows)[::6]:
    print(f"{phi / np.pi:8.3f}{c:10.4f}{err:8.4f}{c_fit:10.4f}{c0:8.3f}{c1:8.3f}{c2:8.3f}")

amp, amp_sigma = analysis.separation.c1_amplitude()
print(
    f"\nmixed-moment component: amplitude {amp:.4f} +- {amp_sigma:.4f} "
    f"({amp / amp_sigma:.0f} sigma from zero)"
)
