"""The determinant certificate for anomalous quantum correlations.

From the separated contributions one builds a 2x2 matrix whose determinant
is non-negative for every classically correlated field, whatever the
detector gains, efficiencies, or LO strength.  For the squeezed state it goes
significantly negative over a wide phase range, including phases where no
squeezing is present.
"""

import numpy as np

from hccm.config import preset_config
from hccm.nonclassicality import moment_matrix_det, verdicts
from hccm.pipeline import run_pipeline

cfg = preset_config("paper-quick")
result = run_pipeline(cfg, with_lo_scan=True)

print("det L(phi) from the phase-periodicity separation (every 4th phase):")
print(f"{'phi/pi':>8s}{'det L':>11s}{'sigma':>9s}{'signif':>8s}  verdict            squeezed")
columns = (result.phis, result.det, result.sigma, result.significance)
rows = zip(*columns, verdicts(result.nonclassical), result.squeezed_flags)
for phi, det, sigma, z, verdict, squeezed in list(rows)[::4]:
    print(f"{phi / np.pi:8.3f}{det:11.4f}{sigma:9.4f}{z:8.1f}  {verdict:18s} {bool(squeezed)}")

s = result.summary
print(
    f"\nnonclassical on {s.fraction_nonclassical:.0%} of phases "
    f"({s.n_nonclassical}/{s.n_total}); extends outside the squeezed interval: "
    f"{s.outside_squeezed}"
)
for a, b in s.intervals:
    print(f"  nonclassical interval: phi in [{a / np.pi:.3f}, {b / np.pi:.3f}] pi")

if result.lo_det is not None:
    d = result.lo_det
    print(
        f"\nLO-strength separation at phi = {d.phi / np.pi:.2f} pi: "
        f"det L = {d.det:.4f} +- {d.sigma:.4f} ({d.significance:.1f} sigma, {d.verdict})"
    )

print("\nanalytic comparison (no detection, no sampling):")
state = cfg.signal.state()
for phi in (0.25 * np.pi, 0.5 * np.pi, 0.75 * np.pi):
    det_m = moment_matrix_det(state, phi)
    print(f"  phi = {phi / np.pi:.2f} pi: det M = {det_m:+8.3f}   anomalous: {det_m < 0}")
