"""What detector noise does (and does not do) to the correlation.

Uncorrelated dark noise, even ten times stronger than the photocurrent
noise, leaves the expected correlation untouched because it never correlates
the two channels.  Correlated dark noise and classical LO intensity noise
shift every phase by the same offset, which the blocked-signal calibration
removes.
"""

import numpy as np
from dataclasses import replace

from hccm.config import preset_config
from hccm.detector import DetectorConfig, simulate_estimates

cfg = preset_config("paper-quick")
cfg = replace(cfg, samples_per_phase=50_000, blocked_samples=100_000)

clean = simulate_estimates(cfg)

noisy_det = DetectorConfig(
    eta1=0.94, eta2=0.94, dark_uncorr1=120.0, dark_uncorr2=120.0, dark_corr=3.0,
    lo_excess=0.001,
)
noisy = simulate_estimates(replace(cfg, detector=noisy_det))

print("clean vs noisy run (same seed; dark noise ~10x photocurrent variance):")
print(
    f"{'phi/pi':>8s}{'C clean':>11s}{'C noisy':>11s}{'noisy-offset':>14s}{'stderr':>9s}"
)
offset = noisy.blocked_signal
corrected = noisy.values - offset.value
rows = zip(clean.phis, clean.values, noisy.values, corrected, noisy.stderr)
for phi, c_clean, c_noisy, c_corrected, stderr in list(rows)[::8]:
    print(f"{phi / np.pi:8.3f}{c_clean:11.4f}{c_noisy:11.4f}{c_corrected:14.4f}{stderr:9.4f}")
print(
    f"\nblocked-signal offset = {offset.value:.4f} +- {offset.stderr:.4f} "
    f"(correlated dark + LO intensity noise; phase independent)"
)

resid = corrected - (clean.values - clean.blocked_signal.value)
pooled = float(np.mean(resid))
se = float(np.std(resid, ddof=1) / np.sqrt(len(resid)))
print(
    f"pooled corrected-minus-clean residual: {pooled:+.4f} +- {se:.4f} "
    f"({abs(pooled) / se:.1f} sigma from zero)"
)
print("the offset correction recovers the clean correlation at every phase")
