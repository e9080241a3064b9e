"""The flat round annulus: the equality case of log-convexity.

For u = -ln|z| on the Euclidean annulus 1 < |z| < e^2 every level curve is a
concentric circle, L(t) = 2 pi e^{-t}, and (ln L)'' vanishes identically --
the only way equality can hold, since (ln L)'' >= 0 characterises
nonpositive curvature and equality forces the flat round annulus.
"""

import numpy as np

from levelflow import log_convexity_check, scenarios

flat = scenarios.flat()
grid, profile = flat.grid, flat.profile

print("level t      L(t)          2*pi*e^-t      (ln L)''")
for i in range(0, 50, 7):
    print(f"{grid[i]:+.4f}   {profile.L[i]:.8f}   "
          f"{2 * np.pi * np.exp(-grid[i]):.8f}   {profile.lnL_pp[i]:+.2e}")

report = log_convexity_check(profile)
print(f"\nlog-convexity: passed={report.passed}, "
      f"min (ln L)'' = {report.min_lnL_pp:.3e} (equality case)")

slope = flat.slope
print(f"slope bound (ln L)' <= {slope.bound:.1f}: max slope {slope.max_slope:+.6f}, "
      f"L' identity error {slope.identity_max_err:.2e}")

profile.to_csv("flat_profile.csv")
print("\nwrote flat_profile.csv (gnuplot-ready)")
