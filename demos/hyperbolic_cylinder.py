"""A hyperbolic cylinder where every inequality is sharp.

The warped metric dt^2 + ((ln lambda / 2 pi) cosh t)^2 dtheta^2 has constant
curvature K = -1 and carries the positive harmonic function
u(t) = 2 arctan(e^t) with values in (0, pi).  Its level lengths are
L(s) = ln(lambda)/sin(s), so

    (ln L)''(s) = 1/sin^2 s = (1/L) * integral of |grad u|^-2 >= 1,

which attains equality in the curvature-weighted lower bound with
kappa = -1, and dominates the pinched-curvature floor 1/s^2.
"""

import numpy as np

from levelflow import inset_grid, pinched_bound_check, scenarios, sharp_bound_gap

hyp = scenarios.hyperbolic(grid=inset_grid(0.4, np.pi - 0.4, 9))
s, profile = hyp.grid, hyp.profile

print("level s    L(s)*sin(s)    (ln L)''*sin^2(s)    aux/L")
for i in range(s.size):
    print(f"{s[i]:.4f}   {profile.L[i] * np.sin(s[i]):.10f}   "
          f"{profile.lnL_pp[i] * np.sin(s[i])**2:.10f}        "
          f"{profile.aux_invgrad2[i] / profile.L[i]:.6f}")

gap = sharp_bound_gap(hyp.u, hyp.chart, np.pi / 2, -1.0)
print(f"\nsharp curvature bound, kappa = -1: gap = {gap:.2e} (equality case)")

margin = np.min(scenarios.pinched_margins(hyp))
print(f"pinched bound (ln L)'' - 1/s^2 >= {margin:.6f} over (0.1, pi-0.1)")
print(f"value at s = pi/2: {pinched_bound_check(hyp.u, hyp.chart, np.pi / 2, 1.0, 1.0):.6f}"
      f"  (= 1 - 4/pi^2 = {1 - 4 / np.pi**2:.6f})")
