"""Why positive curvature breaks log-convexity, quantitatively.

Take the conformal factor lambda = 1 - 0.1 r^2 (curvature K(0) = 0.4 > 0 at
the origin) with u = -ln|z| on a small punctured disc.  The combination

    e^{4t} (L L'' - (L')^2)  -->  -4 pi^2 K(0)      as t -> infinity

is negative exactly when K(0) > 0, so (ln L)'' < 0 on small enough levels:
one positively curved point already defeats convexity.  Flipping the sign
of the factor flips the limit.
"""

import numpy as np

from levelflow import log_convexity_check, scenarios

expected = -4 * np.pi**2 * 0.4
radii = (0.05, 0.03, 0.02, 0.01)
sc = scenarios.counterexample(-0.1, radii)  # phi = ln(1 - 0.1 r^2)

print(f"target: -4 pi^2 K(0) = {expected:.6f}\n")
print("radius e^-t    defect e^{4t}(L L'' - L'^2)    relative error")
for r, d in zip(radii, sc.defects):
    print(f"{r:<12g}   {d:.8f}                  {abs(d - expected) / abs(expected):.2e}")

flipped = scenarios.counterexample(0.1, [np.exp(-4.0)]).defects[0]
print(f"\nwith lambda = 1 + 0.1 r^2 (K(0) = -0.4): defect = {flipped:+.4f}")

# the convexity check itself sees the violation on small levels
rep = log_convexity_check(sc.profile)
print(f"log-convexity on small levels: passed={rep.passed}, "
      f"min (ln L)'' = {rep.min_lnL_pp:.4f} < 0")
