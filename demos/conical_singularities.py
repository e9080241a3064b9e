"""Log-convexity survives conical singularities.

A flat metric e^{2v} g_0 with v = sum alpha_j ln|z - z_j| has cone points of
angle 2 pi (1 + alpha_j); for alpha_j >= 0 the curvature measure is
nonpositive (atoms of mass -2 pi alpha_j) and t -> ln L(t) stays convex even
though L is no longer smooth: the level through a vertex has a convex kink.
Mollifying v with a radial kernel gives smooth nonpositively curved metrics
whose lengths decrease monotonically to the singular ones.
"""

import numpy as np

from levelflow import log_convexity_check, mollify, scenarios, second_divided_differences

con = scenarios.conical(probe=float(np.log(1.2)))  # mollify the level through the 4 pi vertex
factor = con.factor
omega = factor.curvature_measure()
print("cone points:")
for (p, a), (_, mass) in zip(factor.atoms, omega.atoms):
    print(f"  z = {p}, angle = 2 pi (1 + {a}) -> curvature atom {mass:+.4f}")
print(f"total curvature mass: {omega.total_mass:+.4f} (nonpositive: {omega.nonpositive})\n")

d2 = second_divided_differences(con.grid, np.log(con.profile.L))
rep = log_convexity_check(con.profile, 1e-5)
print(f"discrete (ln L)'' over 200 levels (one through the vertex): "
      f"min = {d2.min():.4f} >= 0 -> convex: {rep.passed}")
i = int(np.argmin(np.abs(con.grid - np.log(1.2))))
print(f"at the vertex level itself: d2 = {d2[i - 1]:.2f} (convex kink)\n")

print("mollified lengths for the level through the vertex (decreasing eps):")
for eps, L in zip(scenarios.EPS_SEQUENCE, con.lengths):
    print(f"  eps = {eps:<5g} L_eps = {L:.12f}")
print(f"  singular    L     = {con.limit:.12f}")

m = mollify(factor, 0.1)
print(f"\nmollified value at the 4 pi vertex: {m.value((1.2, 0.0)):.6f} "
      f"(the singular factor is -infinity there)")

neg_rep = log_convexity_check(con.negative, 1e-5)
print(f"\ncone angle below 2 pi (alpha = -0.5, positive curvature atom): "
      f"convex = {neg_rep.passed}, min discrete (ln L)'' = {neg_rep.min_discrete:.2f}")
