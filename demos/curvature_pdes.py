"""Curvature of level curves and steepest descent: PDEs and principles.

With k the level-curve curvature and h the steepest-descent curvature of a
harmonic u, the ratios k/|grad u| and h/|grad u| satisfy Laplace-type
equations driven by the curvature gradient, and -ln|k| is superharmonic up
to explicit curvature terms, with the exact surplus |grad p|^2/p^2
(p = k/|grad u|).  These identities power boundary max/min principles,
audited here on a grid.
"""

import numpy as np

from levelflow import (ConformalChart, catalog_field, flat_factor,
                       level_curvature_k, pde1_residual, pde2_gap,
                       principle_audit, scenarios, steepest_descent_curvature_h)

cap = scenarios.sphere_cap()

print("sphere-cap chart (variable K > 0), u = -ln|z|:")
for p in [(1.2, 0.3), (1.5, -0.8), (2.0, 1.2)]:
    res = pde1_residual(cap.u, cap.chart, p)
    gap, theo = pde2_gap(cap.u, cap.chart, p)
    print(f"  p={p}: k={level_curvature_k(cap.u, cap.chart, p):+.4f} "
          f"pde residual={res:+.1e}  gap={gap:.6f}  |grad p|^2/p^2={theo:.6f}")

uarg = catalog_field("arg")
flat = ConformalChart(flat_factor(), 1.0, 4.0)
print("\nflat chart, u = arg z (steepest-descent lines are circles):")
for p in [(2.0, 0.0), (0.0, 3.0)]:
    h = steepest_descent_curvature_h(uarg, flat, p)
    print(f"  p={p}: h = {h:+.4f}  (|h| = 1/r = {1 / np.hypot(*p):.4f})")

print("\nboundary-attainment audit on the hyperbolic cylinder (K = -1):")
hyp = scenarios.hyperbolic(t_bounds=(0.1, 1.6))
for case in ("max_on_boundary_nonpos_K", "min_on_boundary_nonpos_K"):
    rep = principle_audit(hyp.u, hyp.chart, (0.2, 1.5), "phi_k", case,
                          n_interior=(128, 64), n_boundary=512)
    print(f"  {case}: verdict={rep.verdict}, interior {rep.interior_extremum[1]:+.4f}"
          f" vs boundary {rep.boundary_extremum[1]:+.4f}")

print("\nmin |k| on the boundary for positive curvature (sub-annulus where k > 0):")
rep = principle_audit(cap.u, cap.chart, (1.05, 1.5), "ln_abs_k", "min_abs_on_boundary",
                      n_interior=(128, 64), n_boundary=512)
print(f"  verdict={rep.verdict}; sampled K in "
      f"[{rep.hypothesis_flags['K']['min']:.3f}, {rep.hypothesis_flags['K']['max']:.3f}]")
