"""Level-curve length functionals, curvature identities and log-convexity
checks for harmonic functions on 2-D surfaces.

Charts are either conformal (metric e^{2 phi} (dx^2 + dy^2) on an annulus)
or warped cylinders (dt^2 + w(t)^2 dtheta^2).  The package verifies, at
numerical tolerance, the pointwise identities (Kato equality, Bochner,
log-gradient), the length-functional derivative formulas and log-convexity
characterisation of nonpositive curvature, the curvature PDEs with their
maximum/minimum principles, and the extension to flat metrics with conical
singularities via subharmonic mollification.
"""

from .bic import (ConicalFactor, CurvatureMeasure, MollifiedFactor,
                  bic_length_profile, conical_circle_length, conical_factor,
                  mollified_convergence, mollify)
from .charts import (ConformalChart, LocalGeometry, MetricPointData,
                     WarpedChart, flat_factor, gauss_curvature,
                     grad_gauss_curvature, local_geometry,
                     metric_gradient_norm, sphere_cap_factor,
                     stereographic_sphere_factor)
from .curvature_flow import (CurvatureSample, PrincipleAuditReport,
                             SlopeBoundReport, curvature_sample,
                             level_curvature_k, logL_slope_bound, pde1_residual,
                             pde1_star_residual, pde2_gap, pde2_star_gap,
                             principle_audit, steepest_descent_curvature_h)
from .errors import (ConfigError, CriticalPointError, DomainError,
                     LevelFlowError, NormalizationError, PreconditionError,
                     SingularPointError, SolverError, TopologyError)
from .fields import (FieldJet, ScalarField, constant_field, half_plane_factor,
                     log_modulus_field, radial_log_field)
from .harmonic import (DirichletSpec, catalog_field, critical_points,
                       solve_annulus_dirichlet, solve_annulus_numeric)
from .identities import bochner_residual, kato_residual, log_gradient_residual
from .levelsets import (ConvexityReport, LengthProfile, LevelCurve,
                        asymptotic_defect, d2length_integral, dlength_integral,
                        extract_level_curve, inset_grid, length, length_profile,
                        level_radius, log_convexity_check, pinched_bound_check,
                        second_divided_differences, sharp_bound_gap)
from .sampling import quasi_random_points

__version__ = "0.1.0"
