"""The built-in scenarios, each set up once.

One function per case of the paper builds its chart, its field, its level
grid and the computation its callers share:

* :func:`flat` -- ``levelflow examples flat``, ``demos/flat_annulus.py``
  and acceptance criteria 1, 8 and 9;
* :func:`hyperbolic` (and :func:`pinched_margins` on it) -- ``examples
  hyperbolic``, ``demos/hyperbolic_cylinder.py``, ``demos/curvature_pdes.py``
  and criteria 2, 4, 5, 6, 8 and 9;
* :func:`sphere_cap` -- ``examples sphere_cap``, ``demos/curvature_pdes.py``
  and criteria 4, 5, 8 and 9;
* :func:`conical` -- ``examples conical``, ``demos/conical_singularities.py``
  and criterion 7; its :func:`mollified` step is also the ``bic``
  subcommand's;
* :func:`counterexample` -- the ``counterexample`` subcommand,
  ``demos/positive_curvature_counterexample.py`` and criterion 3.

The functions return numbers, never verdicts.  The closed forms the numbers
are checked against (``L sin s = ln lambda``, ``-4 pi^2 K(0)``,
``2 pi e^{-t}``) and the tolerances live in ``tests/test_acceptance.py``;
the CLI keeps its own report checks.
"""

from __future__ import annotations

from functools import cached_property
from types import SimpleNamespace

import numpy as np

from . import bic
from . import curvature_flow as cf
from . import levelsets as ls
from .charts import ConformalChart, WarpedChart, flat_factor, sphere_cap_factor
from .fields import radial_log_field
from .harmonic import DirichletSpec, catalog_field, solve_annulus_dirichlet

#: mollifier widths of the conical scenario, and the ``bic`` subcommand's default
EPS_SEQUENCE = (0.2, 0.1, 0.05, 0.01)


class Scenario(SimpleNamespace):
    """A scenario's chart, field ``u`` and level ``grid``, plus what else its
    function computed.  The length profile over the grid and the ln L slope
    bound on it are computed when first read, so a caller that needs only
    the chart and the field pays for neither."""

    @cached_property
    def profile(self) -> ls.LengthProfile:
        return ls.length_profile(self.u, self.chart, self.grid)

    @cached_property
    def slope(self) -> cf.SlopeBoundReport:
        return cf.logL_slope_bound(self.u, self.chart, self.profile)


def flat(levels: int = 50) -> Scenario:
    """The flat annulus 1 < |z| < e^2 with u = -ln|z| from Dirichlet data
    (0 inside, -2 outside) on ``levels`` inset levels: the equality case of
    log-convexity."""
    return Scenario(chart=ConformalChart(flat_factor(), 1.0, np.e**2),
                    u=solve_annulus_dirichlet(DirichletSpec(np.e**2, 0.0, -2.0)),
                    grid=ls.inset_grid(0.0, -2.0, levels))


def hyperbolic(grid=None, t_bounds=(-3.0, 3.0)) -> Scenario:
    """The K = -1 cylinder dt^2 + (ln(lambda)/(2 pi) cosh t)^2 dtheta^2 with
    lambda = e^2 over ``t_bounds``, and u = 2 arctan e^t.  The grid defaults
    to 50 levels spaced evenly on [0.4, pi - 0.4]; ``ln_lambda`` is 2."""
    ln_lambda = 2.0
    return Scenario(chart=WarpedChart.cosh_cylinder(ln_lambda / (2 * np.pi), *t_bounds),
                    u=catalog_field("warped_arctan"), ln_lambda=ln_lambda,
                    grid=np.linspace(0.4, np.pi - 0.4, 50) if grid is None else grid)


def pinched_margins(sc: Scenario) -> np.ndarray:
    """(ln L)'' - 1/s^2 under -1 <= K <= -1 at 100 levels spaced evenly on
    [0.1, pi - 0.1] of the default :func:`hyperbolic` cylinder ``sc``."""
    return ls.pinched_bound_check(sc.u, sc.chart, np.linspace(0.1, np.pi - 0.1, 100),
                                  1.0, 1.0)


def sphere_cap(c: float = -1.0, bounds=(1.0, np.e), levels: int = 50) -> Scenario:
    """The annulus bounds[0] < |z| < bounds[1] with factor ln(1 - 0.1 r^2)
    (K > 0) and u = c ln|z|, on ``levels`` levels inset between u's
    boundary values."""
    return Scenario(chart=ConformalChart(sphere_cap_factor(0.1), *bounds),
                    u=catalog_field("log", c=c),
                    grid=ls.inset_grid(c * np.log(bounds[0]), c * np.log(bounds[1]), levels))


def mollified(factor, spec, t: float, eps_sequence=EPS_SEQUENCE):
    """(lengths of the level t of ``spec`` under the metrics mollified at
    each eps, the singular length of that level, the capped flags of those
    lengths, whether the singular length is capped); a capped length is its
    finest-level estimate."""
    lengths, capped = bic.mollified_convergence(factor, spec, t, eps_sequence, capped=True)
    limit, limit_capped = bic.conical_circle_length(factor, bic._level_radius(spec, t),
                                                    capped=True)
    return lengths, limit, capped, limit_capped


def conical(probe: float = float(np.log(1.25))) -> Scenario:
    """Cone points of angle 3 pi at 1.2 and 2.6 pi at -1.6i in the flat
    annulus 1 < |z| < e^2, with u = ln|z| from Dirichlet data (0, 2).

    ``profile`` covers 200 inset levels, one moved onto the level ln 1.2
    through the first vertex; ``lengths`` and ``limit`` are the
    :func:`mollified` step at the level ``probe`` (by default the circle
    0.05 outside that vertex); ``negative`` is the profile of one
    alpha = -0.5 cone point at 1.3 on 120 levels.
    """
    factor = bic.conical_factor(0.0, [((1.2, 0.0), 0.5), ((0.0, -1.6), 0.3)])
    spec = DirichletSpec(np.e**2, 0.0, 2.0)
    grid = ls.inset_grid(0.0, 2.0, 200)
    grid[np.argmin(np.abs(grid - np.log(1.2)))] = np.log(1.2)
    lengths, limit, _, _ = mollified(factor, spec, probe)
    negative = bic.conical_factor(0.0, [((1.3, 0.0), -0.5)])
    return Scenario(factor=factor, spec=spec, grid=grid,
                    profile=bic.bic_length_profile(factor, spec, grid),
                    lengths=lengths, limit=limit,
                    negative=bic.bic_length_profile(negative, spec,
                                                    ls.inset_grid(0.0, 2.0, 120)))


def counterexample(c: float = -0.1, radii=(0.05, 0.04, 0.03, 0.02, 0.01)) -> Scenario:
    """The factor ln(1 + c r^2) on the punctured plane (K(0) = -4c) with
    u = -ln|z|.  ``defects`` holds e^{4t} (L L'' - L'^2) on the circles
    |z| = r of ``radii`` (t = -ln r); the grid is 24 small levels in [3, 4.6]."""
    factor = radial_log_field(0.0, 1.0, c)
    return Scenario(chart=ConformalChart(factor, 0.0, None), u=catalog_field("log"),
                    grid=ls.inset_grid(3.0, 4.6, 24),
                    defects=ls.asymptotic_defect(factor, -np.log(radii)).tolist())
