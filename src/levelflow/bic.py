"""Conical conformal factors, curvature measures and subharmonic mollification.

A factor ``v(z) = beta0 + sum_j alpha_j ln|z - z_j|`` describes a flat metric
``e^{2v} g_0`` with a cone point of angle ``2 pi (1 + alpha_j)`` at each
``z_j``; its distributional curvature is purely atomic with mass
``-2 pi alpha_j`` per vertex, so ``alpha_j >= 0`` for all j means nonpositive
curvature.  ``alpha_j > -1`` keeps the length element integrable, so level
circles through a vertex still have finite length.

Level lengths for the annulus Dirichlet solution are circle integrals of
``e^v``; the integrand has an ``|theta - theta_j|^alpha`` singularity when a
circle meets a vertex, absorbed by the dyadically refined double-exponential
rule in :mod:`levelflow.quadrature` to its fixed ``REL_TOL``.  Every
length here raises on a diverged integral.  :func:`conical_circle_length`
and the mollified circles end in that module's one circle-length finish,
``circle_lengths``, which logs each capped circle as a warning under its
own name; a profile reports its capped levels itself.  The vertex angles
split every level circle at the same places, so a profile integrates
all its circles in one batched call, with one row of e^v for ``L`` and one
of e^{3v} for ``aux_invgrad2`` per circle and v evaluated once per circle
per refinement level; each row keeps its own convergence test on each
segment, so a profile row equals the one-row call for that circle.  Rows
that use every refinement level without converging (the ``e^{3v}``
integrand at a vertex with alpha <= -1/3 is not integrable) are logged as
one warning per profile and listed in its ``meta["capped_levels"]``; their
``aux_invgrad2`` is NaN.  Profile derivative columns use centered
differences on the level grid only; the smooth integral formulas are never
evaluated across vertices.

Mollification convolves ``v`` with the radial C^2 bump
``(4/(pi eps^2)) (1 - (s/eps)^2)^3``; the convolution against each log term
reduces to closed-form radial integrals.  For nonpositive-curvature factors
the mollified factors decrease pointwise to ``v`` as ``eps`` decreases.
:func:`mollified_convergence` integrates the circle under every eps as the
rows of one batched call, split at the union of their mollifier joints,
with the distances to the atoms taken once per refinement level for all
rows; each capped row is logged under its eps.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import DomainError
from .fields import ScalarField, as_points
from .harmonic import DirichletSpec
from .levelsets import LengthProfile
from .quadrature import (REL_TOL, _distinct, circle_lengths, finite_lengths,
                         segmented_circle_integral)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CurvatureMeasure:
    """Atomic curvature measure of a conical factor."""

    atoms: tuple  # ((x, y), mass) pairs, mass = -2 pi alpha
    total_mass: float
    nonpositive: bool


class ConicalFactor:
    """Flat conformal factor with logarithmic conical singularities."""

    def __init__(self, beta0: float, singularities):
        atoms = []
        for point, alpha in singularities:
            p = (float(point[0]), float(point[1]))
            a = float(alpha)
            if a <= -1.0:
                raise DomainError(
                    f"alpha = {a} <= -1 gives a non-integrable length element")
            atoms.append((p, a))
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if np.hypot(atoms[i][0][0] - atoms[j][0][0],
                            atoms[i][0][1] - atoms[j][0][1]) < 1e-12:
                    raise DomainError("coincident singular points")
        self.beta0 = float(beta0)
        self.atoms = tuple(atoms)
        self.nonpositive_curvature = all(a >= 0.0 for _, a in atoms)
        terms = [(lambda z0, deg, zj=complex(p[0], p[1]): jets.log_z_coeffs(z0 - zj, deg),
                  "re", a) for p, a in atoms]
        if terms:
            self.field = ScalarField.from_holomorphic_sum(
                terms, constant=self.beta0, singular_points=[p for p, _ in atoms])
        else:
            from .fields import constant_field
            self.field = constant_field(self.beta0)

    def value(self, p):
        """v(p); -inf at the vertices themselves."""
        pts, single = as_points(p)
        out = np.full(pts.shape[0], self.beta0)
        with np.errstate(divide="ignore"):
            for (x, y), a in self.atoms:
                out += a * np.log(np.hypot(pts[:, 0] - x, pts[:, 1] - y))
        return float(out[0]) if single else out

    def curvature_measure(self) -> CurvatureMeasure:
        atoms = tuple((p, -2.0 * np.pi * a) for p, a in self.atoms)
        return CurvatureMeasure(atoms, float(sum(m for _, m in atoms)),
                                self.nonpositive_curvature)


def conical_factor(beta0: float, singularities) -> ConicalFactor:
    """Build a conical factor from (point, alpha) pairs; alpha > -1, points
    pairwise distinct."""
    return ConicalFactor(beta0, singularities)


# ---------------------------------------------------------------------------
# circle integrals of e^v
# ---------------------------------------------------------------------------

def _conical_log_integrand(factor: ConicalFactor, radii, *powers):
    """``power * v`` on the circles |z| = r, with exact vertex offsets: one
    row per radius at the first power, then one per radius at the next, and
    so on.  A call evaluates v once per circle for all the rows it asks for.

    The chord distance is evaluated as
    d^2 = (r - rho)^2 + 4 r rho sin^2(dtheta/2), which is cancellation-free;
    an anchored ``delta`` keeps dtheta exact near a vertex angle.  The
    vertex angles do not depend on r, so all circles share the segments and
    the nodes of the rule.
    """
    angles = np.array([np.arctan2(p[1], p[0]) for p, _ in factor.atoms])
    rho = np.array([np.hypot(p[0], p[1]) for p, _ in factor.atoms])
    alphas = np.array([a for _, a in factor.atoms])
    # same_angle[i, j]: an offset anchored at vertex i is vertex j's offset
    same_angle = np.abs(angles[:, None] - angles[None, :]) < 1e-14
    radii = [float(r) for r in radii]
    # (r - rho)^2 through the float64 scalar power (libm pow): numpy's array
    # square differs from it in about one case in a thousand, and profile
    # values are kept byte-stable
    dr2 = np.array([[(r - rj) ** 2 for rj in rho] for r in radii])
    four_r_rho = 4.0 * np.array(radii)[:, None] * rho
    row_circle = np.tile(np.arange(len(radii)), len(powers))
    row_power = np.repeat(np.array(powers, dtype=float), len(radii))[:, None]

    def log_f(theta, anchors, rows):
        row_circles = row_circle[rows]
        circles = _distinct(row_circles, len(radii))
        dr2_c, c_c = dr2[circles], four_r_rho[circles]
        out = np.full((circles.size, np.size(theta)), factor.beta0)
        for j in range(alphas.size):
            dth = theta - angles[j]
            for span, anchor, delta in anchors:
                if same_angle[anchor, j]:
                    dth[span] = delta
            # d2 = dr2 + c sin^2(dth / 2), then 0.5 alpha ln d2, in place so
            # that a call holds few node-sized temporaries
            dth *= 0.5
            np.sin(dth, out=dth)
            dth **= 2
            d2 = c_c[:, j, None] * dth
            d2 += dr2_c[:, j, None]
            np.log(d2, out=d2)
            d2 *= 0.5 * alphas[j]
            out += d2
        if not np.array_equal(circles, row_circles):
            out = out[np.searchsorted(circles, row_circles)]
        out *= row_power[rows]
        return out

    return log_f, angles


def conical_circle_length(factor: ConicalFactor, r: float, *, capped: bool = False):
    """Length of the circle |z| = r in the metric e^{2v} g_0; a capped
    integral keeps its finest-level value and is logged as a warning.
    With ``capped=True`` returns ``(length, whether it is capped)``."""
    (length,), (row_capped,) = circle_lengths(*_conical_log_integrand(factor, [r], 1.0), [r],
                                              ["conical circle length"])
    return (float(length), bool(row_capped)) if capped else float(length)


def _level_radius(spec: DirichletSpec, t: float) -> float:
    return float(np.exp((t - spec.t1) * np.log(spec.R) / (spec.t2 - spec.t1)))


def bic_length_profile(factor: ConicalFactor, spec: DirichletSpec, t_grid
                       ) -> LengthProfile:
    """Level-length profile for the annulus Dirichlet solution on a conical
    factor; derivative columns are centered differences on the grid.  The
    rows ``meta["edge_rows"]`` (two at each end), whose second differences
    reach a one-sided ``L_fd_p``, have NaN ``Lpp``, ``L_fd_pp`` and ``lnL_pp``.

    All level circles are integrated in one batched call whose rows are
    e^v for ``L`` and e^{3v} for ``aux_invgrad2``, with v evaluated once per
    circle per refinement level.  Levels whose integral used every
    refinement level without reaching ``quadrature.REL_TOL`` are logged as
    one warning and listed in ``meta["capped_levels"]``; a capped ``L``
    keeps its finest-level estimate (the convexity verdicts read it), a
    capped ``aux_invgrad2`` is NaN.

    The log-convexity guarantee applies to nonpositive-curvature factors;
    the profile itself is computed for any integrable factor so violations
    can be detected.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 8:
        raise DomainError("profile grid needs at least 8 levels")
    if spec.t1 == spec.t2:
        raise DomainError("degenerate boundary data")
    lo, hi = min(spec.t1, spec.t2), max(spec.t1, spec.t2)
    if t_grid.min() <= lo or t_grid.max() >= hi:
        raise DomainError("profile grid must lie strictly inside the boundary values")
    radii = [_level_radius(spec, t) for t in t_grid]
    m = len(radii)
    vals, capped = segmented_circle_integral(*_conical_log_integrand(factor, radii, 1.0, 3.0))
    L, L_capped = finite_lengths(radii, vals[:m]), capped[:m]
    # aux_invgrad2 integrates |grad u|^-2 = e^{3v} r^2 / b^2 per unit angle
    # (u = t1 + b ln|z|), integrable iff 3 alpha_j > -1 at a vertex on the
    # circle; capped rows and overflowed sums give NaN.  r**3 is a Python
    # float power, as (r - rho)^2 is in _conical_log_integrand
    b = (spec.t2 - spec.t1) / np.log(spec.R)
    cubes = np.array([r ** 3 for r in radii])
    aux_vals, aux_capped = vals[m:], capped[m:]
    aux = np.where(np.isfinite(aux_vals) & ~aux_capped, cubes / b**2 * aux_vals, np.nan)
    capped_levels = [float(t) for t in t_grid[L_capped | aux_capped]]
    if capped_levels:
        logger.warning(
            "tanh-sinh used every refinement level without reaching rel_tol %g "
            "(L on %d, aux_invgrad2 on %d levels; finest-level L kept, capped "
            "aux_invgrad2 set to NaN) at levels t = %s", REL_TOL,
            int(L_capped.sum()), int(aux_capped.sum()), capped_levels)
    L_fd_p = np.gradient(L, t_grid, edge_order=2)
    L_fd_pp = np.gradient(L_fd_p, t_grid, edge_order=2)
    edge_rows = [0, 1, t_grid.size - 2, t_grid.size - 1]
    L_fd_pp[edge_rows] = np.nan
    lnL_pp = (L_fd_pp * L - L_fd_p**2) / L**2
    return LengthProfile(t_grid, L, L_fd_p.copy(), L_fd_pp.copy(), lnL_pp,
                         L_fd_p, L_fd_pp, aux, derivative_mode="grid_fd",
                         meta={"rel_tol": REL_TOL, "rule": "tanh_sinh",
                               "capped_levels": capped_levels, "edge_rows": edge_rows})


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_P1 = 0.25 - 3.0 / 16.0 + 3.0 / 36.0 - 1.0 / 64.0  # int_0^1 (1-x^2)^3 x dx weights


def _log_kernel_profiles(d: np.ndarray, eps_values) -> np.ndarray:
    """Convolutions of ln|.| with the radial bumps of radius eps, one row per
    eps of ``eps_values``, at distances d.

    Each equals ln d for d >= eps (mean value property); inside, the circle
    average ln max(d, s) integrates against the kernel in closed form.
    """
    d = np.asarray(d, dtype=float)
    out = np.tile(np.where(d > 0, np.log(np.maximum(d, 1e-300)), 0.0), (len(eps_values), 1))
    for row, eps in zip(out, eps_values):
        inside = d < eps
        if not np.any(inside):
            continue
        x = d[inside] / eps
        x2 = x * x
        mass = 1.0 - (1.0 - x2) ** 4
        with np.errstate(divide="ignore", invalid="ignore"):
            lx = np.where(x > 0, np.log(np.maximum(x, 1e-300)), 0.0)
        # B(x) = int_x^1 (1-s^2)^3 s ln s ds via the antiderivative of
        # (s - 3 s^3 + 3 s^5 - s^7) ln s
        c = (1.0, -3.0, 3.0, -1.0)
        Px = np.zeros_like(x)
        for k, ck in enumerate(c):
            m = 2 * k + 2
            Px += ck * x**m * (lx / m - 1.0 / m**2)
        B = -_P1 - Px
        main = np.where(x > 0, lx * mass, 0.0)
        row[inside] = np.log(eps) + main + 8.0 * B
    return out


class MollifiedFactor:
    """Smooth factor obtained by convolving a conical factor with a radial
    C^2 bump of radius eps and unit mass."""

    def __init__(self, source: ConicalFactor, eps: float):
        if eps <= 0:
            raise DomainError("mollification radius must be positive")
        self.source = source
        self.eps = float(eps)

    def value(self, p):
        pts, single = as_points(p)
        out = _mollified_values(self.source, [self.eps], pts[:, 0], pts[:, 1])[0]
        return float(out[0]) if single else out

    def circle_length(self, r: float) -> float:
        """Length of |z| = r in the mollified metric.

        The integrand is piecewise analytic with C^2 joints where the circle
        crosses a mollification disc boundary; those angles split the rule.
        A capped integral keeps its finest-level value and is logged as a
        warning.
        """
        return float(_mollified_circle_lengths(self.source, [self.eps], r)[0][0])


def _mollified_values(source: ConicalFactor, eps_values, x, y) -> np.ndarray:
    """The factors mollified at each eps of ``eps_values``, one row each, at
    the points (x, y); the distances to the atoms are taken once for all rows."""
    out = np.full((len(eps_values), np.size(x)), source.beta0)
    for (px, py), a in source.atoms:
        out += a * _log_kernel_profiles(np.hypot(x - px, y - py), eps_values)
    return out


def _mollifier_joints(source: ConicalFactor, eps: float, r: float) -> list:
    """Angles where the circle |z| = r crosses a mollification disc boundary."""
    joints = []
    for (x, y), _ in source.atoms:
        rho = np.hypot(x, y)
        if abs(r - rho) < eps:
            s2 = (eps**2 - (r - rho) ** 2) / (4.0 * r * rho) if rho > 0 else None
            th = np.arctan2(y, x)
            if s2 is not None and s2 < 1.0:
                dth = 2.0 * np.arcsin(np.sqrt(s2))
                joints += [th - dth, th + dth]
    return joints


def _mollified_circle_lengths(source: ConicalFactor, eps_values,
                              r: float) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, capped)`` of |z| = r under the factors mollified at each
    eps of ``eps_values``, one row each of one batched call.

    The rows are split at the union of their mollifier joints, and each
    level evaluates the distances to the atoms once for all rows.  Capped
    rows keep their finest-level value and are logged as warnings.
    """
    eps_values = np.array(eps_values, dtype=float)
    joints = [th for eps in eps_values for th in _mollifier_joints(source, eps, r)]

    def log_f(theta, _anchors, rows):
        return _mollified_values(source, eps_values[rows],
                                 r * np.cos(theta), r * np.sin(theta))

    return circle_lengths(log_f, joints, [r] * len(eps_values),
                          [f"mollified circle length (eps = {float(eps)!r})"
                           for eps in eps_values])


def mollify(factor: ConicalFactor, eps: float) -> MollifiedFactor:
    """Radial-kernel mollification; for nonpositive-curvature factors the
    result dominates the factor pointwise and decreases with eps."""
    return MollifiedFactor(factor, eps)


def mollified_convergence(factor: ConicalFactor, spec: DirichletSpec, t: float,
                          eps_sequence, *, capped: bool = False):
    """Level lengths under the mollified metrics for a decreasing eps list.

    For nonpositive-curvature factors the lengths decrease monotonically to
    the singular-metric length of the level.  A capped length keeps its
    finest-level value and is logged as a warning; with ``capped=True``
    returns ``(lengths, capped flags)``.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise DomainError("eps sequence must be strictly decreasing")
    if any(e <= 0 for e in eps_sequence):
        raise DomainError("mollification radius must be positive")
    lengths, flags = _mollified_circle_lengths(factor, eps_sequence, _level_radius(spec, t))
    return (lengths, flags) if capped else lengths
