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
rule in :mod:`levelflow.quadrature`.  Every length here (the profile's
``L``, :func:`conical_circle_length`, the mollified circles) ends in that
module's circle-length finish, with its fixed ``REL_TOL``: a diverged
integral raises, a capped one-circle integral is logged there.  The vertex
angles split every level circle at the same places, so a profile integrates
all its circles as rows of one batched call for ``L`` and one for
``aux_invgrad2``; each row keeps its own convergence test, so a profile row
equals the one-row call for that circle.  Rows that use every refinement
level without converging (the ``e^{3v}`` integrand at a vertex with
alpha <= -1/3 is not integrable) are logged as one warning per profile and
listed in its ``meta["capped_levels"]``; their ``aux_invgrad2`` is NaN.  Profile
derivative columns use centered differences on the level grid only; the
smooth integral formulas are never evaluated across vertices.

Mollification convolves ``v`` with the radial C^2 bump
``(4/(pi eps^2)) (1 - (s/eps)^2)^3``; the convolution against each log term
reduces to closed-form radial integrals.  For nonpositive-curvature factors
the mollified factors decrease pointwise to ``v`` as ``eps`` decreases.
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
from .quadrature import REL_TOL, circle_length, circle_lengths, segmented_circle_integral

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

def _conical_log_integrand(factor: ConicalFactor, radii, power: float):
    """``power * v`` on the circles |z| = r, one row per radius, with exact
    vertex offsets.

    The chord distance is evaluated as
    d^2 = (r - rho)^2 + 4 r rho sin^2(dtheta/2), which is cancellation-free;
    the anchored ``delta`` keeps dtheta exact near a vertex angle.  The
    vertex angles do not depend on r, so all circles share the segments and
    the nodes of the rule.
    """
    angles = np.array([np.arctan2(p[1], p[0]) for p, _ in factor.atoms])
    rho = np.array([np.hypot(p[0], p[1]) for p, _ in factor.atoms])
    alphas = np.array([a for _, a in factor.atoms])
    radii = [float(r) for r in radii]
    # (r - rho)^2 through the float64 scalar power (libm pow): numpy's array
    # square differs from it in about one case in a thousand, and profile
    # values are kept byte-stable
    dr2 = np.array([[(r - rj) ** 2 for rj in rho] for r in radii])
    four_r_rho = 4.0 * np.array(radii)[:, None] * rho

    def log_f(theta, anchor, delta, rows):
        dr2_rows, c_rows = dr2[rows], four_r_rho[rows]
        out = np.full((dr2_rows.shape[0], np.size(theta)), factor.beta0)
        for j in range(alphas.size):
            if anchor is not None and abs(angles[anchor] - angles[j]) < 1e-14:
                dth = delta
            else:
                dth = theta - angles[j]
            d2 = dr2_rows[:, j, None] + c_rows[:, j, None] * np.sin(0.5 * dth) ** 2
            out = out + 0.5 * alphas[j] * np.log(d2)
        return power * out

    return log_f, angles


def conical_circle_length(factor: ConicalFactor, r: float) -> float:
    """Length of the circle |z| = r in the metric e^{2v} g_0; a capped
    integral keeps its finest-level value and is logged as a warning."""
    return circle_length(*_conical_log_integrand(factor, [r], 1.0), r,
                         "conical circle length")


def _conical_circle_invgrad2(factor: ConicalFactor, spec: DirichletSpec, radii):
    """Integrals of |grad u|^-2 over the circles |z| = r (metric quantities)
    and the capped flags of their integrals.

    For u = t1 + b ln|z| the integrand is e^{3v} r^2 / b^2 per unit
    coordinate angle; integrable iff 3 alpha_j > -1 at a vertex on the
    circle.  Otherwise the rule uses every refinement level and the row is
    capped; capped rows and sums that overflow give NaN.
    """
    b = (spec.t2 - spec.t1) / np.log(spec.R)
    vals, capped = segmented_circle_integral(*_conical_log_integrand(factor, radii, 3.0))
    # r**3 as a Python float power, for the same reason as (r - rho)^2 above
    cubes = np.array([float(r) ** 3 for r in radii])
    return np.where(np.isfinite(vals) & ~capped, cubes / b**2 * vals, np.nan), capped


def _level_radius(spec: DirichletSpec, t: float) -> float:
    return float(np.exp((t - spec.t1) * np.log(spec.R) / (spec.t2 - spec.t1)))


def bic_length_profile(factor: ConicalFactor, spec: DirichletSpec, t_grid
                       ) -> LengthProfile:
    """Level-length profile for the annulus Dirichlet solution on a conical
    factor; derivative columns are centered differences on the grid.

    All level circles are integrated in one batched call for ``L`` and one
    for ``aux_invgrad2``.  Levels whose integral used every refinement level
    without reaching ``quadrature.REL_TOL`` are logged as one warning and listed in
    ``meta["capped_levels"]``; a capped ``L`` keeps its finest-level
    estimate (the convexity verdicts read it), a capped ``aux_invgrad2`` is
    NaN.

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
    L, L_capped = circle_lengths(*_conical_log_integrand(factor, radii, 1.0), radii)
    aux, aux_capped = _conical_circle_invgrad2(factor, spec, radii)
    capped_levels = [float(t) for t in t_grid[L_capped | aux_capped]]
    if capped_levels:
        logger.warning(
            "tanh-sinh used every refinement level without reaching rel_tol %g "
            "(L on %d, aux_invgrad2 on %d levels; finest-level L kept, capped "
            "aux_invgrad2 set to NaN) at levels t = %s", REL_TOL,
            int(L_capped.sum()), int(aux_capped.sum()), capped_levels)
    L_fd_p = np.gradient(L, t_grid, edge_order=2)
    L_fd_pp = np.gradient(L_fd_p, t_grid, edge_order=2)
    lnL_pp = (L_fd_pp * L - L_fd_p**2) / L**2
    return LengthProfile(t_grid, L, L_fd_p.copy(), L_fd_pp.copy(), lnL_pp,
                         L_fd_p, L_fd_pp, aux, derivative_mode="grid_fd",
                         meta={"rel_tol": REL_TOL, "rule": "tanh_sinh",
                               "capped_levels": capped_levels})


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

_P1 = 0.25 - 3.0 / 16.0 + 3.0 / 36.0 - 1.0 / 64.0  # int_0^1 (1-x^2)^3 x dx weights


def _log_kernel_profile(d: np.ndarray, eps: float) -> np.ndarray:
    """Convolution of ln|.| with the radial bump of radius eps, at distance d.

    Equals ln d for d >= eps (mean value property); inside, the circle
    average ln max(d, s) integrates against the kernel in closed form.
    """
    d = np.asarray(d, dtype=float)
    out = np.where(d > 0, np.log(np.maximum(d, 1e-300)), 0.0)
    inside = d < eps
    if np.any(inside):
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
        out[inside] = np.log(eps) + main + 8.0 * B
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
        out = np.full(pts.shape[0], self.source.beta0)
        for (x, y), a in self.source.atoms:
            d = np.hypot(pts[:, 0] - x, pts[:, 1] - y)
            out += a * _log_kernel_profile(d, self.eps)
        return float(out[0]) if single else out

    def circle_length(self, r: float) -> float:
        """Length of |z| = r in the mollified metric.

        The integrand is piecewise analytic with C^2 joints where the circle
        crosses a mollification disc boundary; those angles split the rule.
        A capped integral keeps its finest-level value and is logged as a
        warning.
        """
        breaks = []
        for (x, y), _ in self.source.atoms:
            rho = np.hypot(x, y)
            if abs(r - rho) < self.eps:
                s2 = (self.eps**2 - (r - rho) ** 2) / (4.0 * r * rho) if rho > 0 else None
                th = np.arctan2(y, x)
                if s2 is not None and s2 < 1.0:
                    dth = 2.0 * np.arcsin(np.sqrt(s2))
                    breaks += [th - dth, th + dth]

        def log_f(theta, _anchor, _delta, _rows):
            pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
            return self.value(pts)[None, :]

        return circle_length(log_f, breaks, r,
                             f"mollified circle length (eps = {self.eps!r})")


def mollify(factor: ConicalFactor, eps: float) -> MollifiedFactor:
    """Radial-kernel mollification; for nonpositive-curvature factors the
    result dominates the factor pointwise and decreases with eps."""
    return MollifiedFactor(factor, eps)


def mollified_convergence(factor: ConicalFactor, spec: DirichletSpec, t: float,
                          eps_sequence) -> np.ndarray:
    """Level lengths under the mollified metrics for a decreasing eps list.

    For nonpositive-curvature factors the lengths decrease monotonically to
    the singular-metric length of the level.
    """
    eps_sequence = [float(e) for e in eps_sequence]
    if any(b >= a for a, b in zip(eps_sequence, eps_sequence[1:])):
        raise DomainError("eps sequence must be strictly decreasing")
    r = _level_radius(spec, t)
    return np.array([MollifiedFactor(factor, e).circle_length(r)
                     for e in eps_sequence])
