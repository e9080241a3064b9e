"""Harmonic fields: closed-form catalog, annulus Dirichlet solutions,
critical-point detection and a validation-only polar grid solver.

Harmonicity in the surface metric coincides with Euclidean harmonicity in
the chart coordinates on conformal charts (conformal invariance in two
dimensions), so every conformal-chart entry in the catalog is an exact
planar harmonic function.  Warped-chart entries are functions of t
(``radial="t"``) and satisfy u'' + (w'/w) u' = 0 for their chart's warp.

Every constructor returns a :class:`~levelflow.fields.ScalarField`; fields
a + b ln|z| are radial in |z| (``radial="abs_z"``) and set its
``log_radial_coeffs``, and the numeric solver's sets its ``grid_data``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.interpolate import RectBivariateSpline
from scipy.optimize import brentq
from scipy.sparse.linalg import spsolve

from . import jets
from .charts import CRITICAL_GRAD, _radial_on
from .errors import DomainError, SolverError
from .fields import ScalarField, constant_field

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class DirichletSpec:
    """Constant boundary data t1 on |z| = 1 and t2 on |z| = R, R > 1."""

    R: float
    t1: float
    t2: float

    def __post_init__(self):
        if not self.R > 1.0:
            raise DomainError(f"annulus outer radius must exceed 1, got {self.R}")


def solve_annulus_dirichlet(spec: DirichletSpec) -> ScalarField:
    """Closed-form solution u = t1 + (t2 - t1) ln|z| / ln R of the annulus
    Dirichlet problem with constant boundary data."""
    b = (spec.t2 - spec.t1) / np.log(spec.R)
    if spec.t1 == spec.t2:
        field = constant_field(spec.t1)
    else:
        field = ScalarField.from_holomorphic_sum(
            [(jets.log_z_coeffs, "re", b)], constant=spec.t1,
            radial="abs_z", singular_points=[(0.0, 0.0)])
    field.log_radial_coeffs = (spec.t1, b)
    return field


def catalog_field(name: str, **params) -> ScalarField:
    """Closed-form harmonic fields used throughout the test batteries.

    Conformal-chart entries: ``log`` (c ln|z|), ``arg``, ``re_poly``/``im_poly``
    (Re/Im z^n), ``joukowski``/``im_joukowski`` (Re/Im (z + a/z)),
    ``perturbed_log`` (-ln|z| + eps Re z).  Warped-chart entry:
    ``warped_arctan`` (u(t) = 2 arctan e^t, harmonic for cosh-type warps).
    """
    if name == "log":
        c = float(params.pop("c", -1.0))
        _no_extra(params)
        field = ScalarField.from_holomorphic_sum(
            [(jets.log_z_coeffs, "re", c)], radial="abs_z",
            singular_points=[(0.0, 0.0)])
        field.log_radial_coeffs = (0.0, c)
        return field
    if name == "arg":
        _no_extra(params)
        return ScalarField.from_holomorphic_sum(
            [(jets.log_z_coeffs, "im", 1.0)], singular_points=[(0.0, 0.0)])
    if name in ("re_poly", "im_poly"):
        n = int(params.pop("n"))
        _no_extra(params)
        if n < 1:
            raise DomainError("polynomial degree must be >= 1")
        part = "re" if name == "re_poly" else "im"
        return ScalarField.from_holomorphic_sum(
            [(lambda z0, deg, n=n: jets.monomial_coeffs(z0, n, deg), part, 1.0)])
    if name in ("joukowski", "im_joukowski"):
        a = float(params.pop("a", 1.0))
        _no_extra(params)
        part = "re" if name == "joukowski" else "im"
        return ScalarField.from_holomorphic_sum(
            [(lambda z0, deg: jets.monomial_coeffs(z0, 1, deg), part, 1.0),
             (jets.inverse_coeffs, part, a)],
            singular_points=[(0.0, 0.0)])
    if name == "perturbed_log":
        eps = float(params.pop("eps", 0.1))
        _no_extra(params)
        return ScalarField.from_holomorphic_sum(
            [(jets.log_z_coeffs, "re", -1.0),
             (lambda z0, deg: jets.monomial_coeffs(z0, 1, deg), "re", eps)],
            singular_points=[(0.0, 0.0)])
    if name == "warped_arctan":
        _no_extra(params)
        return ScalarField.from_expression(
            lambda t, _th: 2.0 * jets.atan(jets.exp(t)), radial="t")
    raise DomainError(f"unknown catalog field {name!r}")


def _no_extra(params):
    if params:
        raise DomainError(f"unexpected parameters: {sorted(params)}")


# -- critical points -----------------------------------------------------------

# grid points per axis of the critical-point scan
SCAN_POINTS = 64


def critical_points(u: ScalarField, chart) -> list[tuple[float, float]]:
    """All zeros of grad u in the chart interior, located to ~1e-8.

    Grid scan of |grad u|^2 local minima followed by damped Newton on the
    gradient.  An empty list certifies that the grid minimum of |grad u|
    stayed above the polish threshold.  A field with |grad u| below
    ``CRITICAL_GRAD`` at every grid point (a constant) raises DomainError:
    its critical points are not isolated.
    """
    if _radial_on(u, chart) and chart.kind == "warped":
        return _critical_points_warped(u, chart)
    r_lo = chart.inner_radius if chart.inner_radius > 0 else 1e-3
    r_hi = chart.outer_radius
    if r_hi is None:
        raise DomainError("critical point scan needs a bounded chart")
    rr = np.linspace(r_lo * 1.001, r_hi * 0.999, SCAN_POINTS)
    th = np.linspace(0.0, 2.0 * np.pi, SCAN_POINTS, endpoint=False)
    R, T = np.meshgrid(rr, th, indexing="ij")
    pts = np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=-1)
    g = u.jet(pts, 1).grad
    q = (g[:, 0] ** 2 + g[:, 1] ** 2).reshape(SCAN_POINTS, SCAN_POINTS)
    _require_gradient(q)

    # grid minima: no larger than any neighbour, periodic in theta; the
    # +inf rows stand for the missing neighbours beyond the radial ends
    padded = np.pad(q, ((1, 1), (0, 0)), constant_values=np.inf)
    is_min = ((q <= padded[:-2]) & (q <= padded[2:])
              & (q <= np.roll(q, 1, axis=1)) & (q <= np.roll(q, -1, axis=1)))
    seeds = pts[np.flatnonzero(is_min)]

    roots: list[np.ndarray] = []
    for seed in seeds:
        root = _newton_polish(u, seed)
        if root is None:
            continue
        r = np.hypot(root[0], root[1])
        if not (r_lo < r < r_hi):
            continue
        if all(np.hypot(*(root - q0)) > 1e-6 for q0 in roots):
            roots.append(root)
    roots.sort(key=lambda p: (p[0], p[1]))
    return [tuple(p) for p in roots]


def _newton_polish(u, seed, damping: float = 0.5, max_iter: int = 50,
                   tol: float = 1e-11):
    p = np.asarray(seed, dtype=float).copy()
    for _ in range(max_iter):
        j = u.jet(p, 2)
        g = j.grad[0]
        if np.hypot(g[0], g[1]) < tol:
            return p
        h = j.hess[0]
        det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
        if abs(det) < 1e-14:
            logger.debug("critical-point Newton: singular Hessian at %s", p)
            return None
        step = np.linalg.solve(h, -g)
        p = p + damping * step
    logger.debug("critical-point Newton: no convergence from seed %s", seed)
    return None


def _require_gradient(grad_sq):
    """DomainError where |grad u|^2 on the scan grid stays below
    CRITICAL_GRAD^2 at every grid point."""
    if not np.any(grad_sq >= CRITICAL_GRAD**2):
        raise DomainError(f"|grad u| < {CRITICAL_GRAD:g} at every scan point: "
                          "u is constant, its critical points are not isolated")


def _critical_points_warped(u, chart):
    ts = np.linspace(chart.t_min, chart.t_max, SCAN_POINTS)
    pts = np.stack([ts, np.zeros_like(ts)], axis=-1)
    du = u.jet(pts, 1).grad[:, 0]
    _require_gradient(du**2)
    roots = []
    for i in range(SCAN_POINTS - 1):
        if du[i] == 0.0 or du[i] * du[i + 1] < 0:
            t0 = brentq(lambda t: float(u.jet([[t, 0.0]], 1).grad[0, 0]),
                        ts[i], ts[i + 1], xtol=1e-12)
            if all(abs(t0 - r[0]) > 1e-6 for r in roots):
                roots.append((t0, 0.0))
    return roots


# -- validation-only numeric solver ---------------------------------------------

def solve_annulus_numeric(spec: DirichletSpec, grid: tuple[int, int] = (64, 128)
                          ) -> ScalarField:
    """Second-order polar-grid solution of the annulus Dirichlet problem.

    Validation-only cross-check of the closed form; analysis paths always use
    :func:`solve_annulus_dirichlet`.  The returned field interpolates the grid
    with a bicubic spline and exposes ``grid_data = (r, theta, values)``.
    """
    n_r, n_t = grid
    if n_r < 8 or n_t < 16:
        raise DomainError("need n_r >= 8 and n_theta >= 16")
    r = np.linspace(1.0, spec.R, n_r)
    h = r[1] - r[0]
    dt = 2.0 * np.pi / n_t
    n_int = n_r - 2

    def idx(i, j):
        return (i - 1) * n_t + (j % n_t)

    rows, cols, vals = [], [], []
    rhs = np.zeros(n_int * n_t)
    for i in range(1, n_r - 1):
        rp = 0.5 * (r[i] + r[i + 1])
        rm = 0.5 * (r[i] + r[i - 1])
        cr_p = rp / (r[i] * h * h)
        cr_m = rm / (r[i] * h * h)
        ct = 1.0 / (r[i] * r[i] * dt * dt)
        for j in range(n_t):
            k = idx(i, j)
            rows += [k, k, k]
            cols += [k, idx(i, j - 1), idx(i, j + 1)]
            vals += [-(cr_p + cr_m + 2.0 * ct), ct, ct]
            if i == 1:
                rhs[k] -= cr_m * spec.t1
            else:
                rows.append(k)
                cols.append(idx(i - 1, j))
                vals.append(cr_m)
            if i == n_r - 2:
                rhs[k] -= cr_p * spec.t2
            else:
                rows.append(k)
                cols.append(idx(i + 1, j))
                vals.append(cr_p)
    mat = sparse.csr_matrix((vals, (rows, cols)), shape=(n_int * n_t, n_int * n_t))
    sol = spsolve(mat, rhs)
    if not np.all(np.isfinite(sol)):
        raise SolverError("sparse solve returned non-finite values")
    res = np.abs(mat @ sol - rhs).max()
    scale = max(1.0, np.abs(rhs).max())
    if res > 1e-8 * scale:
        raise SolverError(f"linear solve residual {res:.3e} exceeds 1e-8 * data scale")

    values = np.empty((n_r, n_t))
    values[0] = spec.t1
    values[-1] = spec.t2
    values[1:-1] = sol.reshape(n_int, n_t)

    # periodic padding in theta so the spline is smooth across 0 == 2 pi
    pad = 3
    th = np.arange(-pad, n_t + pad + 1) * dt
    vp = np.concatenate([values[:, -pad:], values, values[:, :pad + 1]], axis=1)
    spline = RectBivariateSpline(r, th, vp, kx=3, ky=3)

    def evaluate(pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        rr = np.hypot(pts[:, 0], pts[:, 1])
        tt = np.mod(np.arctan2(pts[:, 1], pts[:, 0]), 2.0 * np.pi)
        return spline.ev(np.clip(rr, 1.0, spec.R), tt)

    field = ScalarField.from_callable(evaluate, diameter=spec.R - 1.0)
    field.grid_data = (r, np.arange(n_t) * dt, values)
    return field
