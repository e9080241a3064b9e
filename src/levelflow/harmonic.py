"""Harmonic fields: closed-form catalog, annulus Dirichlet solutions, critical
points and a validation-only polar grid solver.  :func:`_bracketed_newton`,
batched over its brackets, is the package's one root solver: tracer seeds,
critical points of fields of t, level radii of fields without an inverse.

Harmonicity in the surface metric coincides with Euclidean harmonicity in the
chart coordinates on conformal charts (conformal invariance in two dimensions),
so every conformal-chart entry in the catalog is an exact planar harmonic
function.  Warped-chart entries are functions of t (``radial="t"``) and satisfy
u'' + (w'/w) u' = 0 for their chart's warp.  Every field constructor returns a
closed-form :class:`~levelflow.fields.ScalarField`; fields a + b ln|z|
(``radial="abs_z"``) and ``warped_arctan`` set its ``radial_inverse``, their
level radii in closed form.  The numeric solver returns its grid values.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import jets
from .charts import CRITICAL_GRAD, _circle_points, _radial_on
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
    field.radial_inverse = _log_inverse(spec.t1, b)
    return field


def _log_inverse(a, b):
    def inverse(ts):  # the level radii of a + b ln|z|
        if b == 0.0:
            raise DomainError("constant field has no level curves")
        return np.exp((ts - a) / b)
    return inverse


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
        field.radial_inverse = _log_inverse(0.0, c)
        return field
    if name == "arg":
        _no_extra(params)
        return ScalarField.from_holomorphic_sum(
            [(jets.log_z_coeffs, "im", 1.0)], singular_points=[(0.0, 0.0)])
    if name in ("re_poly", "im_poly"):
        if "n" not in params:
            raise DomainError(f"{name} needs its degree n")
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
        field = ScalarField.from_expression(
            lambda t, _th: 2.0 * jets.atan(jets.exp(t)), radial="t")
        field.radial_inverse = lambda ts: np.log(np.tan(0.5 * ts))
        return field
    raise DomainError(f"unknown catalog field {name!r}")


def _no_extra(params):
    if params:
        raise DomainError(f"unexpected parameters: {sorted(params)}")


# -- critical points -----------------------------------------------------------

# grid points per axis of the critical-point scan
SCAN_POINTS = 64
# step factor, step budget and |grad u| target of the critical-point Newton
NEWTON_DAMPING, NEWTON_MAX_ITER, NEWTON_TOL = 0.5, 50, 1e-11


def critical_points(u: ScalarField, chart) -> list[tuple[float, float]]:
    """All zeros of grad u in the chart interior, located to ~1e-8.

    Grid scan of |grad u|^2 local minima followed by damped Newton on the
    gradient, all seeds at once.  An empty list certifies that the grid
    minimum of |grad u| stayed above the polish threshold.  A field with
    |grad u| below ``CRITICAL_GRAD`` at every grid point (a constant) raises
    DomainError: its critical points are not isolated.
    """
    if _radial_on(u, chart) and chart.kind == "warped":
        return _critical_points_warped(u, chart)
    r_lo = chart.inner_radius if chart.inner_radius > 0 else 1e-3
    r_hi = chart.outer_radius
    if r_hi is None:
        raise DomainError("critical point scan needs a bounded chart")
    rr = np.linspace(r_lo * 1.001, r_hi * 0.999, SCAN_POINTS)
    pts = _circle_points(chart, rr, SCAN_POINTS)[0].reshape(-1, 2)
    g = u.jet(pts, 1).grad
    q = (g[:, 0] ** 2 + g[:, 1] ** 2).reshape(SCAN_POINTS, SCAN_POINTS)
    _require_gradient(q)

    # grid minima: no larger than any neighbour, periodic in theta; the
    # +inf rows stand for the missing neighbours beyond the radial ends
    padded = np.pad(q, ((1, 1), (0, 0)), constant_values=np.inf)
    is_min = ((q <= padded[:-2]) & (q <= padded[2:])
              & (q <= np.roll(q, 1, axis=1)) & (q <= np.roll(q, -1, axis=1)))

    roots: list[np.ndarray] = []
    for root in _newton_polish(u, pts[np.flatnonzero(is_min)]):
        if r_lo < np.hypot(*root) < r_hi and all(np.hypot(*(root - q0)) > 1e-6 for q0 in roots):
            roots.append(root)
    roots.sort(key=lambda p: (p[0], p[1]))
    return [tuple(p) for p in roots]


def _newton_polish(u, seeds):
    """Zeros of grad u reached by damped Newton from the (k, 2) ``seeds``, in
    seed order, one order-2 jet call per step for the live seeds; a seed at a
    singular Hessian or above NEWTON_TOL after NEWTON_MAX_ITER steps is dropped."""
    p, live = seeds.copy(), np.arange(len(seeds))
    converged = np.zeros(len(seeds), dtype=bool)
    for _ in range(NEWTON_MAX_ITER):
        if live.size == 0:
            break
        j = u.jet(p[live], 2)
        g, h = j.grad, j.hess
        done = np.hypot(g[:, 0], g[:, 1]) < NEWTON_TOL
        step = ~done & (np.abs(h[:, 0, 0] * h[:, 1, 1] - h[:, 0, 1] * h[:, 1, 0]) >= 1e-14)
        converged[live[done]] = True
        live = live[step]
        p[live] += NEWTON_DAMPING * np.linalg.solve(h[step], -g[step][:, :, None])[:, :, 0]
    logger.debug("critical-point Newton: seeds dropped at a singular Hessian or "
                 "unconverged after %d steps: %s", NEWTON_MAX_ITER, seeds[~converged])
    return p[converged]


def _require_gradient(grad_sq):
    """DomainError where |grad u|^2 on the scan grid stays below
    CRITICAL_GRAD^2 at every grid point."""
    if not np.any(grad_sq >= CRITICAL_GRAD**2):
        raise DomainError(f"|grad u| < {CRITICAL_GRAD:g} at every scan point: "
                          "u is constant, its critical points are not isolated")


def _critical_points_warped(u, chart):
    """Zeros of u'(t) on the scan's sign-change brackets, solved together."""
    def slope(t):  # (u', u'') at (t, 0)
        j = u.jet(np.stack([t, np.zeros_like(t)], axis=-1), 2)
        return j.grad[:, 0], j.hess[:, 0, 0]

    ts = np.linspace(chart.t_min, chart.t_max, SCAN_POINTS)
    du = slope(ts)[0]
    _require_gradient(du**2)
    i = np.flatnonzero((du[:-1] == 0.0) | (du[:-1] * du[1:] < 0))
    roots = []
    for t0 in _bracketed_newton(slope, np.zeros(i.size), ts[i], ts[i + 1], du[i]):
        if all(abs(t0 - r[0]) > 1e-6 for r in roots):
            roots.append((float(t0), 0.0))
    return roots


def _bracketed_newton(fn, ts, a, b, fa, max_iter=60):
    """Roots x of f(x) = t in [a, b], one per entry of the arrays ``ts``, ``a``,
    ``b`` and ``fa`` = f(a) - t, which is 0 (a is the root) or of the sign
    opposite to f(b) - t; ``fn(x)`` returns (f, f') at an array x.  Newton
    steps from the bracket midpoint, bisection fallback.

    Every entry runs its own scalar iteration; the live entries only share
    one ``fn`` call per iteration, so a root does not depend on its batch.
    A Newton step of at most 1e-15 relative ends the iteration, even one
    that leaves the bracket; an entry whose step is still above that after
    ``max_iter`` iterations raises :class:`SolverError`.
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    x = 0.5 * (a + b)
    root = a.copy()
    live = np.flatnonzero(fa != 0.0)
    for _ in range(max_iter):
        if live.size == 0:
            break
        xl, al, bl, fal = x[live], a[live], b[live], fa[live]
        v, d = fn(xl)
        f = v - ts[live]
        hit = f == 0.0
        left = f * fal < 0
        al, fal = np.where(left, al, xl), np.where(left, fal, f)
        bl = np.where(left, xl, bl)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(d != 0, f / d, np.inf)
        x_new = xl - step
        tol = 1e-15 * np.maximum(1.0, np.abs(xl))
        # x is now a bracket end, so a converged sub-ulp step can land just
        # outside the bracket: keep it rather than restart by bisection
        keep = (np.abs(x_new - xl) <= tol) | ((al < x_new) & (x_new < bl))
        x_new = np.where(keep, x_new, 0.5 * (al + bl))
        done = np.abs(x_new - xl) <= tol
        root[live] = np.where(hit, xl, x_new)
        a[live], b[live], fa[live], x[live] = al, bl, fal, x_new
        live = live[~(hit | done)]
    if live.size:
        raise SolverError(
            f"bracketed Newton: step above 1e-15 relative after {max_iter} "
            f"iterations at levels t = {[float(t) for t in ts[live]]}")
    return root


# -- validation-only numeric solver ---------------------------------------------

def solve_annulus_numeric(spec: DirichletSpec, grid: tuple[int, int] = (64, 128)
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Second-order polar-grid solution of the annulus Dirichlet problem.

    Validation-only cross-check of the closed form; analysis paths always use
    :func:`solve_annulus_dirichlet`.  Returns ``(r, theta, values)``: the
    radii, the angles and the (n_r, n_theta) grid values, boundary rows
    included.
    """
    from scipy import sparse  # the validation solver alone loads scipy here
    from scipy.sparse.linalg import spsolve

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
    return r, np.arange(n_t) * dt, values
