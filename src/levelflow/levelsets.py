"""Level curves of harmonic fields and the length functional L(t).

For a harmonic u without critical points on the level, the first two
derivatives of the level-length function have closed integral forms over
the level curve (all quantities in the surface metric):

    L'(t)  = integral of  <-grad u/|grad u|, grad|grad u| / |grad u|^2>,
    L''(t) = integral of  |grad |grad u||^2 / |grad u|^4  -  K / |grad u|^2.

In conformal chart quantities, with G = e^{-phi} |grad_0 u| the metric
gradient norm and dH^1 = e^phi dsigma_0,

    L'  integrand = -e^{-2 phi} <grad_0 u, grad_0 G> / G^3,
    L'' integrand =  e^{-2 phi} |grad_0 G|^2 / G^4 - K / G^2,

where grad_0 G = e^{-phi} (grad_0 |grad_0 u| - |grad_0 u| grad_0 phi).  The
sign convention (L' with respect to increasing level value) is pinned by the
flat annulus: u = -ln|z| gives L(t) = 2 pi e^{-t} and L'(t) = -2 pi e^{-t}.

The integrands read G, <grad u, grad G>_g, |grad G|_g^2, K and the length
element from the local geometry of :mod:`levelflow.charts`, which also
applies the critical-point floor ``CRITICAL_GRAD`` that the tracer here uses.
Integrand points skip the chart's domain check: they come from the level
solver, and the levels t +- h of a profile's FD columns may lie just outside.

Radial fields on radial factors admit an exact fast path (the integrand is
constant on the level circle).  On it all radial levels of a profile are
located in one batched bracketed Newton solve and integrated in one batched
call; each level still runs its own iteration, so its values do not depend
on the other levels in the batch.  Everything else is quadrature over
curves sampled one level at a time: spectrally accurate on radial circles,
second order on traced curves, whose weights are averaged chord lengths.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from .charts import CRITICAL_GRAD, ConformalChart, _geometry
from .errors import (CriticalPointError, DomainError, NormalizationError,
                     PreconditionError, SingularPointError, SolverError,
                     TopologyError)
from .fields import ScalarField
from .harmonic import catalog_field
from .quadrature import segmented_circle_integral

logger = logging.getLogger(__name__)

CSV_COLUMNS = ("t", "L", "Lp", "Lpp", "lnL_pp", "L_fd_p", "L_fd_pp", "aux_invgrad2")

_LEVEL_TOL_FRAC = 1e-9


@dataclass(frozen=True)
class LevelCurve:
    """Sampled closed level curve with Euclidean arclength weights.

    On warped charts the 'Euclidean' weights are coordinate arclength in
    theta (the level is a coordinate circle t = const).
    """

    level: float
    points: np.ndarray   # (n, 2) chart coordinates
    weights: np.ndarray  # (n,) positive, summing to the coordinate length
    closed: bool = True


# ---------------------------------------------------------------------------
# level location and extraction
# ---------------------------------------------------------------------------

def boundary_values(u: ScalarField, chart) -> tuple[float, float] | None:
    """Values of a radial field on the two boundary circles, if available."""
    if chart.kind == "warped":
        return (float(u.value((chart.t_min, 0.0))), float(u.value((chart.t_max, 0.0))))
    if u.radial and chart.outer_radius is not None and chart.inner_radius > 0:
        return (float(u.value((chart.inner_radius, 0.0))),
                float(u.value((chart.outer_radius, 0.0))))
    return None


def _check_level_inside(u, chart, t):
    bv = boundary_values(u, chart)
    if bv is not None:
        lo, hi = min(bv), max(bv)
        if not (lo < t < hi):
            raise DomainError(f"level {t} not strictly between boundary values {bv}")


def level_radius(u: ScalarField, chart, t: float) -> float:
    """Radial coordinate of the level {u = t} for a radial field.

    A level circle outside a bounded chart's annulus raises DomainError
    (with the tolerance of ``check_points``), whether the radius came in
    closed form or from the Newton solve.
    """
    r = float(_level_radii(u, chart, np.array([t], dtype=float))[0])
    if chart.kind == "conformal" and chart.outer_radius is not None:
        eps = 1e-12 * max(1.0, chart.outer_radius)
        if not chart.inner_radius - eps <= r <= chart.outer_radius + eps:
            raise DomainError(f"no level {t} on the radial section")
    return r


def _level_radii(u, chart, ts, max_iter=60):
    """Radial coordinates of the levels {u = t}, one per entry of ``ts``.

    Conformal fields u = a + b ln|z| invert in closed form.  Otherwise one
    256-point sweep of the radial section brackets every level and a single
    batched Newton solve polishes all brackets together.
    """
    if not u.radial:
        raise DomainError("level_radius needs a radial field")
    if chart.kind == "warped":
        lo, hi = chart.t_min, chart.t_max
    else:
        lo = chart.inner_radius if chart.inner_radius > 0 else 1e-8
        hi = chart.outer_radius
        if hi is None:
            lo, hi = 1e-8, 1e8
    coeffs = u.log_radial_coeffs
    if chart.kind == "conformal" and coeffs is not None:
        a, b = coeffs
        if b == 0.0:
            raise DomainError("constant field has no level curves")
        return np.exp((ts - a) / b)

    rr = np.geomspace(lo, hi, 256) if chart.kind == "conformal" else np.linspace(lo, hi, 256)
    vals = u.value(np.stack([rr, np.zeros_like(rr)], axis=-1))[None, :] - ts[:, None]
    sign_change = vals[:, :-1] * vals[:, 1:] <= 0
    found = sign_change.any(axis=1)
    if not found.all():
        raise DomainError(f"no level {ts[~found][0]} on the radial section")
    i = np.argmax(sign_change, axis=1)
    fa = vals[np.arange(ts.size), i]
    return _bracketed_newton(u, ts, rr[i], rr[i + 1], fa, max_iter)


def _bracketed_newton(u, ts, a, b, fa, max_iter=60):
    """Roots of u((r, 0)) = t on [a, b], one per level: Newton steps from
    the bracket midpoint, bisection fallback.

    Every level runs its own scalar iteration; the live levels only share
    one jet call per iteration, so a root does not depend on its batch.  A
    Newton step of at most 1e-15 relative ends the iteration, even one that
    leaves the bracket; a level whose step is still above that after
    ``max_iter`` iterations raises :class:`SolverError`.
    """
    a, b, fa = a.copy(), b.copy(), fa.copy()
    x = 0.5 * (a + b)
    root = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(max_iter):
        if live.size == 0:
            break
        xl, al, bl, fal = x[live], a[live], b[live], fa[live]
        j = u.jet(np.stack([xl, np.zeros_like(xl)], axis=-1), 1)
        f = j.value - ts[live]
        hit = f == 0.0
        left = f * fal < 0
        al, fal = np.where(left, al, xl), np.where(left, fal, f)
        bl = np.where(left, xl, bl)
        d = j.grad[:, 0]
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


def extract_level_curve(u: ScalarField, chart, t: float,
                        n_samples: int = 512) -> LevelCurve:
    """Sampled closed curve on {u = t}.

    Radial fields use the exact circle reparametrised uniformly; other fields
    are traced by a predictor-corrector marcher and resampled.  Hitting a
    critical point raises; a level that runs into the domain boundary raises
    a topology error.
    """
    if n_samples < 8:
        raise DomainError("need at least 8 samples")
    _check_level_inside(u, chart, t)
    if u.radial:
        return _circle_curve(chart, t, level_radius(u, chart, t), n_samples)
    if chart.kind == "warped":
        raise DomainError("warped charts support radial fields only")
    return _trace_level_curve(u, chart, t, n_samples)


def _circle_curve(chart, t, r, n_samples) -> LevelCurve:
    """The radial level at radial coordinate r, sampled uniformly in angle."""
    theta = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    if chart.kind == "warped":
        pts = np.stack([np.full(n_samples, r), theta], axis=-1)
        w = np.full(n_samples, 2.0 * np.pi / n_samples)
        return LevelCurve(t, pts, w)
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    w = np.full(n_samples, 2.0 * np.pi * r / n_samples)
    return LevelCurve(t, pts, w)


def _seed_on_level(u, chart, t):
    r_lo = chart.inner_radius if chart.inner_radius > 0 else 1e-6
    r_hi = chart.outer_radius
    if r_hi is None:
        raise DomainError("tracing needs a bounded chart")
    rr = np.linspace(r_lo * 1.0001, r_hi * 0.9999, 64)
    for ang in np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False):
        c, s = np.cos(ang), np.sin(ang)

        def ray(r):
            return float(u.value((r * c, r * s))) - t

        vals = u.value(np.stack([rr * c, rr * s], axis=-1)) - t
        j = np.nonzero(vals[:-1] * vals[1:] <= 0)[0]
        if j.size:
            r0 = brentq(ray, rr[j[0]], rr[j[0] + 1], xtol=1e-13)
            return np.array([r0 * c, r0 * s])
    raise DomainError(f"level {t} not found in the chart annulus")


def _project_to_level(u, t, pts, span, max_iter=8):
    pts = pts.copy()
    for _ in range(max_iter):
        j = u.jet(pts, 1)
        res = j.value - t
        if np.all(np.abs(res) <= 0.01 * _LEVEL_TOL_FRAC * span):
            break
        q = j.grad[:, 0] ** 2 + j.grad[:, 1] ** 2
        if np.any(q < CRITICAL_GRAD**2):
            raise CriticalPointError("level projection hit a critical point")
        pts -= (res / q)[:, None] * j.grad
    return pts


def _trace_level_curve(u, chart, t, n_samples):
    span = max(1.0, abs(t))
    p0 = _seed_on_level(u, chart, t)
    ds = 2.0 * np.pi * np.hypot(*p0) / max(1024, 2 * n_samples)
    max_steps = 300000

    def tangent(p):
        g = u.jet(p[None, :], 1).grad[0]
        n = np.hypot(g[0], g[1])
        if n < CRITICAL_GRAD:
            raise CriticalPointError(f"|grad u| < {CRITICAL_GRAD:g} while tracing")
        return np.array([g[1], -g[0]]) / n

    def in_domain(p):
        r = np.hypot(p[0], p[1])
        return chart.inner_radius <= r <= chart.outer_radius

    pts = [p0]
    p = p0
    for step in range(max_steps):
        k1 = tangent(p)
        k2 = tangent(p + 0.5 * ds * k1)
        k3 = tangent(p + 0.5 * ds * k2)
        k4 = tangent(p + ds * k3)
        p = p + (ds / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if not in_domain(p):
            raise TopologyError("level curve left the chart annulus (open level)")
        p = _project_to_level(u, t, p[None, :], span)[0]
        if step > 10 and np.hypot(*(p - p0)) < 1.5 * ds:
            break
        pts.append(p)
    else:
        raise TopologyError("level tracing did not close up")

    raw = np.array(pts)
    seg = np.hypot(*np.diff(np.vstack([raw, raw[:1]]), axis=0).T)
    sigma = np.concatenate([[0.0], np.cumsum(seg)])
    total = sigma[-1]
    closed = np.vstack([raw, raw[:1]])
    sx = CubicSpline(sigma, closed[:, 0], bc_type="periodic")
    sy = CubicSpline(sigma, closed[:, 1], bc_type="periodic")
    s_new = np.arange(n_samples) * (total / n_samples)
    resampled = np.stack([sx(s_new), sy(s_new)], axis=-1)
    resampled = _project_to_level(u, t, resampled, span)
    res = np.abs(u.jet(resampled, 0).value - t)
    if np.any(res > _LEVEL_TOL_FRAC * span):
        raise TopologyError("level projection failed to reach the requested tolerance")
    rolled = np.vstack([resampled[1:], resampled[:1]])
    chords_fwd = np.hypot(*(rolled - resampled).T)
    w = 0.5 * (chords_fwd + np.roll(chords_fwd, 1))
    return LevelCurve(t, resampled, w)


# ---------------------------------------------------------------------------
# length and derivative integrands
# ---------------------------------------------------------------------------

def length(curve: LevelCurve, chart) -> float:
    """Metric length of a sampled curve: sum of e^phi (or w(t)) weights."""
    if chart.kind == "warped":
        w, = chart.warp_jet(curve.points[:1, 0], 0)
        return float(w[0] * np.sum(curve.weights))
    pts = curve.points
    near = _near_singular(chart, pts)
    if near:
        return _singular_circle_length(chart, curve)
    phi = chart.factor.jet(pts, 0).value
    return float(np.sum(np.exp(phi) * curve.weights))


def _near_singular(chart, pts) -> bool:
    for q in chart.singular_points:
        if np.min(np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])) < 1e-6:
            return True
    return False


def _singular_circle_length(chart, curve) -> float:
    """Adaptive escalation for circles through/near a singular factor point;
    a capped integral keeps its finest-level value and is logged as a
    warning."""
    r = np.hypot(*curve.points[0])
    if not np.allclose(np.hypot(curve.points[:, 0], curve.points[:, 1]), r,
                       rtol=1e-9, atol=1e-12):
        raise SingularPointError(
            "curve passes near a singular point and is not a circle; "
            "adaptive escalation supports circles only")
    sing = [q for q in chart.singular_points]
    angles = [np.arctan2(q[1], q[0]) for q in sing
              if abs(np.hypot(*q) - r) < 1e-3 * max(1.0, r)]

    def log_f(th, _anchor, _delta, _rows):
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        return chart.factor.jet(pts, 0).value[None, :]

    (val,), (capped,) = segmented_circle_integral(log_f, angles)
    if not np.isfinite(val):
        raise SolverError("circle integral diverged (non-integrable singularity?)")
    if capped:
        logger.warning("singular circle length at r = %r used every refinement "
                       "level without reaching the rule's rel_tol; finest-level "
                       "value kept", float(r))
    return r * float(val)


def _level_integrands(u, chart, pts):
    """Per-point (length element, I1, I2, Iaux): e^phi (or w) and the L',
    L'' and 1/|grad u|^2 integrands, without the chart's domain check."""
    geo = _geometry(u, chart, pts)
    G = geo.G
    return (geo.level_weight, -geo.pairing_G / G**3,
            geo.grad_G_sq / G**4 - geo.K / G**2, 1.0 / G**2)


def _radial_fast_path(u, chart, method) -> bool:
    """Whether the integrands are constant on every level circle."""
    if chart.kind == "warped":
        return True
    return (method == "auto" and u.radial and chart.factor.radial
            and not chart.singular_points)


def _radial_level_values(u, chart, r):
    """(L, Lp, Lpp, aux) arrays at the radial levels with radial coordinates r,
    all evaluated in one batched call."""
    pts = np.stack([r, np.zeros_like(r)], axis=-1)
    weight, i1, i2, iaux = _level_integrands(u, chart, pts)
    L = 2.0 * np.pi * weight if chart.kind == "warped" else 2.0 * np.pi * r * weight
    return L, i1 * L, i2 * L, iaux * L


def _curve_level_values(u, chart, curve):
    """(L, Lp, Lpp, aux) by quadrature over a sampled level curve."""
    e_phi, i1, i2, iaux = _level_integrands(u, chart, curve.points)
    dh1 = e_phi * curve.weights
    L = float(np.sum(dh1))
    return (L, float(np.sum(i1 * dh1)), float(np.sum(i2 * dh1)),
            float(np.sum(iaux * dh1)))


def _levels_values(u, chart, ts, n_samples=512, method="auto"):
    """(L, Lp, Lpp, aux) arrays at every level in ``ts``.

    On the radial fast path all levels are located in one batched solve and
    integrated in one batched call; other levels are extracted and
    integrated one at a time.
    """
    ts = np.asarray(ts, dtype=float)
    if _radial_fast_path(u, chart, method):
        return _radial_level_values(u, chart, _level_radii(u, chart, ts))
    rows = [_curve_level_values(u, chart, extract_level_curve(u, chart, t, n_samples))
            for t in ts]
    return tuple(np.array(col) for col in zip(*rows))


def _level_values(u, chart, t, n_samples=512, method="auto"):
    """(L, Lp, Lpp, aux) at one level via the fast radial path or quadrature."""
    return tuple(float(v[0]) for v in _levels_values(u, chart, [t], n_samples, method))


def _checked_level_values(u, chart, t, n_samples, precondition):
    """(L, Lp, Lpp, aux) at one level, after ``precondition`` has accepted
    the curvature sampled on it; the level is located once for both."""
    n_check = max(64, min(n_samples, 512))
    if u.radial:
        _check_level_inside(u, chart, t)
        r = level_radius(u, chart, t)
        curve = _circle_curve(chart, t, r, n_check)
    else:
        curve = extract_level_curve(u, chart, t, n_check)
    precondition(chart.gauss_curvature(curve.points))
    if _radial_fast_path(u, chart, "auto"):
        return tuple(float(v[0]) for v in _radial_level_values(u, chart, np.array([r])))
    if n_check != n_samples:
        curve = (_circle_curve(chart, t, r, n_samples) if u.radial
                 else extract_level_curve(u, chart, t, n_samples))
    return _curve_level_values(u, chart, curve)


def dlength_integral(u, chart, t, n_samples: int = 512, method: str = "auto") -> float:
    """L'(t) from the level-curve integral formula."""
    return _level_values(u, chart, t, n_samples, method)[1]


def d2length_integral(u, chart, t, n_samples: int = 512, method: str = "auto") -> float:
    """L''(t) from the level-curve integral formula."""
    return _level_values(u, chart, t, n_samples, method)[2]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass
class LengthProfile:
    """Table of L and its derivatives over a grid of level values.

    ``Lp``/``Lpp`` come from the integral formulas on smooth charts
    (``derivative_mode='integral'``) or coincide with the finite-difference
    columns for singular-factor profiles (``derivative_mode='grid_fd'``).
    """

    t_grid: np.ndarray
    L: np.ndarray
    Lp: np.ndarray
    Lpp: np.ndarray
    lnL_pp: np.ndarray
    L_fd_p: np.ndarray
    L_fd_pp: np.ndarray
    aux_invgrad2: np.ndarray
    derivative_mode: str = "integral"
    meta: dict = field(default_factory=dict)

    def to_csv(self, path) -> None:
        """Fixed column order, 17 significant digits, LF line endings."""
        cols = [getattr(self, "t_grid" if c == "t" else c).tolist() for c in CSV_COLUMNS]
        row = ",".join(["%.17g"] * len(CSV_COLUMNS)) + "\n"
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n"
                     + "".join(row % values for values in zip(*cols)))


def inset_grid(t1: float, t2: float, n: int, inset_frac: float = 1e-3) -> np.ndarray:
    """Uniform ascending level grid inset from the boundary values."""
    lo, hi = min(t1, t2), max(t1, t2)
    inset = inset_frac * (hi - lo)
    return np.linspace(lo + inset, hi - inset, n)


def length_profile(u, chart, t_grid: Sequence[float], n_samples: int = 512,
                   method: str = "auto", fd_step: float | None = None) -> LengthProfile:
    """LengthProfile over ``t_grid`` with integral and finite-difference
    derivative columns (cross-check step defaults to 1e-3 of the grid span).

    On the radial fast path the levels t and t +- step are located in one
    batched solve per profile; a row depends only on its own level and the
    step, so profiles over pieces of a grid concatenate to the whole one.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 8:
        raise DomainError("profile grid needs at least 8 levels")
    bv = boundary_values(u, chart)
    if bv is not None:
        lo, hi = min(bv), max(bv)
        if t_grid.min() <= lo or t_grid.max() >= hi:
            raise DomainError("profile grid must lie strictly inside the boundary values")
    h = fd_step if fd_step is not None else 1e-3 * (t_grid.max() - t_grid.min())
    levels = np.concatenate([t_grid, t_grid + h, t_grid - h])
    L3, Lp, Lpp, aux = _levels_values(u, chart, levels, n_samples, method)
    L, Lplus, Lminus = np.split(L3, 3)
    Lp, Lpp, aux = (col[:t_grid.size] for col in (Lp, Lpp, aux))
    L_fd_p = (Lplus - Lminus) / (2.0 * h)
    L_fd_pp = (Lplus - 2.0 * L + Lminus) / h**2
    lnL_pp = (Lpp * L - Lp**2) / L**2
    return LengthProfile(t_grid, L, Lp, Lpp, lnL_pp, L_fd_p, L_fd_pp, aux,
                         meta={"n_samples": n_samples, "method": method, "fd_step": h})


# ---------------------------------------------------------------------------
# convexity and bound checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvexityReport:
    min_lnL_pp: float
    argmin_t: float
    min_discrete: float
    argmin_t_discrete: float
    tolerance: float
    passed: bool


def second_divided_differences(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Twice the second divided difference at interior nodes.

    Nonnegative for convex data on any (possibly non-uniform) grid; reduces
    to the centered second difference on uniform grids.
    """
    hp = t[2:] - t[1:-1]
    hm = t[1:-1] - t[:-2]
    return 2.0 * ((f[2:] - f[1:-1]) / hp - (f[1:-1] - f[:-2]) / hm) / (hp + hm)


def log_convexity_check(profile: LengthProfile, tolerance: float = 1e-8
                        ) -> ConvexityReport:
    """Pass iff both the smooth (ln L)'' column and the discrete second
    difference of ln L stay above -tolerance.

    For ``grid_fd`` profiles (singular factors) only the discrete measure
    gates the verdict: L'' genuinely blows up at a level through a cone
    point, so the column value there is not a convexity measure, while the
    discrete second difference of a convex ln L is nonnegative on any grid.
    """
    t = profile.t_grid
    if t.size < 8:
        raise DomainError("convexity check needs at least 8 levels")
    i = int(np.argmin(profile.lnL_pp))
    d2 = second_divided_differences(t, np.log(profile.L))
    j = int(np.argmin(d2))
    passed = bool(d2[j] >= -tolerance)
    if profile.derivative_mode != "grid_fd":
        passed = passed and bool(profile.lnL_pp[i] >= -tolerance)
    return ConvexityReport(float(profile.lnL_pp[i]), float(t[i]),
                           float(d2[j]), float(t[j + 1]), tolerance, passed)


def sharp_bound_gap(u, chart, t, kappa: float, n_samples: int = 512,
                    tol: float = 1e-10) -> float:
    """(ln L)''(t) + (kappa / L) * integral of |grad u|^-2, for K <= kappa <= 0.

    The curvature bound is checked by sampling the level; violation raises.
    Equality (gap ~ 0) is attained on constant-curvature charts.
    """
    if kappa > 0:
        raise DomainError("kappa must be <= 0")

    def precondition(K):
        if np.max(K) > kappa + tol * max(1.0, abs(kappa)):
            raise PreconditionError(
                f"curvature bound violated on the level: max K = {np.max(K):.6g} > "
                f"kappa = {kappa:.6g}")

    L, Lp, Lpp, aux = _checked_level_values(u, chart, t, n_samples, precondition)
    return (Lpp * L - Lp**2) / L**2 + kappa * aux / L


def pinched_bound_check(u, chart, t, kappa1: float, kappa2: float,
                        n_samples: int = 512, tol: float = 1e-10) -> float:
    """(ln L)''(t) - (kappa2/kappa1) / t^2 under -kappa1 <= K <= -kappa2 <= 0.

    Requires positive level values (u > 0); preconditions are sampled on the
    level and violations raise.
    """
    if not (kappa1 >= kappa2 >= 0):
        raise DomainError("need kappa1 >= kappa2 >= 0")
    if t <= 0:
        raise PreconditionError("the bound needs positive level values")

    def precondition(K):
        if np.max(K) > -kappa2 + tol or np.min(K) < -kappa1 - tol:
            raise PreconditionError(
                "pinching -kappa1 <= K <= -kappa2 violated on the level")

    L, Lp, Lpp, _ = _checked_level_values(u, chart, t, n_samples, precondition)
    return (Lpp * L - Lp**2) / L**2 - (kappa2 / kappa1) / t**2


def asymptotic_defect(factor, t, n_samples: int = 2048) -> float:
    """e^{4t} (L L'' - (L')^2) for u = -ln|z| on a punctured-disc chart.

    Requires the normalisation phi(0) = 0, grad phi(0) = 0; as t grows the
    value converges to -4 pi^2 K(0).
    """
    j0 = factor.jet(np.array([[0.0, 0.0]]), 1)
    if abs(j0.value[0]) > 1e-12 or np.max(np.abs(j0.grad[0])) > 1e-12:
        raise NormalizationError(
            "factor must satisfy phi(0) = 0 and grad phi(0) = 0")
    chart = ConformalChart(factor, inner_radius=0.0, outer_radius=None)
    u = catalog_field("log", c=-1.0)
    L, Lp, Lpp, _ = _level_values(u, chart, t, n_samples,
                                  method="auto" if factor.radial else "quadrature")
    return float(np.exp(4.0 * t) * (L * Lpp - Lp**2))
