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

:func:`_screen_levels` screens an array of levels (the boundary values read
once, radial levels located in one batched solve).  :func:`_level_points`
stacks the points and weights of all their curves (circles at the located
radii, spectrally accurate; traced curves, second order, traced one at a
time) and :func:`_integrate_levels` integrates them over blocks of whole
levels of at most ``MAX_POINTS`` points.  The exact radial fast path
(:func:`~levelflow.charts._constant_on_circles`) is its one-point case;
its points skip the chart's domain check (the levels t +- h of a profile
may lie just off the chart), those of a sampled curve are checked.
Profiles, bound checks, the integral formulas and the slope identity of
:func:`~levelflow.curvature_flow.logL_slope_bound` read them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .charts import (CRITICAL_GRAD, ConformalChart, _circle_points, _constant_on_circles,
                     _geometry, _radial_on)
from .errors import (CriticalPointError, DomainError, LevelFlowError,
                     NormalizationError, PreconditionError, SingularPointError,
                     SolverError, TopologyError)
from .fields import ScalarField
from .harmonic import _bracketed_newton, catalog_field
from .quadrature import circle_length

CSV_COLUMNS = ("t", "L", "Lp", "Lpp", "lnL_pp", "L_fd_p", "L_fd_pp", "aux_invgrad2")

_LEVEL_TOL_FRAC = 1e-9

#: most points of one geometry evaluation over a set of level curves
MAX_POINTS = 1 << 14


@dataclass(frozen=True)
class LevelCurve:
    """Sampled closed level curve with coordinate arclength weights (in theta
    on warped charts, where the level is a circle t = const)."""

    level: float
    points: np.ndarray   # (n, 2) chart coordinates
    weights: np.ndarray  # (n,) positive, summing to the coordinate length


# ---------------------------------------------------------------------------
# level location and extraction
# ---------------------------------------------------------------------------

def boundary_values(u: ScalarField, chart) -> tuple[float, float] | None:
    """u on the two boundary circles if radial on the chart and the chart
    bounded, else None; raises as :func:`_radial_on` does, before reading u."""
    if not _radial_on(u, chart):
        return None
    if chart.kind == "warped":
        return (float(u.value((chart.t_min, 0.0))), float(u.value((chart.t_max, 0.0))))
    if chart.outer_radius is not None and chart.inner_radius > 0:
        return (float(u.value((chart.inner_radius, 0.0))),
                float(u.value((chart.outer_radius, 0.0))))
    return None


def level_radius(u: ScalarField, chart, t: float) -> float:
    """Radial coordinate of the level {u = t} for a field radial on the chart.

    A level circle outside a bounded chart's annulus raises DomainError
    (with the tolerance of ``check_points``), whether the radius came in
    closed form or from the Newton solve.
    """
    return float(_located_radii(u, chart, np.array([t], dtype=float))[0])


def _located_radii(u, chart, ts):
    """:func:`_level_radii` with :func:`level_radius`'s on-chart check, the
    first level off the chart raising."""
    r = _level_radii(u, chart, ts)
    if chart.kind == "conformal" and chart.outer_radius is not None:
        eps = 1e-12 * max(1.0, chart.outer_radius)
        off = ~((chart.inner_radius - eps <= r) & (r <= chart.outer_radius + eps))
        if off.any():
            raise DomainError(f"no level {ts[off][0]} on the radial section")
    return r


def _level_radii(u, chart, ts, max_iter=60):
    """Radial coordinates of the levels {u = t}, one per entry of ``ts``.

    Fields u = a + b ln|z| invert in closed form.  Otherwise one 256-point
    sweep of the radial section brackets every level and a single batched
    Newton solve polishes all brackets together.
    """
    if not _radial_on(u, chart):
        raise DomainError("level_radius needs a radial field")
    if chart.kind == "warped":
        lo, hi = chart.t_min, chart.t_max
    elif chart.outer_radius is None:
        lo, hi = 1e-8, 1e8
    else:
        lo, hi = chart.inner_radius or 1e-8, chart.outer_radius
    coeffs = u.log_radial_coeffs  # set on fields radial in |z| only
    if coeffs is not None:
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

    def value(r):  # (u, du/dr) at (r, 0)
        j = u.jet(np.stack([r, np.zeros_like(r)], axis=-1), 1)
        return j.value, j.grad[:, 0]

    return _bracketed_newton(value, ts, rr[i], rr[i + 1], vals[np.arange(ts.size), i],
                             max_iter)


def extract_level_curve(u: ScalarField, chart, t: float,
                        n_samples: int = 512) -> LevelCurve:
    """Sampled closed curve on {u = t}.

    Fields radial on the chart use the exact circle sampled uniformly; others
    are traced by a predictor-corrector marcher and resampled.  Hitting a
    critical point raises; a level that runs into the domain boundary raises
    a topology error.
    """
    ts = np.array([t], dtype=float)
    pts, w = _level_points(u, chart, ts, _screen_levels(u, chart, ts), n_samples)
    return LevelCurve(ts[0], pts[0], w[0])


def _screen_levels(u, chart, ts):
    """Radii of the levels ``ts`` (None for u not radial on the chart);
    DomainError for the first level not strictly between u's boundary values,
    as :func:`_radial_on` raises, or for the first level off the chart."""
    bv = boundary_values(u, chart)
    if bv is not None:
        out = ~((min(bv) < ts) & (ts < max(bv)))
        if out.any():
            raise DomainError(f"level {ts[out][0]} not strictly between boundary values {bv}")
    return _located_radii(u, chart, ts) if _radial_on(u, chart) else None


def _level_points(u, chart, ts, radii, n_samples):
    """(m, n_samples, 2) points and (m, n_samples) coordinate arclength
    weights of the m level curves ``ts``: circles at ``radii``, or curves
    traced one at a time and stacked when ``radii`` is None."""
    if n_samples < 8:
        raise DomainError("need at least 8 samples")
    if radii is None:
        curves = [_trace_level_curve(u, chart, t, n_samples) for t in ts]
        return (np.reshape([c.points for c in curves], (-1, n_samples, 2)),
                np.reshape([c.weights for c in curves], (-1, n_samples)))
    return _circle_points(chart, radii, n_samples)


def _seed_on_level(u, chart, t):
    """A point of the level {u = t}: the first sign change of u - t on the
    first of 16 rays from the origin that has one, solved on that ray.  When
    no ray of the 16 has one (a small closed level between two rays), the
    first of a fan of 256 rays that has one."""
    r_lo = chart.inner_radius if chart.inner_radius > 0 else 1e-6
    r_hi = chart.outer_radius
    if r_hi is None:
        raise DomainError("tracing needs a bounded chart")
    rr = np.linspace(r_lo * 1.0001, r_hi * 0.9999, 64)
    for n_rays in (16, 256):
        ang = np.linspace(0.0, 2.0 * np.pi, n_rays, endpoint=False)
        rays = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        vals = u.value((rays[:, None] * rr[:, None]).reshape(-1, 2)).reshape(n_rays, -1) - t
        change = vals[:, :-1] * vals[:, 1:] <= 0
        hit = np.nonzero(change.any(axis=1))[0]
        if hit.size:
            k = hit[0]
            e = rays[k]
            j = np.nonzero(change[k])[0][:1]

            def on_ray(r):  # (u, du/dr) at r e
                jet = u.jet(r[:, None] * e, 1)
                return jet.value, jet.grad @ e

            return _bracketed_newton(on_ray, np.array([t]), rr[j], rr[j + 1], vals[k, j])[0] * e
    raise DomainError(f"level {t} not found in the chart annulus")


def _project_to_level(u, t, pts, max_iter=8):
    """``pts`` moved onto {u = t} by Newton steps along grad u until |u - t|
    <= 1e-11 max(1, |t|); SolverError if that takes more than ``max_iter``."""
    pts = pts.copy()
    tol = 0.01 * _LEVEL_TOL_FRAC * max(1.0, abs(t))
    for _ in range(max_iter):
        j = u.jet(pts, 1)
        res = j.value - t
        if np.all(np.abs(res) <= tol):
            return pts
        q = j.grad[:, 0] ** 2 + j.grad[:, 1] ** 2
        if np.any(q < CRITICAL_GRAD**2):
            raise CriticalPointError("level projection hit a critical point")
        pts -= (res / q)[:, None] * j.grad
    raise SolverError(f"level projection: |u - {t}| > {tol:g} after {max_iter} iterations")


def _trace_level_curve(u, chart, t, n_samples):
    from scipy.interpolate import CubicSpline  # loaded only when a level is traced

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
        p = _project_to_level(u, t, p[None, :])[0]
        if step > 10 and np.hypot(*(p - p0)) < 1.5 * ds:
            break
        pts.append(p)
    else:
        raise TopologyError("level tracing did not close up")

    raw = np.array(pts)
    closed = np.vstack([raw, raw[:1]])
    seg = np.hypot(*np.diff(closed, axis=0).T)
    sigma = np.concatenate([[0.0], np.cumsum(seg)])
    total = sigma[-1]
    sx = CubicSpline(sigma, closed[:, 0], bc_type="periodic")
    sy = CubicSpline(sigma, closed[:, 1], bc_type="periodic")
    s_new = np.arange(n_samples) * (total / n_samples)
    resampled = np.stack([sx(s_new), sy(s_new)], axis=-1)
    resampled = _project_to_level(u, t, resampled)
    chords_fwd = np.hypot(*(np.roll(resampled, -1, axis=0) - resampled).T)
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
    if any(np.min(np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])) < 1e-6
           for q in chart.singular_points):
        return _singular_circle_length(chart, curve)
    phi = chart.factor.jet(pts, 0).value
    return float(np.sum(np.exp(phi) * curve.weights))


def _singular_circle_length(chart, curve) -> float:
    """Adaptive escalation for circles through/near a singular factor point;
    a capped integral keeps its finest-level value and is logged as a
    warning by :func:`~levelflow.quadrature.circle_length`."""
    r = np.hypot(*curve.points[0])
    if not np.allclose(np.hypot(curve.points[:, 0], curve.points[:, 1]), r,
                       rtol=1e-9, atol=1e-12):
        raise SingularPointError(
            "curve passes near a singular point and is not a circle; "
            "adaptive escalation supports circles only")
    angles = [np.arctan2(q[1], q[0]) for q in chart.singular_points
              if abs(np.hypot(*q) - r) < 1e-3 * max(1.0, r)]

    def log_f(th, _anchors, _rows):
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        return chart.factor.jet(pts, 0).value[None, :]

    return circle_length(log_f, angles, r, "singular circle length")


def _integrate_levels(u, chart, pts, weights, integrands, checked=True):
    """(L, the integral of each of ``integrands(geo)``, K_min, K_max) per
    level of the (m, n, 2) points ``pts`` with (m, n) coordinate weights,
    dH^1 = level_weight * weight.  The geometry is evaluated over blocks of
    whole levels (one empty block if m = 0) of at most ``MAX_POINTS`` points
    (one level if it alone has more), each domain-checked first if
    ``checked``; a row depends only on its level."""
    m, n = weights.shape
    step = max(1, MAX_POINTS // n)
    blocks = []
    for i in range(0, max(m, 1), step):
        p = pts[i:i + step].reshape(-1, 2)
        geo = _geometry(u, chart, chart.check_points(p) if checked else p)
        dh1 = geo.level_weight * weights[i:i + step].reshape(-1)
        terms = (dh1, *(f * dh1 for f in integrands(geo)))
        K = geo.K.reshape(-1, n)
        blocks.append(np.array([a.reshape(-1, n).sum(axis=1) for a in terms]
                               + [K.min(axis=1), K.max(axis=1)]))
    return tuple(np.concatenate(blocks, axis=1))


def _level_values(u, chart, ts, radii, n_samples=512, method="auto"):
    """(L, Lp, Lpp, aux, K_min, K_max) arrays, one entry per level of ``ts``
    at ``radii`` (None for u not radial on the chart), from :func:`_integrate_levels`;
    it screens nothing, so callers check their levels first.

    On the radial fast path (integrands and K constant on each level circle)
    a level is the one unchecked point (r, 0) of weight 2 pi r (2 pi on
    warped charts) and ``n_samples`` is ignored; otherwise each curve has
    ``n_samples`` domain-checked points."""
    def integrands(g):  # of L', L'' and 1/|grad u|^2
        return -g.pairing_G / g.G**3, g.grad_G_sq / g.G**4 - g.K / g.G**2, 1.0 / g.G**2

    if _constant_on_circles(u, chart) and (chart.kind == "warped" or method == "auto"):
        return _integrate_levels(u, chart, *_circle_points(chart, radii, 1), integrands,
                                 checked=False)
    return _integrate_levels(u, chart, *_level_points(u, chart, ts, radii, n_samples),
                             integrands)


def _screened_values(u, chart, ts, n_samples=512):
    """:func:`_level_values` at the levels ``ts``, screened by
    :func:`_screen_levels`."""
    return _level_values(u, chart, ts, _screen_levels(u, chart, ts), n_samples)


def _over_levels(t, per_levels):
    """``per_levels(ts)`` at t: a float for a scalar t, else one row per
    level.  An array raises what the scalar call of its first failing level
    raises, found by retrying the levels one at a time."""
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return float(per_levels(ts.reshape(1))[0])
    try:
        return per_levels(ts)
    except LevelFlowError:
        for level in ts:
            per_levels(level.reshape(1))
        raise


def dlength_integral(u, chart, t, n_samples: int = 512):
    """L'(t) from the level-curve integral formula: a float for a scalar t,
    an array for an array of levels, which raises what the scalar call of
    its first failing level raises."""
    return _over_levels(t, lambda ts: _screened_values(u, chart, ts, n_samples)[1])


def d2length_integral(u, chart, t, n_samples: int = 512):
    """L''(t) from the level-curve integral formula, for t as in
    :func:`dlength_integral`."""
    return _over_levels(t, lambda ts: _screened_values(u, chart, ts, n_samples)[2])


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


def inset_grid(t1: float, t2: float, n: int) -> np.ndarray:
    """Uniform ascending level grid inset by 1e-3 of the span from the
    boundary values."""
    lo, hi = min(t1, t2), max(t1, t2)
    inset = 1e-3 * (hi - lo)
    return np.linspace(lo + inset, hi - inset, n)


def length_profile(u, chart, t_grid: Sequence[float], n_samples: int = 512,
                   method: str = "auto", fd_step: float | None = None) -> LengthProfile:
    """LengthProfile over ``t_grid`` with integral and finite-difference
    derivative columns (cross-check step defaults to 1e-3 of the grid span).
    ``n_samples`` < 8 raises :class:`DomainError` on every path, also where
    the radial fast path would not read it.

    The levels t and t +- step go through one :func:`_level_values` call;
    radial levels are located in one batched solve, on either path; a row
    depends only on its own level and the step, so profiles over pieces of
    a grid concatenate to the whole one.  A grid level off the chart raises
    :class:`DomainError`; the t +- step levels are not checked.
    """
    if n_samples < 8:
        raise DomainError("need at least 8 samples")
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 8:
        raise DomainError("profile grid needs at least 8 levels")
    bv = boundary_values(u, chart)
    if bv is not None:
        lo, hi = min(bv), max(bv)
        if t_grid.min() <= lo or t_grid.max() >= hi:
            raise DomainError("profile grid must lie strictly inside the boundary values")
    radial = _radial_on(u, chart)
    if bv is None and radial:
        # radial harmonic fields are monotone in r: the extreme levels
        # bound the rest
        _located_radii(u, chart, np.array([t_grid.min(), t_grid.max()]))
    h = fd_step if fd_step is not None else 1e-3 * (t_grid.max() - t_grid.min())
    levels = np.concatenate([t_grid, t_grid + h, t_grid - h])
    radii = _level_radii(u, chart, levels) if radial else None  # unscreened
    L3, Lp, Lpp, aux, _, _ = _level_values(u, chart, levels, radii, n_samples, method)
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
    The column's minimum skips the NaN rows ``meta["edge_rows"]``, if any.
    """
    t = profile.t_grid
    if t.size < 8:
        raise DomainError("convexity check needs at least 8 levels")
    column = np.array(profile.lnL_pp, dtype=float)
    column[profile.meta.get("edge_rows", [])] = np.inf
    i = int(np.argmin(column))
    d2 = second_divided_differences(t, np.log(profile.L))
    j = int(np.argmin(d2))
    passed = bool(d2[j] >= -tolerance)
    if profile.derivative_mode != "grid_fd":
        passed = passed and bool(profile.lnL_pp[i] >= -tolerance)
    return ConvexityReport(float(profile.lnL_pp[i]), float(t[i]),
                           float(d2[j]), float(t[j + 1]), tolerance, passed)


def sharp_bound_gap(u, chart, t, kappa: float):
    """(ln L)''(t) + (kappa / L) * integral of |grad u|^-2, for K <= kappa <= 0.

    The curvature bound is checked on the level's K; violation raises.
    Equality (gap ~ 0) is attained on constant-curvature charts.  For t as
    in :func:`dlength_integral`.
    """
    if kappa > 0:
        raise DomainError("kappa must be <= 0")
    if not np.isfinite(kappa):
        # NaN passes the sign test, and -inf would make the K <= kappa gate NaN
        raise DomainError(f"kappa must be finite, got {kappa}")

    def gaps(ts):
        L, Lp, Lpp, aux, _, k_max = _screened_values(u, chart, ts)
        over = k_max > kappa + 1e-10 * max(1.0, abs(kappa))
        if over.any():
            raise PreconditionError(
                f"curvature bound violated on the level: max K = {k_max[over][0]:.6g} > "
                f"kappa = {kappa:.6g}")
        # squares through libm pow, as a float64 scalar does: numpy's array
        # square differs from it in about one case in a thousand
        return (Lpp * L - np.float_power(Lp, 2)) / np.float_power(L, 2) + kappa * aux / L

    return _over_levels(t, gaps)


def pinched_bound_check(u, chart, t, kappa1: float, kappa2: float):
    """(ln L)''(t) - (kappa2/kappa1) / t^2 under -kappa1 <= K <= -kappa2 <= 0.

    Requires positive level values (u > 0); the pinching is checked on the
    level's K and violations raise.  For t as in :func:`dlength_integral`.
    """
    if not (kappa1 >= kappa2 >= 0):
        raise DomainError("need kappa1 >= kappa2 >= 0")
    if kappa1 == 0:
        raise DomainError("need kappa1 > 0: the bound divides by kappa1")

    def margins(ts):
        if np.any(ts <= 0):
            raise PreconditionError("the bound needs positive level values")
        L, Lp, Lpp, _, k_min, k_max = _screened_values(u, chart, ts)
        if np.any((k_max > -kappa2 + 1e-10) | (k_min < -kappa1 - 1e-10)):
            raise PreconditionError("pinching -kappa1 <= K <= -kappa2 violated on the level")
        return ((Lpp * L - np.float_power(Lp, 2)) / np.float_power(L, 2)
                - (kappa2 / kappa1) / np.float_power(ts, 2))

    return _over_levels(t, margins)


def asymptotic_defect(factor, t):
    """e^{4t} (L L'' - (L')^2) for u = -ln|z| on a punctured-disc chart.

    Requires the normalisation phi(0) = 0, grad phi(0) = 0; as t grows the
    value converges to -4 pi^2 K(0).  For t as in :func:`dlength_integral`.
    """
    j0 = factor.jet(np.array([[0.0, 0.0]]), 1)
    if abs(j0.value[0]) > 1e-12 or np.max(np.abs(j0.grad[0])) > 1e-12:
        raise NormalizationError(
            "factor must satisfy phi(0) = 0 and grad phi(0) = 0")
    chart = ConformalChart(factor, inner_radius=0.0, outer_radius=None)
    u = catalog_field("log", c=-1.0)

    def defects(ts):
        L, Lp, Lpp = _screened_values(u, chart, ts, 2048)[:3]
        return np.exp(4.0 * ts) * (L * Lpp - np.float_power(Lp, 2))

    return _over_levels(t, defects)
