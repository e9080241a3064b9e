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
applies the critical-point floor ``CRITICAL_GRAD`` that level maps here use.

:func:`_screen_levels` screens an array of levels (the boundary values read
once, radial levels located in one batched solve).  :func:`_level_points`
gives the points and weights of their curves, spectrally accurate: circles
at the located radii, or preimages of circles under a non-radial field's
level map (:class:`~levelflow.fields.LevelMap`), all in one Newton solve.
:func:`_level_values` builds and integrates them over blocks of whole
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
from .quadrature import circle_lengths

CSV_COLUMNS = ("t", "L", "Lp", "Lpp", "lnL_pp", "L_fd_p", "L_fd_pp", "aux_invgrad2")

#: Newton steps a level-map node may take before the solve raises
_LEVEL_MAP_STEPS = 40

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
        ends = [[chart.t_min, 0.0], [chart.t_max, 0.0]]
    elif chart.outer_radius is not None and chart.inner_radius > 0:
        ends = [[chart.inner_radius, 0.0], [chart.outer_radius, 0.0]]
    else:
        return None
    return tuple(float(v) for v in u.value(np.array(ends)))


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

    A field's ``radial_inverse`` gives them in closed form (on a warped chart,
    a radius not in [t_min, t_max] raises as the sweep does).  Otherwise one
    256-point sweep of the radial section brackets every level, a constant u
    raises, and one batched Newton solve polishes all brackets together.
    """
    if not _radial_on(u, chart):
        raise DomainError("level_radius needs a radial field")
    if chart.kind == "warped":
        lo, hi = chart.t_min, chart.t_max
    elif chart.outer_radius is None:
        lo, hi = 1e-8, 1e8
    else:
        lo, hi = chart.inner_radius or 1e-8, chart.outer_radius
    if u.radial_inverse is not None:
        with np.errstate(divide="ignore", invalid="ignore"):  # ln tan off (0, pi)
            r = u.radial_inverse(ts)
        on = (lo <= r) & (r <= hi)
        if chart.kind == "warped" and not on.all():
            raise DomainError(f"no level {ts[~on][0]} on the radial section")
        return r

    rr = np.geomspace(lo, hi, 256) if chart.kind == "conformal" else np.linspace(lo, hi, 256)
    vals = u.value(np.stack([rr, np.zeros_like(rr)], axis=-1))[None, :] - ts[:, None]
    if not vals.any(axis=1).all():
        raise DomainError("constant field has no level curves")
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
    """Sampled closed curve on {u = t}: the exact circle for a field radial
    on the chart, else the preimage of a circle under u's level map, both
    uniform in a periodic parameter; raises as :func:`_level_points` does."""
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


def _level_points(u, chart, ts, radii, n):
    """(m, n, 2) points and (m, n) coordinate arclength weights of the m
    level curves ``ts``: circles at ``radii``, or for ``radii`` None the
    preimages of |E| = e^{t/c} under u's level map E, node k solving
    E(z) = W = e^{t/c} e^{2 pi i k/n} by a complex Newton solve from a + W
    (each node until its step is at most 1e-13 |z - a| + 1e-14 |z|, so no
    node depends on its batch), weighted |W/E'(z)| 2 pi/n.  Raises
    TopologyError for u without a level map (open levels), CriticalPointError
    where |grad u| = |c E'/E| < CRITICAL_GRAD, SolverError for nodes moving
    after ``_LEVEL_MAP_STEPS`` steps, then DomainError for the first level
    wholly off the chart and TopologyError for one partly off it."""
    if n < 8:
        raise DomainError("need at least 8 samples")
    if radii is not None:
        return _circle_points(chart, radii, n)
    lm = u.level_map
    if lm is None:
        raise TopologyError("the field has no level map: its levels are not closed curves")
    with np.errstate(all="ignore"):  # a diverging node ends non-finite and live
        w = (np.exp(ts / lm.c)[:, None] * np.exp(2j * np.pi / n * np.arange(n))).ravel()
        z, live = lm.a + w, np.arange(w.size)
        for _ in range(_LEVEL_MAP_STEPS):
            if not live.size:
                break
            e, de = lm.E(z[live])
            if np.any(np.abs(lm.c * de) < CRITICAL_GRAD * np.abs(e)):
                raise CriticalPointError("level map: |grad u| below the critical floor")
            step = (e - w[live]) / de
            z[live] -= step
            zl = z[live]
            live = live[~(np.abs(step) <= 1e-13 * np.abs(zl - lm.a) + 1e-14 * np.abs(zl))]
    if live.size:
        raise SolverError(f"level map Newton: step above 1e-13 |z - a| after {_LEVEL_MAP_STEPS} "
                          f"steps at levels t = {ts[np.unique(live // n)].tolist()}")
    if chart.outer_radius is not None:
        r = np.abs(z).reshape(-1, n)
        eps = 1e-12 * max(1.0, chart.outer_radius)
        off = (r < chart.inner_radius - eps) | (r > chart.outer_radius + eps)
        if off.any():
            k = np.flatnonzero(off.any(axis=1))[0]
            if off[k].all():
                raise DomainError(f"level {ts[k]} not found in the chart annulus")
            raise TopologyError(f"level {ts[k]} leaves the chart annulus (open level)")
    weights = np.abs(w / lm.E(z)[1]) * (2.0 * np.pi / n)
    return np.stack([z.real, z.imag], axis=-1).reshape(-1, n, 2), weights.reshape(-1, n)


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
    warning by :func:`~levelflow.quadrature.circle_lengths`."""
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

    return float(circle_lengths(log_f, angles, [r], ["singular circle length"])[0][0])


def _derivative_integrands(g):  # of L', L'' and 1/|grad u|^2
    return -g.pairing_G / g.G**3, g.grad_G_sq / g.G**4 - g.K / g.G**2, 1.0 / g.G**2


def _level_values(u, chart, ts, radii, n_samples=512, method="auto",
                  integrands=_derivative_integrands):
    """(L, the integral of each of ``integrands(geo)``, by default Lp, Lpp
    and aux, K_min, K_max) arrays, one entry per level of ``ts`` at ``radii``
    (None for u not radial on the chart), dH^1 = level_weight * weight; it
    screens nothing, so callers check their levels first.

    With ``method="auto"`` on the radial fast path (integrands and K
    constant on each level circle) a level is the one unchecked point (r, 0)
    of weight 2 pi r (2 pi on warped charts) and ``n_samples`` is ignored;
    otherwise, ``method="quadrature"`` on any chart included, each curve has
    the ``n_samples`` domain-checked points of :func:`_level_points`.  Each
    block of whole levels (one empty block if there are none) of at most
    ``MAX_POINTS`` points (one level if it alone has more) builds its points
    and evaluates its geometry in turn; a row depends only on its level."""
    fast = _constant_on_circles(u, chart) and method == "auto"
    n = 1 if fast else n_samples
    step = max(1, MAX_POINTS // max(n, 1))
    blocks = []
    for i in range(0, max(ts.size, 1), step):
        s = slice(i, i + step)
        if fast:
            pts, weights = _circle_points(chart, radii[s], 1)
        else:
            pts, weights = _level_points(u, chart, ts[s], None if radii is None else radii[s], n)
        p = pts.reshape(-1, 2)
        geo = _geometry(u, chart, p if fast else chart.check_points(p))
        dh1 = geo.level_weight * weights.reshape(-1)
        terms = (dh1, *(f * dh1 for f in integrands(geo)))
        K = geo.K.reshape(-1, n)
        blocks.append(np.array([a.reshape(-1, n).sum(axis=1) for a in terms]
                               + [K.min(axis=1), K.max(axis=1)]))
    return tuple(np.concatenate(blocks, axis=1))


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
