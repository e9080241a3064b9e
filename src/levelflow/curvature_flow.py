"""Curvature of level curves and steepest descent, with PDE residual checks.

With k = -div(grad u / |grad u|) (level-curve curvature) and
h = -div((u_2, -u_1) / |grad u|) (steepest-descent curvature, written in an
oriented orthonormal frame), a harmonic u without critical points satisfies

    lap(k/|grad u|) + 2 K k/|grad u| = <grad K, grad u> / |grad u|^2,
    lap(h/|grad u|) + 2 K h/|grad u| = <grad K, star grad u> / |grad u|^2,

and, wherever k != 0 (resp. h != 0), the exact gap identities

    -lap ln|k| - K + <grad K, grad u/|grad u|> / k = |grad p|^2 / p^2,
    -lap ln|h| - K + <grad K, star grad u/|grad u|> / h = |grad q|^2 / q^2,

with p = k/|grad u| and q = h/|grad u|.  The signed k (resp. h) in the
pairing term is what makes the identity exact; taking absolute values still
yields the one-sided inequality.  The star rotation is pinned so that
star grad u = (u_2, -u_1): for the flat local branch of u = arg z it gives
h = -1/r (steepest-descent circles), and h(Im f) = k(Re f) for holomorphic f.
The sign of the star pairing above is itself pinned numerically (variable-
curvature chart with non-radial u); with this star convention the h-equation
carries the same pairing sign as the k-equation.

Every pointwise quantity (k, h, |grad u|, K, grad K, both pairings) comes
from one :func:`~levelflow.charts.local_geometry` per point batch: a single
jet of u and of the chart's factor or warp.  A principle audit takes one
over its interior and boundary grids together, with one point per grid
circle where the geometry is constant on circles (a field radial on a
warped chart, or on a smooth conformal chart radial in |z|).

Outer Laplacians and gradients of derived fields (k/|grad u|, ln|k|, ...)
use central differences with step 1e-3 and one Richardson level.  The PDE
residuals and gaps take a point or a batch of points, and evaluate every
stencil of the batch (centre, +-h/2 and +-h points) in one geometry; the
inner pointwise evaluations are closed-form, which keeps the noise at the
documented tol_fd = 1e-4 * (1 + |field|) level.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .charts import _circle_points, _constant_on_circles, local_geometry
from .errors import DomainError, LevelFlowError, PreconditionError
from .fields import as_points
from .levelsets import LengthProfile, _level_values, _screen_levels

AUDIT_QUANTITIES = ("k", "h", "phi_k", "phi_h", "ln_abs_k", "ln_abs_h")


# ---------------------------------------------------------------------------
# pointwise curvatures
# ---------------------------------------------------------------------------

def level_curvature_k(u, chart, p):
    """Geodesic curvature of the level curve through p."""
    _, single = as_points(p)
    k = local_geometry(u, chart, p).k
    return float(k[0]) if single else k


def steepest_descent_curvature_h(u, chart, p):
    """Geodesic curvature of the steepest-descent line through p."""
    _, single = as_points(p)
    h = local_geometry(u, chart, p).h
    return float(h[0]) if single else h


@dataclass(frozen=True)
class CurvatureSample:
    p: tuple
    k: float
    h: float
    gradnorm: float
    phi_k: float
    phi_h: float
    K: float
    gradK: np.ndarray


def curvature_sample(u, chart, p) -> CurvatureSample:
    g = local_geometry(u, chart, p)
    k, h, G = g.k[0], g.h[0], g.G[0]
    return CurvatureSample(tuple(np.asarray(g.pts[0])), float(k), float(h), float(G),
                           float(k / G), float(h / G), float(g.K[0]), g.gradK[0])


# ---------------------------------------------------------------------------
# finite-difference outer derivatives
# ---------------------------------------------------------------------------
# A stencil is p, then p +- h e_x and p +- h e_y for each step h: (h/2, h)
# with Richardson extrapolation, (h,) without.  The operators take values on
# stencils along the last axis, one stencil per leading index.

def _steps(step, richardson):
    return (step / 2.0, step) if richardson else (step,)


def _stencil(pts, steps):
    """The stencils around the (n, 2) points, stacked point by point."""
    rows = [pts]
    for h in steps:
        rows += [pts + (h, 0), pts - (h, 0), pts + (0, h), pts - (0, h)]
    return np.stack(rows, axis=1).reshape(-1, 2)


def _richardson(diff, steps):
    if len(steps) == 1:
        return diff(0, steps[0])
    return (4.0 * diff(0, steps[0]) - diff(1, steps[1])) / 3.0


def _lap0(v, steps):
    def lap(i, h):
        a = v[..., 1 + 4 * i:]
        return (a[..., 0] + a[..., 1] + a[..., 2] + a[..., 3] - 4.0 * v[..., 0]) / h**2
    return _richardson(lap, steps)


def _grad0(v, steps):
    def grad(i, h):
        a = v[..., 1 + 4 * i:]
        return np.stack([a[..., 0] - a[..., 1], a[..., 2] - a[..., 3]], axis=-1) / (2.0 * h)
    return _richardson(grad, steps)


def _metric_lap(v, steps, kind, weight):
    """Metric Laplacian at the centre; ``weight`` is e^{-2 phi} there
    (conformal) or w'/w (warped, radial fields: f'' + (w'/w) f')."""
    if kind == "conformal":
        return weight * _lap0(v, steps)

    def d2(i, h):
        a = v[..., 1 + 4 * i:]
        return (a[..., 0] - 2.0 * v[..., 0] + a[..., 1]) / h**2
    return _richardson(d2, steps) + weight * _grad0(v, steps)[..., 0]


def fd_laplacian0(f, p, step: float, richardson: bool = True) -> float:
    """Coordinate 5-point Laplacian of a pointwise field at p."""
    steps = _steps(step, richardson)
    return float(_lap0(f(_stencil(np.array([p], dtype=float), steps)), steps))


def fd_gradient0(f, p, step: float, richardson: bool = True) -> np.ndarray:
    steps = _steps(step, richardson)
    return _grad0(f(_stencil(np.array([p], dtype=float), steps)), steps)


def metric_laplacian_fd(f, chart, p, step: float = 1e-3,
                        richardson: bool = True) -> float:
    """Metric Laplacian of a pointwise-evaluable field by central differences."""
    p = np.asarray(p, dtype=float)
    if chart.kind == "conformal":
        weight = np.exp(-2.0 * chart.factor.value(p))
    else:
        w, w1 = chart.warp_jet(p[:1], 1)
        weight = w1[0] / w[0]
    steps = _steps(step, richardson)
    return float(_metric_lap(f(_stencil(p[None], steps)), steps, chart.kind, weight))


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

# the log identities need |k| (or |h|) at least this large at their point
ZERO_CURV = 1e-6

_NONZERO = {"k": "level-curvature log inequality needs k != 0",
            "h": "steepest-descent log inequality needs h != 0"}


def _require_nonzero(geo, curvature, m=1):
    """Raise where ``curvature`` is below ZERO_CURV on a row 0, m, 2m, ..."""
    if curvature is not None and np.any(np.abs(getattr(geo, curvature)[::m]) < ZERO_CURV):
        raise PreconditionError(_NONZERO[curvature])


def _stencil_geometry(u, chart, p, step, richardson, nonzero=None):
    """(one geometry over the stencils of the points p, the steps, the
    stencil size m, whether p is a single point).  Point i's stencil is rows
    i*m .. i*m + m - 1, its centre first.

    ``nonzero`` names the curvature ("k" or "h") a log identity divides by.
    A point's own errors (domain, critical point, then that curvature below
    ZERO_CURV) come before those of the rest of its stencil, and an earlier
    point's before a later one's.
    """
    pts, single = as_points(p)
    steps = _steps(step, richardson)
    m = 1 + 4 * len(steps)
    try:
        geo = local_geometry(u, chart, _stencil(chart.check_points(pts), steps))
    except LevelFlowError:
        if len(pts) == 1:
            _require_nonzero(local_geometry(u, chart, pts), nonzero)
        else:
            for q in pts:
                _stencil_geometry(u, chart, q, step, richardson, nonzero)
        raise
    # every stencil succeeded, so the first centre under the floor is the
    # first failing point
    _require_nonzero(geo, nonzero, m)
    return geo, steps, m, single


def _pde1(u, chart, p, step, richardson, star):
    geo, steps, m, single = _stencil_geometry(u, chart, p, step, richardson)
    ratio = ((geo.h if star else geo.k) / geo.G).reshape(-1, m)
    rhs = (geo.pairing_star if star else geo.pairing)[::m]
    lap = _metric_lap(ratio, steps, chart.kind, geo.lap_weight[::m])
    out = lap + 2.0 * geo.K[::m] * ratio[:, 0] - rhs
    return float(out[0]) if single else out


def pde1_residual(u, chart, p, step: float = 1e-3, richardson: bool = True):
    """Residual of lap(k/|grad u|) + 2 K k/|grad u| - <grad K, grad u>/|grad u|^2.

    A float at a single point p; an array at an (n, 2) batch, each row equal
    to the single-point call.  A batch raises the error of its first failing
    point in input order.
    """
    return _pde1(u, chart, p, step, richardson, star=False)


def pde1_star_residual(u, chart, p, step: float = 1e-3, richardson: bool = True):
    """Residual of lap(h/|grad u|) + 2 K h/|grad u| - <grad K, star grad u>/|grad u|^2.

    Batches as :func:`pde1_residual` does.
    """
    return _pde1(u, chart, p, step, richardson, star=True)


def _log_gap(u, chart, p, step, richardson, curvature):
    geo, steps, m, single = _stencil_geometry(u, chart, p, step, richardson, curvature)
    c = getattr(geo, curvature)
    rhs = (geo.pairing if curvature == "k" else geo.pairing_star)[::m]
    weight = geo.lap_weight[::m]
    lap = _metric_lap(np.log(np.abs(c)).reshape(-1, m), steps, chart.kind, weight)
    gap = -lap - geo.K[::m] + rhs * geo.G[::m] / c[::m]
    theo = _theoretical_gap((c / geo.G).reshape(-1, m), steps, chart.kind, weight)
    return (float(gap[0]), float(theo[0])) if single else (gap, theo)


def pde2_gap(u, chart, p, step: float = 1e-3, richardson: bool = True):
    """(gap, theoretical_gap) for the level-curvature log inequality.

    gap = -lap ln|k| - K + <grad K, grad u/|grad u|> / k  (signed k), and
    theoretical_gap = |grad(k/|grad u|)|^2 / (k/|grad u|)^2; the two agree
    to finite-difference accuracy and are nonnegative.  Raises
    :class:`PreconditionError` where |k| < ZERO_CURV at p.  A pair of floats
    at a single point p; a pair of arrays at an (n, 2) batch, each row equal
    to the single-point call.  A batch raises the error of its first failing
    point in input order.
    """
    return _log_gap(u, chart, p, step, richardson, "k")


def pde2_star_gap(u, chart, p, step: float = 1e-3, richardson: bool = True):
    """(gap, theoretical_gap) for the steepest-descent log inequality.

    gap = -lap ln|h| - K + <grad K, star grad u/|grad u|> / h (signed h).
    Raises :class:`PreconditionError` where |h| < ZERO_CURV at p, and
    batches as :func:`pde2_gap` does.
    """
    return _log_gap(u, chart, p, step, richardson, "h")


def _theoretical_gap(ratio, steps, kind, weight):
    """|grad p|^2 / p^2 at the centres, from p's values on the stencils."""
    grad0 = _grad0(ratio, steps)
    if kind == "conformal":
        # matmul takes each row's dot in BLAS, as g @ g does for one point;
        # g_x**2 + g_y**2 rounds differently in the last bit
        grad_sq = weight * np.matmul(grad0[:, None, :], grad0[:, :, None])[:, 0, 0]
    else:
        grad_sq = grad0[:, 0] ** 2
    return grad_sq / ratio[:, 0] ** 2


# ---------------------------------------------------------------------------
# maximum / minimum principle audits
# ---------------------------------------------------------------------------

AUDIT_CASES = {
    # claim: the stated extremum, when its side condition holds, is attained
    # on the boundary; hypothesis signs are (K, pairing) with the pairing
    # <grad K, grad u> for k-quantities and <grad K, -star grad u> for
    # h-quantities.
    "max_on_boundary_nonpos_K": {"kind": "max", "K": "nonpos", "pairing": "nonneg",
                                 "side": "nonneg"},
    "min_on_boundary_nonpos_K": {"kind": "min", "K": "nonpos", "pairing": "nonpos",
                                 "side": "nonpos"},
    "max_on_boundary_nonneg_K": {"kind": "max", "K": "nonneg", "pairing": "nonneg",
                                 "side": "nonpos"},
    "min_on_boundary_nonneg_K": {"kind": "min", "K": "nonneg", "pairing": "nonpos",
                                 "side": "nonneg"},
    # |k| (or |h|) attains its minimum on the boundary when K >= 0 and the
    # relevant pairing has the stated sign (for h the raw star pairing >= 0)
    "min_abs_on_boundary": {"kind": "min", "K": "nonneg", "pairing": "nonpos"},
    # an interior minimum of nonconstant k (or h) forces value <= |grad K|/K
    "interior_min_curvature_bound": {"kind": "min"},
}


@dataclass
class PrincipleAuditReport:
    quantity: str
    case: str
    hypothesis_flags: dict
    interior_extremum: tuple          # ((x, y), value)
    boundary_extremum: tuple
    verdict: str
    notes: str = ""
    tolerance: float = 0.0

    def to_json(self) -> str:
        doc = {
            "quantity": self.quantity,
            "case": self.case,
            "hypothesis_flags": self.hypothesis_flags,
            "interior_extremum": {"point": list(self.interior_extremum[0]),
                                  "value": self.interior_extremum[1]},
            "boundary_extremum": {"point": list(self.boundary_extremum[0]),
                                  "value": self.boundary_extremum[1]},
            "verdict": self.verdict,
            "notes": self.notes,
            "tolerance": self.tolerance,
        }
        return json.dumps(doc, indent=2)


def _audit_values(geo, quantity):
    c = getattr(geo, quantity[-1])  # the last letter names the curvature
    if quantity.startswith("phi"):
        return c / geo.G
    if quantity.startswith("ln_abs"):
        # a zero curvature gives -inf, which the caller reports as non-finite
        with np.errstate(divide="ignore"):
            return np.log(np.abs(c))
    return c


def _audit_geometry(u, chart, domain_spec, n_interior, n_boundary):
    """(geometry, number of interior rows, grid spacing) of the audit grids:
    nr circles of nt points, n_interior = (nr, nt), strictly inside the
    radial range ``domain_spec``, radius-major, then n_boundary points on
    each of its two ends.  Where the geometry is constant on circles
    (:func:`~levelflow.charts._constant_on_circles`) each circle is one
    row, its point at theta = 0; otherwise every grid point is a row."""
    lo, hi = float(domain_spec[0]), float(domain_spec[1])
    if not hi > lo:
        raise DomainError("domain_spec must be (lo, hi) with lo < hi")
    nr, nt = n_interior
    if nr < 2 or nt < 2 or n_boundary < 1:
        raise DomainError("audit grids need n_interior >= (2, 2) and n_boundary >= 1")
    spacing = max((hi - lo) / (nr + 1), (2.0 * np.pi / nt) * (hi if chart.kind == "conformal" else 1.0))
    per_interior, per_boundary = (1, 1) if _constant_on_circles(u, chart) else (nt, n_boundary)
    pts = np.concatenate([
        _circle_points(chart, np.linspace(lo, hi, nr + 2)[1:-1], per_interior)[0].reshape(-1, 2),
        _circle_points(chart, np.array([lo, hi]), per_boundary)[0].reshape(-1, 2)])
    return local_geometry(u, chart, pts), nr * per_interior, spacing


def _sign_flags(vals, slack):
    return {"min": float(np.min(vals)), "max": float(np.max(vals)),
            "nonneg": bool(np.min(vals) >= -slack),
            "nonpos": bool(np.max(vals) <= slack)}


def principle_audit(u, chart, domain_spec, quantity: str, corollary_case: str,
                    n_interior: tuple[int, int] = (256, 256),
                    n_boundary: int = 1024) -> PrincipleAuditReport:
    """Grid audit of a boundary-attainment or interior-bound principle.

    ``domain_spec = (lo, hi)`` bounds the radial coordinate of the audited
    sub-annulus (|z| on conformal charts, t on warped ones); the closure must
    be free of critical points.  The grids are n_interior = (nr, nt): nr
    circles of nt points inside, and n_boundary points on each end circle.
    Where the geometry is constant on circles (a field radial on a warped
    chart, or on a conformal chart whose factor is radial in |z| and has no
    singular points) each circle is evaluated once, at its point theta = 0,
    which is where an extremum on that circle is reported, and the
    difference quotients along the circles are zero.

    The verdict is ``hypotheses_unmet`` when the sampled signs of K and the
    pairing miss the case's; else ``pass`` with a note when the claim is
    vacuous (its side condition fails, or the minimum is attained on the
    boundary); else, for the interior bound, ``hypotheses_unmet`` when
    K <= 0 at the argmin; else ``fail`` when the interior extremum beats the
    boundary one (or |grad K|/K) beyond the grid tolerance, and ``pass``
    otherwise.
    """
    if quantity not in AUDIT_QUANTITIES:
        raise DomainError(f"quantity must be one of {AUDIT_QUANTITIES}")
    if corollary_case not in AUDIT_CASES:
        raise DomainError(f"unknown corollary case {corollary_case!r}")
    rule = AUDIT_CASES[corollary_case]
    nr, nt = n_interior
    geo, n_in, spacing = _audit_geometry(u, chart, domain_spec, n_interior, n_boundary)
    vi, vb = np.split(_audit_values(geo, quantity), [n_in])
    if not (np.all(np.isfinite(vi)) and np.all(np.isfinite(vb))):
        raise DomainError(
            f"audit quantity {quantity!r} is not finite on the sampled domain "
            "(vanishing curvature under a log?)")

    slack = 1e-10 * max(1.0, float(np.max(np.abs(geo.K))))
    flags = {
        "K": _sign_flags(geo.K, slack),
        "pairing_grad_u": _sign_flags(geo.pairing, slack),
        "pairing_star_u": _sign_flags(geo.pairing_star, slack),
    }

    grid_vals = vi.reshape(nr, -1)  # one column per circle if constant on circles
    lip = max(np.max(np.abs(np.diff(grid_vals, axis=0))) / ((domain_spec[1] - domain_spec[0]) / (nr + 1)),
              np.max(np.abs(np.diff(grid_vals, axis=1)), initial=0.0) / (2.0 * np.pi / nt), 1e-30)
    tol = 10.0 * spacing * lip

    want = rule.get("pairing")
    if quantity[-1] == "h":
        # the cases state the h-quantities' pairing for <grad K, -star grad u>
        pairing, want = flags["pairing_star_u"], {"nonneg": "nonpos", "nonpos": "nonneg"}.get(want)
    else:
        pairing = flags["pairing_grad_u"]
    held = want is None or (flags["K"][rule["K"]] and pairing[want])
    if held and corollary_case == "min_abs_on_boundary" and not quantity.startswith("ln_abs"):
        vi, vb = np.abs(vi), np.abs(vb)
    kind, side = rule["kind"], rule.get("side")
    pick = np.argmax if kind == "max" else np.argmin
    ii, bi = int(pick(vi)), int(pick(vb))
    v_in, v_bd = float(vi[ii]), float(vb[bi])

    verdict, notes = "pass", ""
    if not held:
        verdict = "hypotheses_unmet"
    elif corollary_case == "interior_min_curvature_bound":
        Ky = float(geo.K[ii])
        bound = None if Ky <= 0 else float(geo.gradK_norm[ii]) / Ky
        if v_in >= v_bd - tol:
            notes = "minimum attained on the boundary; interior-minimum premise vacuous"
        elif bound is None:
            verdict, notes = ("hypotheses_unmet",
                              "curvature bound |grad K|/K undefined (K <= 0 at the argmin)")
        elif v_in > bound + tol:
            verdict, notes = "fail", f"interior minimum {v_in:.6g} exceeds |grad K|/K = {bound:.6g}"
    elif corollary_case == "min_abs_on_boundary":
        verdict = "fail" if v_in < v_bd - tol else "pass"
    elif not ((v_in >= -tol) if side == "nonneg" else (v_in <= tol)):
        notes = f"side condition ({kind} {side}) not met; claim vacuous"
    elif not ((v_bd >= v_in - tol) if kind == "max" else (v_bd <= v_in + tol)):
        verdict, notes = "fail", "interior extremum exceeds the boundary extremum beyond tolerance"
    return PrincipleAuditReport(quantity, corollary_case, flags,
                                (tuple(geo.pts[ii]), v_in), (tuple(geo.pts[n_in + bi]), v_bd),
                                verdict, notes, tol)


# ---------------------------------------------------------------------------
# slope bound on (ln L)'
# ---------------------------------------------------------------------------

@dataclass
class SlopeBoundReport:
    variant: str
    bound: float
    max_slope: float
    identity_max_err: float
    hypothesis_flags: dict
    tolerance: float
    identity_tolerance: float
    passed: bool
    notes: str = ""


def logL_slope_bound(u, chart, profile: LengthProfile,
                     identity_tolerance: float = 1e-6) -> SlopeBoundReport:
    """Check (ln L)'(t), to 1e-9, against the boundary bound on -k/|grad u|.

    Variant "nonpos_K" (K <= 0, <grad K, grad u> <= 0) bounds the slope by
    max(-inf_boundary k/|grad u|, 0); variant "nonneg_K" (K >= 0,
    <grad K, grad u> <= 0, k >= 0) bounds it by -inf_boundary k/|grad u|,
    audited over the full chart annulus.  Also verifies, per level, the
    identity L'(t) = -integral of (k/|grad u|) over the level curve, on 512
    points per level, to ``identity_tolerance``.  It and the signs, read on
    64 circles of 128 points inside and 1024 points on each boundary circle,
    take one point per circle where the geometry is constant on circles, as
    in :func:`principle_audit`.
    """
    tolerance = 1e-9
    if chart.kind == "conformal":
        lo = chart.inner_radius
        hi = chart.outer_radius
        if hi is None:
            raise DomainError("slope bound needs a bounded chart")
        lo, hi = lo * 1.0000001, hi * 0.9999999
    else:
        span = chart.t_max - chart.t_min
        lo, hi = chart.t_min + 1e-7 * span, chart.t_max - 1e-7 * span
    geo, n_in, _ = _audit_geometry(u, chart, (lo, hi), (64, 128), 1024)
    slack = 1e-10 * max(1.0, float(np.max(np.abs(geo.K))))
    flags = {"K": _sign_flags(geo.K, slack), "pairing_grad_u": _sign_flags(geo.pairing, slack),
             "k": _sign_flags(geo.k, slack)}

    # the representation L'(t) = -integral of k/|grad u| holds with no sign
    # hypotheses; verify it on every level of the profile
    ts = profile.t_grid
    ident = _level_values(u, chart, ts, _screen_levels(u, chart, ts),
                          integrands=lambda g: (g.k / g.G,))[1]
    ident_err = np.max(np.abs(profile.Lp + ident))

    inf_bnd = float(np.min((geo.k / geo.G)[n_in:]))
    if flags["K"]["nonpos"] and flags["pairing_grad_u"]["nonpos"]:
        variant = "nonpos_K"
        bound = max(-inf_bnd, 0.0)
    elif flags["K"]["nonneg"] and flags["pairing_grad_u"]["nonpos"] and flags["k"]["nonneg"]:
        variant = "nonneg_K"
        bound = -inf_bnd
    else:
        return SlopeBoundReport("hypotheses_unmet", np.nan, np.nan, ident_err, flags,
                                tolerance, identity_tolerance,
                                bool(ident_err <= identity_tolerance),
                                "bound check skipped: hypothesis signs not "
                                "satisfied on the sampled domain")

    slopes = profile.Lp / profile.L
    max_slope = float(np.max(slopes))
    passed = bool(max_slope <= bound + tolerance and ident_err <= identity_tolerance)
    note = ("slope bound audited with the full chart annulus as the reference "
            "domain; the second variant's boundary set is taken to be the same "
            "annulus boundary")
    return SlopeBoundReport(variant, bound, max_slope, ident_err, flags,
                            tolerance, identity_tolerance, passed, note)
