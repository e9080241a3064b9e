"""Pointwise differential-identity residuals for harmonic fields.

For a harmonic u on a surface with Gaussian curvature K, away from critical
points:

* refined Kato equality (two dimensions):  |Hess u|^2 = 2 |grad |grad u||^2,
* Bochner identity:  lap(|grad u|^2 / 2) = |Hess u|^2 + K |grad u|^2,
* log-gradient identity:  lap(log |grad u|) = K.

Each residual below is the left side minus the right side, computed with
metric (covariant) quantities expressed in chart coordinates; for exact
harmonic fields with closed-form derivatives the residuals sit at roundoff
level.  The formulas keep the ``grad(lap u)`` terms rather than drop them by
harmonicity, so a field that is not harmonic shows it in the residuals.

The jets of u (to order 3) and of the metric (to order 2: the formulas read
``lap phi`` and ``w''``), and the critical-point test against
``charts.CRITICAL_GRAD``, come from :func:`levelflow.charts.point_jets`.
"""

from __future__ import annotations

import numpy as np

from .charts import point_jets
from .fields import as_points


def _residuals(u, chart, p, *formula_pairs):
    """Each (conformal, warped) formula pair's residual at the domain-checked
    p, all from one :func:`point_jets` evaluation."""
    pts = chart.check_points(p)
    _, single = as_points(p)
    ju, jm = point_jets(u, chart, pts, 3, 2)
    if chart.kind == "conformal":
        q = ju.grad[:, 0] ** 2 + ju.grad[:, 1] ** 2
        outs = [conformal(ju, jm, q) for conformal, _ in formula_pairs]
    else:
        outs = [warped(ju.grad[:, 0], ju.hess[:, 0, 0], ju.third[:, 0], *jm)
                for _, warped in formula_pairs]
    return tuple(float(out[0]) if single else out for out in outs)


def identity_residuals(u, chart, p):
    """(Kato, Bochner, log-gradient residual) at p from one jet pair."""
    return _residuals(u, chart, p, (_kato_conformal, _kato_warped),
                      (_bochner_conformal, _bochner_warped),
                      (_log_gradient_conformal, _log_gradient_warped))


def _covariant_hessian_sq(ju, jp):
    """e^{-4 phi} * sum of squared covariant Hessian entries (conformal)."""
    ux, uy = ju.grad[:, 0], ju.grad[:, 1]
    px, py = jp.grad[:, 0], jp.grad[:, 1]
    a_xx = ju.hess[:, 0, 0] - (px * ux - py * uy)
    a_xy = ju.hess[:, 0, 1] - (py * ux + px * uy)
    a_yy = ju.hess[:, 1, 1] - (-px * ux + py * uy)
    return np.exp(-4.0 * jp.value) * (a_xx**2 + 2.0 * a_xy**2 + a_yy**2)


def _grad_q(ju):
    """Coordinate gradient of q = |grad_0 u|^2 (needs the Hessian)."""
    return 2.0 * np.einsum("nij,nj->ni", ju.hess, ju.grad)


def _lap_q(ju):
    """lap_0 of q = |grad_0 u|^2 (needs third derivatives)."""
    h = ju.hess
    hess_sq = h[:, 0, 0] ** 2 + 2.0 * h[:, 0, 1] ** 2 + h[:, 1, 1] ** 2
    # grad(lap u) = (u_xxx + u_xyy, u_xxy + u_yyy)
    gl = np.stack([ju.third[:, 0] + ju.third[:, 2],
                   ju.third[:, 1] + ju.third[:, 3]], axis=-1)
    return 2.0 * hess_sq + 2.0 * np.einsum("ni,ni->n", ju.grad, gl)


def kato_residual(u, chart, p):
    """|Hess u|^2 - 2 |grad |grad u||^2 in the surface metric."""
    return _residuals(u, chart, p, (_kato_conformal, _kato_warped))[0]


def _kato_conformal(ju, jp, q):
    hess_sq = _covariant_hessian_sq(ju, jp)
    g0 = np.sqrt(q)
    grad_g0 = np.einsum("nij,nj->ni", ju.hess, ju.grad) / g0[:, None]
    # grad of G = e^{-phi} g0, then |grad_g G|^2_g = e^{-2 phi} |grad_0 G|^2
    grad_G = np.exp(-jp.value)[:, None] * (grad_g0 - g0[:, None] * jp.grad)
    grad_G_sq = np.exp(-2.0 * jp.value) * np.einsum("ni,ni->n", grad_G, grad_G)
    return hess_sq - 2.0 * grad_G_sq


def _kato_warped(u1, u2, u3, w, w1, w2):
    # covariant Hessian of radial u: diag entries u'' and (w w') u' g^{theta theta}
    return u2**2 + (u1 * w1 / w) ** 2 - 2.0 * u2**2


def bochner_residual(u, chart, p):
    """lap(|grad u|^2 / 2) - |Hess u|^2 - K |grad u|^2 in the surface metric."""
    return _residuals(u, chart, p, (_bochner_conformal, _bochner_warped))[0]


def _bochner_conformal(ju, jp, q):
    e2 = np.exp(-2.0 * jp.value)
    lap_phi = jp.laplacian()
    grad_phi_sq = jp.grad[:, 0] ** 2 + jp.grad[:, 1] ** 2
    # lap_0(e^{-2 phi} q / 2) expanded by the product rule
    lap_s = 0.5 * (e2 * (4.0 * grad_phi_sq - 2.0 * lap_phi) * q
                   - 4.0 * e2 * np.einsum("ni,ni->n", jp.grad, _grad_q(ju))
                   + e2 * _lap_q(ju))
    K = -e2 * lap_phi
    return e2 * lap_s - _covariant_hessian_sq(ju, jp) - K * e2 * q


def _bochner_warped(u1, u2, u3, w, w1, w2):
    lap_s = u2**2 + u1 * u3 + (w1 / w) * u1 * u2
    hess_sq = u2**2 + (u1 * w1 / w) ** 2
    return lap_s - hess_sq + (w2 / w) * u1**2


def log_gradient_residual(u, chart, p):
    """lap(log |grad u|) - K in the surface metric."""
    return _residuals(u, chart, p, (_log_gradient_conformal, _log_gradient_warped))[0]


def _log_gradient_conformal(ju, jp, q):
    gq = _grad_q(ju)
    gq_sq = gq[:, 0] ** 2 + gq[:, 1] ** 2
    # log G = -phi + log(q)/2; the -lap phi term cancels against K exactly
    return np.exp(-2.0 * jp.value) * 0.5 * (_lap_q(ju) / q - gq_sq / q**2)


def _log_gradient_warped(u1, u2, u3, w, w1, w2):
    return (u3 * u1 - u2**2) / u1**2 + (w1 / w) * (u2 / u1) + w2 / w
