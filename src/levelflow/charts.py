"""Coordinate charts, metric data and curvature.

Two chart kinds cover everything in the package:

* :class:`ConformalChart` -- planar coordinates with metric
  ``exp(2*phi) * (dx^2 + dy^2)``, circles |z| = r (``radial = "abs_z"``)
  and Gaussian curvature ``K = -exp(-2*phi) * lap0(phi)``.
* :class:`WarpedChart` -- cylinder coordinates (t, theta) with metric
  ``dt^2 + w(t)^2 dtheta^2``, circles t = const (``radial = "t"``) and
  curvature ``K = -w''(t)/w(t)``; it takes fields of t only, for which the
  Laplacian is exactly ``f'' + (w'/w) f'``.

A field u is radial on a chart when ``u.radial == chart.radial``
(:func:`_radial_on`, the one test of every radial path).  When u is also
radial on a warped chart, or on a conformal chart whose factor is radial in
|z| and has no singular points, every scalar that :func:`local_geometry`
builds is constant on each coordinate circle (:func:`_constant_on_circles`):
level integrals and principle audits then evaluate one point per circle,
at theta = 0.

:func:`point_jets` is the one place that takes the jets of a field u and
of the metric at a point batch, each to the order its caller reads, and
tests for critical points against ``CRITICAL_GRAD``, the package's only
critical-gradient floor.  The identity residuals read u to order 3 and the
metric to order 2; :func:`local_geometry` reads u to order 2 and the metric
to order 3 (for grad K), and builds from them k, h, K, the pairings and the
pieces of the L' and L'' integrands, row by row on both chart kinds.

All objects are immutable after construction and evaluation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import CriticalPointError, DomainError, SingularPointError
from .fields import ScalarField, as_points, constant_field, radial_log_field

SINGULAR_EXCLUSION = 1e-9
CRITICAL_GRAD = 1e-8


class ConformalChart:
    """Annulus (or punctured-disc / unbounded) chart with factor ``phi``.

    ``inner_radius``/``outer_radius`` bound the annulus ``r_in < |z| < r_out``
    centred at the origin; ``outer_radius=None`` disables the bounds check so
    the chart can be used for pointwise identity checks on other domains
    (half-plane factors and the like).
    """

    kind = "conformal"
    radial = "abs_z"

    def __init__(self, factor: ScalarField, inner_radius: float = 1.0,
                 outer_radius: float | None = None):
        if outer_radius is not None:
            if inner_radius < 0 or outer_radius <= inner_radius:
                raise DomainError(
                    f"need 0 <= inner_radius < outer_radius, got "
                    f"({inner_radius}, {outer_radius})")
        self.factor = factor
        self.inner_radius = float(inner_radius)
        self.outer_radius = None if outer_radius is None else float(outer_radius)
        self.singular_points = factor.singular_points

    # -- domain handling ----------------------------------------------------

    def check_points(self, p) -> np.ndarray:
        pts, _ = as_points(p)
        for q in self.singular_points:
            d = np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1])
            if np.any(d < SINGULAR_EXCLUSION):
                raise SingularPointError(
                    f"evaluation within {SINGULAR_EXCLUSION:g} of singular point "
                    f"({q[0]:g}, {q[1]:g})")
        if self.outer_radius is not None:
            r = np.hypot(pts[:, 0], pts[:, 1])
            eps = 1e-12 * max(1.0, self.outer_radius)
            if np.any(r < self.inner_radius - eps) or np.any(r > self.outer_radius + eps):
                raise DomainError("point outside the chart annulus")
        return pts

    # -- metric data ---------------------------------------------------------

    @staticmethod
    def _curvature(j):
        """(e^{-2 phi}, K, grad K) from a jet of the factor phi; grad K
        needs order 3 and is None on a jet of order 2."""
        e2 = np.exp(-2.0 * j.value)
        lap = j.laplacian()
        if j.third is None:
            return e2, -e2 * lap, None
        # d_i lap(phi) from third derivatives: (f_xxx + f_xyy, f_xxy + f_yyy)
        dlap = np.stack([j.third[:, 0] + j.third[:, 2],
                         j.third[:, 1] + j.third[:, 3]], axis=-1)
        return e2, -e2 * lap, e2[:, None] * (2.0 * j.grad * lap[:, None] - dlap)

    def gauss_curvature(self, p):
        pts = self.check_points(p)
        _, single = as_points(p)
        K = self._curvature(self.factor.jet(pts, 2))[1]
        return float(K[0]) if single else K

    def grad_gauss_curvature(self, p):
        pts = self.check_points(p)
        _, single = as_points(p)
        g = self._curvature(self.factor.jet(pts, 3))[2]
        return g[0] if single else g


class WarpedChart:
    """Cylinder chart (t, theta) with metric dt^2 + w(t)^2 dtheta^2.

    ``w(t) = circumference_scale * shape(t)``; the shape is a
    :class:`ScalarField` of t evaluated at points (t, 0), so its derivative table
    provides w', w'', w''' in closed form.
    """

    kind = "warped"
    radial = "t"

    def __init__(self, t_min: float, t_max: float, circumference_scale: float,
                 shape: ScalarField):
        if t_max <= t_min:
            raise DomainError("need t_min < t_max")
        if circumference_scale <= 0:
            raise DomainError("circumference scale must be positive")
        self.t_min = float(t_min)
        self.t_max = float(t_max)
        self.circumference_scale = float(circumference_scale)
        self.shape = shape
        self.singular_points = ()
        w, = self.warp_jet(np.linspace(t_min, t_max, 33), 0)
        if np.any(w <= 0):
            raise DomainError("warp function must be positive on [t_min, t_max]")

    @classmethod
    def cosh_cylinder(cls, scale: float, t_min: float, t_max: float) -> "WarpedChart":
        """w(t) = scale * cosh t, the constant-curvature (K = -1) cylinder."""
        shape = ScalarField.from_expression(lambda t, _th: jets.cosh(t), radial="t")
        return cls(t_min, t_max, scale, shape)

    def check_points(self, p) -> np.ndarray:
        pts, _ = as_points(p)
        eps = 1e-12 * max(1.0, abs(self.t_min), abs(self.t_max))
        if np.any(pts[:, 0] < self.t_min - eps) or np.any(pts[:, 0] > self.t_max + eps):
            raise DomainError("t outside [t_min, t_max]")
        return pts

    def warp_jet(self, t, order: int = 3):
        """(w, w', ..., w^(order)) at t (arrays), for order 0..3."""
        if not 0 <= order <= 3:
            raise ValueError(f"warp_jet order must be in 0..3, got {order}")
        t = np.asarray(t, dtype=float)
        pts = np.stack([t, np.zeros_like(t)], axis=-1)
        j = self.shape.jet(pts, order)
        derivs = [j.value]
        if order >= 1:
            derivs.append(j.grad[:, 0])
        if order >= 2:
            derivs.append(j.hess[:, 0, 0])
        if order >= 3:
            derivs.append(j.third[:, 0])
        return tuple(self.circumference_scale * d for d in derivs)

    @staticmethod
    def _curvature(w, w1, w2, w3=None):
        """(K, grad K) from w and its first t-derivatives; grad K needs the
        third derivative w3 and is None without it."""
        if w3 is None:
            return -w2 / w, None
        dK = -(w3 * w - w2 * w1) / w**2
        return -w2 / w, np.stack([dK, np.zeros_like(dK)], axis=-1)

    def gauss_curvature(self, p):
        pts = self.check_points(p)
        _, single = as_points(p)
        K = self._curvature(*self.warp_jet(pts[:, 0], 2))[0]
        return float(K[0]) if single else K

    def grad_gauss_curvature(self, p):
        pts = self.check_points(p)
        _, single = as_points(p)
        out = self._curvature(*self.warp_jet(pts[:, 0], 3))[1]
        return out[0] if single else out


# -- named factors ------------------------------------------------------------

def flat_factor() -> ScalarField:
    """phi = 0: the Euclidean annulus."""
    return constant_field(0.0)


def sphere_cap_factor(c: float = 0.1) -> ScalarField:
    """phi = ln(1 - c r^2): curvature 4c/(1 - c r^2)^4, positive for c > 0."""
    return radial_log_field(0.0, 1.0, -c)


def stereographic_sphere_factor() -> ScalarField:
    """phi = ln(2 / (1 + r^2)): the round unit sphere, K = 1."""
    return radial_log_field(np.log(2.0), -1.0, 1.0)


# -- chart-dispatched operations ----------------------------------------------

def gauss_curvature(chart, p):
    """Gaussian curvature at p (conformal: -e^{-2 phi} lap phi; warped: -w''/w)."""
    return chart.gauss_curvature(p)


def grad_gauss_curvature(chart, p):
    """Coordinate gradient of the Gaussian curvature at p."""
    return chart.grad_gauss_curvature(p)


def metric_gradient_norm(u, chart, p):
    """|grad u| in the surface metric, read from :func:`local_geometry`.

    Conformal charts: e^{-phi} |grad_0 u|; warped charts: |u'(t)|.
    """
    _, single = as_points(p)
    out = local_geometry(u, chart, p).G
    return float(out[0]) if single else out


@dataclass(frozen=True)
class LocalGeometry:
    """Metric and curvature data of a field u at a batch of points, all from
    one jet of u and one of the chart's factor or warp (:func:`local_geometry`).

    ``pairing`` is <grad K, grad u>_g / |grad u|_g^2, ``pairing_star`` the
    same with star grad u = (u_y, -u_x); ``lap_weight`` is what an FD metric
    Laplacian applies at a point (e^{-2 phi} conformal, w'/w warped) and
    ``level_weight`` the length element of a level curve per coordinate
    length (e^phi conformal, w warped, where radial levels run in theta).
    With G = |grad u|_g, ``pairing_G`` is <grad u, grad G>_g and
    ``grad_G_sq`` is |grad G|_g^2: the pieces of the L' and L'' integrands.
    ``gradK_norm`` is |grad K|_g: e^{-phi} times the coordinate norm of
    ``gradK`` conformal, that norm warped (g_tt = 1).
    """

    pts: np.ndarray
    G: np.ndarray
    k: np.ndarray
    h: np.ndarray
    K: np.ndarray
    gradK: np.ndarray
    gradK_norm: np.ndarray
    pairing: np.ndarray
    pairing_star: np.ndarray
    lap_weight: np.ndarray
    level_weight: np.ndarray
    pairing_G: np.ndarray
    grad_G_sq: np.ndarray


def local_geometry(u, chart, p) -> LocalGeometry:
    """|grad u|, the curvatures k and h, K, grad K and the pairings at p.

    k = -div(grad u / |grad u|) is the geodesic curvature of the level
    curve, h = -div((u_2, -u_1) / |grad u|) that of the steepest-descent
    line.  Raises the chart's domain errors, then
    :class:`CriticalPointError` as :func:`point_jets` does.
    """
    return _geometry(u, chart, chart.check_points(p))


def point_jets(u, chart, pts, order: int, metric_order: int):
    """(jet of u to ``order``, the factor's jet to ``metric_order`` or on
    warped charts the ``warp_jet`` tuple to that order) at ``pts``, which
    are not domain-checked here.  The geometry reads u to order 2 and the
    metric to order 3 (grad K); the identities read u to order 3 and the
    metric to order 2 (lap phi, w'').  Raises as :func:`_radial_on` does,
    then :class:`CriticalPointError` where |grad_0 u| < CRITICAL_GRAD (for a
    field of t, u_theta = 0 and this is |u'(t)|)."""
    warped = _radial_on(u, chart) and chart.kind == "warped"
    ju = u.jet(pts, order)
    metric = (chart.warp_jet(pts[:, 0], metric_order) if warped
              else chart.factor.jet(pts, metric_order))
    if np.any(ju.grad[:, 0] ** 2 + ju.grad[:, 1] ** 2 < CRITICAL_GRAD**2):
        raise CriticalPointError("evaluation at a critical point of u")
    return ju, metric


def _geometry(u, chart, pts) -> LocalGeometry:
    """:class:`LocalGeometry` at ``pts`` without the chart's domain check."""
    ju, jp = point_jets(u, chart, pts, 2, 3)
    if chart.kind == "warped":
        u1, u2 = ju.grad[:, 0], ju.hess[:, 0, 0]
        w, w1, w2, w3 = jp
        K, dK = chart._curvature(w, w1, w2, w3)
        dG = u2 * np.sign(u1)  # G = |u'(t)|, so G' = u'' sign(u')
        return LocalGeometry(pts=pts, G=np.abs(u1), k=-np.sign(u1) * w1 / w,
                             h=np.zeros_like(u1), K=K, gradK=dK,
                             gradK_norm=np.hypot(dK[:, 0], dK[:, 1]), pairing=dK[:, 0] / u1,
                             pairing_star=np.zeros_like(u1), lap_weight=w1 / w,
                             level_weight=w, pairing_G=u1 * dG, grad_G_sq=dG**2)
    g = ju.grad
    q = g[:, 0] ** 2 + g[:, 1] ** 2
    g0 = np.sqrt(q)
    div_unit = ju.laplacian() / g0 - _bilinear(g, ju.hess, g) / g0**3
    rot = np.stack([g[:, 1], -g[:, 0]], axis=-1)
    hrg = _bilinear(rot, ju.hess, g)
    e_phi, e_mphi = np.exp(jp.value), np.exp(-jp.value)
    e2, K, dK = chart._curvature(jp)
    # grad_0 G for G = e^{-phi} g0; the metric pairs gradients with e^{-2 phi}
    grad_G = e_mphi[:, None] * (np.einsum("nij,nj->ni", ju.hess, g) / g0[:, None]
                                - g0[:, None] * jp.grad)
    return LocalGeometry(
        pts=pts, G=e_mphi * np.hypot(g[:, 0], g[:, 1]),
        k=-e_mphi * (div_unit + np.einsum("ni,ni->n", jp.grad, g) / g0),
        h=-e_mphi * (-hrg / g0**3 + np.einsum("ni,ni->n", jp.grad, rot) / g0),
        K=K, gradK=dK, gradK_norm=np.hypot(dK[:, 0], dK[:, 1]) / e_phi,
        # the conformal factors of the metric pairing and |grad u|_g^2 cancel
        pairing=np.einsum("ni,ni->n", dK, g) / q,
        pairing_star=(dK[:, 0] * g[:, 1] - dK[:, 1] * g[:, 0]) / q,
        lap_weight=e2, level_weight=e_phi,
        pairing_G=e_mphi**2 * np.einsum("ni,ni->n", g, grad_G),
        grad_G_sq=e_mphi**2 * np.einsum("ni,ni->n", grad_G, grad_G))


def _bilinear(a, H, b):
    """a^T H b per row, in the order a batched einsum sums it; a one-row
    einsum pairs the terms differently, and a row must not depend on its batch."""
    return (a[:, 0] * H[:, 0, 0] * b[:, 0] + a[:, 0] * H[:, 0, 1] * b[:, 1]
            + a[:, 1] * H[:, 1, 0] * b[:, 0] + a[:, 1] * H[:, 1, 1] * b[:, 1])


def _circle_points(chart, radii, n_samples):
    """(m, n_samples, 2) points and (m, n_samples) coordinate arclength
    weights of the m circles at ``radii`` (|z| = r, or t = r on warped
    charts), sampled uniformly in angle from theta = 0; the weights are a
    broadcast view."""
    theta = np.arange(n_samples) * (2.0 * np.pi / n_samples)
    r = radii[:, None]
    if chart.kind == "warped":
        pts = np.stack(np.broadcast_arrays(r, theta), axis=-1)
        return pts, np.broadcast_to(2.0 * np.pi / n_samples, pts.shape[:2])
    pts = np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1)
    return pts, np.broadcast_to(2.0 * np.pi * r / n_samples, pts.shape[:2])


def _constant_on_circles(u, chart) -> bool:
    """Whether the geometry of u is constant on each coordinate circle of the
    chart: u radial on a warped chart, or on a conformal chart whose factor
    is radial in |z| and smooth.  Unlike :func:`_radial_on` it never raises."""
    return u.radial == chart.radial and (chart.kind == "warped" or (
        chart.factor.radial == "abs_z" and not chart.singular_points))


def _radial_on(u, chart) -> bool:
    """``u.radial == chart.radial``; False for a field without symmetry on a
    conformal chart, :class:`DomainError` for any other field not radial on it."""
    if u.radial != chart.radial and (u.radial or chart.kind == "warped"):
        raise DomainError(
            f"the field is radial in {u.radial!r}; {chart.kind} charts are radial in "
            f"{chart.radial!r}" if u.radial else "warped charts support radial fields only")
    return u.radial == chart.radial
