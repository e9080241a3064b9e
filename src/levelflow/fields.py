"""Scalar fields on a chart with derivative tables up to a requested order.

A :class:`ScalarField` evaluates, at one point or a batch of points, the
value, gradient, Hessian, and the independent third- and fourth-order
coordinate derivatives, each only when the caller asks for that order
(``jet(p, order)``; order 4 by default).  Closed-form fields are defined
either by an ordinary formula evaluated in jet arithmetic
(:mod:`levelflow.jets`, seeded at the requested degree) or by complex Taylor
coefficients of a holomorphic function; both routes are exact up to
roundoff, and a lower order gives the same bits as the leading entries of a
higher one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .jets import Taylor2


def as_points(p) -> tuple[np.ndarray, bool]:
    """Normalise a point or an (n, 2) array of points; flag the scalar case."""
    a = np.asarray(p, dtype=float)
    if a.ndim == 1:
        return a[None, :], True
    return a, False


@dataclass(frozen=True)
class FieldJet:
    """Pointwise derivative table of a scalar field up to some order.

    ``third`` holds (f_xxx, f_xxy, f_xyy, f_yyy) and ``fourth`` holds
    (f_xxxx, f_xxxy, f_xxyy, f_xyyy, f_yyyy), each batched along axis 0.
    Entries above the order the jet was evaluated to are None.
    """

    value: np.ndarray                 # (n,)
    grad: np.ndarray | None = None    # (n, 2), order >= 1
    hess: np.ndarray | None = None    # (n, 2, 2), order >= 2
    third: np.ndarray | None = None   # (n, 4), order >= 3
    fourth: np.ndarray | None = None  # (n, 5), order 4

    def laplacian(self) -> np.ndarray:
        return self.hess[:, 0, 0] + self.hess[:, 1, 1]


def _jet_from_taylor(t: Taylor2) -> FieldJet:
    """The derivative table of a jet, up to the jet's degree."""
    c = t.c
    n = c.shape[2:] or (1,)

    def table(*entries):
        return np.stack(entries, axis=-1).reshape(n + (len(entries),))

    value = np.asarray(c[0, 0], dtype=float).reshape(n)
    if t.deg == 0:
        return FieldJet(value)
    grad = table(c[1, 0], c[0, 1])
    if t.deg == 1:
        return FieldJet(value, grad)
    hess = np.empty(n + (2, 2))
    hess[..., 0, 0] = 2.0 * c[2, 0]
    hess[..., 0, 1] = c[1, 1]
    hess[..., 1, 0] = c[1, 1]
    hess[..., 1, 1] = 2.0 * c[0, 2]
    if t.deg == 2:
        return FieldJet(value, grad, hess)
    third = table(6.0 * c[3, 0], 2.0 * c[2, 1], 2.0 * c[1, 2], 6.0 * c[0, 3])
    if t.deg == 3:
        return FieldJet(value, grad, hess, third)
    return FieldJet(value, grad, hess, third,
                    table(24.0 * c[4, 0], 6.0 * c[3, 1], 4.0 * c[2, 2], 6.0 * c[1, 3],
                          24.0 * c[0, 4]))


class ScalarField:
    """Real field on chart coordinates with derivatives up to order 4.

    ``jet_fn(pts, order)`` returns the :class:`FieldJet` of an (n, 2) point
    array up to ``order``.

    ``radial`` names the coordinate the field is a function of: ``"abs_z"``
    (|z|, radial on conformal charts), ``"t"`` (the first coordinate, radial
    on warped charts) or None.  The exact level-set paths need ``u.radial ==
    chart.radial``.  ``log_radial_coeffs`` is (a, b) for a field a + b ln|z|,
    whose levels invert in closed form.
    """

    def __init__(self, jet_fn: Callable[[np.ndarray, int], FieldJet], *,
                 radial: str | None = None, singular_points: Sequence = ()):
        if radial not in (None, "abs_z", "t"):
            raise ValueError(f"radial must be None, 'abs_z' or 't', got {radial!r}")
        self._jet_fn = jet_fn
        self.radial = radial
        self.singular_points = tuple(np.asarray(q, dtype=float) for q in singular_points)
        self.log_radial_coeffs = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_expression(cls, expr: Callable[[Taylor2, Taylor2], Taylor2], *,
                        radial: str | None = None):
        def jet_fn(pts: np.ndarray, order: int) -> FieldJet:
            x, y = Taylor2.seeds(pts[:, 0], pts[:, 1], order)
            out = expr(x, y)
            if not isinstance(out, Taylor2):  # constant expressions
                out = Taylor2.constant(np.broadcast_to(out, pts[:, 0].shape), x)
            return _jet_from_taylor(out)

        return cls(jet_fn, radial=radial)

    @classmethod
    def from_holomorphic_sum(cls, terms, constant: float = 0.0, *,
                             radial: str | None = None, singular_points: Sequence = ()):
        """Field ``constant + sum_k weight_k * part_k(f_k)``.

        ``terms`` is a sequence of ``(coeff_fn, part, weight)`` where
        ``coeff_fn(z0, deg)`` returns the complex Taylor coefficients 0..deg
        of a holomorphic function and ``part`` is ``"re"`` or ``"im"``.
        """
        terms = tuple(terms)

        def jet_fn(pts: np.ndarray, order: int) -> FieldJet:
            z0 = pts[:, 0] + 1j * pts[:, 1]
            acc = None
            for coeff_fn, part, weight in terms:
                t = jets.holomorphic_jet(coeff_fn(z0, order), part, order)
                acc = t * weight if acc is None else acc + t * weight
            acc = acc + constant
            return _jet_from_taylor(acc)

        return cls(jet_fn, radial=radial, singular_points=singular_points)

    # -- evaluation ----------------------------------------------------------

    def jet(self, p, order: int = jets.DEG) -> FieldJet:
        """Derivative table at p (a point or an (n, 2) array) up to ``order``
        (0..4); the entries above it are None."""
        if not 0 <= order <= jets.DEG:
            raise ValueError(f"jet order must be in 0..{jets.DEG}, got {order}")
        pts, _ = as_points(p)
        return self._jet_fn(pts, order)

    def value(self, p):
        pts, single = as_points(p)
        v = self._jet_fn(pts, 0).value
        return float(v[0]) if single else v

    def gradient(self, p):
        pts, single = as_points(p)
        g = self._jet_fn(pts, 1).grad
        return g[0] if single else g

    def hessian(self, p):
        pts, single = as_points(p)
        h = self._jet_fn(pts, 2).hess
        return h[0] if single else h

    def laplacian(self, p):
        pts, single = as_points(p)
        lap = self._jet_fn(pts, 2).laplacian()
        return float(lap[0]) if single else lap


# -- generic factor/field constructors ---------------------------------------

def constant_field(value: float) -> ScalarField:
    return ScalarField.from_expression(lambda x, y: x * 0.0 + value, radial="abs_z")


def radial_log_field(a: float, b: float, c: float) -> ScalarField:
    """phi(x, y) = a + b * ln(1 + c * (x^2 + y^2))."""

    def expr(x, y):
        return a + b * jets.log((x * x + y * y) * c + 1.0)

    return ScalarField.from_expression(expr, radial="abs_z")


def half_plane_factor() -> ScalarField:
    """phi = -ln y, the hyperbolic upper half-plane factor (K = -1)."""
    return ScalarField.from_expression(lambda x, y: -jets.log(y))


def log_modulus_field(weight: float = 1.0, center=(0.0, 0.0)) -> ScalarField:
    """u = weight * ln|z - center| with closed-form derivatives."""
    cx, cy = float(center[0]), float(center[1])
    zc = cx + 1j * cy

    def coeffs(z0, deg):
        return jets.log_z_coeffs(z0 - zc, deg)

    singular = [(cx, cy)]
    return ScalarField.from_holomorphic_sum(
        [(coeffs, "re", weight)], radial="abs_z" if cx == cy == 0.0 else None,
        singular_points=singular)
