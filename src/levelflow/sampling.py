"""Deterministic quasi-random interior point sets for residual batteries."""

from __future__ import annotations

import numpy as np
from scipy.stats import qmc

from .errors import DomainError


def quasi_random_points(chart, n: int, seed: int = 0,
                        min_gradient_field=None) -> np.ndarray:
    """n Halton points in the chart interior, area-uniform on annuli.

    When ``min_gradient_field`` is given, points where its Euclidean gradient is
    at most 1e-6 are discarded (and replaced from the sequence).
    """
    if chart.kind == "warped":
        lo, hi = chart.t_min, chart.t_max
    elif chart.outer_radius is not None:
        lo, hi = chart.inner_radius, chart.outer_radius
    else:
        raise DomainError("cannot sample an unbounded chart")
    span = hi - lo
    lo, hi = lo + 1e-3 * span, hi - 1e-3 * span
    sampler = qmc.Halton(d=2, scramble=True, seed=seed)
    out = []
    for _ in range(64):
        raw = sampler.random(2 * max(n, 8))
        if chart.kind == "warped":
            pts = np.stack([lo + raw[:, 0] * (hi - lo), raw[:, 1] * 2 * np.pi], axis=-1)
        else:
            r = np.sqrt(lo**2 + raw[:, 0] * (hi**2 - lo**2))
            th = raw[:, 1] * 2.0 * np.pi
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        keep = np.ones(pts.shape[0], dtype=bool)
        for q in chart.singular_points:
            keep &= np.hypot(pts[:, 0] - q[0], pts[:, 1] - q[1]) > 1e-3
        if min_gradient_field is not None:
            g = min_gradient_field.jet(pts, 1).grad
            keep &= np.hypot(g[:, 0], g[:, 1]) > 1e-6
        out.append(pts[keep])
        if sum(len(o) for o in out) >= n:
            break
    pts = np.concatenate(out, axis=0)
    if pts.shape[0] < n:
        raise DomainError("could not draw enough interior sample points")
    return pts[:n]
