"""Deterministic quasi-random interior point sets for residual batteries.

The points come from Owen's randomized Halton sequence in bases 2 and 3
(A. B. Owen, "A randomized Halton algorithm in R", arXiv:1706.02808),
written in numpy and equal bit for bit to
``scipy.stats.qmc.Halton(d=2, scramble=True, seed=seed)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

HALTON_BASES = (2, 3)


def _digit_scales(base: int) -> np.ndarray:
    """base^-1, base^-2, ..., one per digit a double resolves
    (``base**-k > 2**-54``), formed by repeated division: the sequence's
    last bits depend on these roundings."""
    scales = np.empty(math.ceil(54 / math.log2(base)) - 1)
    s = 1.0 / base
    for j in range(scales.size):
        scales[j] = s
        s /= base
    return scales


_SCALES = {b: _digit_scales(b) for b in HALTON_BASES}


@lru_cache(maxsize=64)
def _halton_permutations(seed: int) -> tuple[np.ndarray, ...]:
    """Per base, one shuffled ``arange(base)`` per digit, drawn row by row
    (``permuted`` consumes the generator as one ``shuffle`` per row would).
    Cached per seed; the arrays are read-only."""
    rng = np.random.default_rng(seed)
    perms = tuple(rng.permuted(np.repeat(np.arange(b)[None], _SCALES[b].size, axis=0), axis=1)
                  for b in HALTON_BASES)
    for p in perms:
        p.setflags(write=False)
    return perms


def _halton(perms, start: int, n: int) -> np.ndarray:
    """(n, 2) points ``start .. start + n - 1`` of the scrambled sequence."""
    i = np.arange(start, start + n, dtype=np.int64)
    cols = []
    for b, p in zip(HALTON_BASES, perms):
        s = _SCALES[b]
        k = 1  # every i < b**k: digits k and up are 0, their terms constants
        while b**k < start + n:
            k += 1
        terms = np.empty((s.size, n))
        terms[k:] = (p[k:, 0] * s[k:])[:, None]
        j = np.arange(k)[:, None]
        terms[:k] = p[j, (i // b**j) % b] * s[:k, None]
        # summed in digit order: np.sum's pairwise order changes the last bits
        cols.append(np.add.accumulate(terms)[-1])
    return np.stack(cols, axis=-1)


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
    perms = _halton_permutations(seed)
    draw = 2 * max(n, 8)
    out = []
    for k in range(64):
        raw = _halton(perms, k * draw, draw)
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
