"""Quadrature kernels for circle integrals.

Two rules cover every integrand in the package:

* :func:`periodic_trapezoid` -- uniform trapezoid with node doubling;
  spectrally accurate for smooth periodic integrands.
* :func:`tanh_sinh` -- double-exponential rule on a segment, refined by
  dyadic level halving until the relative change drops below the target;
  absorbs integrable endpoint singularities (|x - a|^alpha, alpha > -1,
  logarithms) without special casing.

Both rules are nested: level k halves the step of level k - 1, so its nodes
are the previous level's plus the midpoints between them.  Level k
evaluates only those midpoints (the odd-index nodes) and adds them to half
the previous estimate, so every node of the finest level used is evaluated
once.  The part of a tanh-sinh level that does not depend on the segment
(``1 +- tanh s`` and ``cosh tau sech^2 s`` at the new nodes) is built once
per process in a table keyed by ``(level, tau_max)``; a call scales it by
its half-width.

Both rules integrate a batch of integrands at once, one row each (for
instance one level circle of a profile per row).  Each level's nodes and
weights are shared across the rows; every row keeps its own relative-change
test and is no longer evaluated once it has converged, so a row's value
does not depend on the other rows in its batch.  Both return
``(values, capped)``: ``capped`` marks the rows that used every refinement
level without meeting the target; their value is the finest level's
estimate, and the caller reports them.

Integrands receive the distances to both segment endpoints, computed in a
cancellation-free way, so a factor like ``|theta - theta_atom|^alpha`` can be
evaluated accurately even at machine-scale distances.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

#: evaluation budget matching the documented 2^20 subinterval cap: with
#: nested levels a trapezoid row evaluates at most this many nodes, the
#: finest level's, each once
MAX_EVALS = 1 << 20


def _refine(level_sum, n_levels: int, rel_tol: float):
    """Per-row refinement over nested levels.

    ``level_sum(k, rows, prev)`` is the level-k estimate of the selected
    rows.  On level 0 ``rows`` is ``slice(None)`` and ``prev`` is None; its
    result fixes the batch size.  Afterwards ``rows`` holds the indices of
    the live rows and ``prev`` their level-(k-1) estimates: level k
    evaluates only the nodes level k - 1 lacked and returns
    ``0.5 * prev + h * sum(new nodes)``."""
    prev = level_sum(0, slice(None), None)
    values = prev.copy()
    live = np.arange(values.size)
    for k in range(1, n_levels):
        if live.size == 0:
            break
        cur = level_sum(k, live, prev)
        values[live] = cur
        with np.errstate(invalid="ignore"):  # inf - inf: a diverging row stays live
            done = np.abs(cur - prev) <= rel_tol * np.maximum(np.abs(cur), 1e-300)
        prev, live = cur[~done], live[~done]
    capped = np.zeros(values.size, dtype=bool)
    capped[live] = True
    return values, capped


def periodic_trapezoid(f, period: float = 2.0 * np.pi, *, rel_tol: float = 1e-10,
                       n0: int = 64, max_n: int = MAX_EVALS
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of smooth periodic functions over one period, one per row.

    ``f(x, rows)`` returns the rows ``rows`` of the integrands at the nodes
    ``x``, shape (number of rows, x.size).  Returns ``(values, capped)``.
    """
    def level_sum(k, rows, prev):
        n = n0 << k
        step = 1 if prev is None else 2  # levels k > 0 add the odd-index nodes
        x = np.arange(step - 1, n, step) * (period / n)
        total = np.sum(f(x, rows), axis=1) * (period / n)
        return total if prev is None else 0.5 * prev + total

    return _refine(level_sum, (max_n // n0).bit_length(), rel_tol)


def _one_plus_tanh(s: np.ndarray) -> np.ndarray:
    """1 + tanh(s), accurate for large negative s."""
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 2.0 / (1.0 + np.exp(-2.0 * s[pos]))
    e = np.exp(2.0 * s[~pos])
    out[~pos] = 2.0 * e / (1.0 + e)
    return out


def _sech_sq(s: np.ndarray) -> np.ndarray:
    e = np.exp(-2.0 * np.abs(s))
    return 4.0 * e / (1.0 + e) ** 2


@lru_cache(maxsize=64)
def _tanh_sinh_nodes(level: int, tau_max: float):
    """``(1 + tanh s, 1 - tanh s, pi/2 cosh(tau) sech^2 s)`` at the nodes
    that tanh-sinh level ``level`` adds, s = pi/2 sinh(tau): every
    tau = j h with |tau| <= tau_max on level 0, the odd j afterwards, with
    h = 2^-(level + 1).  Cached per process; the arrays are read-only."""
    h = 0.5 / (1 << level)
    j = np.arange(-int(np.floor(tau_max / h)), int(np.floor(tau_max / h)) + 1)
    if level > 0:
        j = j[j % 2 != 0]
    tau = j * h
    s = 0.5 * np.pi * np.sinh(tau)
    table = (_one_plus_tanh(s), _one_plus_tanh(-s),
             0.5 * np.pi * np.cosh(tau) * _sech_sq(s))
    for arr in table:
        arr.setflags(write=False)
    return table


def tanh_sinh(f, a: float, b: float, *, rel_tol: float = 1e-10,
              max_level: int = 11, tau_max: float = 5.0
              ) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential quadrature over [a, b] of a batch of integrands.

    ``f(x, da, db, rows)`` returns the rows ``rows`` of the integrands at the
    nodes ``x``, shape (number of rows, x.size); ``da = x - a`` and
    ``db = b - x`` are supplied without cancellation so endpoint-singular
    factors can use them directly.  Nodes whose endpoint distance underflows
    are dropped; their contribution is below any integrable singularity's
    tail at that depth.  Returns ``(values, capped)``.
    """
    half = 0.5 * (b - a)

    def level_sum(level, rows, prev):
        one_plus, one_minus, wt = _tanh_sinh_nodes(level, tau_max)
        da, db, w = half * one_plus, half * one_minus, half * wt
        ok = (da > 0) & (db > 0) & (w > 0)
        da, db, w = da[ok], db[ok], w[ok]
        total = np.sum(f(a + da, da, db, rows) * w, axis=1) * (0.5 / (1 << level))
        return total if prev is None else 0.5 * prev + total

    return _refine(level_sum, max_level + 1, rel_tol)


def segmented_circle_integral(log_f, singular_angles, *, rel_tol: float = 1e-10,
                              max_level: int = 11
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [0, 2 pi) of exp(log_f), one per row, split at
    singular angles shared by all rows.

    ``log_f(theta, anchor_index, delta, rows)`` evaluates the rows ``rows``
    of the log-integrands, shape (number of rows, theta.size); when
    ``anchor_index`` is not None, ``delta = theta - singular_angles[anchor]``
    is exact and should be used for the singular factor at that anchor.
    Without singular angles the rule falls back to the periodic trapezoid.

    Returns ``(values, capped)``; a row whose value is not finite diverged
    (a non-integrable singularity), and the caller decides what that means.
    """
    angles = np.mod(np.asarray(singular_angles, dtype=float), 2.0 * np.pi)
    if angles.size == 0:
        return periodic_trapezoid(lambda th, rows: np.exp(log_f(th, None, None, rows)),
                                  rel_tol=rel_tol)
    order = np.argsort(angles)
    total, capped = 0.0, False
    for pos in range(order.size):
        ia = int(order[pos])
        ib = int(order[(pos + 1) % order.size])
        a = angles[ia]
        b = angles[ib] if pos + 1 < order.size else angles[ib] + 2.0 * np.pi
        if b - a < 1e-15:
            continue

        def seg(x, da, db, rows, ia=ia, ib=ib, a=a, b=b):
            # attribute each node's exact offset to its nearer singular angle;
            # offsets enter the integrand through 2 pi - periodic chords, so the
            # possible 2 pi shift at the wrap segment is harmless
            left = x <= 0.5 * (a + b)
            out = None
            for side, anchor, delta in ((left, ia, da), (~left, ib, -db)):
                if side.any():
                    vals = log_f(x[side], anchor, delta[side], rows)
                    if out is None:
                        out = np.empty((vals.shape[0], x.size))
                    out[:, side] = vals
            return np.exp(out)

        seg_values, seg_capped = tanh_sinh(seg, a, b, rel_tol=rel_tol,
                                           max_level=max_level)
        total = total + seg_values
        capped = capped | seg_capped
    return total, capped
