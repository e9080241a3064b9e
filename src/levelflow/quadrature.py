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
per process in a table keyed by the level; a call scales it by its
half-width.

Both rules integrate a batch of integrands at once, one row each (for
instance one level circle of a profile per row).  Each level's nodes and
weights are shared across the rows; every row keeps its own relative-change
test and is no longer evaluated once it has converged, so a row's value
does not depend on the other rows in its batch.  Both return
``(values, capped)``: ``capped`` marks the rows that used every refinement
level without meeting the target, or whose level sum stopped being
finite; their value is the last estimate they reached, and the caller
reports them.

Tanh-sinh nodes are affine images of one table, so :func:`tanh_sinh` also
integrates a batch over several segments in one refinement, its rows the
(segment, row) pairs, with one integrand call per level on the
concatenated nodes (whole segments go to separate calls only where rows
times nodes would pass :data:`MAX_CALL_ELEMENTS`, which keeps the finest
levels' memory at one segment's).
:func:`segmented_circle_integral` integrates every segment between
singular angles that way: a circle batch (for instance the ``L`` and
``aux_invgrad2`` rows of a conical profile, or a circle under several
mollifiers) is one refinement and one call per level.

Integrands receive the distances to both segment endpoints, computed in a
cancellation-free way, so a factor like ``|theta - theta_atom|^alpha`` can be
evaluated accurately even at machine-scale distances; on a circle they are
passed as contiguous spans anchored at the nearer singular angle.

A row has converged when its relative change is at most :data:`REL_TOL`;
tanh-sinh nodes span ``|tau| <= TAU_MAX``.  Every circle length (through
cone points, mollified, through a singular chart factor) ends in
:func:`circle_lengths`, which raises :class:`SolverError` on a diverged row,
or its one-row :func:`circle_length`, which also logs a cap.
"""

from __future__ import annotations

import logging
from functools import lru_cache

import numpy as np

from .errors import SolverError

logger = logging.getLogger(__name__)

#: a row has converged when its relative change between levels is at most this
REL_TOL = 1e-10
#: tanh-sinh nodes tau = j h cover |tau| <= TAU_MAX
TAU_MAX = 5.0
#: evaluation budget matching the documented 2^20 subinterval cap: with
#: nested levels a trapezoid row evaluates at most this many nodes, the
#: finest level's, each once
MAX_EVALS = 1 << 20
#: a multi-segment tanh-sinh level makes one integrand call unless rows
#: times nodes would pass this; then it groups whole segments into calls of
#: at most this size (a larger segment gets a call of its own), so the
#: finest levels (20,480 nodes a segment) run one segment per call, as a
#: one-segment rule does, and peak memory stays that rule's
MAX_CALL_ELEMENTS = 1 << 15


def _refine(level_sum, n_levels: int):
    """Per-row refinement over nested levels.

    ``level_sum(k, rows, prev)`` is the level-k estimate of the selected
    rows.  On level 0 ``rows`` is ``slice(None)`` and ``prev`` is None; its
    result fixes the batch size.  Afterwards ``rows`` holds the indices of
    the live rows and ``prev`` their level-(k-1) estimates: level k
    evaluates only the nodes level k - 1 lacked and returns
    ``0.5 * prev + h * sum(new nodes)``.  Overflow is ignored: a row whose
    sum is not finite (an inf or NaN sum stays so at every later level)
    and has not met the target is retired at once and flagged capped."""
    with np.errstate(over="ignore"):
        values = level_sum(0, slice(None), None)
        capped = ~np.isfinite(values)
        live = np.flatnonzero(~capped)
        for k in range(1, n_levels):
            if live.size == 0:
                break
            prev = values[live]
            cur = level_sum(k, live, prev)
            values[live] = cur
            done = np.abs(cur - prev) <= REL_TOL * np.maximum(np.abs(cur), 1e-300)
            diverged = ~done & ~np.isfinite(cur)
            capped[live[diverged]] = True
            live = live[~(done | diverged)]
    capped[live] = True
    return values, capped


def _distinct(idx: np.ndarray, n: int) -> np.ndarray:
    """The sorted distinct values of ``idx``, integers in [0, n)."""
    seen = np.zeros(n, dtype=bool)
    seen[idx] = True
    return np.flatnonzero(seen)


def periodic_trapezoid(f, *, n0: int = 64, max_n: int = MAX_EVALS
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of smooth 2 pi-periodic functions over [0, 2 pi), one per row.

    ``f(x, rows)`` returns the rows ``rows`` of the integrands at the nodes
    ``x``, shape (number of rows, x.size).  Returns ``(values, capped)``.
    """
    def level_sum(k, rows, prev):
        n = n0 << k
        step = 1 if prev is None else 2  # levels k > 0 add the odd-index nodes
        x = np.arange(step - 1, n, step) * (2.0 * np.pi / n)
        total = np.sum(f(x, rows), axis=1) * (2.0 * np.pi / n)
        return total if prev is None else 0.5 * prev + total

    return _refine(level_sum, (max_n // n0).bit_length())


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
def _tanh_sinh_nodes(level: int):
    """``(1 + tanh s, 1 - tanh s, pi/2 cosh(tau) sech^2 s)`` at the nodes
    that tanh-sinh level ``level`` adds, s = pi/2 sinh(tau): every
    tau = j h with |tau| <= TAU_MAX on level 0, the odd j afterwards, with
    h = 2^-(level + 1).  Cached per process; the arrays are read-only."""
    h = 0.5 / (1 << level)
    j = np.arange(-int(np.floor(TAU_MAX / h)), int(np.floor(TAU_MAX / h)) + 1)
    if level > 0:
        j = j[j % 2 != 0]
    tau = j * h
    s = 0.5 * np.pi * np.sinh(tau)
    table = (_one_plus_tanh(s), _one_plus_tanh(-s),
             0.5 * np.pi * np.cosh(tau) * _sech_sq(s))
    for arr in table:
        arr.setflags(write=False)
    return table


def tanh_sinh(f, a, b, *, max_level: int = 11
              ) -> tuple[np.ndarray, np.ndarray]:
    """Double-exponential quadrature over [a, b] of a batch of integrands.

    ``f(x, da, db, rows)`` returns the rows ``rows`` of the integrands at the
    nodes ``x``, shape (number of rows, x.size); ``da = x - a`` and
    ``db = b - x`` are supplied without cancellation so endpoint-singular
    factors can use them directly.  Nodes whose endpoint distance underflows
    are dropped; their contribution is below any integrable singularity's
    tail at that depth.  Returns ``(values, capped)``.

    ``a`` and ``b`` may also be arrays of m segment endpoints.  Every row is
    then integrated over every segment in one refinement whose rows are the
    (segment, row) pairs, each with its own convergence test.  A level makes
    one call ``f(x, da, db, spans, rows)`` on the concatenated nodes of the
    segments that still have a live pair (more than one only when rows
    times nodes would pass :data:`MAX_CALL_ELEMENTS`; a segment is never
    split): ``spans`` lists ``(segment, slice of x)`` for the call's
    segments, and ``rows`` holds every row live on at least one of them.
    ``values`` and ``capped`` have shape (m, number of rows).
    """
    segmented = np.ndim(a) > 0
    a, b = np.atleast_1d(np.asarray(a, dtype=float)), np.atleast_1d(np.asarray(b, dtype=float))
    half = 0.5 * (b - a)
    n_rows = 0  # fixed by the level-0 call

    def segment_sums(level, segs, rows):
        """Level sums of ``rows`` on each segment of ``segs``, one f call."""
        one_plus, one_minus, wt = _tanh_sinh_nodes(level)
        h = half[segs, None]
        da, db = h * one_plus, h * one_minus
        ok = (da > 0) & (db > 0) & (h * wt > 0)
        x, da, db = (a[segs, None] + da)[ok], da[ok], db[ok]
        counts = ok.sum(axis=1)
        spans, stop = [], 0
        for s, n in zip(segs, counts):
            spans.append((s, slice(stop, stop + n)))
            stop += n
        vals = f(x, da, db, spans, rows) if segmented else f(x, da, db, rows)
        # the weights, built after the call to keep its peak memory down, and
        # one weighted sum per segment, each over its own contiguous nodes
        w = (h * wt)[ok]
        return np.stack([np.sum(vals[:, sl] * w[sl], axis=1)
                         for _, sl in spans]) * (0.5 / (1 << level))

    def level_sum(level, live, prev):
        nonlocal n_rows
        if prev is None:
            sums = segment_sums(0, np.arange(a.size), slice(None))
            n_rows = sums.shape[1]
            return sums.ravel()
        # live pairs are segment-major: segment s's pairs are live[edges[s]:edges[s + 1]]
        seg_of, row_of = np.divmod(live, n_rows)
        edges = np.searchsorted(seg_of, np.arange(a.size + 1))
        segs = np.flatnonzero(edges[1:] > edges[:-1])
        rows = _distinct(row_of, n_rows)
        per_call = max(1, MAX_CALL_ELEMENTS // (_tanh_sinh_nodes(level)[0].size * rows.size))
        total = np.empty(live.size)
        for g in range(0, segs.size, per_call):
            group = segs[g:g + per_call]
            lo, hi = edges[group[0]], edges[group[-1] + 1]
            if group.size < segs.size:
                rows = _distinct(row_of[lo:hi], n_rows)
            sums = segment_sums(level, group, rows)
            total[lo:hi] = sums[np.searchsorted(group, seg_of[lo:hi]),
                                np.searchsorted(rows, row_of[lo:hi])]
        return 0.5 * prev + total

    values, capped = _refine(level_sum, max_level + 1)
    shape = (a.size, n_rows) if segmented else (n_rows,)
    return values.reshape(shape), capped.reshape(shape)


def segmented_circle_integral(log_f, singular_angles
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Integrals over [0, 2 pi) of exp(log_f), one per row, split at
    singular angles shared by all rows.

    ``log_f(theta, anchors, rows)`` evaluates the rows ``rows`` of the
    log-integrands, shape (number of rows, theta.size).  ``anchors`` lists
    ``(span, anchor_index, delta)`` for contiguous spans of theta:
    ``delta = theta[span] - singular_angles[anchor_index]`` is exact and
    should be used for the singular factor at that anchor.  Without
    singular angles ``anchors`` is empty and the rule falls back to the
    periodic trapezoid.

    All segments between consecutive singular angles are integrated in one
    :func:`tanh_sinh` refinement, one ``log_f`` call per level; each
    (segment, row) pair converges on its own, so a row's value is the sum
    of its per-segment integrals in angle order, as if each segment were
    integrated alone.

    Returns ``(values, capped)``; a row whose value is not finite diverged
    (a non-integrable singularity), and the caller decides what that means.
    """
    angles = np.mod(np.asarray(singular_angles, dtype=float), 2.0 * np.pi)
    if angles.size == 0:
        return periodic_trapezoid(lambda th, rows: np.exp(log_f(th, (), rows)))
    order = np.argsort(angles)
    ia, ib = order, np.roll(order, -1)
    a, b = angles[ia], angles[ib]
    b[-1] += 2.0 * np.pi
    keep = b - a >= 1e-15
    ia, ib, a, b = ia[keep], ib[keep], a[keep], b[keep]
    mid = 0.5 * (a + b)

    def f(x, da, db, spans, rows):
        # attribute each node's exact offset to its nearer singular angle;
        # offsets enter the integrand through 2 pi - periodic chords, so the
        # possible 2 pi shift at the wrap segment is harmless.  A segment's
        # nodes ascend, so the nodes nearer its start are a prefix
        anchors = []
        for s, sl in spans:
            k = sl.start + int(np.searchsorted(x[sl], mid[s], side="right"))
            anchors += [(slice(sl.start, k), ia[s], da[sl.start:k]),
                        (slice(k, sl.stop), ib[s], -db[k:sl.stop])]
        return np.exp(log_f(x, anchors, rows))

    seg_values, seg_capped = tanh_sinh(f, a, b)
    return sum(seg_values), np.any(seg_capped, axis=0)


def finite_lengths(radii, vals) -> np.ndarray:
    """``radii * vals`` for the circle integrals ``vals`` of length elements
    ``r exp(log_f) dtheta``; raises :class:`SolverError` if a row diverged."""
    if not np.all(np.isfinite(vals)):
        raise SolverError("circle integral diverged (non-integrable singularity?)")
    return np.asarray(radii, dtype=float) * vals


def circle_lengths(log_f, angles, radii) -> tuple[np.ndarray, np.ndarray]:
    """``(lengths, capped)`` for :func:`segmented_circle_integral`'s rows,
    one per circle |z| = r of length element ``r exp(log_f) dtheta``;
    raises :class:`SolverError` if a row diverged."""
    vals, capped = segmented_circle_integral(log_f, angles)
    return finite_lengths(radii, vals), capped


def warn_capped(what: str, r: float) -> None:
    """Log that the circle integral of ``what`` at radius ``r`` used every
    refinement level and kept its finest-level value."""
    logger.warning("%s at r = %r used every refinement level without reaching "
                   "rel_tol %g; finest-level value kept", what, float(r), REL_TOL)


def circle_length(log_f, angles, r: float, what: str) -> float:
    """The one-row :func:`circle_lengths` of the circle of radius ``r``; a
    capped integral keeps its finest-level value and is logged as a
    warning naming ``what``."""
    (length,), (capped,) = circle_lengths(log_f, angles, [r])
    if capped:
        warn_capped(what, r)
    return float(length)
