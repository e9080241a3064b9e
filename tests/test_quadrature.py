"""Exact answers and row independence of the batched quadrature rules, and
the circle-length finish every circle integral shares."""

import logging
import warnings

import numpy as np
import pytest
from scipy.special import i0

from levelflow import (ConformalChart, DirichletSpec, SolverError, bic_length_profile,
                       catalog_field, conical_circle_length, conical_factor,
                       extract_level_curve, inset_grid, length, log_modulus_field,
                       mollify)
from levelflow import bic
from levelflow.quadrature import (MAX_EVALS, circle_lengths, periodic_trapezoid,
                                  segmented_circle_integral, tanh_sinh)


def _one_segment(f, a, b):
    """``(values, capped)`` of :func:`tanh_sinh` over the one segment [a, b],
    a one-element endpoint array, for an integrand ``f(x, da, db, rows)``."""
    vals, capped = tanh_sinh(lambda x, da, db, _spans, rows: f(x, da, db, rows),
                             np.array([a]), np.array([b]))
    return vals[0], capped[0]


@pytest.mark.parametrize("integrand, exact", [
    (lambda da: da**-0.5, 2.0),
    (np.log, -1.0),
    (lambda da: da**-0.9, 10.0),
], ids=["x^-1/2", "ln x", "x^-0.9"])
def test_tanh_sinh_endpoint_singularities_exact(integrand, exact):
    # the singular factor reads the cancellation-free distance to x = 0
    vals, capped = _one_segment(lambda x, da, db, rows: integrand(da)[None, :], 0.0, 1.0)
    assert vals.shape == capped.shape == (1,)
    assert not capped[0]
    assert vals[0] == pytest.approx(exact, rel=1e-10)


def test_periodic_trapezoid_bessel_exact():
    vals, capped = periodic_trapezoid(lambda x, rows: np.exp(np.cos(x))[None, :])
    assert not capped[0]
    assert vals[0] == pytest.approx(2.0 * np.pi * i0(1.0), rel=1e-14)


def _logged(f, log):
    def g(x, *rest):
        vals = f(x, *rest)
        log.append(vals.shape[0])
        return vals
    return g


def test_tanh_sinh_rows_match_one_row_calls():
    # x^p cos(k x): rows converge after 3, 3, 5 and 6 levels; x^-0.99 uses
    # all 12 and is capped
    P = np.array([0.0, -0.5, 0.0, 0.0, -0.99])
    K = np.array([0.0, 0.0, 30.0, 150.0, 0.0])

    def rule(rows_p, rows_k, log):
        def f(x, da, db, rows):
            p, k = rows_p[rows][:, None], rows_k[rows][:, None]
            return np.exp(p * np.log(da)) * np.cos(k * x)
        return _one_segment(_logged(f, log), 0.0, 1.0)

    batch_log = []
    vals, capped = rule(P, K, batch_log)
    # converged rows are no longer evaluated
    assert batch_log == [5, 5, 5, 3, 3, 2, 1, 1, 1, 1, 1, 1]
    assert capped.tolist() == [False, False, False, False, True]
    for i in range(P.size):
        levels = []
        one, one_capped = rule(P[i:i + 1], K[i:i + 1], levels)
        assert one.tobytes() == vals[i:i + 1].tobytes()
        assert one_capped[0] == capped[i]
        assert len(levels) == (3, 3, 5, 6, 12)[i]


def test_periodic_trapezoid_rows_match_one_row_calls():
    # e^{k cos x}: rows converge at 128 and 256 nodes; k = 400 needs 512
    # and is capped at 256
    K = np.array([1.0, 40.0, 150.0, 400.0])

    def rule(rows_k, log):
        return periodic_trapezoid(
            _logged(lambda x, rows: np.exp(rows_k[rows][:, None] * np.cos(x)), log),
            max_n=256)

    batch_log = []
    vals, capped = rule(K, batch_log)
    assert batch_log == [4, 4, 2]
    assert capped.tolist() == [False, False, False, True]
    for i in range(K.size):
        one, one_capped = rule(K[i:i + 1], [])
        assert one.tobytes() == vals[i:i + 1].tobytes()
        assert one_capped[0] == capped[i]
    assert vals[1] == pytest.approx(2.0 * np.pi * i0(40.0), rel=1e-14)


def _recorded(f, nodes):
    def g(x, *rest):
        nodes.append(np.stack([x, *rest[:-1]], axis=-1))
        return f(x, *rest)
    return g


def test_nested_levels_evaluate_each_finest_node_once():
    # x^-0.99 and |sin x|^(1/2) are capped: both rules run to their finest level
    nodes = []
    _, capped = _one_segment(_recorded(lambda x, da, db, rows: da[None, :] ** -0.99, nodes),
                            0.0, 1.0)
    assert capped[0]
    # nodes near an endpoint share x but not the distances (da, db)
    pairs = np.concatenate(nodes)[:, 1:]
    assert len(pairs) == len(np.unique(pairs, axis=0)) == 40961
    da, db = pairs[np.lexsort((-pairs[:, 1], pairs[:, 0]))].T
    # the finest level: h = 2^-12, |tau| <= 5, s = pi/2 sinh(tau)
    s = 0.5 * np.pi * np.sinh(np.arange(-20480, 20481) / 4096.0)
    np.testing.assert_allclose(da, 1.0 / (1.0 + np.exp(-2.0 * s)), rtol=1e-13, atol=0)
    np.testing.assert_allclose(db, 1.0 / (1.0 + np.exp(2.0 * s)), rtol=1e-13, atol=0)

    nodes = []
    _, capped = periodic_trapezoid(
        _recorded(lambda x, rows: np.abs(np.sin(x))[None, :] ** 0.5, nodes))
    assert capped[0]
    x = np.sort(np.concatenate(nodes)[:, 0])
    assert x.size == MAX_EVALS
    assert x.tobytes() == (np.arange(MAX_EVALS) * (2.0 * np.pi / MAX_EVALS)).tobytes()


def test_diverged_rows_retire_at_their_first_non_finite_level():
    # 1e308 at every node overflows the weighted level-0 sum to inf; the row
    # is capped at once, while the other row of the batch converges
    seen = []

    def f(x, da, db, rows):
        seen.append((x.size, np.arange(2)[rows].tolist()))
        return np.stack([np.full(x.size, 1e308), da**-0.5])[rows]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, capped = _one_segment(f, 0.0, 1.0)
        inf_vals, inf_capped = periodic_trapezoid(
            lambda x, rows: np.full((1, x.size), np.inf))
    assert vals[0] == np.inf and capped.tolist() == [True, False]
    assert vals[1] == pytest.approx(2.0, rel=1e-10)
    # only the 21 level-0 nodes (|tau| <= 5 at h = 1/2), not the 40,961 of a cap
    assert sum(n for n, rows in seen if 0 in rows) == seen[0][0] == 21
    assert len(seen) > 1 and all(rows == [1] for _, rows in seen[1:])
    assert inf_vals[0] == np.inf and inf_capped[0]


def test_segmented_integral_equals_per_segment_tanh_sinh_sums_byte_for_byte():
    # three vertices split every circle into three segments; the circle
    # through the alpha = -0.4 vertex has a non-integrable e^{3v} row
    factor = conical_factor(0.3, [((1.2, 0.0), 0.5), ((0.0, -1.6), -0.4),
                                  ((-0.9, 0.9), 0.2)])
    log_f, angles = bic._conical_log_integrand(factor, [1.0, 1.2, 1.6, 2.1], 1.0, 3.0)
    vals, capped = segmented_circle_integral(log_f, angles)

    # each segment alone, its nodes anchored at the nearer end
    theta = np.mod(angles, 2 * np.pi)
    order = np.argsort(theta)
    want, want_capped = 0.0, False
    for ia, ib in zip(order, np.roll(order, -1)):
        a, b = theta[ia], theta[ib] + (2 * np.pi if ib == order[0] else 0.0)

        def seg(x, da, db, rows, a=a, b=b, ia=ia, ib=ib):
            k = np.searchsorted(x, 0.5 * (a + b), side="right")
            return np.exp(np.concatenate(
                [log_f(x[:k], [(slice(None), ia, da[:k])], rows),
                 log_f(x[k:], [(slice(None), ib, -db[k:])], rows)], axis=1))

        seg_vals, seg_capped = _one_segment(seg, a, b)
        want, want_capped = want + seg_vals, want_capped | seg_capped
    assert vals.tobytes() == want.tobytes()
    assert capped.tolist() == want_capped.tolist() == [False] * 6 + [True, False]


def test_tanh_sinh_segments_equal_one_segment_calls_byte_for_byte():
    # the first segment is so short that its outermost node distances
    # underflow and are dropped, so its spans are shorter than the others
    a, b = np.array([0.0, 0.5, 1.0]), np.array([1e-300, 1.0, 3.0])
    P = np.array([0.0, -0.5, -0.99])

    def f(x, da, db, *spans_rows):
        return np.exp(P[spans_rows[-1]][:, None] * np.log(da)) * np.cos(x)

    vals, capped = tanh_sinh(f, a, b)
    assert vals.shape == capped.shape == (3, 3)
    for s in range(3):
        one, one_capped = _one_segment(f, a[s], b[s])
        assert one.tobytes() == vals[s].tobytes()
        assert one_capped.tolist() == capped[s].tolist() == [False, False, True]


# e^800 overflows: every circle integral of these factors is infinite
HUGE_CONE = conical_factor(800.0, [((1.5, 0.0), 0.5)])
HUGE_CHART = ConformalChart(log_modulus_field(800.0, (1.5, 0.0)), 1.0, 2.0)


@pytest.mark.parametrize("length_call", [
    lambda: length(extract_level_curve(catalog_field("log"), HUGE_CHART,
                                       -np.log(1.5), 256), HUGE_CHART),
    lambda: conical_circle_length(HUGE_CONE, 1.5),
    lambda: mollify(HUGE_CONE, 0.1).circle_length(1.5),
    lambda: bic_length_profile(HUGE_CONE, DirichletSpec(np.e**2, 0.0, 2.0),
                               inset_grid(0.0, 2.0, 8)),
], ids=["singular_chart_circle", "conical_circle", "mollified_circle", "bic_profile"])
def test_divergent_circle_integrals_raise(length_call):
    with pytest.raises(SolverError, match="circle integral diverged"):
        length_call()


def test_capped_rows_log_one_warning_each_under_their_own_name(caplog):
    # alpha = -0.99 atoms on the circles |z| = 1.5 and |z| = 1.2: integrable,
    # but too close to -1 for the rule to converge; |z| = 1.3 converges
    factor = conical_factor(0.0, [((1.5, 0.0), -0.99), ((0.0, 1.2), -0.99)])
    radii = [1.5, 1.3, 1.2]
    log_f, angles = bic._conical_log_integrand(factor, radii, 1.0)
    with caplog.at_level(logging.WARNING, logger="levelflow.quadrature"):
        lengths, capped = circle_lengths(log_f, angles, radii, ["outer", "middle", "inner"])
    assert [r.getMessage() for r in caplog.records] == [
        f"{name} at r = {r!r} used every refinement level without reaching "
        "rel_tol 1e-10; finest-level value kept" for name, r in (("outer", 1.5), ("inner", 1.2))]
    assert all(r.levelname == "WARNING" for r in caplog.records)
    assert capped.tolist() == [True, False, True]
    vals, _ = segmented_circle_integral(log_f, angles)
    assert lengths.tobytes() == (np.array(radii) * vals).tobytes()
