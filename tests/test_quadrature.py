"""Exact answers and row independence of the batched quadrature rules."""

import numpy as np
import pytest
from scipy.special import i0

from levelflow.quadrature import MAX_EVALS, periodic_trapezoid, tanh_sinh


@pytest.mark.parametrize("integrand, exact", [
    (lambda da: da**-0.5, 2.0),
    (np.log, -1.0),
    (lambda da: da**-0.9, 10.0),
], ids=["x^-1/2", "ln x", "x^-0.9"])
def test_tanh_sinh_endpoint_singularities_exact(integrand, exact):
    # the singular factor reads the cancellation-free distance to x = 0
    vals, capped = tanh_sinh(lambda x, da, db, rows: integrand(da)[None, :], 0.0, 1.0)
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
        return tanh_sinh(_logged(f, log), 0.0, 1.0)

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
    _, capped = tanh_sinh(_recorded(lambda x, da, db, rows: da[None, :] ** -0.99, nodes),
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
