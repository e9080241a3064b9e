"""Dirichlet solutions, the field catalog, critical points, numeric solver."""

import logging

import numpy as np
import pytest

from levelflow import (ConformalChart, DirichletSpec, DomainError, ScalarField,
                       WarpedChart, catalog_field, constant_field, critical_points,
                       flat_factor, solve_annulus_dirichlet, solve_annulus_numeric)
from levelflow.jets import sin


def test_dirichlet_closed_form_values():
    u = solve_annulus_dirichlet(DirichletSpec(np.e, 0.0, 1.0))
    assert u.value((np.sqrt(np.e), 0.0)) == pytest.approx(0.5, abs=1e-14)
    assert u.value((1.0, 0.0)) == pytest.approx(0.0, abs=1e-14)
    assert u.value((np.e, 0.0)) == pytest.approx(1.0, abs=1e-14)


def test_dirichlet_canonical_normalisation():
    # data (0, -ln R) reproduces u = -ln|z|
    R = 3.0
    u = solve_annulus_dirichlet(DirichletSpec(R, 0.0, -np.log(R)))
    rng = np.random.default_rng(0)
    r = rng.uniform(1.0, R, 40)
    th = rng.uniform(0, 2 * np.pi, 40)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    assert np.allclose(u.value(pts), -np.log(r), atol=1e-14)


def test_dirichlet_constant_data():
    u = solve_annulus_dirichlet(DirichletSpec(2.0, 1.5, 1.5))
    assert u.value((1.7, 0.3)) == pytest.approx(1.5, abs=1e-15)


def test_dirichlet_invalid_radius():
    with pytest.raises(DomainError):
        DirichletSpec(0.9, 0.0, 1.0)


def test_catalog_laplacians_vanish():
    rng = np.random.default_rng(1)
    r = rng.uniform(0.6, 2.5, 50)
    th = rng.uniform(0, 2 * np.pi, 50)
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    for name, params in [("log", {}), ("arg", {}), ("re_poly", {"n": 3}),
                         ("im_poly", {"n": 2}), ("joukowski", {"a": 0.5}),
                         ("perturbed_log", {"eps": 0.1})]:
        u = catalog_field(name, **params)
        assert np.max(np.abs(u.jet(pts).laplacian())) <= 1e-8, name


def test_catalog_warped_field_is_metric_harmonic():
    # u'' + tanh(t) u' = 0 for the cosh warp
    u = catalog_field("warped_arctan")
    ts = np.linspace(-2, 2, 41)
    pts = np.stack([ts, np.zeros_like(ts)], axis=-1)
    j = u.jet(pts)
    res = j.hess[:, 0, 0] + np.tanh(ts) * j.grad[:, 0]
    assert np.max(np.abs(res)) <= 1e-12
    vals = u.value(pts)
    assert np.all((0 < vals) & (vals < np.pi))


def test_catalog_unknown_name_and_params():
    with pytest.raises(DomainError):
        catalog_field("nope")
    with pytest.raises(DomainError):
        catalog_field("log", c=-1.0, bogus=2)
    with pytest.raises(DomainError, match="needs its degree n"):
        catalog_field("re_poly")


def test_critical_points_examples():
    flat = ConformalChart(flat_factor(), 0.5, 2.0)
    cps = critical_points(catalog_field("joukowski", a=1.0), flat)
    assert len(cps) == 2
    found = sorted(cps)
    assert np.allclose(found, [(-1.0, 0.0), (1.0, 0.0)], atol=1e-8)

    annulus = ConformalChart(flat_factor(), 1.0, 2.0)
    assert critical_points(catalog_field("log"), annulus) == []
    assert critical_points(catalog_field("re_poly", n=1), annulus) == []


def test_critical_points_dirichlet_always_empty():
    chart = ConformalChart(flat_factor(), 1.0, 3.0)
    for t1, t2 in [(0.0, 1.0), (2.0, -1.0)]:
        u = solve_annulus_dirichlet(DirichletSpec(3.0, t1, t2))
        assert critical_points(u, chart) == []


def test_critical_points_refuse_constant_fields():
    # every point of a constant is critical, so none is isolated to report
    for u, chart in [
            (constant_field(0.7), ConformalChart(flat_factor(), 1.0, 4.0)),
            (solve_annulus_dirichlet(DirichletSpec(3.0, 1.0, 1.0)),
             ConformalChart(flat_factor(), 1.0, 3.0)),
            (ScalarField.from_expression(lambda t, _th: 0.7, radial="t"),
             WarpedChart.cosh_cylinder(0.3, 0.1, 2.0))]:
        with pytest.raises(DomainError, match="u is constant"):
            critical_points(u, chart)


def test_critical_points_on_a_warped_chart_need_a_field_of_t():
    # Im z^2 read at (t, theta) has grad 0 nowhere on theta = 0, but its t-derivative
    # vanishes there: the warped scan must refuse it, not report those points
    chart = WarpedChart.cosh_cylinder(0.3, 0.1, 2.0)
    with pytest.raises(DomainError):
        critical_points(catalog_field("im_poly", n=2), chart)


def test_critical_points_on_a_warped_chart_solve_u_prime():
    chart = WarpedChart.cosh_cylinder(0.3, 0.1, 2.0)

    def of_t(expr):
        return ScalarField.from_expression(lambda t, _th: expr(t), radial="t")

    assert critical_points(of_t(lambda t: (t - 0.3) ** 2), chart) == [(0.3, 0.0)]
    roots = critical_points(of_t(lambda t: sin(t * 3.0)), chart)
    assert np.allclose(roots, [(np.pi / 6, 0.0), (np.pi / 2, 0.0)], rtol=0, atol=1e-12)
    # u' is exactly 0 at a scan point: that bracket end is the root
    c = np.linspace(0.1, 2.0, 64)[20]
    assert critical_points(of_t(lambda t: (t - c) ** 2), chart) == [(c, 0.0)]


@pytest.mark.parametrize("name, params, max_calls", [
    ("re_poly", {"n": 2}, 48), ("log", {}, 24)])
def test_critical_points_evaluation_budget(field_evaluations, caplog, name, params,
                                          max_calls):
    # one scan, then one jet call per Newton iteration over all live seeds
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    with caplog.at_level(logging.DEBUG, logger="levelflow.harmonic"):
        assert critical_points(catalog_field(name, **params), chart) == []
    assert len(field_evaluations) <= max_calls
    assert min(field_evaluations) > 1
    # every seed is dropped, all in one log line
    assert [r.message.startswith("critical-point Newton: seeds dropped")
            for r in caplog.records] == [True]


def test_numeric_solver_accuracy_and_order():
    spec = DirichletSpec(np.e, 0.0, 1.0)
    errs = {}
    for grid in [(64, 128), (128, 256)]:
        r, th, vals = solve_annulus_numeric(spec, grid)
        exact = np.log(r)[:, None] * np.ones(th.size)[None, :]
        errs[grid] = np.abs(vals - exact).max()
    assert errs[(64, 128)] <= 5e-4
    assert 3.5 <= errs[(64, 128)] / errs[(128, 256)] <= 4.5


def test_numeric_solver_constant_data_exact():
    _, _, vals = solve_annulus_numeric(DirichletSpec(2.0, 3.0, 3.0), (16, 32))
    assert np.abs(vals - 3.0).max() <= 1e-12


def test_numeric_solver_grid_validation():
    with pytest.raises(DomainError):
        solve_annulus_numeric(DirichletSpec(2.0, 0.0, 1.0), (4, 32))


def test_maximum_principle_on_compact_subannulus():
    # interior values of every catalog field stay within the sub-annulus
    # boundary range up to grid interpolation error
    chart = ConformalChart(flat_factor(), 1.0, 3.0)
    r_lo, r_hi = 1.3, 2.4
    th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
    for name, params in [("log", {}), ("re_poly", {"n": 2}),
                         ("joukowski", {"a": 0.4})]:
        u = catalog_field(name, **params)
        bnd = np.concatenate([
            u.value(np.stack([r_lo * np.cos(th), r_lo * np.sin(th)], axis=-1)),
            u.value(np.stack([r_hi * np.cos(th), r_hi * np.sin(th)], axis=-1))])
        rr = np.linspace(r_lo, r_hi, 60)
        R, T = np.meshgrid(rr, th[::4], indexing="ij")
        interior = u.value(np.stack([(R * np.cos(T)).ravel(),
                                     (R * np.sin(T)).ravel()], axis=-1))
        assert interior.max() <= bnd.max() + 1e-6
        assert interior.min() >= bnd.min() - 1e-6
