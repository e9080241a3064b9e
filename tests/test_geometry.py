"""Charts, curvature and the pointwise identity residuals."""

import numpy as np
import pytest

from levelflow import (ConformalChart, CriticalPointError, DirichletSpec,
                       DomainError, SingularPointError, WarpedChart,
                       bochner_residual, catalog_field, constant_field,
                       critical_points, dlength_integral, flat_factor,
                       gauss_curvature, grad_gauss_curvature,
                       half_plane_factor, kato_residual, level_curvature_k,
                       log_gradient_residual, log_modulus_field,
                       metric_gradient_norm, quasi_random_points,
                       radial_log_field, solve_annulus_dirichlet,
                       sphere_cap_factor, stereographic_sphere_factor)
from levelflow.fields import ScalarField
from levelflow.identities import identity_residuals

FLAT = ConformalChart(flat_factor(), 1.0, 4.0)
CAP = ConformalChart(sphere_cap_factor(0.1), 1.0, 2.5)
HALF = ConformalChart(half_plane_factor())
HYP = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), -2.0, 2.0)


def test_gauss_curvature_flat_and_warped():
    assert gauss_curvature(FLAT, (1.2, 0.3)) == pytest.approx(0.0, abs=1e-15)
    for t in (-1.0, 0.0, 0.7):
        assert gauss_curvature(HYP, (t, 0.1)) == pytest.approx(-1.0, abs=1e-12)


def test_gauss_curvature_sphere_cap_center():
    chart = ConformalChart(sphere_cap_factor(0.1), 0.0, None)
    assert chart.gauss_curvature((0.0, 0.0)) == pytest.approx(0.4, abs=1e-13)
    # closed form K = 4c / (1 - c r^2)^4 away from the origin
    for (x, y), rel in (((0.5, 0.0), 1e-13), ((1.3, 0.2), 1e-12)):
        lam = 1 - 0.1 * (x**2 + y**2)
        assert chart.gauss_curvature((x, y)) == pytest.approx(0.4 / lam**4, rel=rel)


def test_stereographic_sphere_curvature_is_one():
    chart = ConformalChart(stereographic_sphere_factor(), 0.0, None)
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(50, 2))
    assert np.allclose(chart.gauss_curvature(pts), 1.0, atol=1e-10)


def test_grad_gauss_curvature_against_finite_differences():
    p = np.array([0.5, 0.0])
    chart = ConformalChart(sphere_cap_factor(0.1), 0.0, None)
    exact = chart.grad_gauss_curvature(p)

    def fd(h):
        return np.array([
            (chart.gauss_curvature(p + [h, 0]) - chart.gauss_curvature(p - [h, 0])) / (2 * h),
            (chart.gauss_curvature(p + [0, h]) - chart.gauss_curvature(p - [0, h])) / (2 * h)])

    assert np.allclose(fd(1e-4), exact, rtol=1e-6)
    # second-order convergence of the cross-check
    e1 = np.linalg.norm(fd(2e-3) - exact)
    e2 = np.linalg.norm(fd(1e-3) - exact)
    assert 3.5 <= e1 / e2 <= 4.5


def test_grad_gauss_curvature_constant_curvature_vanishes():
    assert np.allclose(grad_gauss_curvature(FLAT, (1.5, 0.5)), 0.0, atol=1e-14)
    assert np.allclose(grad_gauss_curvature(HYP, (0.3, 0.0)), 0.0, atol=1e-12)
    sphere = ConformalChart(stereographic_sphere_factor(), 0.0, None)
    assert np.allclose(sphere.grad_gauss_curvature((0.7, -0.2)), 0.0, atol=1e-11)


def test_metric_gradient_norm_examples():
    u = catalog_field("log")
    r = np.hypot(0.3, 0.4)
    assert metric_gradient_norm(u, ConformalChart(flat_factor(), 0.1, 4.0),
                                (0.3, 0.4)) == pytest.approx(1 / r, rel=1e-14)
    ux = catalog_field("re_poly", n=1)
    assert metric_gradient_norm(ux, HALF, (0.0, 2.0)) == pytest.approx(2.0, abs=1e-14)
    uw = catalog_field("warped_arctan")
    assert metric_gradient_norm(uw, HYP, (0.7, 0.0)) == pytest.approx(
        1.0 / np.cosh(0.7), rel=1e-14)


def test_warped_chart_rejects_fields_radial_in_abs_z():
    # a field of |z| read at the points (t, theta) of a warped chart depends on theta
    chart = WarpedChart.cosh_cylinder(0.3, 0.1, 2.0)
    for u in (catalog_field("log"), solve_annulus_dirichlet(DirichletSpec(2.0, 0.0, 1.0)),
              log_modulus_field(1.0), radial_log_field(0.0, 1.0, 0.5)):
        with pytest.raises(DomainError):
            metric_gradient_norm(u, chart, [(0.5, 0.0), (0.5, 1.0)])


CONSTRUCTORS = {
    **{name: catalog_field(name, **params) for name, params in (
        ("log", {}), ("arg", {}), ("re_poly", {"n": 2}), ("im_poly", {"n": 2}),
        ("joukowski", {}), ("im_joukowski", {}), ("perturbed_log", {}),
        ("warped_arctan", {}))},
    "dirichlet": solve_annulus_dirichlet(DirichletSpec(4.0, 0.0, 1.0)),
    "log_modulus": log_modulus_field(1.0),
    "log_modulus_off_origin": log_modulus_field(1.0, (0.3, 0.2)),
    "radial_log": radial_log_field(0.0, 1.0, 0.5),
    "constant": constant_field(0.7),
}


@pytest.mark.parametrize("name", CONSTRUCTORS)
@pytest.mark.parametrize("chart", [FLAT, WarpedChart.cosh_cylinder(0.3, 0.1, 2.0)],
                         ids=["flat", "cosh_cylinder"])
def test_radial_declarations_hold_or_the_chart_refuses(name, chart):
    u = CONSTRUCTORS[name]
    # two angles of the coordinate circle |z| = 1.5 (conformal) or t = 0.5 (warped)
    pts = np.array([(1.5 * np.cos(a), 1.5 * np.sin(a)) if chart.kind == "conformal"
                    else (0.5, a) for a in (0.3, 2.1)])
    if u.radial == chart.radial:
        a, b = u.value(pts)
        assert a == pytest.approx(b, rel=1e-14, abs=0.0)
    elif chart.kind == "warped":
        # the field's kind is checked before u is read as if it were a
        # function of t: a level outside u's values at the ends of theta = 0
        # is refused for it too, not as off the boundary values
        level = np.mean(u.value([(chart.t_min, 0.0), (chart.t_max, 0.0)]))
        for call in (lambda: metric_gradient_norm(u, chart, pts),
                     lambda: dlength_integral(u, chart, level),
                     lambda: dlength_integral(u, chart, level + 10.0),
                     lambda: critical_points(u, chart)):
            with pytest.raises(DomainError, match="radial in|radial fields only"):
                call()


def test_radial_takes_a_coordinate_name():
    with pytest.raises(ValueError, match="radial must be None, 'abs_z' or 't'"):
        ScalarField.from_expression(lambda x, y: x * x + y * y, radial=True)


def test_singular_point_evaluation_raises():
    factor = log_modulus_field(1.0, (1.5, 0.0))
    chart = ConformalChart(factor, 1.0, 2.0)
    with pytest.raises(SingularPointError):
        chart.gauss_curvature((1.5, 1e-10))
    with pytest.raises(DomainError):
        FLAT.gauss_curvature((8.0, 0.0))


def test_residuals_zero_gradient_raises():
    u = catalog_field("re_poly", n=2)  # grad vanishes at the origin
    chart = ConformalChart(flat_factor(), 0.0, None)
    with pytest.raises(CriticalPointError):
        kato_residual(u, chart, (0.0, 0.0))


@pytest.mark.parametrize("fn", [kato_residual, bochner_residual, log_gradient_residual])
def test_residuals_share_the_critical_gradient_floor(fn):
    # |grad u| = 1e-10 is below the 1e-8 floor of the curvature functions
    u = catalog_field("re_poly", n=2)
    chart = ConformalChart(flat_factor(), 0.0, None)
    with pytest.raises(CriticalPointError):
        level_curvature_k(u, chart, (5e-11, 0.0))
    with pytest.raises(CriticalPointError):
        fn(u, chart, (5e-11, 0.0))


@pytest.mark.parametrize("t", [1.0, 1.0 + 1e-10])
@pytest.mark.parametrize("fn", [level_curvature_k, kato_residual])
def test_warped_fields_share_the_critical_gradient_floor(fn, t):
    # u' = t - 1 is 0 at t = 1 and about 1e-10 just past it, under the floor
    u = ScalarField.from_expression(lambda s, _th: 0.5 * (s - 1.0) ** 2, radial="t")
    with pytest.raises(CriticalPointError):
        fn(u, HYP, (t, 0.3))


CLOSED_FORM_PAIRS = [
    ("flat_quadratic", catalog_field("re_poly", n=2), FLAT),
    ("flat_joukowski", catalog_field("joukowski", a=0.3), FLAT),
    ("cap_log", catalog_field("log"), CAP),
    ("cap_joukowski", catalog_field("joukowski", a=0.3), CAP),
    ("halfplane_linear", catalog_field("re_poly", n=1), HALF),
]


@pytest.mark.parametrize("name,u,chart", CLOSED_FORM_PAIRS,
                         ids=[c[0] for c in CLOSED_FORM_PAIRS])
def test_identity_residuals_closed_form(name, u, chart):
    if chart is HALF:
        rng = np.random.default_rng(7)
        pts = np.stack([rng.uniform(-1, 1, 100), rng.uniform(0.5, 2.0, 100)], axis=-1)
    else:
        pts = quasi_random_points(chart, 100, seed=1, min_gradient_field=u)
    for res in (kato_residual, bochner_residual, log_gradient_residual):
        vals = res(u, chart, pts)
        assert np.max(np.abs(vals)) <= 1e-6, (name, res.__name__)


def test_identity_residuals_warped_closed_form():
    u = catalog_field("warped_arctan")
    pts = quasi_random_points(HYP, 100, seed=2)
    for res in (kato_residual, bochner_residual, log_gradient_residual):
        assert np.max(np.abs(res(u, HYP, pts))) <= 1e-8


@pytest.mark.parametrize("u,chart,metric_field", [
    (catalog_field("log"), CAP, CAP.factor),
    (catalog_field("warped_arctan"), HYP, HYP.shape),
], ids=["sphere_cap", "warped"])
def test_identities_read_u_to_order_3_and_the_metric_to_order_2(u, chart, metric_field,
                                                                monkeypatch):
    pts = quasi_random_points(chart, 8, seed=4, min_gradient_field=u)
    calls = []
    jet = ScalarField.jet

    def counted(self, q, order=4):
        calls.append((self, order))
        return jet(self, q, order)

    monkeypatch.setattr(ScalarField, "jet", counted)
    for res in (kato_residual, bochner_residual, log_gradient_residual):
        calls.clear()
        res(u, chart, pts)
        assert sorted(calls, key=lambda c: c[1]) == [(metric_field, 2), (u, 3)]


@pytest.mark.parametrize("u,chart", [
    (catalog_field("log"), CAP),
    (catalog_field("warped_arctan"), HYP),
    (catalog_field("re_poly", n=2), HALF),
], ids=["sphere_cap", "cosh_cylinder", "half_plane"])
def test_identity_residuals_equal_the_three_calls(u, chart, field_evaluations):
    if chart is HALF:
        rng = np.random.default_rng(5)
        pts = np.stack([rng.uniform(-1, 1, 16), rng.uniform(0.5, 2.0, 16)], axis=-1)
    else:
        pts = quasi_random_points(chart, 16, seed=5, min_gradient_field=u)
    three = (kato_residual, bochner_residual, log_gradient_residual)
    field_evaluations.clear()
    got = identity_residuals(u, chart, pts)
    assert len(field_evaluations) == 2  # one jet of u, one of the metric
    assert [a.tobytes() for a in got] == [fn(u, chart, pts).tobytes() for fn in three]
    p = tuple(pts[0])
    one = identity_residuals(u, chart, p)
    assert all(type(a) is float for a in one)
    assert np.array(one).tobytes() == np.array([fn(u, chart, p) for fn in three]).tobytes()


def test_identity_residuals_hyperbolic_halfplane_exact():
    u = catalog_field("re_poly", n=1)
    for p in [(0.0, 1.0), (0.5, 2.0), (-1.0, 0.3)]:
        assert abs(kato_residual(u, HALF, p)) <= 1e-12
        assert abs(bochner_residual(u, HALF, p)) <= 1e-12
        assert abs(log_gradient_residual(u, HALF, p)) <= 1e-12


def test_warp_must_be_positive():
    from levelflow import ScalarField
    from levelflow import jets as J
    shape = ScalarField.from_expression(lambda t, _th: J.sin(t), radial="t")
    with pytest.raises(DomainError):
        WarpedChart(0.0, 6.0, 1.0, shape)  # sin crosses zero
