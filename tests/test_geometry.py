"""Charts, curvature and the pointwise identity residuals."""

import numpy as np
import pytest

from levelflow import (ConformalChart, CriticalPointError, DomainError,
                       SingularPointError, WarpedChart, bochner_residual,
                       catalog_field, flat_factor, gauss_curvature,
                       grad_gauss_curvature, half_plane_factor, kato_residual,
                       level_curvature_k, log_gradient_residual,
                       log_modulus_field, metric_gradient_norm,
                       quasi_random_points, radial_log_field,
                       sphere_cap_factor, stereographic_sphere_factor)

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
    r = 0.5
    assert chart.gauss_curvature((r, 0.0)) == pytest.approx(
        0.4 / (1 - 0.1 * r**2) ** 4, rel=1e-13)


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


def test_christoffels_flat_vanish_and_match_factor_gradient():
    assert np.allclose(FLAT.christoffels((2.0, 1.0)), 0.0)
    p = (1.3, 0.4)
    g = CAP.factor.gradient(p)
    gx, gy = g[0], g[1]
    assert np.allclose(CAP.christoffels(p), [gx, gy, -gx, -gy, gx, gy], atol=1e-14)


def test_metric_point_data():
    data = CAP.point_data((1.3, 0.2))
    lam = 1 - 0.1 * (1.3**2 + 0.2**2)
    assert data.conf == pytest.approx(lam**2, rel=1e-14)
    assert data.K == pytest.approx(0.4 / lam**4, rel=1e-12)
    assert data.christoffels.shape == (6,)


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


def test_identity_residuals_hyperbolic_halfplane_exact():
    u = catalog_field("re_poly", n=1)
    for p in [(0.0, 1.0), (0.5, 2.0), (-1.0, 0.3)]:
        assert abs(kato_residual(u, HALF, p)) <= 1e-12
        assert abs(bochner_residual(u, HALF, p)) <= 1e-12
        assert abs(log_gradient_residual(u, HALF, p)) <= 1e-12


def test_identity_residuals_fd_fallback_tolerance():
    from levelflow import ScalarField
    u = ScalarField.from_callable(
        lambda p: -0.5 * np.log(p[:, 0] ** 2 + p[:, 1] ** 2), step=1e-3)
    pts = quasi_random_points(FLAT, 20, seed=3)
    for res in (kato_residual, bochner_residual, log_gradient_residual):
        assert np.max(np.abs(res(u, FLAT, pts))) <= 1e-4


def test_warp_must_be_positive():
    from levelflow import ScalarField
    from levelflow import jets as J
    shape = ScalarField.from_expression(lambda t, _th: J.sin(t), radial=True)
    with pytest.raises(DomainError):
        WarpedChart(0.0, 6.0, 1.0, shape)  # sin crosses zero
