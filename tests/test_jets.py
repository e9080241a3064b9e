"""Jet arithmetic against independent derivative computations."""

import numpy as np
import pytest

from levelflow import jets
from levelflow.fields import ScalarField


def fd_derivative(f, p, iorder, jorder, h=1e-2):
    """Plain nested central differences of a bivariate function."""
    if iorder > 0:
        return (fd_derivative(f, (p[0] + h, p[1]), iorder - 1, jorder, h)
                - fd_derivative(f, (p[0] - h, p[1]), iorder - 1, jorder, h)) / (2 * h)
    if jorder > 0:
        return (fd_derivative(f, (p[0], p[1] + h), iorder, jorder - 1, h)
                - fd_derivative(f, (p[0], p[1] - h), iorder, jorder - 1, h)) / (2 * h)
    return f(p[0], p[1])


def test_expression_jet_matches_finite_differences():
    def f(x, y):
        return np.exp(0.3 * x) * np.log(2.0 + x * x + 0.5 * y * y) + np.arctan(x - 0.2 * y)

    def expr(x, y):
        return jets.exp(0.3 * x) * jets.log(2.0 + x * x + 0.5 * y * y) + jets.atan(x - 0.2 * y)

    field = ScalarField.from_expression(expr)
    p = (0.7, -0.4)
    j = field.jet(p)
    assert j.value[0] == pytest.approx(f(*p), abs=1e-14)
    assert j.grad[0, 0] == pytest.approx(fd_derivative(f, p, 1, 0), abs=1e-5)
    assert j.grad[0, 1] == pytest.approx(fd_derivative(f, p, 0, 1), abs=1e-5)
    assert j.hess[0, 0, 1] == pytest.approx(fd_derivative(f, p, 1, 1), abs=1e-4)
    assert j.third[0, 1] == pytest.approx(fd_derivative(f, p, 2, 1), abs=1e-3)
    assert j.fourth[0, 2] == pytest.approx(fd_derivative(f, p, 2, 2), rel=1e-3, abs=1e-3)


def test_division_and_power():
    field = ScalarField.from_expression(lambda x, y: (x * x + 1.0) / (y + 2.0))
    j = field.jet((1.0, 0.0))
    # f = (x^2+1)/(y+2): f_x = 2x/(y+2) = 1, f_yy = 2(x^2+1)/(y+2)^3 = 0.5
    assert j.grad[0, 0] == pytest.approx(1.0, abs=1e-14)
    assert j.hess[0, 1, 1] == pytest.approx(0.5, abs=1e-14)
    sq = ScalarField.from_expression(lambda x, y: jets.sqrt(x * x + y * y))
    assert sq.gradient((3.0, 4.0)) == pytest.approx([0.6, 0.8], abs=1e-14)


def test_trig_and_hyperbolic():
    f = ScalarField.from_expression(lambda x, y: jets.sin(x) * jets.cos(y) + jets.cosh(x))
    j = f.jet((0.3, 0.2))
    assert j.value[0] == pytest.approx(np.sin(0.3) * np.cos(0.2) + np.cosh(0.3), abs=1e-14)
    assert j.hess[0, 0, 0] == pytest.approx(-np.sin(0.3) * np.cos(0.2) + np.cosh(0.3),
                                            abs=1e-13)
    a = ScalarField.from_expression(lambda x, y: 2.0 * jets.atan(jets.exp(x)))
    # d/dt 2 arctan(e^t) = sech t, second derivative -sech t tanh t
    t = 0.7
    j = a.jet((t, 0.0))
    assert j.grad[0, 0] == pytest.approx(1.0 / np.cosh(t), abs=1e-14)
    assert j.hess[0, 0, 0] == pytest.approx(-np.tanh(t) / np.cosh(t), abs=1e-14)


def test_holomorphic_jets_log_and_monomial():
    # u = Re ln z = ln|z|: gradient (x, y)/r^2, harmonic
    z0 = np.array([0.6 + 0.8j])
    t = jets.holomorphic_jet(jets.log_z_coeffs(z0), "re")
    assert t.c[0, 0][0] == pytest.approx(0.0, abs=1e-15)  # ln|z0| = ln 1
    assert t.c[1, 0][0] == pytest.approx(0.6, abs=1e-15)
    assert t.c[0, 1][0] == pytest.approx(0.8, abs=1e-15)
    assert 2 * t.c[2, 0][0] + 2 * t.c[0, 2][0] == pytest.approx(0.0, abs=1e-15)
    # Im z^3 at z0 = 1+0j: value 0, d/dy = 3
    m = jets.holomorphic_jet(jets.monomial_coeffs(np.array([1.0 + 0j]), 3), "im")
    assert m.c[0, 0][0] == pytest.approx(0.0, abs=1e-15)
    assert m.c[0, 1][0] == pytest.approx(3.0, abs=1e-15)


def test_concurrent_evaluation_is_pure():
    # fields are immutable after construction; concurrent jet evaluation
    # must agree with the sequential result
    from concurrent.futures import ThreadPoolExecutor
    g = ScalarField.from_expression(lambda x, y: jets.exp(x) * jets.atan(y))
    pts = np.random.default_rng(0).uniform(-1, 1, size=(64, 2))
    expected = g.jet(pts).fourth
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: g.jet(pts).fourth, range(16)))
    for r in results:
        assert np.array_equal(r, expected)


def test_batch_evaluation_matches_pointwise():
    g = ScalarField.from_expression(lambda x, y: jets.log(1.0 + x * x + y * y) * jets.exp(-y))
    pts = np.array([[0.1, 0.2], [1.4, -0.6], [2.0, 0.0]])
    batch = g.jet(pts)
    for i, p in enumerate(pts):
        single = g.jet(p)
        assert np.allclose(single.value[0], batch.value[i], atol=0)
        assert np.allclose(single.fourth[0], batch.fourth[i], atol=0)


# ---------------------------------------------------------------------------
# order-on-demand jets
# ---------------------------------------------------------------------------

def _order_cases():
    from levelflow import (WarpedChart, catalog_field, flat_factor, half_plane_factor,
                           radial_log_field, sphere_cap_factor,
                           stereographic_sphere_factor)
    rng = np.random.default_rng(5)
    r, th = rng.uniform(0.6, 2.5, 40), rng.uniform(0.0, 2.0 * np.pi, 40)
    annulus = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
    upper = np.stack([rng.uniform(-2.0, 2.0, 40), rng.uniform(0.2, 3.0, 40)], axis=-1)
    strip = np.stack([rng.uniform(-2.0, 2.0, 40), rng.uniform(0.0, 6.0, 40)], axis=-1)
    fields = {name: (catalog_field(name, **params), annulus)
              for name, params in (("log", {}), ("arg", {}), ("re_poly", {"n": 3}),
                                   ("im_poly", {"n": 5}), ("joukowski", {"a": 0.7}),
                                   ("im_joukowski", {}), ("perturbed_log", {}))}
    fields.update({
        "warped_arctan": (catalog_field("warped_arctan"), strip),
        "flat": (flat_factor(), annulus),
        "sphere_cap": (sphere_cap_factor(0.1), annulus),
        "stereographic": (stereographic_sphere_factor(), annulus),
        "half_plane": (half_plane_factor(), upper),
        "radial_log": (radial_log_field(0.3, -0.7, 0.4), annulus),
        "cosh_warp": (WarpedChart.cosh_cylinder(0.4, -2.0, 2.0).shape, strip),
    })
    return fields


ORDER_CASES = _order_cases()
ENTRIES = ("value", "grad", "hess", "third", "fourth")


@pytest.mark.parametrize("name", sorted(ORDER_CASES))
@pytest.mark.parametrize("order", range(4))
def test_truncated_jet_is_the_leading_block_of_the_full_jet(name, order):
    field, pts = ORDER_CASES[name]
    for p in (pts, pts[3]):  # a batch and a single point
        full, low = field.jet(p), field.jet(p, order)
        for k, entry in enumerate(ENTRIES):
            if k <= order:
                assert getattr(low, entry).tobytes() == getattr(full, entry).tobytes(), entry
            else:
                assert getattr(low, entry) is None, entry


def test_warp_jet_orders_are_the_leading_derivatives():
    from levelflow import WarpedChart
    chart = WarpedChart.cosh_cylinder(0.4, -2.0, 2.0)
    t = np.linspace(-2.0, 2.0, 17)
    full = chart.warp_jet(t)
    assert len(full) == 4
    for order in range(4):
        low = chart.warp_jet(t, order)
        assert [w.tobytes() for w in low] == [w.tobytes() for w in full[:order + 1]]
    with pytest.raises(ValueError):
        chart.warp_jet(t, 4)


def test_jets_of_different_degrees_do_not_combine():
    x4, _ = jets.Taylor2.seeds(0.3, 0.2)
    x2, _ = jets.Taylor2.seeds(0.3, 0.2, 2)
    x0, _ = jets.Taylor2.seeds(0.3, 0.2, 0)
    assert x2.c.shape == (3, 3)
    with pytest.raises(ValueError):
        x4 * x2
    with pytest.raises(ValueError):
        x0 + x4
    with pytest.raises(ValueError):
        jets.Taylor2.seeds(0.3, 0.2, 5)
    with pytest.raises(ValueError):
        ScalarField.from_expression(lambda x, y: x * y).jet((0.1, 0.2), 5)


# ---------------------------------------------------------------------------
# the two product kernels
# ---------------------------------------------------------------------------

SPECIALS = (0.0, -0.0, np.inf, -np.inf)


def _table(rng, deg, points, specials=SPECIALS):
    """A random coefficient table with ``specials`` among its entries,
    nonzero above the triangle i + j <= deg too."""
    c = rng.standard_normal((deg + 1, deg + 1) + points)
    pick = rng.integers(0, 12, c.shape)
    for k, v in enumerate(specials):
        c[pick == k] = v
    return c


def _kernels_agree(a, b):
    """Both kernels and the product give a's and b's product table bit for
    bit, with zeros above the triangle.  Inputs holding NaN are compared
    with NaN as a value: where two NaNs meet, the sign of the resulting NaN
    depends on the order in which the machine adds them, which IEEE 754
    leaves open."""
    with np.errstate(all="ignore"):
        looped, gathered = jets._mul_looped(a, b), jets._mul_gathered(a, b)
        via_product = (jets.Taylor2(a) * jets.Taylor2(b)).c
    deg = a.shape[0] - 1
    above = np.add.outer(np.arange(deg + 1), np.arange(deg + 1)) > deg
    nan = np.isnan(looped) if np.isnan(a).any() or np.isnan(b).any() else False
    for got in (gathered, via_product):
        assert got.shape == looped.shape and got.dtype == looped.dtype
        assert np.array_equal(np.isnan(got), np.isnan(looped))
        assert np.where(nan, 0.0, got).tobytes() == np.where(nan, 0.0, looped).tobytes()
    assert not looped[above].any()


def _crossover(deg):
    """The most points of a degree-deg product that takes the gathered kernel."""
    terms = sum((i + 1) * (j + 1) for i in range(deg + 1) for j in range(deg + 1 - i))
    return jets.GATHER_MAX_ENTRIES // terms


@pytest.mark.parametrize("deg", range(jets.DEG + 1))
@pytest.mark.parametrize("points", [(), (1,), (258,), -1, 0, 1, (65536,)])
def test_gathered_product_equals_looped_product_byte_for_byte(deg, points):
    if isinstance(points, int):  # an offset from the degree's crossover
        points = (_crossover(deg) + points,)
    rng = np.random.default_rng([deg, len(points) and points[0]])
    for specials in (SPECIALS, SPECIALS + (np.nan,)):
        _kernels_agree(_table(rng, deg, points, specials), _table(rng, deg, points, specials))


@pytest.mark.parametrize("deg", range(jets.DEG + 1))
def test_product_takes_the_gathered_kernel_up_to_the_crossover(deg, monkeypatch):
    taken = []
    for name in ("_mul_gathered", "_mul_looped"):
        kernel = getattr(jets, name)
        monkeypatch.setattr(jets, name, lambda a, b, name=name, kernel=kernel:
                            taken.append(name) or kernel(a, b))
    for points in ((), (1,), (_crossover(deg),), (_crossover(deg) + 1,)):
        x, y = jets.Taylor2.seeds(np.full(points, 0.3), 0.2, deg)
        x * y
    assert taken == ["_mul_gathered"] * 3 + ["_mul_looped"]


@pytest.mark.parametrize("deg", range(jets.DEG + 1))
@pytest.mark.parametrize("shapes", [((), (258,)), ((3,), (4, 3))])
def test_kernels_agree_on_mixed_trailing_axes_in_both_orders(deg, shapes):
    rng = np.random.default_rng(deg)
    for specials in (SPECIALS, SPECIALS + (np.nan,)):
        a, b = (_table(rng, deg, s, specials) for s in shapes)
        _kernels_agree(a, b)
        _kernels_agree(b, a)


def test_products_of_signed_zeros_start_from_positive_zero():
    # each coefficient sums its terms from 0.0, so -0.0 * 1 gives +0.0
    a = np.full((3, 3, 4), -0.0)
    b = np.ones((3, 3, 4))
    for kernel in (jets._mul_looped, jets._mul_gathered):
        out = kernel(a, b)
        assert not np.signbit(out).any()
