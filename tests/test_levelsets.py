"""Level curves, the length functional and its derivative formulas."""

import logging
import re

import numpy as np
import pytest
from scipy.integrate import quad

from levelflow import (ConformalChart, CriticalPointError, DirichletSpec, DomainError,
                       NormalizationError, PreconditionError, ScalarField,
                       SingularPointError, SolverError, TopologyError, WarpedChart,
                       asymptotic_defect, catalog_field, constant_field,
                       d2length_integral, dlength_integral, extract_level_curve,
                       flat_factor, inset_grid, length, length_profile, level_radius,
                       log_convexity_check, log_modulus_field, logL_slope_bound,
                       pinched_bound_check, radial_log_field,
                       second_divided_differences, sharp_bound_gap,
                       solve_annulus_dirichlet, sphere_cap_factor)
from levelflow import jets, levelsets, scenarios

FLAT_BIG = ConformalChart(flat_factor(), 1.0, np.e**2)
CANONICAL = solve_annulus_dirichlet(DirichletSpec(np.e**2, 0.0, -2.0))
HYP = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), -3.0, 3.0)  # ln(lambda) = 2
ARCTAN = catalog_field("warped_arctan")
# the same u = 2 atan e^t without the closed-form inverse t = ln tan(s/2):
# its levels go through the sweep and the batched Newton solve
ARCTAN_NEWTON = ScalarField.from_expression(
    lambda t, _th: 2.0 * jets.atan(jets.exp(t)), radial="t")


def hyp_chart(lam):
    return WarpedChart.cosh_cylinder(np.log(lam) / (2 * np.pi), -3.0, 3.0)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_radial_circle_exact():
    t = 1.2
    curve = extract_level_curve(CANONICAL, FLAT_BIG, -t, 256)
    r = np.hypot(curve.points[:, 0], curve.points[:, 1])
    assert np.max(np.abs(r - np.exp(t))) <= 1e-10
    assert np.all(curve.weights > 0)
    assert np.sum(curve.weights) == pytest.approx(2 * np.pi * np.exp(t), rel=1e-12)


def test_extract_warped_circle_by_rootfind():
    s = 1.9
    curve = extract_level_curve(ARCTAN, HYP, s, 64)
    t_star = curve.points[0, 0]
    assert 2 * np.arctan(np.exp(t_star)) == pytest.approx(s, abs=1e-12)
    assert np.allclose(curve.points[:, 0], t_star)


def test_extract_traced_closed_curve():
    u = catalog_field("perturbed_log", eps=0.1)
    chart = ConformalChart(flat_factor(), 0.5, 2.0)
    curve = extract_level_curve(u, chart, 0.0, 200)
    assert curve.points.shape == (200, 2)
    assert np.max(np.abs(u.value(curve.points))) <= 1e-9
    assert np.all(curve.weights > 0)


def test_extract_open_level_raises_topology_error():
    # Re(z + 1/z) = 1.6 meets both boundary circles of 1.2 < |z| < 2
    # (cos(theta) = 1.6/(r + 1/r) is solvable for every r in the annulus),
    # so the level cannot close inside the chart
    u = catalog_field("joukowski", a=1.0)
    chart = ConformalChart(flat_factor(), 1.2, 2.0)
    with pytest.raises(TopologyError):
        extract_level_curve(u, chart, 1.6, 64)


def test_extract_level_out_of_range():
    with pytest.raises(DomainError):
        extract_level_curve(CANONICAL, FLAT_BIG, 0.5, 64)


def test_trace_seed_searches_the_other_angles():
    # the level circle |z - 2.5i| = 0.5 misses the ray theta = 0; the level
    # map z - 2.5i places its nodes on it wherever it lies
    u = log_modulus_field(1.0, center=(0.0, 2.5))
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    curve = extract_level_curve(u, chart, np.log(0.5), 256)
    assert length(curve, chart) == pytest.approx(np.pi, rel=1e-13)
    with pytest.raises(DomainError, match="level 5.0 not found in the chart annulus"):
        extract_level_curve(u, chart, 5.0, 64)


def test_trace_seed_finds_a_small_level_between_the_16_rays():
    # the circle |z - c| = 0.1, |c| = 2.5, lies midway between the rays at 0
    # and 22.5 degrees, which a search along rays from the origin would miss
    a = np.deg2rad(11.25)
    u = log_modulus_field(1.0, center=(2.5 * np.cos(a), 2.5 * np.sin(a)))
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    curve = extract_level_curve(u, chart, np.log(0.1), 256)
    assert length(curve, chart) == pytest.approx(0.2 * np.pi, rel=1e-13)


# ln|z - 0.3i| has the level map z - 0.3i: its levels are the circles
# |z - 0.3i| = e^t, here of radii 1.4 to 2.1, inside 1 < |z| < 2.5
SHIFTED_LOG = log_modulus_field(1.0, (0.0, 0.3))
SHIFTED_LEVELS = np.log(np.linspace(1.4, 2.1, 8))
PLOG = catalog_field("perturbed_log", eps=0.1)
PLOG_LEVELS = np.linspace(-0.3, 0.4, 8)
PLOG_CHARTS = pytest.mark.parametrize("chart", [
    ConformalChart(flat_factor(), 0.5, 2.0), ConformalChart(sphere_cap_factor(0.1), 0.5, 2.0)],
    ids=["flat", "sphere_cap"])


def cap_circle(c, a, rho, n=2048):
    """L, L', L'' of the levels |z - a| = rho = e^t of ln|z - a| in the
    metric (1 - c|z|^2)^2 |dz|^2: the trapezoid rule on the exact circle."""
    w = rho * np.exp(2j * np.pi * np.arange(n) / n)
    z = a + w
    q = 1.0 - c * np.abs(z) ** 2        # e^phi
    zw = (z.conj() * w).real
    g = -2.0 * c * zw / q               # d(ln e^phi)/dt on the circle
    dg = g - 2.0 * c * rho**2 / q - 4.0 * c**2 * zw**2 / q**2
    return [2.0 * np.pi * np.mean(rho * q * k) for k in (1.0, 1.0 + g, (1.0 + g) ** 2 + dg)]


def test_shifted_log_levels_are_exact_on_the_flat_annulus():
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    want = 2.0 * np.pi * np.exp(SHIFTED_LEVELS)
    for got in levelsets._screened_values(SHIFTED_LOG, chart, SHIFTED_LEVELS, 64)[:3]:
        assert np.max(np.abs(got - want) / want) <= 1e-13


def test_shifted_log_levels_match_the_exact_circle_on_a_sphere_cap():
    chart = ConformalChart(sphere_cap_factor(0.1), 1.0, 2.5)
    got = levelsets._screened_values(SHIFTED_LOG, chart, SHIFTED_LEVELS, 64)[:3]
    want = np.transpose([cap_circle(0.1, 0.3j, np.exp(t)) for t in SHIFTED_LEVELS])
    assert np.max(np.abs(np.array(got) - want) / np.abs(want)) <= 1e-13


@PLOG_CHARTS
def test_perturbed_log_levels_converge_geometrically(chart):
    coarse = np.array(levelsets._screened_values(PLOG, chart, PLOG_LEVELS, 32)[:3])
    fine = np.array(levelsets._screened_values(PLOG, chart, PLOG_LEVELS, 1024)[:3])
    assert np.max(np.abs(coarse - fine) / np.abs(fine)) <= 1e-13
    curve = extract_level_curve(PLOG, chart, 0.2, 64)
    assert np.max(np.abs(PLOG.value(curve.points) - 0.2)) <= 1e-15


@pytest.mark.parametrize("u, chart, levels, flux", [
    (SHIFTED_LOG, ConformalChart(flat_factor(), 1.0, 4.0), SHIFTED_LEVELS, 2.0 * np.pi),
    (log_modulus_field(-2.5, (0.0, 0.3)), ConformalChart(sphere_cap_factor(0.1), 1.0, 2.5),
     -2.5 * SHIFTED_LEVELS, 5.0 * np.pi),
    (PLOG, ConformalChart(flat_factor(), 0.5, 2.0), PLOG_LEVELS, 2.0 * np.pi),
    (PLOG, ConformalChart(sphere_cap_factor(0.1), 0.5, 2.0), PLOG_LEVELS, 2.0 * np.pi),
], ids=["shifted_log_flat", "weighted_log_cap", "perturbed_log_flat", "perturbed_log_cap"])
def test_the_flux_through_every_level_is_2pi_abs_c(u, chart, levels, flux):
    got = levelsets._level_values(u, chart, levels, None, 64, integrands=lambda g: (g.G,))[1]
    assert np.max(np.abs(got - flux)) <= 1e-12 * flux


def test_slope_identity_on_perturbed_log_levels():
    chart = ConformalChart(sphere_cap_factor(0.1), 0.5, 2.0)
    prof = length_profile(PLOG, chart, PLOG_LEVELS)
    assert logL_slope_bound(PLOG, chart, prof).identity_max_err <= 1e-12


def test_level_map_errors():
    chart = ConformalChart(flat_factor(), 1.0, 4.0)
    # the circle |z - 2.5i| = 2 crosses |z| = 1: the level is open in the chart
    with pytest.raises(TopologyError, match="level 0.69.* leaves the chart annulus"):
        extract_level_curve(log_modulus_field(1.0, (0.0, 2.5)), chart, np.log(2.0), 64)
    # |z e^{-z/10}| <= 10/e on the positive real axis: the node theta = 0 of
    # |E| = e^2 has no root there, and its iterates never settle
    with pytest.raises(SolverError, match=re.escape(
            f"after {levelsets._LEVEL_MAP_STEPS} steps at levels t = [-2.0]")):
        dlength_integral(PLOG, ConformalChart(flat_factor(), 0.5, 2.0), -2.0)
    # the level of perturbed_log (eps = 1/2) through its saddle z = 2: Newton
    # slows to linear at the node theta = 0 and |grad u| reaches the floor
    with pytest.raises(CriticalPointError, match="below the critical floor"):
        dlength_integral(catalog_field("perturbed_log", eps=0.5),
                         ConformalChart(flat_factor(), 0.4, 3.0), 1.0 - np.log(2.0), 64)


def test_level_map_nodes_do_not_depend_on_the_batch():
    chart = ConformalChart(sphere_cap_factor(0.1), 0.5, 2.0)
    pts, w = levelsets._level_points(PLOG, chart, PLOG_LEVELS, None, 64)
    for k in range(PLOG_LEVELS.size):
        one = levelsets._level_points(PLOG, chart, PLOG_LEVELS[k:k + 1], None, 64)
        assert one[0].tobytes() == pts[k:k + 1].tobytes()
        assert one[1].tobytes() == w[k:k + 1].tobytes()


def test_level_outside_the_chart_raises_on_both_radius_paths():
    # catalog "log" inverts in closed form, log_modulus_field goes through
    # the Newton solve; both must refuse a level circle outside the chart
    annulus = ConformalChart(flat_factor(), 1.0, 4.0)
    for u in (catalog_field("log"), log_modulus_field(-1.0)):
        with pytest.raises(DomainError, match="no level -2.0 on the radial section"):
            level_radius(u, annulus, -2.0)
    # the punctured disc has no boundary values to screen levels with, so
    # extraction and the bound checks rely on the radius check
    disc = ConformalChart(flat_factor(), 0.0, 4.0)
    for u in (catalog_field("log", c=1.0), log_modulus_field(1.0)):
        for call in (lambda: level_radius(u, disc, 2.0),
                     lambda: extract_level_curve(u, disc, 2.0, 64),
                     lambda: sharp_bound_gap(u, disc, 2.0, 0.0),
                     lambda: pinched_bound_check(u, disc, 2.0, 1.0, 0.0),
                     lambda: dlength_integral(u, disc, 2.0),
                     lambda: d2length_integral(u, disc, 2.0),
                     lambda: length_profile(u, disc, np.linspace(1.0, 2.0, 8))):
            with pytest.raises(DomainError, match="no level 2.0 on the radial section"):
                call()
    # the level circle r = e^5 lies outside both annuli; the integral
    # formulas screen it with the boundary values, as extraction does
    for chart in (ConformalChart(flat_factor(), 1.0, np.e),
                  ConformalChart(sphere_cap_factor(0.1), 1.0, 2.0)):
        for integral in (dlength_integral, d2length_integral):
            with pytest.raises(DomainError, match="not strictly between boundary values"):
                integral(catalog_field("log"), chart, -5.0)


def test_boundary_values_equal_one_point_reads():
    # both boundary circles are read in one 2-point call
    for u, chart, ends in ((ARCTAN, HYP, (HYP.t_min, HYP.t_max)),
                           (CANONICAL, FLAT_BIG, (1.0, np.e**2))):
        assert levelsets.boundary_values(u, chart) == tuple(u.value((e, 0.0)) for e in ends)


def test_warped_closed_form_radii_match_newton():
    lo, hi = levelsets.boundary_values(ARCTAN, HYP)
    levels = np.linspace(lo, hi, 2002)[1:-1]
    r = levelsets._level_radii(ARCTAN, HYP, levels)
    newton = levelsets._level_radii(ARCTAN_NEWTON, HYP, levels)
    assert np.max(np.abs(r - newton)) <= 4e-15
    assert np.max(np.abs(2 * np.arctan(np.exp(r)) - levels)) <= 1e-15


def test_warped_closed_form_raises_as_the_sweep_does():
    # levels s <= 0 and s >= pi have no real ln tan(s/2) (tan <= 0, or
    # tan(pi/2) = 1.6e16); 0.05 and 3.1 lie in (0, pi) but off t in [-3, 3]
    lo, hi = levelsets.boundary_values(ARCTAN, HYP)
    for u in (ARCTAN, ARCTAN_NEWTON):
        for s in (-0.5, 0.0, 0.05, 3.1, np.pi, 3.5, np.inf, np.nan):
            with pytest.raises(DomainError, match=re.escape(f"no level {s} on the radial section")):
                level_radius(u, HYP, s)
        # length_profile does not screen its t +- h levels: a step past the
        # boundary value reaches the radius check
        grid = inset_grid(0.4, np.pi - 0.4, 8)
        first_off = (grid + 0.5)[grid + 0.5 > hi][0]
        with pytest.raises(DomainError,
                           match=re.escape(f"no level {first_off} on the radial section")):
            length_profile(u, HYP, grid, fd_step=0.5)


def test_log_inverse_of_a_constant_field_raises():
    for u in (catalog_field("log", c=0.0),
              solve_annulus_dirichlet(DirichletSpec(2.0, 1.0, 1.0))):
        with pytest.raises(DomainError, match="constant field has no level curves"):
            u.radial_inverse(np.array([0.0, 1.0]))
        with pytest.raises(DomainError, match="constant field has no level curves"):
            level_radius(u, ConformalChart(flat_factor(), 1.0, 2.0), 1.0)


def test_constant_radial_field_without_an_inverse_has_no_level_radius():
    # the sweep reads u - t = 0 at every sample; it used to return the
    # section's inner end as the radius
    for u, chart in ((constant_field(0.0), ConformalChart(flat_factor(), 1.0, 4.0)),
                     (ScalarField.from_expression(lambda t, _th: t * 0.0, radial="t"), HYP)):
        assert u.radial_inverse is None
        with pytest.raises(DomainError, match="constant field has no level curves"):
            level_radius(u, chart, 0.0)


# ---------------------------------------------------------------------------
# length
# ---------------------------------------------------------------------------

def test_length_flat_circle():
    curve = extract_level_curve(CANONICAL, FLAT_BIG, -1.0, 512)
    assert length(curve, FLAT_BIG) == pytest.approx(2 * np.pi * np.e, rel=1e-12)


def test_length_hyperbolic_example():
    curve = extract_level_curve(ARCTAN, HYP, np.pi / 2, 128)
    assert length(curve, HYP) == pytest.approx(2.0, rel=1e-12)


def test_length_offcenter_factor_vs_quad_oracle():
    factor = log_modulus_field(1.0, (1.5, 0.0))
    chart = ConformalChart(factor, 0.2, 1.2)
    u = catalog_field("log")
    t = -np.log(0.5)  # circle of radius 0.5
    curve = extract_level_curve(u, chart, t, 512)
    mine = length(curve, chart)
    oracle, _ = quad(lambda th: np.abs(0.5 * np.exp(1j * th) - 1.5) * 0.5,
                     0.0, 2 * np.pi, epsabs=1e-13, epsrel=1e-12)
    assert mine == pytest.approx(oracle, rel=1e-8)


def test_length_escalates_for_circle_through_singular_point():
    # circle exactly through the factor's singular point: the plain sum is
    # meaningless (a sample hits the atom), the adaptive escalation matches
    # the conical-factor integral
    from levelflow import conical_circle_length, conical_factor
    factor = log_modulus_field(0.5, (1.5, 0.0))
    chart = ConformalChart(factor, 1.0, 2.0)
    u = catalog_field("log")
    curve = extract_level_curve(u, chart, -np.log(1.5), 256)
    expected = conical_circle_length(conical_factor(0.0, [((1.5, 0.0), 0.5)]), 1.5)
    assert length(curve, chart) == pytest.approx(expected, rel=1e-9)


def test_length_logs_a_capped_singular_circle(caplog):
    # e^phi = |z - 1.5|^-0.99 on the circle through 1.5: integrable, but too
    # close to the limit for the rule to converge
    chart = ConformalChart(log_modulus_field(-0.99, (1.5, 0.0)), 1.0, 2.0)
    curve = extract_level_curve(catalog_field("log"), chart, -np.log(1.5), 256)
    with caplog.at_level(logging.WARNING, logger="levelflow.quadrature"):
        got = length(curve, chart)
    (record,) = caplog.records
    assert "singular circle length at r = 1.5 used every refinement level" \
        in record.getMessage()
    assert np.isfinite(got)


def test_length_reparametrisation_invariance_and_doubling():
    factor = log_modulus_field(1.0, (1.5, 0.0))
    chart = ConformalChart(factor, 0.2, 1.2)
    u = catalog_field("log")
    t = -np.log(0.5)
    vals = [length(extract_level_curve(u, chart, t, n), chart)
            for n in (400, 512, 640, 1024)]
    for v in vals[1:]:
        assert v == pytest.approx(vals[0], rel=1e-10)


# ---------------------------------------------------------------------------
# derivative formulas
# ---------------------------------------------------------------------------

def test_dlength_flat_closed_form():
    for t in (-1.5, -0.5):
        assert dlength_integral(CANONICAL, FLAT_BIG, t) == pytest.approx(
            -2 * np.pi * np.exp(-t), rel=1e-12)
        assert d2length_integral(CANONICAL, FLAT_BIG, t) == pytest.approx(
            2 * np.pi * np.exp(-t), rel=1e-12)


def test_dlength_hyperbolic_closed_form():
    lam = np.e**2
    for s in (0.7, np.pi / 2, 2.2):
        lp = dlength_integral(ARCTAN, HYP, s)
        lpp = d2length_integral(ARCTAN, HYP, s)
        assert lp == pytest.approx(-np.log(lam) * np.cos(s) / np.sin(s) ** 2, rel=1e-6)
        assert lpp == pytest.approx(
            np.log(lam) * (1 + np.cos(s) ** 2) / np.sin(s) ** 3, rel=1e-6)


def test_d2length_matches_second_difference_on_cap():
    chart = ConformalChart(sphere_cap_factor(0.1), 1.0, 2.0)
    u = catalog_field("log")
    t = -np.log(1.5)
    h = 1e-3
    L = lambda s: length(extract_level_curve(u, chart, s, 512), chart)
    fd = (L(t + h) - 2 * L(t) + L(t - h)) / h**2
    assert d2length_integral(u, chart, t) == pytest.approx(fd, rel=1e-4)


def test_derivative_formulas_fd_convergence_order():
    # |L_fd' - L'| must shrink at second order under step halving
    chart = ConformalChart(sphere_cap_factor(0.1), 1.0, 2.0)
    u = catalog_field("log")
    grid = inset_grid(-np.log(2.0), 0.0, 9)
    errs = []
    for h in (2e-3, 1e-3):
        prof = length_profile(u, chart, grid, fd_step=h)
        errs.append([np.max(np.abs(prof.L_fd_p - prof.Lp)),
                     np.max(np.abs(prof.L_fd_pp - prof.Lpp))])
    order_p = np.log2(errs[0][0] / errs[1][0])
    order_pp = np.log2(errs[0][1] / errs[1][1])
    assert 1.8 <= order_p <= 2.2
    assert 1.8 <= order_pp <= 2.2


# warped_arctan's levels invert in closed form; log_modulus_field and
# ARCTAN_NEWTON are radial without a radial_inverse, so their levels go
# through the Newton solve; on the off-centre factor the 60 circles of 512
# points (30,720) take more than one capped evaluation
BATCHED_CASES = pytest.mark.parametrize("u, chart, grid", [
    (ARCTAN, HYP, inset_grid(0.4, np.pi - 0.4, 20)),
    (log_modulus_field(), ConformalChart(flat_factor(), 0.5, 3.0),
     inset_grid(np.log(0.5), np.log(3.0), 20)),
    (catalog_field("log"), ConformalChart(log_modulus_field(1.0, (1.5, 0.0)), 0.2, 1.2),
     inset_grid(-np.log(1.2), np.log(5.0), 20)),
    (ARCTAN_NEWTON, HYP, inset_grid(0.4, np.pi - 0.4, 20)),
], ids=["warped_arctan", "flat_log_modulus", "off_centre_quadrature", "warped_arctan_newton"])


def one_level(u, chart, t):
    """(L, Lp, Lpp, aux, K_min, K_max) of the level t alone."""
    ts = np.array([t])
    radii = levelsets._level_radii(u, chart, ts)
    return [float(v[0]) for v in levelsets._level_values(u, chart, ts, radii)]


@BATCHED_CASES
def test_batched_profile_rows_match_single_levels(u, chart, grid):
    prof = length_profile(u, chart, grid)
    single = np.array([one_level(u, chart, t)[:4] for t in grid])
    batched = np.stack([prof.L, prof.Lp, prof.Lpp, prof.aux_invgrad2], axis=-1)
    assert batched.tobytes() == single.tobytes()
    h = prof.meta["fd_step"]
    plus, minus = (np.array([one_level(u, chart, t + s)[0] for t in grid])
                   for s in (h, -h))
    assert prof.L_fd_p.tobytes() == ((plus - minus) / (2.0 * h)).tobytes()
    assert prof.L_fd_pp.tobytes() == ((plus - 2.0 * prof.L + minus) / h**2).tobytes()


@BATCHED_CASES
def test_batched_profile_splits_into_halves_byte_for_byte(u, chart, grid):
    whole = length_profile(u, chart, grid)
    h = whole.meta["fd_step"]
    halves = [length_profile(u, chart, part, fd_step=h) for part in np.split(grid, 2)]
    for name in ("t_grid", "L", "Lp", "Lpp", "lnL_pp", "L_fd_p", "L_fd_pp",
                 "aux_invgrad2"):
        joined = np.concatenate([getattr(p, name) for p in halves])
        assert getattr(whole, name).tobytes() == joined.tobytes(), name


def test_batched_newton_reports_unconverged_levels():
    levels = np.array([0.7, np.pi / 2, 2.2])
    assert np.all(np.isfinite(levelsets._level_radii(ARCTAN_NEWTON, HYP, levels)))
    with pytest.raises(SolverError, match="after 1 iterations at levels"):
        levelsets._level_radii(ARCTAN_NEWTON, HYP, levels, max_iter=1)


def test_newton_keeps_a_converged_step_outside_the_bracket():
    # near s = 0.1 the iterate is within an ulp of the root after a few
    # steps and the next, sub-ulp step lands just outside the bracket; it
    # must end the solve rather than restart bisection (44 iterations)
    levels = np.linspace(0.1, np.pi - 0.1, 100)  # the criterion-6 grid
    r = levelsets._level_radii(ARCTAN_NEWTON, HYP, levels, max_iter=10)
    assert np.max(np.abs(2 * np.arctan(np.exp(r)) - levels)) <= 1e-14


# ---------------------------------------------------------------------------
# profiles and the convexity check
# ---------------------------------------------------------------------------

def test_profile_flat_columns_and_quadrature_path():
    grid = inset_grid(0.0, -2.0, 50)
    prof = length_profile(CANONICAL, FLAT_BIG, grid)
    assert np.max(np.abs(prof.lnL_pp)) <= 1e-8
    assert np.max(np.abs(prof.aux_invgrad2 - 2 * np.pi * np.exp(-3 * grid))) <= 1e-9
    prof_q = length_profile(CANONICAL, FLAT_BIG, grid, n_samples=2048,
                            method="quadrature")
    assert np.max(np.abs(prof_q.lnL_pp)) <= 1e-6
    assert np.max(np.abs(prof_q.L - prof.L) / prof.L) <= 1e-12


@pytest.mark.parametrize("c,R,t1,t2", [(0.1, np.e, 0.0, 1.0), (0.05, 2.5, 0.5, -1.5)])
def test_profile_sphere_cap_exact(c, R, t1, t2):
    # u = t1 + b ln r with b = (t2 - t1) / ln R and phi = ln(1 - c r^2):
    # L = 2 pi r (1 - c r^2) and (ln L)'' = -4 c r^2 / (1 - c r^2)^2 / b^2
    chart = ConformalChart(sphere_cap_factor(c), 1.0, R)
    u = solve_annulus_dirichlet(DirichletSpec(R, t1, t2))
    grid = inset_grid(t1, t2, 40)
    prof = length_profile(u, chart, grid)
    b = (t2 - t1) / np.log(R)
    r = np.exp((grid - t1) / b)
    cr2 = c * r**2
    L = 2 * np.pi * r * (1 - cr2)
    lnL_pp = -4 * cr2 / (1 - cr2) ** 2 / b**2
    assert np.max(np.abs(prof.L - L) / L) <= 1e-12
    assert np.max(np.abs(prof.lnL_pp - lnL_pp) / np.abs(lnL_pp)) <= 1e-12


def test_profile_hyperbolic_lnLpp():
    s = inset_grid(0.4, np.pi - 0.4, 50)
    prof = length_profile(ARCTAN, HYP, s)
    assert np.max(np.abs(prof.lnL_pp * np.sin(s) ** 2 - 1.0)) <= 1e-6
    rep = log_convexity_check(prof)
    assert rep.passed
    assert rep.min_lnL_pp >= 1.0 - 1e-9


def test_profile_hyperbolic_quadrature_path_matches_the_fast_path(field_evaluations):
    # method="quadrature" samples each warped level circle at 512 points;
    # the integrands are constant on it, so only rounding separates the two
    hyp = scenarios.hyperbolic()
    fast = length_profile(hyp.u, hyp.chart, hyp.grid)
    field_evaluations.clear()
    sampled = length_profile(hyp.u, hyp.chart, hyp.grid, method="quadrature")
    # u and the warp at 512 points of each level t and t +- step
    assert sum(field_evaluations) >= 2 * 3 * hyp.grid.size * 512
    for col in ("L", "Lp", "Lpp", "lnL_pp", "aux_invgrad2"):
        want = getattr(fast, col)
        assert np.max(np.abs(getattr(sampled, col) - want) / np.abs(want)) <= 1e-13, col


def test_convexity_check_fails_on_a_nan_outside_the_edge_rows():
    # only a grid_fd profile's meta["edge_rows"] are skipped as missing
    s = inset_grid(0.4, np.pi - 0.4, 50)
    prof = length_profile(ARCTAN, HYP, s)
    prof.lnL_pp[20] = np.nan
    rep = log_convexity_check(prof)
    assert not rep.passed and np.isnan(rep.min_lnL_pp)


def test_profile_validation():
    with pytest.raises(DomainError):
        length_profile(CANONICAL, FLAT_BIG, np.linspace(-1.9, -0.1, 5))
    with pytest.raises(DomainError):
        length_profile(CANONICAL, FLAT_BIG, np.linspace(-2.5, -0.1, 20))


def test_convexity_flat_pass_cap_fail():
    prof = length_profile(CANONICAL, FLAT_BIG, inset_grid(0.0, -2.0, 50))
    assert log_convexity_check(prof).passed
    cap = ConformalChart(sphere_cap_factor(0.1), 1.0, np.e)
    u = solve_annulus_dirichlet(DirichletSpec(np.e, 0.0, 1.0))
    prof_cap = length_profile(u, cap, inset_grid(0.0, 1.0, 50))
    rep = log_convexity_check(prof_cap)
    assert not rep.passed
    assert rep.min_lnL_pp < -1e-3


def test_second_divided_differences_nonuniform_convex():
    rng = np.random.default_rng(5)
    t = np.sort(rng.uniform(0, 1, 30))
    f = np.exp(t)  # convex
    assert np.min(second_divided_differences(t, f)) >= 0.0


def test_profile_csv_roundtrip(tmp_path):
    prof = length_profile(CANONICAL, FLAT_BIG, inset_grid(0.0, -2.0, 10))
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "t,L,Lp,Lpp,lnL_pp,L_fd_p,L_fd_pp,aux_invgrad2"
    assert len(lines) == 11
    cell = lines[1].split(",")[1]
    assert float(cell) == pytest.approx(prof.L[0], rel=1e-16)
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) >= 16


def test_profile_csv_cells_are_17g_of_python_floats(tmp_path):
    specials = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e-310, 1.0 / 3.0, -2.5e300]
    cols = [np.roll(np.array(specials), -k) for k in range(len(levelsets.CSV_COLUMNS))]
    prof = levelsets.LengthProfile(*cols, derivative_mode="grid_fd")
    path = tmp_path / "prof.csv"
    prof.to_csv(path)
    want = ",".join(levelsets.CSV_COLUMNS) + "\n" + "".join(
        ",".join(format(float(v), ".17g") for v in row) + "\n" for row in zip(*cols))
    assert path.read_bytes() == want.encode()
    assert "nan,inf,-inf,-0,4.9406564584124654e-324" in want


# ---------------------------------------------------------------------------
# coarea cross-check
# ---------------------------------------------------------------------------

def test_coarea_level_integral_matches_area_derivative():
    # (d/dt) metric area of {u < t} equals the level integral of 1/|grad u|
    chart = ConformalChart(sphere_cap_factor(0.1), 1.0, 2.5)
    u = catalog_field("log")  # u = -ln|z|, {u < t} = {r > e^-t}

    def metric_area(t):
        val, _ = quad(lambda r: (1 - 0.1 * r * r) ** 2 * 2 * np.pi * r,
                      np.exp(-t), 2.5, epsabs=1e-13)
        return val

    t = -np.log(1.7)
    h = 1e-5
    area_rate = (metric_area(t + h) - metric_area(t - h)) / (2 * h)
    curve = extract_level_curve(u, chart, t, 512)
    phi = chart.factor.value(curve.points)
    grad = u.jet(curve.points).grad
    inv_grad = np.exp(phi) / np.hypot(grad[:, 0], grad[:, 1])
    level_integral = np.sum(inv_grad * np.exp(phi) * curve.weights)
    assert level_integral == pytest.approx(area_rate, rel=1e-8)


# ---------------------------------------------------------------------------
# sharp and pinched bounds
# ---------------------------------------------------------------------------

def test_sharp_bound_gap_hyperbolic_equality():
    for s in (0.6, np.pi / 2, 2.4):
        assert abs(sharp_bound_gap(ARCTAN, HYP, s, -1.0)) <= 1e-6


def test_sharp_bound_gap_flat_zero():
    assert abs(sharp_bound_gap(CANONICAL, FLAT_BIG, -1.0, 0.0)) <= 1e-10


def test_sharp_bound_gap_preconditions():
    # the flat annulus has K = 0 > -0.5, so the curvature bound K <= kappa
    # fails by the operation's own contract
    with pytest.raises(PreconditionError):
        sharp_bound_gap(CANONICAL, FLAT_BIG, -1.0, -0.5)
    with pytest.raises(DomainError):
        sharp_bound_gap(CANONICAL, FLAT_BIG, -1.0, 0.5)
    # NaN passes kappa > 0, and -inf made the K <= kappa gate NaN: K = 0 passed
    for kappa in (np.nan, -np.inf):
        with pytest.raises(DomainError, match="kappa must be finite"):
            sharp_bound_gap(CANONICAL, FLAT_BIG, -1.0, kappa)


def test_sharp_bound_quadrature_path_gates_on_the_curve_curvature():
    # a non-radial field is traced: K ranges over the curve's points
    u = catalog_field("perturbed_log", eps=0.1)
    chart = ConformalChart(sphere_cap_factor(0.1), 0.5, 2.0)
    k_max = np.max(chart.gauss_curvature(extract_level_curve(u, chart, 0.0, 512).points))
    with pytest.raises(PreconditionError) as exc:
        sharp_bound_gap(u, chart, 0.0, 0.0)
    assert str(exc.value) == ("curvature bound violated on the level: "
                              f"max K = {k_max:.6g} > kappa = 0")


def test_quadrature_path_through_a_singular_point_raises():
    # the level circle |z| = 1.5 has a sample on the factor's singular point
    chart = ConformalChart(log_modulus_field(0.5, (1.5, 0.0)), 1.0, 2.0)
    u = catalog_field("log")
    for call in (lambda: sharp_bound_gap(u, chart, -np.log(1.5), 0.0),
                 lambda: dlength_integral(u, chart, -np.log(1.5))):
        with pytest.raises(SingularPointError, match="of singular point"):
            call()


@pytest.mark.parametrize("call, max_calls, max_points", [
    (lambda: sharp_bound_gap(ARCTAN, HYP, 1.0, -1.0), 9, 264),
    (lambda: pinched_bound_check(ARCTAN, HYP, 1.0, 1.0, 1.0), 9, 264),
    (lambda: sharp_bound_gap(CANONICAL, FLAT_BIG, -1.0, 0.0), 4, 4),
], ids=["warped_sharp", "warped_pinched", "flat_sharp"])
def test_radial_bound_checks_evaluation_budget(field_evaluations, call, max_calls,
                                               max_points):
    # boundary values, one located level and one point of integrands: no
    # level curve is built
    call()
    assert len(field_evaluations) <= max_calls
    assert sum(field_evaluations) <= max_points


def test_pinched_bound_hyperbolic():
    s = np.linspace(0.1, np.pi - 0.1, 100)
    vals = [pinched_bound_check(ARCTAN, HYP, float(x), 1.0, 1.0) for x in s]
    assert min(vals) >= -1e-8
    assert pinched_bound_check(ARCTAN, HYP, np.pi / 2, 1.0, 1.0) == pytest.approx(
        1 - 4 / np.pi**2, rel=1e-9)


def test_pinched_bound_flat_degenerate_kappa2():
    u = solve_annulus_dirichlet(DirichletSpec(np.e, 1.0, 2.0))
    chart = ConformalChart(flat_factor(), 1.0, np.e)
    assert pinched_bound_check(u, chart, 1.5, 1.0, 0.0) == pytest.approx(0.0, abs=1e-10)


def test_pinched_bound_preconditions():
    with pytest.raises(PreconditionError):
        pinched_bound_check(ARCTAN, HYP, np.pi / 2, 0.5, 0.5)  # K = -1 < -0.5
    with pytest.raises(DomainError):
        pinched_bound_check(ARCTAN, HYP, np.pi / 2, 1.0, 2.0)
    # K = 0 meets -0 <= K <= -0; the bound's kappa2 / kappa1 is undefined
    with pytest.raises(DomainError, match="kappa1 > 0"):
        pinched_bound_check(solve_annulus_dirichlet(DirichletSpec(np.e, 1.0, 2.0)),
                            ConformalChart(flat_factor(), 1.0, np.e), 1.5, 0.0, 0.0)


# ---------------------------------------------------------------------------
# level arrays
# ---------------------------------------------------------------------------

DISC = ConformalChart(flat_factor(), 0.0, 4.0)
# a radial field on a non-radial factor: circles integrated by quadrature
OFF_CENTRE = ConformalChart(log_modulus_field(1.0, (1.5, 0.0)), 0.2, 1.2)

# (u, chart, levels, kappa for the sharp bound, positive levels and
# (kappa1, kappa2) for the pinched bound)
ARRAY_CASES = pytest.mark.parametrize("u, chart, levels, kappa, positive, pinch", [
    (ARCTAN, HYP, [0.3, 1.0, np.pi / 2, 2.9], -1.0, [0.3, 1.0, 2.9], (1.0, 1.0)),
    (CANONICAL, FLAT_BIG, [-1.9, -1.0, -0.1], 0.0, None, None),
    (log_modulus_field(1.0), DISC, [-2.0, 0.0, 1.3], 0.0, [0.2, 1.3], (1.0, 0.0)),
    (catalog_field("log"), OFF_CENTRE, [-0.1, np.log(2.0), 1.5], 0.0, [0.1, 1.5],
     (1.0, 0.0)),
], ids=["warped", "flat_dirichlet", "punctured_disc", "off_centre_quadrature"])


def assert_rows_are_scalar_calls(call, levels):
    rows = call(np.array(levels))
    singles = [call(t) for t in levels]
    assert all(type(v) is float for v in singles)
    assert rows.tobytes() == np.array(singles).tobytes()


@ARRAY_CASES
def test_level_array_rows_equal_scalar_calls(u, chart, levels, kappa, positive, pinch):
    assert dlength_integral(u, chart, np.array([])).shape == (0,)
    assert_rows_are_scalar_calls(lambda t: dlength_integral(u, chart, t), levels)
    assert_rows_are_scalar_calls(lambda t: d2length_integral(u, chart, t), levels)
    assert_rows_are_scalar_calls(lambda t: sharp_bound_gap(u, chart, t, kappa), levels)
    if positive is not None:
        assert_rows_are_scalar_calls(
            lambda t: pinched_bound_check(u, chart, t, *pinch), positive)


@pytest.mark.parametrize("factor", [radial_log_field(0.0, 1.0, -0.1),
                                    catalog_field("re_poly", n=2)],
                         ids=["radial", "quadrature"])
def test_asymptotic_defect_array_rows_equal_scalar_calls(factor):
    assert_rows_are_scalar_calls(lambda t: asymptotic_defect(factor, t), [3.0, 4.0])


def scalar_error(call):
    with pytest.raises(Exception) as exc:
        call()
    return type(exc.value), str(exc.value)


@pytest.mark.parametrize("call, levels, first_failing", [
    # K = 0 > kappa on every level; the screen alone would name the level 0.5
    (lambda t: sharp_bound_gap(CANONICAL, FLAT_BIG, t, -0.5), [-1.0, 0.5], -1.0),
    (lambda t: sharp_bound_gap(CANONICAL, FLAT_BIG, t, 0.0), [-1.0, 0.5, -3.0], 0.5),
    (lambda t: pinched_bound_check(ARCTAN, HYP, t, 1.0, 1.0), [1.0, 2.0, -0.5], -0.5),
    # the t <= 0 check alone would name -0.5, but 3.5 fails first
    (lambda t: pinched_bound_check(ARCTAN, HYP, t, 1.0, 1.0), [1.0, 3.5, -0.5], 3.5),
    (lambda t: dlength_integral(log_modulus_field(1.0), DISC, t), [1.0, 2.0, 3.0], 2.0),
    (lambda t: d2length_integral(catalog_field("log"), DISC, t), [-1.0, -2.0], -2.0),
], ids=["K_then_off_chart", "boundary_values", "pinched_nonpositive",
        "off_chart_then_nonpositive", "radial_section", "closed_form_off_chart"])
def test_level_array_raises_its_first_failing_level(call, levels, first_failing):
    want = scalar_error(lambda: call(first_failing))
    assert scalar_error(lambda: call(np.array(levels))) == want
    for t in levels[:levels.index(first_failing)]:
        call(t)


def test_level_screen_evaluation_budget(field_evaluations):
    # boundary values once, one radius solve for all levels, then each level's
    # integrands (fast path) or curve points (quadrature, slope identity)
    flat, hyp = scenarios.flat(), scenarios.hyperbolic()
    cases = [
        ("pinched_margins", lambda: scenarios.pinched_margins(hyp), 10, 900),
        ("disc_sharp", lambda: sharp_bound_gap(log_modulus_field(1.0), DISC, 1.0, 0.0),
         8, 263),
        ("quadrature_profile", lambda: length_profile(flat.u, flat.chart, flat.grid,
                                                      method="quadrature"), 12, 153_602),
        # 150 curves of 2048 points, evaluated 8 whole curves at a time
        ("quadrature_profile_2048", lambda: length_profile(
            flat.u, flat.chart, flat.grid, 2048, method="quadrature"), 40, 614_402),
    ]
    for name, sc, max_calls in (("slope_flat", flat, 8), ("slope_hyperbolic", hyp, 13)):
        prof = sc.profile
        cases.append((name, lambda sc=sc, prof=prof: logL_slope_bound(sc.u, sc.chart, prof),
                      max_calls, 71_682))
    for label, call, max_calls, max_points in cases:
        field_evaluations.clear()
        call()
        assert len(field_evaluations) <= max_calls, label
        assert sum(field_evaluations) <= max_points, label
        assert max(field_evaluations) <= levelsets.MAX_POINTS, label


# ---------------------------------------------------------------------------
# asymptotic defect
# ---------------------------------------------------------------------------

def test_asymptotic_defect_examples():
    expected = -4 * np.pi**2 * 0.4
    fac = radial_log_field(0.0, 1.0, -0.1)  # lambda = 1 - 0.1 r^2, K(0) = 0.4
    for r in (0.05, 0.02, 0.01):
        d = asymptotic_defect(fac, -np.log(r))
        assert abs(d - expected) <= 0.02 * abs(expected)
    flipped = radial_log_field(0.0, 1.0, 0.1)
    assert asymptotic_defect(flipped, 4.0) == pytest.approx(-expected, rel=0.02)
    assert abs(asymptotic_defect(flat_factor(), 4.0)) <= 1e-10


def test_asymptotic_defect_normalisation_error():
    with pytest.raises(NormalizationError):
        asymptotic_defect(radial_log_field(0.3, 1.0, -0.1), 4.0)
    with pytest.raises(NormalizationError):
        asymptotic_defect(log_modulus_field(1.0, (0.5, 0.0)), 4.0)
