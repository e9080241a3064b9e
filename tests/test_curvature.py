"""Level-curve / steepest-descent curvature, PDE residuals, audits."""

import dataclasses
import json
from collections import Counter

import numpy as np
import pytest

from levelflow import (ConformalChart, CriticalPointError, DirichletSpec,
                       LevelFlowError, PreconditionError, ScalarField, WarpedChart,
                       catalog_field, curvature_sample, flat_factor,
                       half_plane_factor, inset_grid, jets, length_profile,
                       level_curvature_k, local_geometry, logL_slope_bound,
                       metric_gradient_norm, pde1_residual, pde1_star_residual,
                       pde2_gap, pde2_star_gap, principle_audit,
                       quasi_random_points, solve_annulus_dirichlet,
                       sphere_cap_factor, steepest_descent_curvature_h)
from levelflow.curvature_flow import AUDIT_CASES, AUDIT_QUANTITIES, _audit_values

FLAT = ConformalChart(flat_factor(), 0.4, 4.0)
CAP = ConformalChart(sphere_cap_factor(0.1), 1.0, np.e)
HYP = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), -2.5, 2.5)
LOG = catalog_field("log")
ARCTAN = catalog_field("warped_arctan")


# ---------------------------------------------------------------------------
# pointwise curvature values
# ---------------------------------------------------------------------------

def test_k_flat_radial_circles():
    for p in [(0.5, 0.0), (0.3, 0.4), (2.0, -1.0)]:
        r = np.hypot(*p)
        assert level_curvature_k(LOG, FLAT, p) == pytest.approx(1 / r, rel=1e-13)
        assert abs(steepest_descent_curvature_h(LOG, FLAT, p)) <= 1e-13


def test_k_straight_levels_and_h_arg():
    ux = catalog_field("re_poly", n=1)
    assert level_curvature_k(ux, FLAT, (1.0, 1.0)) == pytest.approx(0.0, abs=1e-14)
    uarg = catalog_field("arg")
    for p in [(2.0, 0.0), (0.6, 0.8)]:
        r = np.hypot(*p)
        h = steepest_descent_curvature_h(uarg, FLAT, p)
        assert abs(h) == pytest.approx(1 / r, rel=1e-13)
        assert h < 0  # pinned orientation of the star rotation


def test_k_warped_radial():
    for t in (-1.0, 0.4, 2.0):
        k = level_curvature_k(ARCTAN, HYP, (t, 0.3))
        assert abs(k) == pytest.approx(abs(np.tanh(t)), rel=1e-13)
        assert steepest_descent_curvature_h(ARCTAN, HYP, (t, 0.3)) == 0.0


def test_k_fd_divergence_cross_check():
    # k must match the finite-difference metric divergence at second order
    u, chart = LOG, CAP

    def div_fd(p, h):
        total = 0.0
        for ax in range(2):
            e = np.zeros(2)
            e[ax] = h
            for sgn in (1.0, -1.0):
                q = np.atleast_2d(np.asarray(p) + sgn * e)
                ju = u.jet(q)
                jp = chart.factor.jet(q)
                g = ju.grad[0]
                g0 = np.hypot(g[0], g[1])
                # sqrt(det g) * (unit gradient)^i = e^{phi} grad_0 u / |grad_0 u|
                total += sgn * np.exp(jp.value[0]) * g[ax] / g0 / (2 * h)
        p0 = np.atleast_2d(np.asarray(p, dtype=float))
        return total * np.exp(-2 * chart.factor.jet(p0).value[0])

    p = (1.3, 0.8)
    exact = -level_curvature_k(u, chart, p)
    e1 = abs(div_fd(p, 2e-3) - exact)
    e2 = abs(div_fd(p, 1e-3) - exact)
    assert e1 <= 1e-5
    assert 1.8 <= np.log2(e1 / e2) <= 2.2


def test_rotation_duality_flat():
    # h(Im f) = k(Re f) at the same point for holomorphic f
    for n in (2, 3):
        uim = catalog_field("im_poly", n=n)
        ure = catalog_field("re_poly", n=n)
        for p in [(1.1, 0.4), (0.7, -0.9)]:
            assert steepest_descent_curvature_h(uim, FLAT, p) == pytest.approx(
                level_curvature_k(ure, FLAT, p), rel=1e-8, abs=1e-10)


def test_sign_coherence_under_negation():
    u_neg = catalog_field("log", c=1.0)  # -(-ln|z|)
    p = (0.8, 0.6)
    assert level_curvature_k(u_neg, FLAT, p) == pytest.approx(
        -level_curvature_k(LOG, FLAT, p), rel=1e-13)


def test_curvature_sample_consistency():
    s = curvature_sample(LOG, CAP, (1.3, 0.4))
    assert s.phi_k * s.gradnorm == pytest.approx(s.k, rel=1e-12)
    assert s.phi_h * s.gradnorm == pytest.approx(s.h, abs=1e-12)
    assert s.gradnorm > 0


def test_k_near_critical_point_raises():
    uj = catalog_field("joukowski", a=1.0)
    with pytest.raises(CriticalPointError):
        level_curvature_k(uj, FLAT, (1.0, 0.0))


# ---------------------------------------------------------------------------
# PDE residuals
# ---------------------------------------------------------------------------

def test_pde1_flat_and_warped_closed_forms():
    # phi_k is constant 1 on the flat chart; the residual is pure FD roundoff
    assert abs(pde1_residual(LOG, FLAT, (1.2, 0.5))) <= 1e-8
    for t in (-1.0, 0.5, 1.5):
        assert abs(pde1_residual(ARCTAN, HYP, (t, 0.0))) <= 1e-6
        assert abs(pde1_star_residual(ARCTAN, HYP, (t, 0.0))) <= 1e-12


def test_pde1_sphere_cap_fd_tolerance_and_order():
    rng = np.random.default_rng(11)
    pts = quasi_random_points(CAP, 50, seed=4, min_gradient_field=LOG)
    for p in pts:
        r = pde1_residual(LOG, CAP, p)
        g = local_geometry(LOG, CAP, p)
        assert abs(r) <= 1e-4 * (1 + abs(g.k[0] / g.G[0]))
    ure = catalog_field("re_poly", n=1)
    for p in pts[:20]:
        assert abs(pde1_star_residual(ure, CAP, p)) <= 1e-4
    # measured O(h^2) decay of the plain central-difference residual
    p = pts[0]
    r1 = pde1_residual(LOG, CAP, p, step=2e-3, richardson=False)
    r2 = pde1_residual(LOG, CAP, p, step=1e-3, richardson=False)
    assert 1.8 <= np.log2(abs(r1 / r2)) <= 2.2


def test_pde2_gap_flat_zero():
    gap, theo = pde2_gap(LOG, FLAT, (0.8, 0.6))
    assert abs(gap) <= 1e-8
    assert abs(theo) <= 1e-12


def test_pde2_gap_warped_closed_form():
    # phi = k/|grad u| = -sinh t; |grad phi|^2/phi^2 = coth^2 t / cosh^2 t...
    # computed directly from the closed forms below
    t = 0.5
    gap, theo = pde2_gap(ARCTAN, HYP, (t, 0.0))
    phi = -np.sinh(t)
    dphi = -np.cosh(t)
    expected = dphi**2 / phi**2
    assert theo == pytest.approx(expected, rel=1e-5)
    assert gap == pytest.approx(expected, rel=1e-5)


def test_pde2_gap_sphere_cap_equality_and_sign():
    # sample away from the ring where k = 0 (the log-inequality's own side
    # condition); there the strict 1e-4 equality tolerance holds
    pts = quasi_random_points(ConformalChart(CAP.factor, 1.05, 1.55), 50, seed=5,
                              min_gradient_field=LOG)
    for p in pts:
        assert abs(level_curvature_k(LOG, CAP, p)) > 1e-3
        gap, theo = pde2_gap(LOG, CAP, p)
        assert gap >= -1e-6
        assert abs(gap - theo) <= 1e-4


def test_pde2_gap_moderate_curvature_scaled_tolerance():
    # the identity holds at the field-scaled tolerance 1e-4 * (1 + |field|)
    # wherever the FD stencil resolves ln|k| (stencil must stay clear of the
    # ring where k vanishes, so |k| well above |grad k| * step)
    pts = quasi_random_points(CAP, 200, seed=15, min_gradient_field=LOG)
    checked = 0
    for p in pts:
        k = level_curvature_k(LOG, CAP, p)
        if abs(k) < 0.05:
            continue
        gap, theo = pde2_gap(LOG, CAP, p)
        assert gap >= -1e-6
        assert abs(gap - theo) <= 1e-4 * (1.0 + abs(theo))
        checked += 1
    assert checked >= 50


def test_pde2_star_gap_cases():
    uarg = catalog_field("arg")
    gap, theo = pde2_star_gap(uarg, FLAT, (2.0, 0.3))
    assert abs(gap) <= 1e-8 and abs(theo) <= 1e-12
    with pytest.raises(PreconditionError):
        pde2_star_gap(LOG, FLAT, (1.5, 0.0))  # h == 0 for radial u
    ure = catalog_field("re_poly", n=1)
    rng = np.random.default_rng(6)
    checked = 0
    while checked < 20:
        p = (rng.uniform(1.1, 2.4), rng.uniform(-0.9, 0.9))
        h = steepest_descent_curvature_h(ure, CAP, p)
        if abs(h) < 1e-2:
            continue
        gap, theo = pde2_star_gap(ure, CAP, p)
        assert gap >= -1e-6
        assert abs(gap - theo) <= 1e-3 * (1 + abs(np.log(abs(h))))
        checked += 1


def test_pde2_gap_zero_curvature_precondition():
    ux = catalog_field("re_poly", n=1)  # k == 0 everywhere
    with pytest.raises(PreconditionError):
        pde2_gap(ux, FLAT, (1.0, 0.5))


def _point_calls(fn, u, chart, pts):
    """The one-point calls in input order: their results, or the first
    error as (class, message)."""
    rows = []
    for p in pts:
        try:
            rows.append(fn(u, chart, p))
        except LevelFlowError as exc:
            return type(exc), str(exc)
    return rows


JOUK = catalog_field("joukowski", a=0.3)
JOUK_CRITICAL = (np.sqrt(0.3), 0.0)  # grad u = 0 where z^2 = a
RING = 1.0 / np.sqrt(0.3)  # k of ln|z| vanishes there on CAP (c = 0.1)
PDE_BATCHES = [
    # rows that all succeed (on the warped chart t repeats with another theta)
    (JOUK, ConformalChart(flat_factor(), 1.0, 4.0), [(1.5, 0.5), (1.6, 0.2), (-1.2, 1.3)]),
    (JOUK, CAP, [(1.3, 0.4), (-1.1, -0.9), (0.2, 1.6)]),
    (ARCTAN, HYP, [(0.5, 0.0), (0.5, 1.0), (-1.2, 0.3), (2.0, 4.0)]),
    # a failing point, then one that fails differently
    (JOUK, FLAT, [(1.5, 0.5), JOUK_CRITICAL, (5.0, 0.0)]),
    (JOUK, FLAT, [(1.5, 0.5), (5.0, 0.0), JOUK_CRITICAL]),
    (LOG, CAP, [(1.3, 0.4), (RING, 0.0), (2.7, 0.0)]),
    (ARCTAN, HYP, [(0.5, 0.0), (2.6, 0.0)]),
]


@pytest.mark.parametrize("fn", [pde1_residual, pde1_star_residual, pde2_gap, pde2_star_gap])
def test_pde_batches_equal_the_point_calls(fn):
    for u, chart, pts in PDE_BATCHES:
        want = _point_calls(fn, u, chart, pts)
        if isinstance(want, tuple):
            with pytest.raises(LevelFlowError) as info:
                fn(u, chart, pts)
            assert (type(info.value), str(info.value)) == want
            continue
        got = fn(u, chart, np.array(pts))
        if fn in (pde2_gap, pde2_star_gap):
            assert all(type(a) is float and type(b) is float for a, b in want)
            assert [a.tobytes() for a in got] == [a.tobytes() for a in np.array(want).T]
        else:
            assert all(type(a) is float for a in want)
            assert got.tobytes() == np.array(want).tobytes()


def test_pde_residual_stencil_outside_domain_raises():
    from levelflow import DomainError
    chart = ConformalChart(flat_factor(), 1.0, 2.0)
    with pytest.raises(DomainError):
        # the FD stencil around a point on the outer boundary leaves the chart
        pde1_residual(LOG, chart, (2.0, 0.0))


def test_audit_nonfinite_quantity_raises():
    from levelflow import DomainError
    with pytest.raises(DomainError):
        # h vanishes identically for radial fields on warped charts
        principle_audit(ARCTAN, HYP, (-1.0, 1.0), "ln_abs_h",
                        "min_abs_on_boundary", n_interior=(32, 16),
                        n_boundary=32)


# ---------------------------------------------------------------------------
# principle audits
# ---------------------------------------------------------------------------

def test_audit_warped_hyperbolic_boundary_attainment():
    chart = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.1, 1.6)
    for case in ("max_on_boundary_nonpos_K", "min_on_boundary_nonpos_K"):
        rep = principle_audit(ARCTAN, chart, (0.2, 1.5), "phi_k", case,
                              n_interior=(128, 64), n_boundary=256)
        assert rep.verdict == "pass"
    # phi_k = -sinh t is monotone: extrema land on the two boundary circles
    rep = principle_audit(ARCTAN, chart, (0.2, 1.5), "phi_k",
                          "min_on_boundary_nonpos_K",
                          n_interior=(128, 64), n_boundary=256)
    assert rep.boundary_extremum[1] == pytest.approx(-np.sinh(1.5), rel=1e-6)


def test_audit_flat_degenerate_pass():
    chart = ConformalChart(flat_factor(), 1.0, 2.0)
    rep = principle_audit(LOG, chart, (1.05, 1.95), "phi_k",
                          "max_on_boundary_nonpos_K",
                          n_interior=(128, 64), n_boundary=256)
    assert rep.verdict == "pass"
    assert rep.interior_extremum[1] == pytest.approx(1.0, rel=1e-10)


def test_audit_sphere_cap_min_abs_k():
    rep = principle_audit(LOG, CAP, (1.05, 1.5), "ln_abs_k", "min_abs_on_boundary",
                          n_interior=(128, 64), n_boundary=256)
    assert rep.verdict == "pass"
    assert rep.hypothesis_flags["K"]["nonneg"]
    assert rep.hypothesis_flags["pairing_grad_u"]["nonpos"]


def test_audit_hypotheses_unmet():
    # hyperbolic chart has K = -1 < 0: the nonneg-K case cannot apply
    chart = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.1, 1.6)
    rep = principle_audit(ARCTAN, chart, (0.2, 1.5), "phi_k",
                          "max_on_boundary_nonneg_K",
                          n_interior=(64, 32), n_boundary=128)
    assert rep.verdict == "hypotheses_unmet"


def test_audit_interior_min_bound_vacuous():
    rep = principle_audit(LOG, CAP, (1.05, 1.5), "k", "interior_min_curvature_bound",
                          n_interior=(128, 64), n_boundary=256)
    assert rep.verdict == "pass"
    assert "vacuous" in rep.notes


def test_audit_json_key_order():
    chart = ConformalChart(flat_factor(), 1.0, 2.0)
    rep = principle_audit(LOG, chart, (1.05, 1.95), "phi_k",
                          "max_on_boundary_nonpos_K",
                          n_interior=(64, 32), n_boundary=128)
    doc = json.loads(rep.to_json())
    assert list(doc)[:6] == ["quantity", "case", "hypothesis_flags",
                             "interior_extremum", "boundary_extremum", "verdict"]


# Fields of t alone, harmonic or not (the audit does not ask), whose
# phi_k = k/|grad u| has an interior extremum: on the flat plane in polar
# coordinates (w = t, K = 0) phi_k = -sign / (1 + bump (t - 4)^2 / 9); on the
# round sphere (w = sin t, K = 1) phi_k = 1 / (1 + 2 sin^2 t - 2 sin^4 t).
POLAR_PLANE = WarpedChart(1.0, 7.5, 1.0,
                          ScalarField.from_expression(lambda t, _th: t, radial="t"))
ROUND_SPHERE = WarpedChart(0.2, 1.55, 1.0,
                           ScalarField.from_expression(lambda t, _th: jets.sin(t), radial="t"))


def _plane_bump(sign, bump):
    a, b, c = 1 + bump * 16 / 9, -bump * 8 / 9, bump / 18
    return ScalarField.from_expression(
        lambda t, _th: sign * (a * jets.log(t) + b * t + c * t * t), radial="t")


def _sphere_bump():
    def expr(t, _th):
        x = jets.sin(t) * jets.sin(t)
        return -(0.5 * jets.log(x) + x - 0.5 * x * x)
    return ScalarField.from_expression(expr, radial="t")


FAILS = "interior extremum exceeds the boundary extremum beyond tolerance"


@pytest.mark.parametrize("u, chart, domain, case, verdict, notes", [
    (_plane_bump(-1, 1.0), POLAR_PLANE, (1.0, 7.0), "max_on_boundary_nonpos_K", "fail", FAILS),
    (_plane_bump(1, 1.0), POLAR_PLANE, (1.0, 7.0), "min_on_boundary_nonpos_K", "fail", FAILS),
    (_plane_bump(1, -0.5), POLAR_PLANE, (1.0, 7.0), "max_on_boundary_nonneg_K", "fail", FAILS),
    (_plane_bump(-1, -0.5), POLAR_PLANE, (1.0, 7.0), "min_on_boundary_nonneg_K", "fail", FAILS),
    (_plane_bump(-1, -0.5), POLAR_PLANE, (1.0, 7.0), "min_abs_on_boundary", "fail", ""),
    (_sphere_bump(), ROUND_SPHERE, (0.3, 1.5), "interior_min_curvature_bound", "fail",
     "interior minimum 0.666669 exceeds |grad K|/K = 0"),
    (_plane_bump(-1, -0.5), POLAR_PLANE, (1.0, 7.0), "interior_min_curvature_bound",
     "hypotheses_unmet", "curvature bound |grad K|/K undefined (K <= 0 at the argmin)"),
    (_plane_bump(1, 1.0), POLAR_PLANE, (1.0, 7.0), "max_on_boundary_nonpos_K", "pass",
     "side condition (max nonneg) not met; claim vacuous"),
], ids=["max_nonpos_K", "min_nonpos_K", "max_nonneg_K", "min_nonneg_K", "min_abs",
        "interior_bound", "interior_bound_K_zero", "vacuous_side"])
def test_audit_verdicts_and_notes(u, chart, domain, case, verdict, notes):
    rep = principle_audit(u, chart, domain, "phi_k", case, n_interior=(128, 512),
                          n_boundary=128)
    assert (rep.verdict, rep.notes) == (verdict, notes)
    if verdict == "fail":
        # the interior extremum lies strictly inside the sub-annulus
        assert domain[0] < rep.interior_extremum[0][0] < domain[1]
        assert rep.tolerance > 0


# Radial pairs whose phi_k has an interior minimum above |grad K|/K, on a
# conformal chart and on a warped one with K > 0.  With ell the length of a
# level circle per unit angle (r e^phi conformal, w warped) and
# u = -atan(b ln(ell / ell0)) / b^2, phi_k = b (1 + b^2 ln(ell / ell0)^2).
# The bound is the metric norm |grad K|_g over K: on the sphere cap,
# phi = ln(1 - c r^2) and K = 4c / (1 - c r^2)^4, so it is
# 8cr / (1 - c r^2)^2 (the coordinate norm gave 8cr / (1 - c r^2)); on the
# warp w = t - t^3, K = 6 / (1 - t^2) and it is K'/K = 2t / (1 - t^2).
def _ln_ell_cap(x, y):
    r2 = x * x + y * y
    return 0.5 * jets.log(r2) + jets.log(1.0 - 0.02 * r2)


CURVATURE_BOUND_CASES = {
    "sphere_cap": (ConformalChart(sphere_cap_factor(0.02), 1.0, 2.0), (1.1, 1.9), "abs_z",
                   _ln_ell_cap, (1.5, 0.0), lambda r: 8 * 0.02 * r / (1 - 0.02 * r * r) ** 2),
    "warped": (WarpedChart(0.1, 0.55, 1.0, ScalarField.from_expression(
                   lambda t, _th: t - t * t * t, radial="t")), (0.2, 0.5), "t",
               lambda t, _th: jets.log(t - t * t * t), (0.33, 0.0),
               lambda t: 2 * t / (1 - t * t)),
}


@pytest.mark.parametrize("name", CURVATURE_BOUND_CASES)
def test_audit_interior_min_bound_is_the_metric_norm_of_grad_K_over_K(name):
    chart, domain, radial, ln_ell, p0, closed_form = CURVATURE_BOUND_CASES[name]
    b, ln_ell0 = 3.0, ScalarField.from_expression(ln_ell).value(p0)
    u = ScalarField.from_expression(
        lambda x, y: -jets.atan((ln_ell(x, y) - ln_ell0) * b) / (b * b), radial=radial)
    rep = principle_audit(u, chart, domain, "phi_k", "interior_min_curvature_bound",
                          n_interior=(256, 4096), n_boundary=16)
    (p, v_in) = rep.interior_extremum
    assert rep.verdict == "fail" and v_in == pytest.approx(b, rel=1e-4)
    bound = float(rep.notes.rsplit("= ", 1)[1])
    assert bound == pytest.approx(closed_form(np.hypot(*p) if radial == "abs_z" else p[0]),
                                  rel=1e-5)


def test_audit_min_abs_reports_raw_extrema_when_unmet():
    # K = -1 fails the K >= 0 hypothesis, so the extrema stay those of the
    # signed phi_k = -sinh t, not of its absolute value
    chart = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.1, 1.6)
    rep = principle_audit(ARCTAN, chart, (0.2, 1.5), "phi_k", "min_abs_on_boundary",
                          n_interior=(64, 32), n_boundary=128)
    assert (rep.verdict, rep.notes) == ("hypotheses_unmet", "")
    assert rep.boundary_extremum[1] == pytest.approx(-np.sinh(1.5), rel=1e-6)
    assert rep.interior_extremum[1] < 0


def _audit_or_error(u, chart, domain, quantity, case):
    try:
        return principle_audit(u, chart, domain, quantity, case, n_interior=(24, 16),
                               n_boundary=32)
    except LevelFlowError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("chart", [ConformalChart(flat_factor(), 1.0, 2.0),
                                   ConformalChart(sphere_cap_factor(0.1), 1.0, 2.0),
                                   ConformalChart(sphere_cap_factor(-0.1), 1.0, 2.0)],
                         ids=["flat", "cap_c=0.1", "cap_c=-0.1"])
def test_audit_of_a_radial_pair_matches_its_full_grid(chart):
    # -ln|z| with the radial tag takes one point per circle; built from an
    # expression it has no tag and takes every grid point
    untagged = ScalarField.from_expression(lambda x, y: -0.5 * jets.log(x * x + y * y))
    domain = (1.1, 1.9)

    def close(a, b):
        return abs(a - b) <= 1e-12 * (1.0 + abs(a))

    for quantity in AUDIT_QUANTITIES:
        for case in AUDIT_CASES:
            rep = _audit_or_error(LOG, chart, domain, quantity, case)
            full = _audit_or_error(untagged, chart, domain, quantity, case)
            if isinstance(full, tuple):
                assert rep == full, (quantity, case)
                continue
            assert (rep.verdict, rep.notes) == (full.verdict, full.notes), (quantity, case)
            assert close(rep.tolerance, full.tolerance), (quantity, case)
            for name, flags in full.hypothesis_flags.items():
                for key, value in flags.items():
                    got = rep.hypothesis_flags[name][key]
                    assert got == value if isinstance(value, bool) else close(got, value)
            # a reported point may only move to a grid point whose value ties
            fold = (np.abs if case == "min_abs_on_boundary" and quantity[:6] != "ln_abs"
                    and rep.verdict != "hypotheses_unmet" else np.asarray)
            for ours, theirs in [(rep.interior_extremum, full.interior_extremum),
                                 (rep.boundary_extremum, full.boundary_extremum)]:
                assert close(ours[1], theirs[1]), (quantity, case)
                at_theirs = fold(_audit_values(local_geometry(LOG, chart, theirs[0]), quantity))
                assert close(ours[1], float(at_theirs[0])), (quantity, case)


def test_audit_grids_too_small_raise_on_either_path():
    # one circle or one point per circle leaves no difference quotient
    for n_interior, n_boundary in [((1, 8), 8), ((8, 1), 8), ((8, 8), 0)]:
        for u in (LOG, PLOG):
            with pytest.raises(LevelFlowError, match="audit grids need"):
                principle_audit(u, CAP, (1.05, 1.5), "phi_k", "min_on_boundary_nonpos_K",
                                n_interior, n_boundary)


# ---------------------------------------------------------------------------
# slope bound
# ---------------------------------------------------------------------------

def test_slope_bound_flat():
    chart = ConformalChart(flat_factor(), 1.0, np.e**2)
    u = solve_annulus_dirichlet(DirichletSpec(np.e**2, 0.0, -2.0))
    prof = length_profile(u, chart, inset_grid(0.0, -2.0, 16))
    rep = logL_slope_bound(u, chart, prof)
    assert rep.passed
    assert rep.variant == "nonpos_K"
    assert rep.bound == pytest.approx(0.0, abs=1e-12)
    assert rep.max_slope == pytest.approx(-1.0, rel=1e-10)
    assert rep.identity_max_err <= 1e-6


def test_slope_bound_warped_hyperbolic():
    chart = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.2, 1.5)
    s_lo = 2 * np.arctan(np.exp(0.2))
    s_hi = 2 * np.arctan(np.exp(1.5))
    prof = length_profile(ARCTAN, chart, inset_grid(s_lo, s_hi, 12))
    rep = logL_slope_bound(ARCTAN, chart, prof)
    assert rep.passed
    assert rep.bound == pytest.approx(np.sinh(1.5), rel=1e-6)
    assert rep.max_slope <= rep.bound
    assert rep.identity_max_err <= 1e-6


def test_slope_bound_identity_even_when_hypotheses_unmet():
    # mixed-sign k on the full cap annulus: bound skipped, identity still holds
    u = solve_annulus_dirichlet(DirichletSpec(np.e, 0.0, -1.0))
    prof = length_profile(u, CAP, inset_grid(0.0, -1.0, 10))
    rep = logL_slope_bound(u, CAP, prof)
    assert rep.identity_max_err <= 1e-6
    assert rep.variant in ("nonpos_K", "nonneg_K", "hypotheses_unmet")


# ---------------------------------------------------------------------------
# one local geometry per point batch
# ---------------------------------------------------------------------------

def _record_jets(monkeypatch):
    """Wrap ScalarField.jet; the returned list gets (field, points, order)
    per call."""
    calls = []
    jet = ScalarField.jet

    def counted(self, p, order=4):
        calls.append((self, np.atleast_2d(np.asarray(p)).shape[0], order))
        return jet(self, p, order)

    monkeypatch.setattr(ScalarField, "jet", counted)
    return calls


def _points_per_field(calls):
    points = Counter()
    for field, n, order in calls:
        points[id(field), order] += n
    return dict(points)


def test_audit_evaluates_each_grid_point_once(monkeypatch):
    hyp = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.1, 1.6)
    # the default grid: 256 x 256 interior points and two 1024-point
    # circles, 67,584 points on 258 circles; a radial pair evaluates one
    # point per circle, a non-radial field every point; u to order 2, the
    # factor or warp to order 3 (grad K)
    cases = [(ARCTAN, hyp, hyp.shape, (0.2, 1.5), "phi_k", "min_on_boundary_nonpos_K", 258),
             (LOG, CAP, CAP.factor, (1.05, 1.5), "ln_abs_k", "min_abs_on_boundary", 258),
             (LOG, FLAT, FLAT.factor, (1.05, 1.95), "phi_k", "max_on_boundary_nonpos_K", 258),
             (PLOG, CAP, CAP.factor, (1.05, 1.5), "phi_k", "min_on_boundary_nonpos_K", 67584)]
    calls = _record_jets(monkeypatch)
    for u, chart, metric_field, domain, quantity, case, n_points in cases:
        calls.clear()
        principle_audit(u, chart, domain, quantity, case)
        assert _points_per_field(calls) == {(id(u), 2): n_points,
                                            (id(metric_field), 3): n_points}


def test_slope_bound_grid_evaluates_each_circle_once(monkeypatch):
    # the sign grid is 64 circles of 128 points and two 1024-point circles,
    # one point each for a radial pair; the identity check then evaluates
    # one point per level, on the sphere cap as on the warped chart
    hyp = WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.2, 1.5)
    s_lo, s_hi = 2 * np.arctan(np.exp(0.2)), 2 * np.arctan(np.exp(1.5))
    cases = [(LOG, CAP, CAP.factor, inset_grid(-1.0, 0.0, 10)),
             (ARCTAN, hyp, hyp.shape, inset_grid(s_lo, s_hi, 12))]
    for u, chart, metric_field, grid in cases:
        prof = length_profile(u, chart, grid)
        calls = _record_jets(monkeypatch)
        logL_slope_bound(u, chart, prof)
        monkeypatch.undo()
        geometry = [call for call in calls if call[2] >= 2]
        assert _points_per_field(geometry[:2]) == {(id(u), 2): 66, (id(metric_field), 3): 66}
        assert _points_per_field(geometry[2:]) == {(id(u), 2): grid.size,
                                                   (id(metric_field), 3): grid.size}


def test_pde_stencils_take_at_most_three_jet_calls(monkeypatch):
    calls = _record_jets(monkeypatch)
    ure = catalog_field("re_poly", n=1)
    for fn, u, chart, p in [(pde1_residual, LOG, CAP, (1.3, 0.4)),
                            (pde1_star_residual, ure, CAP, (1.3, 0.4)),
                            (pde2_gap, LOG, CAP, (1.3, 0.4)),
                            (pde2_star_gap, ure, CAP, (1.3, 0.4)),
                            (pde1_residual, ARCTAN, HYP, (0.5, 0.0)),
                            (pde1_star_residual, ARCTAN, HYP, (0.5, 0.0)),
                            (pde2_gap, ARCTAN, HYP, (0.5, 0.0))]:
        calls.clear()
        fn(u, chart, p)
        assert len(calls) <= 3, fn.__name__
        metric_field = chart.shape if chart.kind == "warped" else chart.factor
        assert ({(id(f), order) for f, _, order in calls}
                == {(id(u), 2), (id(metric_field), 3)}), fn.__name__


PLOG = catalog_field("perturbed_log", eps=0.1)


def _half_plane_points(n):
    rng = np.random.default_rng(3)
    return np.stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)], axis=-1)


@pytest.mark.parametrize("u,chart,pts", [
    (PLOG, FLAT, quasi_random_points(FLAT, 24, seed=2, min_gradient_field=PLOG)),
    (LOG, CAP, quasi_random_points(CAP, 24, seed=2, min_gradient_field=LOG)),
    (catalog_field("re_poly", n=2), ConformalChart(half_plane_factor()), _half_plane_points(24)),
    (ARCTAN, HYP, quasi_random_points(HYP, 24, seed=2)),
    (ARCTAN, HYP, np.stack([np.repeat([-1.5, 0.2, 0.7], 8), np.arange(24) * 0.25], axis=-1)),
], ids=["flat", "sphere_cap", "half_plane", "warped", "warped_repeated_t"])
def test_local_geometry_rows_do_not_depend_on_the_batch(u, chart, pts):
    batch = local_geometry(u, chart, pts)
    rows = [local_geometry(u, chart, p) for p in pts]
    for f in dataclasses.fields(batch):
        joined = np.concatenate([getattr(r, f.name) for r in rows])
        assert getattr(batch, f.name).tobytes() == joined.tobytes(), f.name
