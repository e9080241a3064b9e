"""Conical factors, curvature measures, singular quadrature, mollification."""

import logging

import numpy as np
import pytest
from scipy.integrate import quad

from levelflow import (ConformalChart, DirichletSpec, DomainError,
                       bic_length_profile, conical_circle_length, conical_factor,
                       inset_grid, log_convexity_check, mollified_convergence,
                       mollify)
from levelflow import bic, quadrature

TWO_ATOM = conical_factor(0.0, [((1.2, 0.0), 0.5), ((0.0, -1.6), 0.3)])
SPEC = DirichletSpec(np.e**2, 0.0, 2.0)


def oracle_circle_length(factor, r):
    def f(th):
        v = factor.beta0
        for (x, y), a in factor.atoms:
            v += a * np.log(np.hypot(r * np.cos(th) - x, r * np.sin(th) - y))
        return np.exp(v)

    pts = sorted(np.mod([np.arctan2(p[1], p[0]) for p, _ in factor.atoms],
                        2 * np.pi))
    val, _ = quad(f, 0.0, 2 * np.pi, points=pts, limit=800,
                  epsabs=1e-13, epsrel=1e-12)
    return r * val


# ---------------------------------------------------------------------------
# construction and curvature measure
# ---------------------------------------------------------------------------

def test_factor_validation():
    with pytest.raises(DomainError):
        conical_factor(0.0, [((1.0, 0.0), -1.0)])
    with pytest.raises(DomainError):
        conical_factor(0.0, [((1.0, 0.0), 0.5), ((1.0, 0.0), 0.3)])


def test_curvature_measure_masses():
    omega = TWO_ATOM.curvature_measure()
    assert omega.total_mass == pytest.approx(-2 * np.pi * 0.8, rel=1e-14)
    assert omega.nonpositive
    masses = dict((tuple(p), m) for p, m in omega.atoms)
    assert masses[(1.2, 0.0)] == pytest.approx(-2 * np.pi * 0.5, rel=1e-14)
    single = conical_factor(0.0, [((1.5, 0.0), 1.0)])
    assert single.curvature_measure().atoms[0][1] == pytest.approx(-2 * np.pi)
    neg = conical_factor(0.0, [((1.5, 0.0), -0.5)])
    assert not neg.curvature_measure().nonpositive
    assert conical_factor(0.0, []).curvature_measure().total_mass == 0.0


def test_flux_identity_certifies_atom_mass():
    # (1/2 pi) * circulation of the normal derivative of v around a vertex
    # recovers alpha
    rho = 0.05
    th = np.arange(4096) * (2 * np.pi / 4096)
    for (cx, cy), alpha in TWO_ATOM.atoms:
        circle = np.stack([cx + rho * np.cos(th), cy + rho * np.sin(th)], axis=-1)
        grad = TWO_ATOM.field.gradient(circle)
        normal = np.stack([np.cos(th), np.sin(th)], axis=-1)
        flux = np.sum(np.einsum("ni,ni->n", grad, normal)) * rho * (2 * np.pi / 4096)
        assert flux / (2 * np.pi) == pytest.approx(alpha, abs=1e-8)


def test_factor_field_is_flat_away_from_atoms():
    chart = ConformalChart(TWO_ATOM.field, 1.0, np.e**2)
    pts = np.array([[2.0, 1.0], [1.4, -0.2], [3.0, 3.0]])
    assert np.max(np.abs(chart.gauss_curvature(pts))) <= 1e-10


# ---------------------------------------------------------------------------
# singular circle quadrature
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [1.05, 1.2, 1.6, 2.2, 6.0])
def test_circle_length_matches_quad_oracle(r):
    assert conical_circle_length(TWO_ATOM, r) == pytest.approx(
        oracle_circle_length(TWO_ATOM, r), rel=1e-9)


def test_circle_through_vertex_negative_alpha_finite():
    neg = conical_factor(0.0, [((1.3, 0.0), -0.5)])
    mine = conical_circle_length(neg, 1.3)
    oracle = oracle_circle_length(neg, 1.3)
    assert np.isfinite(mine)
    assert mine == pytest.approx(oracle, rel=1e-9)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_flat_factor_profile_is_affine_in_log():
    factor = conical_factor(0.7, [])
    grid = inset_grid(0.0, 2.0, 40)
    prof = bic_length_profile(factor, SPEC, grid)
    expected = 2 * np.pi * np.exp(0.7) * np.exp(
        (grid - 0.0) * np.log(SPEC.R) / (SPEC.t2 - SPEC.t1))
    assert np.allclose(prof.L, expected, rtol=1e-10)
    rep = log_convexity_check(prof, 1e-8)
    assert rep.passed
    assert abs(rep.min_discrete) <= 1e-8


def test_two_atom_profile_discrete_convexity_incl_vertex_level():
    grid = inset_grid(0.0, 2.0, 200)
    for t_atom in (np.log(1.2), np.log(1.6)):
        i = int(np.argmin(np.abs(grid - t_atom)))
        grid[i] = t_atom
    prof = bic_length_profile(TWO_ATOM, SPEC, grid)
    rep = log_convexity_check(prof, 1e-5)
    assert rep.passed
    assert rep.min_discrete >= -1e-5
    assert prof.derivative_mode == "grid_fd"


def test_profile_edge_rows_are_nan_and_the_minimum_skips_them():
    # two-sided second differences near the ends read a one-sided L_fd_p,
    # which gave these convex rows negative lnL_pp
    grid = inset_grid(0.0, 2.0, 40)
    prof = bic_length_profile(TWO_ATOM, SPEC, grid)
    edge = [0, 1, 38, 39]
    assert prof.meta["edge_rows"] == edge
    want = np.gradient(np.gradient(prof.L, grid, edge_order=2), grid, edge_order=2)
    for col in (prof.Lpp, prof.L_fd_pp, prof.lnL_pp):
        assert np.flatnonzero(np.isnan(col)).tolist() == edge
    assert prof.L_fd_pp[2:-2].tobytes() == want[2:-2].tobytes()
    rep = log_convexity_check(prof, 1e-5)
    assert rep.min_lnL_pp == np.min(prof.lnL_pp[2:-2]) > 0.0
    assert rep.passed


def test_negative_alpha_violates_convexity():
    neg = conical_factor(0.0, [((1.3, 0.0), -0.5)])
    prof = bic_length_profile(neg, SPEC, inset_grid(0.0, 2.0, 120))
    rep = log_convexity_check(prof, 1e-5)
    assert not rep.passed
    assert rep.min_discrete < -1.0


# every circle of this grid is one row of the batched rule; three levels meet
# a vertex: alpha = -0.9 makes the e^{3v} sum overflow (aux NaN), alpha = -0.5
# leaves it non-integrable (aux capped), alpha = 0.5 converges
EDGE_GRID = inset_grid(0.0, 2.0, 24)
EDGE_RADII = [bic._level_radius(SPEC, t) for t in EDGE_GRID]
EDGE_FACTOR = conical_factor(30.0, [((EDGE_RADII[5], 0.0), -0.9),
                                    ((0.0, EDGE_RADII[12]), -0.5),
                                    ((-EDGE_RADII[18], 0.0), 0.5)])


def test_profile_rows_match_single_circles_byte_for_byte():
    prof = bic_length_profile(EDGE_FACTOR, SPEC, EDGE_GRID)
    L = np.array([conical_circle_length(EDGE_FACTOR, r) for r in EDGE_RADII])
    # aux_invgrad2 is r^3 / b^2 times the one-row integral of e^{3v}, NaN
    # where that integral is capped or not finite
    b = (SPEC.t2 - SPEC.t1) / np.log(SPEC.R)
    aux = []
    for r in EDGE_RADII:
        (val,), (capped,) = quadrature.segmented_circle_integral(
            *bic._conical_log_integrand(EDGE_FACTOR, [r], 3.0))
        aux.append(r ** 3 / b**2 * val if np.isfinite(val) and not capped else np.nan)
    aux = np.array(aux)
    assert prof.L.tobytes() == L.tobytes()
    assert prof.aux_invgrad2.tobytes() == aux.tobytes()
    assert np.flatnonzero(np.isnan(aux)).tolist() == [5, 12]
    assert np.all(np.isfinite(L))
    assert prof.meta["capped_levels"] == [EDGE_GRID[5], EDGE_GRID[12]]


def test_log_integrand_rows_do_not_depend_on_their_batch():
    # a level may ask for the e^v rows of outer circles together with the
    # e^{3v} rows of inner ones, so its rows list circles out of order
    log_f, _ = bic._conical_log_integrand(EDGE_FACTOR, EDGE_RADII, 1.0, 3.0)
    m = len(EDGE_RADII)
    theta = np.linspace(0.1, 6.0, 7)
    every_row = log_f(theta, (), slice(None))
    for rows in ([5, m + 3], [m + 1, 2], [4, m + 4], [0, 7, m + 7], [m + 9]):
        assert log_f(theta, (), np.array(rows)).tobytes() == every_row[rows].tobytes()


def test_profile_splits_into_halves_byte_for_byte():
    whole = bic_length_profile(EDGE_FACTOR, SPEC, EDGE_GRID)
    halves = [bic_length_profile(EDGE_FACTOR, SPEC, part)
              for part in np.split(EDGE_GRID, 2)]
    for name in ("t_grid", "L", "aux_invgrad2"):
        joined = np.concatenate([getattr(p, name) for p in halves])
        assert getattr(whole, name).tobytes() == joined.tobytes(), name


def test_profile_makes_one_integrand_call_per_refinement_level(monkeypatch):
    # L and aux_invgrad2 of all 40 circles and both segments are rows of one
    # rule: level 0 evaluates 21 nodes per segment, level k adds 20 * 2^(k-1)
    rule_calls, nodes = [], []
    rule = quadrature.tanh_sinh

    def counted(f, *args, **kwargs):
        rule_calls.append(args)

        def g(x, *rest):
            nodes.append(x.size)
            return f(x, *rest)
        return rule(g, *args, **kwargs)

    monkeypatch.setattr(quadrature, "tanh_sinh", counted)
    prof = bic_length_profile(TWO_ATOM, SPEC, inset_grid(0.0, 2.0, 40))
    assert len(rule_calls) == 1
    assert nodes == [2 * 21] + [2 * 20 << (k - 1) for k in range(1, 5)]
    assert prof.meta["capped_levels"] == []


def test_profile_reports_capped_levels(caplog):
    with caplog.at_level(logging.WARNING, logger="levelflow.bic"):
        clean = bic_length_profile(TWO_ATOM, SPEC, EDGE_GRID)
    assert caplog.records == []
    assert clean.meta["capped_levels"] == []
    with caplog.at_level(logging.WARNING, logger="levelflow.bic"):
        capped = bic_length_profile(EDGE_FACTOR, SPEC, EDGE_GRID)
    (record,) = caplog.records
    assert record.levelname == "WARNING"
    assert "aux_invgrad2 on 2 levels" in record.getMessage()
    assert str([float(EDGE_GRID[5]), float(EDGE_GRID[12])]) in record.getMessage()
    assert capped.meta["capped_levels"] == [EDGE_GRID[5], EDGE_GRID[12]]


def test_one_circle_lengths_log_a_capped_integral(caplog):
    # alpha = -0.99 on the circle |z| = 1.5: integrable, but too close to
    # -1 for the rule to converge, on the singular and the eps = 1e-9 circles
    factor = conical_factor(0.0, [((1.5, 0.0), -0.99)])
    with caplog.at_level(logging.WARNING, logger="levelflow.quadrature"):
        conical_circle_length(TWO_ATOM, 1.5)
        mollify(factor, 0.1).circle_length(1.5)
    assert caplog.records == []
    cases = [(lambda: conical_circle_length(factor, 1.5),
              quadrature.circle_lengths(*bic._conical_log_integrand(factor, [1.5], 1.0),
                                        [1.5], ["conical circle length"])[0][0]),
             (lambda: mollify(factor, 1e-9).circle_length(1.5), None),
             # the eps = 1e-9 row of a batch is capped, the eps = 0.1 row is not
             (lambda: mollified_convergence(factor, SPEC, float(np.log(1.5)), [0.1, 1e-9]),
              None)]
    for length, want in cases:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="levelflow.quadrature"):
            got = length()
        (record,) = caplog.records
        assert record.levelname == "WARNING"
        assert "at r = 1.5 used every refinement level" in record.getMessage()
        assert "eps = 0.1)" not in record.getMessage()
        if want is not None:
            assert got == want


def test_profile_grid_validation():
    with pytest.raises(DomainError):
        bic_length_profile(TWO_ATOM, SPEC, np.linspace(0.1, 1.9, 5))
    with pytest.raises(DomainError):
        bic_length_profile(TWO_ATOM, SPEC, np.linspace(-0.5, 1.9, 20))


# ---------------------------------------------------------------------------
# mollification
# ---------------------------------------------------------------------------

def test_mollified_value_against_quad_oracle():
    eps = 0.3
    m = mollify(TWO_ATOM, eps)
    for d in (0.0, 0.05, 0.15, 0.29):
        def integrand(s):
            c = 4.0 / (np.pi * eps**2)
            return c * (1 - (s / eps) ** 2) ** 3 * np.log(max(d, s)) * 2 * np.pi * s

        oracle, _ = quad(integrand, 0.0, eps, limit=200, epsabs=1e-13,
                         points=[d] if 0 < d < eps else None)
        p = (1.2 + d, 0.0)  # distance d from the first vertex
        other = 0.3 * np.log(np.hypot(p[0], p[1] + 1.6))
        assert m.value(p) - other == pytest.approx(0.5 * oracle, abs=1e-10)


def test_mollified_equals_source_away_from_atoms():
    m = mollify(TWO_ATOM, 0.1)
    pts = np.array([[2.0, 1.0], [0.5, 0.8], [3.0, -2.0]])
    assert np.allclose(m.value(pts), TWO_ATOM.value(pts), atol=1e-14)


def test_mollified_finite_at_vertex_and_dominates():
    m = mollify(TWO_ATOM, 0.1)
    assert np.isfinite(m.value((1.2, 0.0)))
    rng = np.random.default_rng(2)
    pts = np.stack([rng.uniform(0.3, 3.0, 100), rng.uniform(-3.0, 3.0, 100)],
                   axis=-1)
    assert np.all(m.value(pts) >= TWO_ATOM.value(pts) - 1e-12)


def test_mollified_monotone_in_eps_at_100_points():
    rng = np.random.default_rng(3)
    pts = np.stack([rng.uniform(0.3, 3.0, 100), rng.uniform(-3.0, 3.0, 100)],
                   axis=-1)
    v1 = mollify(TWO_ATOM, 0.2).value(pts)
    v2 = mollify(TWO_ATOM, 0.1).value(pts)
    v3 = mollify(TWO_ATOM, 0.05).value(pts)
    assert np.all(v2 <= v1 + 1e-12)
    assert np.all(v3 <= v2 + 1e-12)


def test_mollified_subharmonic_sub_mean_value():
    m = mollify(TWO_ATOM, 0.15)
    rng = np.random.default_rng(4)
    th = np.arange(256) * (2 * np.pi / 256)
    for _ in range(50):
        c = np.array([rng.uniform(0.5, 2.5), rng.uniform(-2.5, 2.5)])
        rho = rng.uniform(0.01, 0.05)
        circle = np.stack([c[0] + rho * np.cos(th), c[1] + rho * np.sin(th)],
                          axis=-1)
        assert np.mean(m.value(circle)) >= m.value(c) - 1e-10


def test_mollified_convergence_to_singular_length():
    # circle 0.05 outside the first vertex: strictly decreasing until the
    # kernel radius drops below the clearance, then exactly the limit
    t_near = float(np.log(1.25))
    lengths = mollified_convergence(TWO_ATOM, SPEC, t_near, [0.2, 0.1, 0.05, 0.01])
    limit = conical_circle_length(TWO_ATOM, 1.25)
    # neither of the two smallest kernels reaches the circle: their rows have
    # the same integrand, split at the same joints, so they are equal
    assert lengths[2] == lengths[3]
    assert np.all(np.diff(lengths) <= 1e-12)
    assert lengths[0] > limit + 1e-3
    assert abs(lengths[-1] - limit) <= 1e-6
    # circle exactly through the vertex: strict decrease all the way down
    t_on = float(np.log(1.2))
    on = mollified_convergence(TWO_ATOM, SPEC, t_on, [0.2, 0.1, 0.05, 0.01])
    assert np.all(np.diff(on) < 0)
    assert on[-1] >= conical_circle_length(TWO_ATOM, 1.2) - 1e-12
    flat = conical_factor(0.2, [])
    vals = mollified_convergence(flat, SPEC, 0.6, [0.2, 0.1])
    assert vals[0] == pytest.approx(vals[1], rel=1e-13)
    with pytest.raises(DomainError):
        mollified_convergence(TWO_ATOM, SPEC, 0.6, [0.1, 0.2])


@pytest.mark.parametrize("r", [1.25, 1.2, 1.6, 2.0])
def test_batched_mollified_rows_match_one_circle_lengths(r):
    # the batch splits every row at the union of the rows' mollifier joints
    eps = [0.2, 0.1, 0.05, 0.01]
    t = float(np.log(r))
    batch = mollified_convergence(TWO_ATOM, SPEC, t, eps)
    one = [mollify(TWO_ATOM, e).circle_length(bic._level_radius(SPEC, t)) for e in eps]
    np.testing.assert_allclose(batch, one, rtol=1e-13, atol=0)


def test_each_mollified_profile_is_log_convex():
    # every smooth approximant must individually pass the convexity check
    grid = inset_grid(0.0, 2.0, 24)
    for eps in (0.2, 0.1):
        m = mollify(TWO_ATOM, eps)
        L = np.array([m.circle_length(float(np.exp(t))) for t in grid])
        hp = grid[1] - grid[0]
        d2 = (np.log(L[2:]) - 2 * np.log(L[1:-1]) + np.log(L[:-2])) / hp**2
        assert d2.min() >= -1e-6
