"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single `[criterion N] PASS ...` line (visible under
pytest -s or in failure output); runtime limits are asserted where stated.
"""

import time

import numpy as np
import pytest

from levelflow import (ConformalChart, bochner_residual, catalog_field,
                       flat_factor, half_plane_factor, inset_grid,
                       kato_residual, length_profile, log_convexity_check,
                       log_gradient_residual, pde1_residual,
                       pde1_star_residual, pde2_gap, principle_audit,
                       quasi_random_points, scenarios, second_divided_differences,
                       sharp_bound_gap)


def report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_flat_annulus_equality_case():
    start = time.perf_counter()
    flat = scenarios.flat()
    np.testing.assert_allclose(flat.profile.L, 2 * np.pi * np.exp(-flat.grid), rtol=1e-12)
    worst_closed = float(np.max(np.abs(flat.profile.lnL_pp)))
    assert worst_closed <= 1e-8
    quadrature = length_profile(flat.u, flat.chart, flat.grid, n_samples=2048,
                                method="quadrature")
    worst_quad = float(np.max(np.abs(quadrature.lnL_pp)))
    assert worst_quad <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"|(ln L)''| = {worst_closed:.2e} closed-form, "
              f"{worst_quad:.2e} with 2048-node quadrature ({elapsed:.2f}s)")


def test_criterion_2_hyperbolic_example():
    start = time.perf_counter()
    hyp = scenarios.hyperbolic()
    s, prof, ln_lam = hyp.grid, hyp.profile, hyp.ln_lambda
    lsin = prof.L * np.sin(s)
    assert np.max(np.abs(lsin - ln_lam)) <= 1e-8 * ln_lam
    curv = prof.lnL_pp * np.sin(s) ** 2
    assert np.max(np.abs(curv - 1.0)) <= 1e-6
    gaps = [abs(sharp_bound_gap(hyp.u, hyp.chart, float(x), -1.0)) for x in s[::7]]
    assert max(gaps) <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"L sin s = {ln_lam} to {np.max(np.abs(lsin - ln_lam)):.2e}, "
              f"(ln L)'' sin^2 s = 1 to {np.max(np.abs(curv - 1)):.2e}, "
              f"sharp-bound gap <= {max(gaps):.2e} ({elapsed:.2f}s)")


def test_criterion_3_positive_curvature_counterexample():
    start = time.perf_counter()
    expected = -4 * np.pi**2 * 0.4
    defects = scenarios.counterexample(-0.1).defects  # lambda = 1 - 0.1 r^2
    worst = max(abs(d - expected) / abs(expected) for d in defects)
    assert worst <= 0.02
    flipped = scenarios.counterexample(0.1, [np.exp(-4.0)]).defects[0]
    assert flipped == pytest.approx(-expected, rel=0.02)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(3, f"defect within {worst:.2%} of -4 pi^2 K(0) = {expected:.4f}, "
              f"sign flips with the factor sign ({elapsed:.2f}s)")


def test_criterion_4_identity_residual_suite():
    start = time.perf_counter()
    flat = ConformalChart(flat_factor(), 1.0, 4.0)
    cap, hyp = scenarios.sphere_cap(), scenarios.hyperbolic()
    half = ConformalChart(half_plane_factor())
    pairs = [
        (flat, catalog_field("re_poly", n=2)),
        (flat, catalog_field("joukowski", a=0.3)),
        (cap.chart, cap.u),
        (hyp.chart, hyp.u),
        (half, catalog_field("re_poly", n=1)),
    ]
    worst = 0.0
    for chart, u in pairs:
        if chart is half:
            rng = np.random.default_rng(0)
            pts = np.stack([rng.uniform(-1, 1, 100), rng.uniform(0.5, 2, 100)],
                           axis=-1)
        else:
            pts = quasi_random_points(chart, 100, seed=0, min_gradient_field=u)
        for res in (kato_residual, bochner_residual, log_gradient_residual):
            worst = max(worst, float(np.max(np.abs(res(u, chart, pts)))))
    assert worst <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0
    report(4, f"Kato/Bochner/log-gradient residuals <= {worst:.2e} at "
              f"100 points x {len(pairs)} chart/field pairs ({elapsed:.2f}s)")


def test_criterion_5_curvature_pde_suite():
    start = time.perf_counter()
    hyp = scenarios.hyperbolic()
    worst_warped = max(abs(pde1_residual(hyp.u, hyp.chart, (t, 0.0)))
                       for t in (-1.5, -0.5, 0.5, 1.5))
    assert worst_warped <= 1e-6

    sc = scenarios.sphere_cap()
    cap, ulog = sc.chart, sc.u
    pts = quasi_random_points(cap, 50, seed=1, min_gradient_field=ulog)
    worst_pde1 = max(abs(pde1_residual(ulog, cap, p)) for p in pts)
    ure = catalog_field("re_poly", n=1)
    worst_pde1s = max(abs(pde1_star_residual(ure, cap, p)) for p in pts)
    assert worst_pde1 <= 1e-4 and worst_pde1s <= 1e-4
    orders = []
    for p in pts[:3]:
        r1 = pde1_residual(ulog, cap, p, step=2e-3, richardson=False)
        r2 = pde1_residual(ulog, cap, p, step=1e-3, richardson=False)
        orders.append(np.log2(abs(r1 / r2)))
    assert all(1.8 <= o <= 2.2 for o in orders)

    gap_pts = quasi_random_points(cap, 50, seed=2, radial_range=(1.05, 1.55),
                                  min_gradient_field=ulog)
    min_gap, worst_eq = np.inf, 0.0
    for p in gap_pts:
        gap, theo = pde2_gap(ulog, cap, p)
        min_gap = min(min_gap, gap)
        worst_eq = max(worst_eq, abs(gap - theo))
    assert min_gap >= -1e-6
    assert worst_eq <= 1e-4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(5, f"warped pde residual {worst_warped:.2e}; cap FD residuals "
              f"{max(worst_pde1, worst_pde1s):.2e} with orders {min(orders):.2f}"
              f"-{max(orders):.2f}; gap >= {min_gap:.2e}, |gap - grad-term| "
              f"<= {worst_eq:.2e} at 50 points ({elapsed:.2f}s)")


def test_criterion_6_pinched_curvature_bound():
    margins = scenarios.pinched_margins(scenarios.hyperbolic())
    assert min(margins) >= -1e-8
    report(6, f"(ln L)'' - 1/s^2 >= {min(margins):.3e} on a 100-point grid")


def test_criterion_7_bic_convexity():
    start = time.perf_counter()
    con = scenarios.conical()  # one of its levels passes through a vertex
    assert np.log(1.2) in con.grid
    d2 = second_divided_differences(con.grid, np.log(con.profile.L))
    assert float(d2.min()) >= -1e-5
    assert log_convexity_check(con.profile, 1e-5).passed

    # level circle passing 0.05 outside the first vertex: the mollified
    # lengths decrease strictly until eps drops below the clearance
    lengths, limit = con.lengths, con.limit
    assert np.all(np.diff(lengths) <= 1e-6)
    assert lengths[0] > limit + 1e-3
    assert abs(lengths[-1] - limit) <= 1e-6

    assert not log_convexity_check(con.negative, 1e-5).passed
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"discrete (ln L)'' >= {float(d2.min()):.2e} on 200 levels incl. "
              f"a vertex level; mollified lengths monotone to the singular "
              f"value; negative-angle violation detected ({elapsed:.1f}s)")


def test_criterion_8_principle_audits_and_slope_identity():
    start = time.perf_counter()
    hyp = scenarios.hyperbolic(t_bounds=(0.1, 1.6))
    for case in ("max_on_boundary_nonpos_K", "min_on_boundary_nonpos_K"):
        rep = principle_audit(hyp.u, hyp.chart, (0.2, 1.5), "phi_k", case)
        assert rep.verdict == "pass", case

    worst_ident = 0.0
    s_lo, s_hi = (2 * np.arctan(np.exp(t)) for t in (0.2, 1.5))
    for sc in (scenarios.flat(levels=12),
               scenarios.hyperbolic(inset_grid(s_lo, s_hi, 12), t_bounds=(0.2, 1.5)),
               scenarios.sphere_cap(bounds=(1.05, 1.5), levels=12)):
        rep = sc.slope
        worst_ident = max(worst_ident, rep.identity_max_err)
        assert rep.passed, (sc.chart.kind, rep.variant)
    assert worst_ident <= 1e-6
    elapsed = time.perf_counter() - start
    report(8, f"hyperbolic boundary-attainment audits pass; L' = "
              f"-integral(k/|grad u|) to {worst_ident:.2e} on all catalog "
              f"cases ({elapsed:.1f}s)")


def test_criterion_9_cross_method_coherence():
    start = time.perf_counter()
    cases = {"flat": scenarios.flat(levels=10),
             "hyperbolic": scenarios.hyperbolic(inset_grid(0.4, np.pi - 0.4, 10)),
             "sphere_cap": scenarios.sphere_cap(levels=10)}
    orders = {}
    for name, sc in cases.items():
        errs = []
        for h in (2e-3, 1e-3):
            prof = length_profile(sc.u, sc.chart, sc.grid, fd_step=h)
            errs.append((np.max(np.abs(prof.L_fd_p - prof.Lp)),
                         np.max(np.abs(prof.L_fd_pp - prof.Lpp))))
        op = np.log2(errs[0][0] / errs[1][0])
        opp = np.log2(errs[0][1] / errs[1][1])
        assert 1.8 <= op <= 2.2, (name, op)
        assert 1.8 <= opp <= 2.2, (name, opp)
        orders[name] = (round(float(op), 3), round(float(opp), 3))
    elapsed = time.perf_counter() - start
    report(9, f"integral vs finite-difference L', L'' convergence orders "
              f"{orders} ({elapsed:.1f}s)")
