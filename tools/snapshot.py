"""Write a byte-comparable snapshot of levelflow's outputs to a directory.

    python tools/snapshot.py OUT

OUT (created; it must not exist yet) receives

* ``examples/<name>/``: the reports and CSVs of ``levelflow examples
  <name>`` for flat, hyperbolic, sphere_cap and conical, with its stdout,
  stderr and exit code;
* ``demos/<name>.txt``: the stdout, stderr and exit code of every script
  under ``demos/``;
* ``levels.txt``: the repr of ``sharp_bound_gap``, ``pinched_bound_check``,
  ``asymptotic_defect``, ``dlength_integral`` and ``d2length_integral`` at
  fixed inputs (fast path, quadrature path and raising inputs; level
  arrays as lists of floats, among them one of more levels than a single
  geometry evaluation takes), or the class and message of what they
  raise, likewise for raising ``length_profile`` calls, then the
  ``identity_max_err`` of ``logL_slope_bound`` for the flat, hyperbolic
  and sphere-cap scenarios;
* ``profiles/<name>_quadrature.csv``: quadrature-path ``length_profile``
  CSVs of the flat Dirichlet field (at the default 512 samples and at
  2048), of ``log`` on the sphere cap and of ``log`` on a chart whose
  factor is centred off the origin;
* ``symmetry.txt``: for every field constructor (the catalog entries, a
  Dirichlet solution, ``log_modulus_field`` on and off the origin,
  ``radial_log_field`` and ``constant_field``) on a flat annulus and on a
  cosh cylinder, ``metric_gradient_norm`` at two points of one coordinate
  circle, ``dlength_integral`` at the level midway between u's values at
  the two ends of theta = 0 and the number of ``critical_points``, or the
  class and message of what they raise;
* ``audits.txt``: ``principle_audit(...).to_json()``, or the class and
  message of what it raises, for every quantity and case on reduced grids:
  the hyperbolic cylinder, the sphere cap with u = c ln|z| for c = -1 and
  c = 1, the flat Dirichlet field, the non-radial ``perturbed_log`` on a
  sphere cap, and fields of t whose phi_k has an interior extremum on a
  polar-coordinate plane and on a round sphere (the inputs that fail),
  then one audit per chart kind on the default 256 x 256 grid (``log`` on
  a sphere cap and ``warped_arctan`` on a cosh cylinder, the shapes of the
  benchmark's audits);
* ``bic_probe.txt``: the repr of the mollified lengths and the singular
  length of ``scenarios.conical()`` and of the CLI ``bic`` negative-atom
  case, one number list per line, so a diff names the probe numbers that
  moved;
* ``cli/<case>.json`` and ``cli/<case>_<csv|json>/``: ``levelflow.cli.run``
  called in this process with ``--format csv`` and ``json`` on one config
  per subcommand and chart kind (``profile`` and ``convexity`` on flat,
  sphere-cap and warped charts, ``residuals`` on conformal and warped
  charts and for ``perturbed_log`` and ``arg`` on a flat annulus, one
  ``audit``, ``bic`` with a nonnegative and with a negative
  atom, a conical ``convexity``, ``counterexample``) and on malformed
  configs that must exit 2; each directory holds the reports and CSVs the
  run wrote and ``run.txt``, its exit code (or the class and message of
  what escaped), stdout and stderr.

The package is imported from the Python path, so two source trees compare
byte for byte with

    PYTHONPATH=/path/to/other/src python tools/snapshot.py /tmp/snap_a
    PYTHONPATH=src python tools/snapshot.py /tmp/snap_b
    diff -r /tmp/snap_a /tmp/snap_b
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = ("flat", "hyperbolic", "sphere_cap", "conical")


def _run(args, cwd: Path) -> str:
    """stdout, stderr and exit code of ``python args`` run in cwd, with the
    entries of PYTHONPATH made absolute."""
    path = os.pathsep.join(str(Path(p).resolve()) for p in
                           os.environ.get("PYTHONPATH", "").split(os.pathsep) if p)
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path))
    return (f"exit code: {proc.returncode}\n--- stdout\n{proc.stdout}"
            f"--- stderr\n{proc.stderr}")


def _level_calls():
    """(label, call) pairs covering the five level functions, raising
    profiles and the slope-bound identity."""
    import levelflow as lf
    from levelflow import scenarios

    hyp = lf.WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), -3.0, 3.0)
    arctan = lf.catalog_field("warped_arctan")
    flat = lf.ConformalChart(lf.flat_factor(), 1.0, np.e**2)
    canonical = lf.solve_annulus_dirichlet(lf.DirichletSpec(np.e**2, 0.0, -2.0))
    cap = lf.ConformalChart(lf.sphere_cap_factor(0.1), 1.0, 2.0)
    cap_wide = lf.ConformalChart(lf.sphere_cap_factor(0.1), 0.5, 2.0)
    disc = lf.ConformalChart(lf.flat_factor(), 0.0, 4.0)
    off_centre = lf.ConformalChart(lf.log_modulus_field(1.0, (1.5, 0.0)), 0.2, 1.2)
    log = lf.catalog_field("log")
    traced = lf.catalog_field("perturbed_log", eps=0.1)
    calls = []
    for s in (0.1, 0.6, 1.0, np.pi / 2, 2.4):
        calls += [(f"sharp_bound_gap(arctan, hyp, {s!r}, -1)",
                   lambda s=s: lf.sharp_bound_gap(arctan, hyp, s, -1.0)),
                  (f"pinched_bound_check(arctan, hyp, {s!r}, 1, 1)",
                   lambda s=s: lf.pinched_bound_check(arctan, hyp, s, 1.0, 1.0))]
    calls += [
        ("sharp_bound_gap(canonical, flat, -1, 0)",
         lambda: lf.sharp_bound_gap(canonical, flat, -1.0, 0.0)),
        ("sharp_bound_gap(canonical, flat, -1, -0.5)",
         lambda: lf.sharp_bound_gap(canonical, flat, -1.0, -0.5)),
        ("sharp_bound_gap(canonical, flat, -1, 0.5)",
         lambda: lf.sharp_bound_gap(canonical, flat, -1.0, 0.5)),
        ("sharp_bound_gap(canonical, flat, 0.5, 0)",
         lambda: lf.sharp_bound_gap(canonical, flat, 0.5, 0.0)),
        ("sharp_bound_gap(log, disc, 2, 0)",
         lambda: lf.sharp_bound_gap(log, disc, 2.0, 0.0)),
        ("sharp_bound_gap(traced, cap_wide, 0, 0)",
         lambda: lf.sharp_bound_gap(traced, cap_wide, 0.0, 0.0)),
        ("sharp_bound_gap(traced, flat 0.5..2, 0, 0)",
         lambda: lf.sharp_bound_gap(
             traced, lf.ConformalChart(lf.flat_factor(), 0.5, 2.0), 0.0, 0.0)),
        ("sharp_bound_gap(log, off_centre, ln 2, 0)",
         lambda: lf.sharp_bound_gap(log, off_centre, np.log(2.0), 0.0)),
        ("pinched_bound_check(arctan, hyp, pi/2, 0.5, 0.5)",
         lambda: lf.pinched_bound_check(arctan, hyp, np.pi / 2, 0.5, 0.5)),
        ("pinched_bound_check(arctan, hyp, pi/2, 1, 2)",
         lambda: lf.pinched_bound_check(arctan, hyp, np.pi / 2, 1.0, 2.0)),
        ("pinched_bound_check(arctan, hyp, -0.5, 1, 1)",
         lambda: lf.pinched_bound_check(arctan, hyp, -0.5, 1.0, 1.0)),
        ("pinched_bound_check(dirichlet 1..2, flat e, 1.5, 1, 0)",
         lambda: lf.pinched_bound_check(
             lf.solve_annulus_dirichlet(lf.DirichletSpec(np.e, 1.0, 2.0)),
             lf.ConformalChart(lf.flat_factor(), 1.0, np.e), 1.5, 1.0, 0.0)),
        ("pinched_bound_check(log, disc, 2, 1, 0)",
         lambda: lf.pinched_bound_check(log, disc, 2.0, 1.0, 0.0)),
    ]
    for c, r in ((-0.1, 0.05), (-0.1, 0.01), (0.1, 0.02), (0.0, 0.02)):
        calls.append((f"asymptotic_defect(radial_log(0, 1, {c!r}), -ln {r!r})",
                      lambda c=c, r=r: lf.asymptotic_defect(
                          lf.radial_log_field(0.0, 1.0, c), -np.log(r))))
    calls += [
        ("asymptotic_defect(radial_log(0.3, 1, -0.1), 4)",
         lambda: lf.asymptotic_defect(lf.radial_log_field(0.3, 1.0, -0.1), 4.0)),
        ("asymptotic_defect(log_modulus(1, (0.5, 0)), 4)",
         lambda: lf.asymptotic_defect(lf.log_modulus_field(1.0, (0.5, 0.0)), 4.0)),
    ]
    lm = lf.log_modulus_field(1.0)
    calls += [
        ("sharp_bound_gap(log_modulus, disc, 1, 0)",
         lambda: lf.sharp_bound_gap(lm, disc, 1.0, 0.0)),
        ("sharp_bound_gap(log_modulus, disc, 2, 0)",
         lambda: lf.sharp_bound_gap(lm, disc, 2.0, 0.0)),
        ("pinched_bound_check(log_modulus, disc, 1, 1, 0)",
         lambda: lf.pinched_bound_check(lm, disc, 1.0, 1.0, 0.0)),
        ("pinched_bound_check(log_modulus, disc, 2, 1, 0)",
         lambda: lf.pinched_bound_check(lm, disc, 2.0, 1.0, 0.0)),
    ]
    integral_cases = [
        ("canonical, flat, -1.5", canonical, flat, -1.5, 512),
        ("arctan, hyp, 0.7", arctan, hyp, 0.7, 512),
        ("arctan, hyp, 2.2, 4", arctan, hyp, 2.2, 4),
        ("log, cap, -ln 1.5", log, cap, -np.log(1.5), 512),
        ("log, cap, -5", log, cap, -5.0, 512),
        ("log, disc, 2", log, disc, 2.0, 512),
        ("log_modulus, disc, 1", lm, disc, 1.0, 512),
        ("log_modulus, disc, 2", lm, disc, 2.0, 512),
        ("log, off_centre, ln 2", log, off_centre, np.log(2.0), 512),
        ("log, off_centre, ln 2, 1024", log, off_centre, np.log(2.0), 1024),
        ("traced, cap_wide, 0", traced, cap_wide, 0.0, 512),
        ("traced, cap_wide, 0.2, 300", traced, cap_wide, 0.2, 300),
        ("traced, cap_wide, 0, 4", traced, cap_wide, 0.0, 4),
        ("traced, hyp, 0.5", traced, hyp, 0.5, 512),
        ("traced, hyp, -1", traced, hyp, -1.0, 512),
    ]
    for label, u, chart, t, n in integral_cases:
        for fn in (lf.dlength_integral, lf.d2length_integral):
            calls.append((f"{fn.__name__}({label})",
                          lambda fn=fn, u=u, chart=chart, t=t, n=n: fn(u, chart, t, n)))
    array_cases = [
        ("dlength_integral(log, off_centre, linspace(-0.1, 1.5, 40))",
         lambda: lf.dlength_integral(log, off_centre, np.linspace(-0.1, 1.5, 40))),
        ("d2length_integral(traced, cap_wide, [0, 0.2])",
         lambda: lf.d2length_integral(traced, cap_wide, np.array([0.0, 0.2]))),
        ("dlength_integral(log, off_centre, [0.5, 1, 2])",
         lambda: lf.dlength_integral(log, off_centre, np.array([0.5, 1.0, 2.0]))),
        ("d2length_integral(log, disc, [1, -1, -2])",
         lambda: lf.d2length_integral(log, disc, np.array([1.0, -1.0, -2.0]))),
    ]
    calls += [(label, lambda call=call: call().tolist()) for label, call in array_cases]
    calls += [
        ("length_profile(log_modulus, disc, linspace(1, 2, 8))",
         lambda: lf.length_profile(lm, disc, np.linspace(1.0, 2.0, 8))),
        ("length_profile(log, disc, linspace(-2, -1, 8))",
         lambda: lf.length_profile(log, disc, np.linspace(-2.0, -1.0, 8))),
    ]
    for name in ("flat", "hyperbolic", "sphere_cap"):
        calls.append((f"scenarios.{name}().slope.identity_max_err",
                      lambda name=name: getattr(scenarios, name)().slope.identity_max_err))
    return calls


def _symmetry_calls():
    """(label, call) pairs of every field constructor on both chart kinds."""
    import levelflow as lf

    fields = {name: lf.catalog_field(name, **params) for name, params in (
        ("log", {}), ("arg", {}), ("re_poly", {"n": 2}), ("im_poly", {"n": 2}),
        ("joukowski", {}), ("im_joukowski", {}), ("perturbed_log", {}),
        ("warped_arctan", {}))}
    fields.update({
        "dirichlet": lf.solve_annulus_dirichlet(lf.DirichletSpec(4.0, 0.0, 1.0)),
        "log_modulus": lf.log_modulus_field(1.0),
        "log_modulus_off_origin": lf.log_modulus_field(1.0, (0.3, 0.2)),
        "radial_log": lf.radial_log_field(0.0, 1.0, 0.5),
        "constant": lf.constant_field(0.7)})
    # (chart, two points of one coordinate circle, the ends of theta = 0)
    charts = {"flat": (lf.ConformalChart(lf.flat_factor(), 1.0, 4.0),
                       [(1.5 * np.cos(a), 1.5 * np.sin(a)) for a in (0.3, 2.1)],
                       [(1.0, 0.0), (4.0, 0.0)]),
              "cosh_cylinder": (lf.WarpedChart.cosh_cylinder(0.3, 0.1, 2.0),
                                [(0.5, 0.3), (0.5, 2.1)], [(0.1, 0.0), (2.0, 0.0)])}
    calls = []
    for name, u in fields.items():
        for chart_name, (chart, pts, ends) in charts.items():
            level = float(np.mean(u.value(ends)))
            calls += [
                (f"metric_gradient_norm({name}, {chart_name})",
                 lambda u=u, chart=chart, pts=pts:
                 lf.metric_gradient_norm(u, chart, pts).tolist()),
                (f"dlength_integral({name}, {chart_name}, {level!r})",
                 lambda u=u, chart=chart, level=level: lf.dlength_integral(u, chart, level)),
                (f"len(critical_points({name}, {chart_name}))",
                 lambda u=u, chart=chart: len(lf.critical_points(u, chart)))]
    return calls


def _audit_calls():
    """(label, call) pairs of every audit quantity and case on each setup."""
    import levelflow as lf
    from levelflow import jets, scenarios

    def of_t(expr):
        return lf.ScalarField.from_expression(lambda t, _th: expr(t), radial="t")

    def plane_bump(sign, bump):
        # t u'(t) = sign (1 + bump (t - 4)^2 / 9) on w = t
        a, b, c = 1 + bump * 16 / 9, -bump * 8 / 9, bump / 18
        return of_t(lambda t: sign * (a * jets.log(t) + b * t + c * t * t))

    def sphere_bump(t):
        x = jets.sin(t) * jets.sin(t)
        return -(0.5 * jets.log(x) + x - 0.5 * x * x)

    hyp, flat = scenarios.hyperbolic(), scenarios.flat()
    plane = lf.WarpedChart(1.0, 7.5, 1.0, of_t(lambda t: t))
    sphere = lf.WarpedChart(0.2, 1.55, 1.0, of_t(jets.sin))
    coarse = ((48, 40), 96)
    setups = [("hyperbolic", hyp.u, hyp.chart, (0.2, 1.5), coarse)]
    for c in (-1.0, 1.0):
        cap = scenarios.sphere_cap(c)
        setups.append((f"sphere_cap(c={c!r})", cap.u, cap.chart, (1.05, 1.5), coarse))
    setups += [
        ("flat", flat.u, flat.chart, (1.5, 6.0), coarse),
        ("perturbed_log, cap 0.5..2", lf.catalog_field("perturbed_log"),
         lf.ConformalChart(lf.sphere_cap_factor(0.1), 0.5, 2.0), (0.6, 1.8), coarse)]
    for sign, bump in ((-1, 1.0), (1, 1.0), (1, -0.5), (-1, -0.5)):
        setups.append((f"plane_bump({sign}, {bump!r})", plane_bump(sign, bump), plane,
                       (1.0, 7.0), ((128, 128), 128)))
    setups.append(("sphere_bump", of_t(sphere_bump), sphere, (0.3, 1.5), ((64, 512), 128)))
    calls = []
    for name, u, chart, domain, (n_interior, n_boundary) in setups:
        for quantity in lf.curvature_flow.AUDIT_QUANTITIES:
            for case in lf.curvature_flow.AUDIT_CASES:
                calls.append((f"principle_audit({name}, {quantity}, {case})",
                              lambda u=u, chart=chart, domain=domain, q=quantity, case=case,
                              n=n_interior, m=n_boundary:
                              lf.principle_audit(u, chart, domain, q, case, n, m).to_json()))
    # one audit per chart kind on the default 256 x 256 grid, shaped as the
    # benchmark's pointwise_batteries audits
    default_grid = [
        ("sphere_cap(c=0.1) 256x256", lf.catalog_field("log"),
         lf.ConformalChart(lf.sphere_cap_factor(0.1), 1.0, float(np.e)), (1.05, 1.45),
         "ln_abs_k", "min_abs_on_boundary"),
        ("cosh_cylinder 256x256", lf.catalog_field("warped_arctan"),
         lf.WarpedChart.cosh_cylinder(2.0 / (2 * np.pi), 0.1, 1.6), (0.2, 1.5),
         "phi_k", "min_on_boundary_nonpos_K")]
    for name, u, chart, domain, quantity, case in default_grid:
        calls.append((f"principle_audit({name}, {quantity}, {case})",
                      lambda u=u, chart=chart, domain=domain, q=quantity, case=case:
                      lf.principle_audit(u, chart, domain, q, case).to_json()))
    return calls


def _calls_text(calls, show=repr) -> str:
    lines = []
    for label, call in calls:
        try:
            got = show(call())
        except Exception as exc:  # the class and message are the output
            got = f"raises {type(exc).__name__}: {exc}"
        lines.append(f"{label} -> {got}\n")
    return "".join(lines)


def _bic_probe_calls():
    """(label, call) of the mollified and singular lengths of the conical
    scenario and of the CLI ``bic`` negative-atom case."""
    import levelflow as lf
    from levelflow import scenarios

    cfg = {case: cfg for case, _, cfg in _cli_cases()}["bic_negative_atom"]
    chart, dirichlet, acfg = cfg["chart"], cfg["field"]["dirichlet"], cfg["analysis"]
    factor = lf.conical_factor(chart["beta0"], [(a["z"], a["alpha"]) for a in chart["atoms"]])
    spec = lf.DirichletSpec(dirichlet["R"], dirichlet["t1"], dirichlet["t2"])
    negative = scenarios.mollified(factor, spec, acfg["mollify_level"], acfg["eps_sequence"])
    conical = scenarios.conical()
    return [("conical mollified_lengths", lambda: conical.lengths.tolist()),
            ("conical singular_length", lambda: conical.limit),
            ("bic_negative_atom mollified_lengths", lambda: negative[0].tolist()),
            ("bic_negative_atom singular_length", lambda: negative[1])]


def _write_profiles(out: Path) -> None:
    """Quadrature-path profile CSVs under out."""
    import levelflow as lf
    from levelflow import scenarios

    flat, cap = scenarios.flat(), scenarios.sphere_cap()
    off_centre = lf.ConformalChart(lf.log_modulus_field(1.0, (1.5, 0.0)), 0.2, 1.2)
    cases = [("flat", flat.u, flat.chart, flat.grid, 512),
             ("flat_2048", flat.u, flat.chart, flat.grid, 2048),
             ("sphere_cap", cap.u, cap.chart, cap.grid, 512),
             ("off_centre", lf.catalog_field("log"), off_centre, np.linspace(-0.1, 1.5, 8),
              512)]
    for name, u, chart, grid, n in cases:
        lf.length_profile(u, chart, grid, n, method="quadrature").to_csv(
            out / f"{name}_quadrature.csv")


def _cli_cases():
    """(case, subcommand, config) of the in-process CLI runs."""
    e2 = float(np.e**2)
    flat = {"seed": 0,
            "chart": {"kind": "conformal", "factor": {"name": "flat"},
                      "inner_radius": 1.0, "outer_radius": e2},
            "field": {"dirichlet": {"R": e2, "t1": 0.0, "t2": -2.0}},
            "analysis": {"levels": 24, "n_samples": 256}}
    cap = {"chart": {"kind": "conformal", "factor": {"name": "sphere_cap", "c": 0.1},
                     "inner_radius": 1.0, "outer_radius": float(np.e)},
           "field": {"dirichlet": {"R": float(np.e), "t1": 0.0, "t2": 1.0}},
           "analysis": {"levels": 16, "points": 40}}
    warped = {"chart": {"kind": "warped", "profile": "cosh",
                        "scale": 2.0 / (2 * np.pi), "t_min": -3.0, "t_max": 3.0},
              "field": {"catalog": "warped_arctan"},
              "analysis": {"levels": 12, "t_range": [0.4, float(np.pi - 0.4)],
                           "points": 40}}
    audit = {"chart": {**warped["chart"], "t_min": 0.1, "t_max": 1.6},
             "field": warped["field"],
             "analysis": {"quantity": "phi_k", "case": "min_on_boundary_nonpos_K",
                          "domain": [0.2, 1.5]}}
    conical = {"chart": {"kind": "conical", "beta0": 0.0,
                         "atoms": [{"z": [1.2, 0.0], "alpha": 0.5},
                                   {"z": [0.0, -1.6], "alpha": 0.3}]},
               "field": {"dirichlet": {"R": e2, "t1": 0.0, "t2": 2.0}},
               "analysis": {"levels": 60, "eps_sequence": [0.2, 0.1, 0.05],
                            "mollify_level": float(np.log(1.25))}}
    flat_annulus = {"seed": 7,
                    "chart": {"kind": "conformal", "factor": {"name": "flat"},
                              "inner_radius": 1.0, "outer_radius": 2.5},
                    "analysis": {"points": 48}}
    negative = {**conical, "chart": {"kind": "conical", "beta0": 0.0,
                                     "atoms": [{"z": [1.5, 0.0], "alpha": -0.5}]}}

    def edit(cfg, section, **keys):
        return {**cfg, section: {**cfg[section], **keys}}

    no_scale = dict(audit["chart"])
    del no_scale["scale"]
    cases = [(f"{sub}_{name}", sub, cfg) for sub in ("profile", "convexity")
             for name, cfg in (("flat", flat), ("sphere_cap", cap), ("warped", warped))]
    cases += [("residuals_conformal", "residuals", cap),
              ("residuals_warped", "residuals", warped),
              ("residuals_perturbed_log", "residuals",
               {**flat_annulus, "field": {"catalog": "perturbed_log", "params": {"eps": 0.1}}}),
              ("residuals_arg", "residuals", {**flat_annulus, "field": {"catalog": "arg"}}),
              ("audit", "audit", audit),
              ("bic", "bic", conical), ("bic_negative_atom", "bic", negative),
              ("convexity_conical", "convexity", conical),
              ("counterexample", "counterexample",
               {"analysis": {"factor_c": -0.1, "radii": [0.05, 0.01]}})]
    return cases + [(f"malformed_{name}", sub, cfg) for name, sub, cfg in (
        ("warped_without_scale", "profile", {**audit, "chart": no_scale}),
        ("dirichlet_without_R", "profile",
         edit(flat, "field", dirichlet={"t1": 0.0, "t2": -2.0})),
        ("outer_radius_string", "profile", edit(flat, "chart", outer_radius="abc")),
        ("levels_string", "profile", edit(flat, "analysis", levels="ten")),
        ("atom_without_z", "bic", edit(conical, "chart", atoms=[{"alpha": 0.5}])),
        ("domain_of_one", "audit", edit(audit, "analysis", domain=[1.5])),
        ("re_poly_without_n", "profile", {**flat, "field": {"catalog": "re_poly"}}),
        ("conical_profile", "profile", conical),
        ("conical_residuals", "residuals", conical),
        ("conical_audit", "audit", edit(conical, "analysis", domain=[1.1, 2.0])),
        ("unknown_tolerance", "convexity",
         edit(flat, "analysis", tolerances={"bogus": 1})),
        ("tolerance_string", "convexity",
         edit(flat, "analysis", tolerances={"convexity": "x"})))]


def _write_cli(out: Path) -> None:
    """Files and run.txt of every CLI case under out, in both formats."""
    from levelflow import cli

    for case, sub, cfg in _cli_cases():
        config = out / f"{case}.json"
        config.write_text(json.dumps(cfg, indent=1))
        for fmt in ("csv", "json"):
            where = out / f"{case}_{fmt}"
            where.mkdir()
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    got = f"exit code: {cli.run(sub, str(config), out=str(where), fmt=fmt)}"
                except Exception as exc:  # the class and message are the output
                    got = f"raises {type(exc).__name__}: {exc}"
            (where / "run.txt").write_text(f"{got}\n--- stdout\n{stdout.getvalue()}"
                                           f"--- stderr\n{stderr.getvalue()}")


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    out.mkdir(parents=True)
    for name in EXAMPLES:
        where = out / "examples" / name
        where.mkdir(parents=True)
        text = _run(["-m", "levelflow", "examples", name, "--out", "."], where)
        (where / "run.txt").write_text(text)
    (out / "demos").mkdir()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        (out / "demos" / f"{demo.stem}.txt").write_text(_run([str(demo)], out / "demos"))
    (out / "levels.txt").write_text(_calls_text(_level_calls()))
    (out / "profiles").mkdir()
    _write_profiles(out / "profiles")
    (out / "symmetry.txt").write_text(_calls_text(_symmetry_calls()))
    (out / "audits.txt").write_text(_calls_text(_audit_calls(), show=str))
    (out / "bic_probe.txt").write_text(_calls_text(_bic_probe_calls()))
    (out / "cli").mkdir()
    _write_cli(out / "cli")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
