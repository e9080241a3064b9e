"""CLI: configs, exit codes, determinism, output formats."""

import json

import numpy as np
import pytest

from levelflow import DirichletSpec, bic, inset_grid
from levelflow.cli import DEFAULT_TOLERANCES, main, run

FLAT_CONFIG = {
    "seed": 0,
    "chart": {"kind": "conformal", "factor": {"name": "flat"},
              "inner_radius": 1.0, "outer_radius": float(np.e**2)},
    "field": {"dirichlet": {"R": float(np.e**2), "t1": 0.0, "t2": -2.0}},
    "analysis": {"levels": 24, "n_samples": 256},
}

CAP_CONFIG = {
    "chart": {"kind": "conformal", "factor": {"name": "sphere_cap", "c": 0.1},
              "inner_radius": 1.0, "outer_radius": float(np.e)},
    "field": {"dirichlet": {"R": float(np.e), "t1": 0.0, "t2": 1.0}},
    "analysis": {"levels": 16},
}

CONICAL_CONFIG = {
    "chart": {"kind": "conical", "beta0": 0.0,
              "atoms": [{"z": [1.2, 0.0], "alpha": 0.5},
                        {"z": [0.0, -1.6], "alpha": 0.3}]},
    "field": {"dirichlet": {"R": float(np.e**2), "t1": 0.0, "t2": 2.0}},
    "analysis": {"levels": 60, "eps_sequence": [0.2, 0.1, 0.05],
                 "mollify_level": float(np.log(1.25))},
}

AUDIT_CONFIG = {
    "chart": {"kind": "warped", "profile": "cosh",
              "scale": 2.0 / (2 * np.pi), "t_min": 0.1, "t_max": 1.6},
    "field": {"catalog": "warped_arctan"},
    "analysis": {"quantity": "phi_k", "case": "min_on_boundary_nonpos_K",
                 "domain": [0.2, 1.5]},
}


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=1))
    return str(path)


def test_profile_writes_csv_and_exits_zero(tmp_path):
    code = main(["profile", "--config", write_config(tmp_path, FLAT_CONFIG),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    csv = (tmp_path / "out" / "profile.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "t,L,Lp,Lpp,lnL_pp,L_fd_p,L_fd_pp,aux_invgrad2"
    assert len(lines) == 25
    report = json.loads((tmp_path / "out" / "profile_report.json").read_text())
    assert report["passed"] is True
    assert "tolerances" in report


def test_profile_cross_check_scales_by_the_largest_column_value(tmp_path):
    # L' of this sphere-cap profile passes near 0, where its per-level
    # relative FD error reaches 3e-4 on a correct profile
    code = main(["profile", "--config", write_config(tmp_path, CAP_CONFIG),
                 "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "profile_report.json").read_text())
    assert code == 0 and rep["passed"] is True
    assert rep["cross_check_rel_Lp"] > DEFAULT_TOLERANCES["cross_check_rel"]
    assert rep["cross_check_scaled_Lp"] <= DEFAULT_TOLERANCES["cross_check_rel"]


@pytest.mark.parametrize("column", ["Lp", "Lpp"])
def test_profile_with_a_wrong_derivative_exits_1(tmp_path, monkeypatch, column):
    import dataclasses

    from levelflow import levelsets
    profile = levelsets.length_profile

    def wrong(*args, **kwargs):
        prof = profile(*args, **kwargs)
        return dataclasses.replace(prof, **{column: getattr(prof, column) * 1.001})

    monkeypatch.setattr(levelsets, "length_profile", wrong)
    code = main(["profile", "--config", write_config(tmp_path, FLAT_CONFIG),
                 "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "profile_report.json").read_text())
    assert code == 1 and rep["passed"] is False
    assert rep[f"cross_check_scaled_{column}"] > DEFAULT_TOLERANCES["cross_check_rel"]


def test_convexity_pass_and_fail_exit_codes(tmp_path):
    assert main(["convexity", "--config", write_config(tmp_path, FLAT_CONFIG),
                 "--out", str(tmp_path / "a")]) == 0
    # positive curvature: the convexity check must fail with exit code 1
    assert main(["convexity", "--config", write_config(tmp_path, CAP_CONFIG, "cap.json"),
                 "--out", str(tmp_path / "b")]) == 1
    report = json.loads((tmp_path / "b" / "convexity_report.json").read_text())
    assert report["passed"] is False


def test_residuals_subcommand(tmp_path):
    cfg = dict(CAP_CONFIG)
    cfg["analysis"] = {"points": 40}
    code = main(["residuals", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "residuals_report.json").read_text())
    assert rep["residuals"]["kato"] <= 1e-6
    assert rep["derivative_source"] == "closed_form"


@pytest.mark.parametrize("chart,field", [
    (CAP_CONFIG["chart"], CAP_CONFIG["field"]),
    ({"kind": "conformal", "factor": {"name": "flat"}, "inner_radius": 1.0,
      "outer_radius": 3.0}, {"catalog": "arg"}),
], ids=["sphere_cap", "arg"])
def test_residuals_batches_the_pde_stencils(tmp_path, monkeypatch, chart, field):
    from levelflow import curvature_flow, identities
    from levelflow.fields import ScalarField
    jets, geometry_jets, identity_jets = [], [], []
    jet = ScalarField.jet

    def counted_jet(self, *args, **kwargs):
        jets.append(self)
        return jet(self, *args, **kwargs)

    def count_jets(module, name, into):
        inner = getattr(module, name)

        def counted(*args):
            before = len(jets)
            out = inner(*args)
            into.append(len(jets) - before)
            return out
        monkeypatch.setattr(module, name, counted)

    monkeypatch.setattr(ScalarField, "jet", counted_jet)
    count_jets(curvature_flow, "local_geometry", geometry_jets)
    count_jets(identities, "point_jets", identity_jets)
    cfg = {"chart": chart, "field": field, "analysis": {"points": 40}}
    code = main(["residuals", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    # the three identities share one jet pair of the 40 points (a call per
    # identity made 6 jets); 12 points: pde1, pde1_star, k at the centres and
    # the gap, one geometry (two jets) each; a call per point and function
    # made 72
    assert identity_jets == [2]
    assert sum(geometry_jets) <= 8
    rep = json.loads((tmp_path / "out" / "residuals_report.json").read_text())
    # k = 0 for arg, so every point fails the gap's precondition
    assert (rep["residuals"]["pde2_gap_min"] is None) == (field == {"catalog": "arg"})


def test_audit_subcommand_and_key_order(tmp_path):
    code = main(["audit", "--config", write_config(tmp_path, AUDIT_CONFIG),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "audit_report.json").read_text())
    assert list(doc)[:6] == ["quantity", "case", "hypothesis_flags",
                             "interior_extremum", "boundary_extremum", "verdict"]
    assert doc["verdict"] == "pass"
    # the tolerance set used, as every other report embeds it
    assert doc["tolerances"] == DEFAULT_TOLERANCES


def test_bic_subcommand(tmp_path):
    code = main(["bic", "--config", write_config(tmp_path, CONICAL_CONFIG),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "bic_report.json").read_text())
    assert rep["convexity_passed"] and rep["mollified_monotone"]
    # the probe level sits 0.05 outside a vertex: lengths strictly decrease
    lengths = rep["mollified_lengths"]
    assert lengths[0] > lengths[1] > rep["singular_length"]
    assert rep["mollified_converged"]
    assert rep["capped_levels"] == []
    assert rep["capped_mollified_eps"] == [] and rep["singular_length_capped"] is False


def test_bic_subcommand_reports_capped_levels(tmp_path):
    # a vertex with alpha = -1/2 on level 20: e^v is integrable there, the
    # e^{3v} of aux_invgrad2 is not
    spec = DirichletSpec(float(np.e**2), 0.0, 2.0)
    grid = inset_grid(spec.t1, spec.t2, 60)
    cfg = {**CONICAL_CONFIG,
           "chart": {"kind": "conical", "beta0": 0.0,
                     "atoms": [{"z": [bic._level_radius(spec, grid[20]), 0.0],
                                "alpha": -0.5}]}}
    main(["bic", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "bic_report.json").read_text())
    assert rep["capped_levels"] == [grid[20]]
    rows = (tmp_path / "out" / "profile.csv").read_text().splitlines()[1:]
    assert [i for i, row in enumerate(rows) if row.endswith(",nan")] == [20]
    assert "nan" not in rows[20].split(",")[1]
    # the convexity subcommand writes the same profile and says why it has NaN
    main(["convexity", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path / "conv")])
    rep = json.loads((tmp_path / "conv" / "convexity_report.json").read_text())
    assert rep["capped_levels"] == [grid[20]]
    assert (tmp_path / "conv" / "profile.csv").read_text().splitlines()[1:] == rows


def test_bic_subcommand_reports_capped_mollified_and_singular_lengths(tmp_path):
    # alpha = -0.99 on the probe circle |z| = 1.5: integrable, but too close
    # to -1 for the rule to converge on the singular and the eps = 1e-9
    # circles; the eps = 0.1 circle converges
    cfg = {**CONICAL_CONFIG,
           "chart": {"kind": "conical", "beta0": 0.0,
                     "atoms": [{"z": [1.5, 0.0], "alpha": -0.99}]},
           "analysis": {"levels": 24, "eps_sequence": [0.1, 1e-9],
                        "mollify_level": float(np.log(1.5))}}
    code = main(["bic", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "bic_report.json").read_text())
    assert rep["capped_mollified_eps"] == [1e-9]
    assert rep["singular_length_capped"] is True
    # the flags name the estimates and leave the verdict to the mollified
    # checks: the capped eps = 1e-9 length is far from the singular one
    assert not rep["mollified_converged"] and not rep["passed"] and code == 1


def test_counterexample_subcommand(tmp_path):
    cfg = {"analysis": {"factor_c": -0.1, "radii": [0.05, 0.01]}}
    code = main(["counterexample", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    rep = json.loads((tmp_path / "out" / "counterexample_report.json").read_text())
    assert rep["expected_limit"] == pytest.approx(-4 * np.pi**2 * 0.4)
    for val in rep["defects_by_radius"].values():
        assert val == pytest.approx(rep["expected_limit"], rel=0.02)


@pytest.mark.parametrize("name", ["flat", "hyperbolic", "sphere_cap", "conical"])
def test_examples_scenarios(tmp_path, name):
    assert main(["examples", name, "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / f"examples_{name}_report.json").read_text())
    assert rep["passed"] is True
    assert (tmp_path / f"{name}_profile.csv").exists()


def test_unknown_key_rejected_with_line_number(tmp_path, capsys):
    for where in ("config", "analysis.tolerances"):
        cfg = {**FLAT_CONFIG, "analysis": {**FLAT_CONFIG["analysis"], "tolerances": {}}}
        (cfg if where == "config" else cfg["analysis"]["tolerances"])["extra_stuff"] = 1
        code = main(["profile", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown key 'extra_stuff' in {where}" in err
        assert "line" in err


def test_output_section_is_an_unknown_key(tmp_path, capsys):
    cfg = {**FLAT_CONFIG, "output": {}}
    code = main(["profile", "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown key 'output' in config" in err
    assert "line" in err


def test_tolerance_override_is_reported(tmp_path):
    cfg = {**FLAT_CONFIG, "analysis": {**FLAT_CONFIG["analysis"],
                                       "tolerances": {"convexity": 1e-3}}}
    assert main(["convexity", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path)]) == 0
    rep = json.loads((tmp_path / "convexity_report.json").read_text())
    assert rep["tolerances"] == {**DEFAULT_TOLERANCES, "convexity": 1e-3}


def _edit(cfg, section, drop=(), **set_keys):
    """A copy of cfg whose section (a key path) lacks ``drop`` and has ``set_keys``."""
    out = json.loads(json.dumps(cfg))
    *path, last = section.split(".")
    node = out
    for key in path:
        node = node[key]
    node[last] = {k: v for k, v in {**node.get(last, {}), **set_keys}.items()
                  if k not in drop}
    return out


MALFORMED = {
    "warped_without_scale": ("profile", _edit(AUDIT_CONFIG, "chart", drop=["scale"])),
    "dirichlet_without_R": ("profile", _edit(FLAT_CONFIG, "field.dirichlet", drop=["R"])),
    "outer_radius_string": ("profile", _edit(FLAT_CONFIG, "chart", outer_radius="abc")),
    "levels_string": ("profile", _edit(FLAT_CONFIG, "analysis", levels="ten")),
    "atom_without_z": ("bic", _edit(CONICAL_CONFIG, "chart", atoms=[{"alpha": 0.5}])),
    "empty_eps_sequence": ("bic", _edit(CONICAL_CONFIG, "analysis", eps_sequence=[])),
    "domain_of_one": ("audit", _edit(AUDIT_CONFIG, "analysis", domain=[1.5])),
    "re_poly_without_n": ("profile", {**FLAT_CONFIG, "field": {"catalog": "re_poly"}}),
    "conical_profile": ("profile", CONICAL_CONFIG),
    "conical_residuals": ("residuals", CONICAL_CONFIG),
    "conical_audit": ("audit", _edit(CONICAL_CONFIG, "analysis", domain=[1.1, 2.0])),
    "unknown_tolerance": ("convexity",
                          _edit(FLAT_CONFIG, "analysis", tolerances={"bogus": 1})),
    "tolerance_string": ("convexity",
                         _edit(FLAT_CONFIG, "analysis", tolerances={"convexity": "x"})),
    "catalog_param_string": ("residuals", {**FLAT_CONFIG, "field": {
        "catalog": "re_poly", "params": {"n": "two"}}}),
    "catalog_params_list": ("residuals", {**FLAT_CONFIG, "field": {
        "catalog": "re_poly", "params": [1]}}),
    "analysis_list": ("profile", {**FLAT_CONFIG, "analysis": []}),
    "audit_case_list": ("audit", _edit(AUDIT_CONFIG, "analysis", case=[1])),
    "conical_atom_number": ("bic", _edit(CONICAL_CONFIG, "chart", atoms=[5])),
    "negative_seed": ("residuals", {**CAP_CONFIG, "seed": -1}),
    "no_points": ("residuals", _edit(CAP_CONFIG, "analysis", points=0)),
    # integer keys refuse non-integral numbers instead of truncating them
    "fractional_levels": ("profile", _edit(FLAT_CONFIG, "analysis", levels=16.7)),
    "fractional_n_samples": ("profile", _edit(FLAT_CONFIG, "analysis", n_samples=64.9)),
    "fractional_seed": ("residuals", {**CAP_CONFIG, "seed": 2.5}),
    "fractional_points": ("residuals", _edit(CAP_CONFIG, "analysis", points=4.5)),
    "zero_radius": ("counterexample", {"analysis": {"radii": [0.05, 0.0]}}),
    # the radial fast path reads no samples, and must refuse too few as the
    # sampled path does
    "no_samples_radial": ("profile", _edit(FLAT_CONFIG, "analysis", n_samples=0)),
    "no_samples_traced": ("profile", {**FLAT_CONFIG, "field": {"catalog": "perturbed_log"},
                                      "analysis": {"levels": 24, "n_samples": 0,
                                                   "t_range": [0.5, 1.5]}}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_config_exits_2_with_one_line(tmp_path, capsys, case):
    sub, cfg = MALFORMED[case]
    assert main([sub, "--config", write_config(tmp_path, cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(("config error:", "error:"))
    assert not list(tmp_path.glob("*_report.json"))


@pytest.mark.parametrize("args,cfg", [
    (["profile"], FLAT_CONFIG), (["convexity"], FLAT_CONFIG),
    (["convexity"], CONICAL_CONFIG), (["residuals"], CAP_CONFIG),
    (["audit"], AUDIT_CONFIG), (["bic"], CONICAL_CONFIG),
    (["counterexample"], {"analysis": {"radii": [0.05]}}), (["examples", "flat"], None),
], ids=["profile", "convexity", "convexity_conical", "residuals", "audit", "bic",
        "counterexample", "examples"])
def test_every_report_ends_in_tolerances(tmp_path, args, cfg):
    if cfg is not None:
        args = [*args, "--config", write_config(tmp_path, cfg)]
    main([*args, "--out", str(tmp_path / "out")])
    (report,) = (tmp_path / "out").glob("*_report.json")
    assert list(json.loads(report.read_text()))[-1] == "tolerances"


def test_malformed_json_reports_line(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{\n  "chart": {\n}')
    assert main(["profile", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "line" in capsys.readouterr().err


def test_missing_config_is_config_error(tmp_path):
    assert main(["profile", "--out", str(tmp_path)]) == 2
    assert main(["examples", "unknown_scenario", "--out", str(tmp_path)]) == 2


def test_tol_scale_flag(tmp_path):
    # scaling all tolerances way up turns the failing cap convexity into a pass
    code = main(["convexity", "--config", write_config(tmp_path, CAP_CONFIG),
                 "--out", str(tmp_path / "out"), "--tol-scale", "1e12"])
    assert code == 0
    # scaling them down must fail the flat example's L' identity (error
    # ~1e-14) against the identity tolerance its report states
    out = tmp_path / "flat"
    code = main(["examples", "flat", "--out", str(out), "--tol-scale", "1e-9"])
    rep = json.loads((out / "examples_flat_report.json").read_text())
    assert rep["identity_max_err"] > rep["tolerances"]["identity"] == 1e-15
    assert not rep["slope_bound_passed"]
    assert code == 1


def test_threads_flag_is_gone(tmp_path, capsys):
    cfg = write_config(tmp_path, FLAT_CONFIG)
    with pytest.raises(SystemExit) as exc:
        main(["profile", "--config", cfg, "--out", str(tmp_path), "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_profile_warped_chart_config(tmp_path):
    cfg = {
        "chart": {"kind": "warped", "profile": "cosh",
                  "scale": 2.0 / (2 * np.pi), "t_min": -3.0, "t_max": 3.0},
        "field": {"catalog": "warped_arctan"},
        # keep the levels away from u's boundary range, where L ~ 1/s blows
        # up and the relative FD cross-check cannot hold at the default step
        "analysis": {"levels": 12, "t_range": [0.4, float(np.pi - 0.4)]},
    }
    code = main(["profile", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "profile.csv").read_text().splitlines()
    s, L = (float(lines[6].split(",")[i]) for i in (0, 1))
    assert L * np.sin(s) == pytest.approx(2.0, rel=1e-10)


@pytest.mark.parametrize("field", [{"catalog": "log"},
                                   {"dirichlet": {"R": 2.0, "t1": 0.0, "t2": 1.0}}],
                         ids=["log", "dirichlet"])
def test_warped_chart_rejects_fields_radial_in_abs_z(tmp_path, field):
    cfg = {"chart": {"kind": "warped", "profile": "cosh", "scale": 0.3,
                     "t_min": 0.1, "t_max": 2.0},
           "field": field, "analysis": {"levels": 12}}
    assert main(["profile", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_conformal_chart_rejects_fields_of_t(tmp_path):
    cfg = {"chart": {"kind": "conformal", "factor": {"name": "flat"},
                     "inner_radius": 1.0, "outer_radius": 2.0},
           "field": {"catalog": "warped_arctan"},
           "analysis": {"levels": 12, "t_range": [2.0, 2.7]}}
    assert main(["profile", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "out")]) == 2


def test_format_json_emits_profile_json(tmp_path):
    code = main(["profile", "--config", write_config(tmp_path, FLAT_CONFIG),
                 "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 0
    doc = json.loads((tmp_path / "out" / "profile.json").read_text())
    assert list(doc) == ["t", "L", "Lp", "Lpp", "lnL_pp", "L_fd_p", "L_fd_pp",
                         "aux_invgrad2"]
    assert len(doc["t"]) == 24


def test_conical_profile_json_is_strict_json(tmp_path):
    # the NaN edge rows of a conical profile are written as null
    code = main(["bic", "--config", write_config(tmp_path, CONICAL_CONFIG),
                 "--out", str(tmp_path / "out"), "--format", "json"])
    assert code == 0

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    text = (tmp_path / "out" / "profile.json").read_text()
    doc = json.loads(text, parse_constant=reject)
    for col in ("Lpp", "L_fd_pp", "lnL_pp"):
        assert [i for i, v in enumerate(doc[col]) if v is None] == [0, 1, 58, 59]
    assert None not in doc["L"]


def test_run_programmatic_entry(tmp_path):
    code = run("examples", None, out=str(tmp_path), example_name="flat")
    assert code == 0
