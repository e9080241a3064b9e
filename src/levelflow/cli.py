"""Command-line runner: scenario configs in, CSV/JSON reports out.

Subcommands: ``profile``, ``convexity``, ``residuals``, ``audit``, ``bic``,
``counterexample`` (all config-driven) and ``examples NAME`` (reports on
the flat / hyperbolic / sphere_cap / conical entries of
:mod:`levelflow.scenarios`).  Exit codes: 0 when
every check passes, 1 when a mathematical check fails (a report is still
written), 2 on input or configuration errors.

Configs are strict UTF-8 JSON: unknown keys are rejected with a
line-numbered diagnostic where the offending key can be located.  Every
report embeds the tolerance set actually used, so failures reproduce.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import bic as bic_mod
from . import curvature_flow as cf
from . import identities as idn
from . import levelsets as ls
from . import scenarios
from .charts import ConformalChart, WarpedChart, flat_factor, sphere_cap_factor
from .errors import ConfigError, LevelFlowError
from .fields import half_plane_factor, radial_log_field
from .harmonic import DirichletSpec, catalog_field, solve_annulus_dirichlet
from .sampling import quasi_random_points

DEFAULT_TOLERANCES = {
    "convexity": 1e-8,
    "convexity_conical": 1e-5,
    "residual_closed_form": 1e-6,
    "residual_fd": 1e-4,
    "pde_fd": 1e-4,
    "gap_floor": 1e-6,
    "identity": 1e-6,
    "defect_rel": 0.02,
    "cross_check_rel": 1e-4,
    "mollified_monotone": 1e-6,
}

_TOP_KEYS = {"seed", "chart", "field", "analysis", "output"}
_CHART_KEYS = {"kind", "factor", "inner_radius", "outer_radius", "profile",
               "scale", "t_min", "t_max", "beta0", "atoms"}
_FIELD_KEYS = {"dirichlet", "catalog", "params"}
_ANALYSIS_KEYS = {"levels", "n_samples", "t_range", "points", "quantity",
                  "case", "domain", "kappa", "eps_sequence", "mollify_level", "radii",
                  "factor_c", "tolerances"}
_FACTOR_KEYS = {"name", "a", "b", "c"}


def _find_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _reject_unknown(section: dict, allowed: set, where: str, text: str):
    for key in section:
        if key not in allowed:
            line = _find_line(text, key)
            loc = f"line {line}: " if line else ""
            raise ConfigError(f"{loc}unknown key {key!r} in {where}")


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(cfg, _TOP_KEYS, "config", text)
    _reject_unknown(cfg.get("chart", {}), _CHART_KEYS, "chart", text)
    _reject_unknown(cfg.get("field", {}), _FIELD_KEYS, "field", text)
    _reject_unknown(cfg.get("analysis", {}), _ANALYSIS_KEYS, "analysis", text)
    factor = cfg.get("chart", {}).get("factor")
    if isinstance(factor, dict):
        _reject_unknown(factor, _FACTOR_KEYS, "chart.factor", text)
    cfg.setdefault("seed", 0)
    cfg.setdefault("analysis", {})
    cfg.setdefault("output", {})
    return cfg


def _build_factor(fcfg: dict):
    name = fcfg.get("name")
    if name == "flat":
        return flat_factor()
    if name == "sphere_cap":
        return sphere_cap_factor(float(fcfg.get("c", 0.1)))
    if name == "half_plane":
        return half_plane_factor()
    if name == "radial_log":
        return radial_log_field(float(fcfg.get("a", 0.0)),
                                float(fcfg.get("b", 1.0)),
                                float(fcfg.get("c", 0.0)))
    raise ConfigError(f"unknown factor name {name!r}")


def build_chart(cfg: dict):
    ccfg = cfg.get("chart")
    if not isinstance(ccfg, dict):
        raise ConfigError("missing 'chart' section")
    kind = ccfg.get("kind")
    if kind == "conformal":
        factor = _build_factor(ccfg.get("factor", {"name": "flat"}))
        return ConformalChart(factor, float(ccfg.get("inner_radius", 1.0)),
                              ccfg.get("outer_radius"))
    if kind == "warped":
        if ccfg.get("profile", "cosh") != "cosh":
            raise ConfigError("only the cosh warp profile is built in")
        return WarpedChart.cosh_cylinder(float(ccfg["scale"]),
                                         float(ccfg["t_min"]), float(ccfg["t_max"]))
    if kind == "conical":
        atoms = [((a["z"][0], a["z"][1]), a["alpha"]) for a in ccfg.get("atoms", [])]
        return bic_mod.conical_factor(float(ccfg.get("beta0", 0.0)), atoms)
    raise ConfigError(f"unknown chart kind {kind!r}")


def build_field(cfg: dict):
    fcfg = cfg.get("field")
    if not isinstance(fcfg, dict):
        raise ConfigError("missing 'field' section")
    spec = _field_spec(cfg)
    if spec is not None:
        return solve_annulus_dirichlet(spec)
    if "catalog" in fcfg:
        return catalog_field(fcfg["catalog"], **fcfg.get("params", {}))
    raise ConfigError("field must specify 'dirichlet' or 'catalog'")


def _tolerances(cfg: dict, tol_scale: float) -> dict:
    tol = dict(DEFAULT_TOLERANCES)
    tol.update(cfg.get("analysis", {}).get("tolerances", {}))
    return {k: v * tol_scale for k, v in tol.items()}


def _field_spec(cfg) -> DirichletSpec | None:
    fcfg = cfg.get("field", {})
    if "dirichlet" in fcfg:
        d = fcfg["dirichlet"]
        return DirichletSpec(float(d["R"]), float(d["t1"]), float(d["t2"]))
    return None


def _grid_from_config(cfg, chart, u) -> np.ndarray:
    acfg = cfg.get("analysis", {})
    n = int(acfg.get("levels", 50))
    t_range = acfg.get("t_range")
    if t_range is None:
        bv = ls.boundary_values(u, chart)
        if bv is None:
            raise ConfigError("analysis.t_range required for this field/chart")
        t_range = bv
    return ls.inset_grid(float(t_range[0]), float(t_range[1]), n)


def _write_report(report: dict, out_dir: Path, name: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", newline="\n") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    return path


def _write_profile(prof, out_dir: Path, fmt: str) -> None:
    """The profile table is always CSV; --format json adds a JSON copy."""
    prof.to_csv(out_dir / "profile.csv")
    if fmt == "json":
        doc = {c: [float(v) for v in
                   getattr(prof, "t_grid" if c == "t" else c)]
               for c in ls.CSV_COLUMNS}
        _write_report(doc, out_dir, "profile.json")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_profile(cfg, out_dir, tol, fmt):
    chart = build_chart(cfg)
    u = build_field(cfg)
    grid = _grid_from_config(cfg, chart, u)
    n_samples = int(cfg["analysis"].get("n_samples", 512))
    prof = ls.length_profile(u, chart, grid, n_samples=n_samples)
    rel = np.max(np.abs(prof.Lp - prof.L_fd_p) / np.maximum(np.abs(prof.Lp), 1e-30))
    rel2 = np.max(np.abs(prof.Lpp - prof.L_fd_pp) / np.maximum(np.abs(prof.Lpp), 1e-30))
    ok = bool(rel <= tol["cross_check_rel"] and rel2 <= tol["cross_check_rel"])
    report = {
        "subcommand": "profile",
        "levels": int(grid.size),
        "n_samples": n_samples,
        "cross_check_rel_Lp": float(rel),
        "cross_check_rel_Lpp": float(rel2),
        "passed": ok,
        "tolerances": tol,
    }
    _write_profile(prof, out_dir, fmt)
    report["profile_csv"] = "profile.csv"
    _write_report(report, out_dir, "profile_report.json")
    return (0 if ok else 1), report


def cmd_convexity(cfg, out_dir, tol, fmt):
    chart = build_chart(cfg)
    if isinstance(chart, bic_mod.ConicalFactor):
        return _conical_convexity(cfg, chart, out_dir, tol, fmt)
    u = build_field(cfg)
    grid = _grid_from_config(cfg, chart, u)
    n_samples = int(cfg["analysis"].get("n_samples", 512))
    prof = ls.length_profile(u, chart, grid, n_samples=n_samples)
    rep = ls.log_convexity_check(prof, tol["convexity"])
    report = {
        "subcommand": "convexity",
        "min_lnL_pp": rep.min_lnL_pp,
        "argmin_t": rep.argmin_t,
        "min_discrete_second_difference": rep.min_discrete,
        "passed": rep.passed,
        "tolerances": tol,
    }
    _write_profile(prof, out_dir, fmt)
    _write_report(report, out_dir, "convexity_report.json")
    return (0 if rep.passed else 1), report


def _conical_convexity(cfg, factor, out_dir, tol, fmt="csv"):
    spec = _field_spec(cfg)
    if spec is None:
        raise ConfigError("conical charts need a dirichlet field")
    grid = ls.inset_grid(spec.t1, spec.t2, int(cfg["analysis"].get("levels", 200)))
    prof = bic_mod.bic_length_profile(factor, spec, grid)
    rep = ls.log_convexity_check(prof, tol["convexity_conical"])
    report = {
        "subcommand": "convexity",
        "chart": "conical",
        "nonpositive_curvature": factor.nonpositive_curvature,
        "min_discrete_second_difference": rep.min_discrete,
        "capped_levels": prof.meta["capped_levels"],
        "passed": rep.passed,
        "tolerances": tol,
    }
    _write_profile(prof, out_dir, fmt)
    _write_report(report, out_dir, "convexity_report.json")
    return (0 if rep.passed else 1), report


def cmd_residuals(cfg, out_dir, tol, fmt):
    chart = build_chart(cfg)
    u = build_field(cfg)
    n = int(cfg["analysis"].get("points", 100))
    seed = int(cfg.get("seed", 0))
    pts = quasi_random_points(chart, n, seed, min_gradient_field=u)
    closed = u.derivative_source == "closed_form"
    rtol = tol["residual_closed_form"] if closed else tol["residual_fd"]
    res = {
        "kato": float(np.max(np.abs(idn.kato_residual(u, chart, pts)))),
        "bochner": float(np.max(np.abs(idn.bochner_residual(u, chart, pts)))),
        "log_gradient": float(np.max(np.abs(idn.log_gradient_residual(u, chart, pts)))),
    }
    pde_pts = pts[: min(12, n)]
    res["pde1_max"] = float(np.max(np.abs(cf.pde1_residual(u, chart, pde_pts))))
    res["pde1_star_max"] = float(np.max(np.abs(cf.pde1_star_residual(u, chart, pde_pts))))
    # pde1 has evaluated the same stencils, so the gap can fail only on its
    # k != 0 precondition; the gap skips the points where k vanishes
    gap_pts = pde_pts[np.abs(cf.level_curvature_k(u, chart, pde_pts)) >= cf.ZERO_CURV]
    res["pde2_gap_min"] = None
    res["pde2_gap_vs_theoretical"] = None
    if len(gap_pts):
        gaps, theo = cf.pde2_gap(u, chart, gap_pts)
        res["pde2_gap_min"] = float(np.min(gaps))
        res["pde2_gap_vs_theoretical"] = float(np.max(np.abs(gaps - theo)))
    ok = (res["kato"] <= rtol and res["bochner"] <= rtol
          and res["log_gradient"] <= rtol
          and res["pde1_max"] <= tol["pde_fd"]
          and res["pde1_star_max"] <= tol["pde_fd"]
          and (res["pde2_gap_min"] is None or res["pde2_gap_min"] >= -tol["gap_floor"])
          and (res["pde2_gap_vs_theoretical"] is None
               or res["pde2_gap_vs_theoretical"] <= tol["pde_fd"] * 10))
    report = {
        "subcommand": "residuals",
        "points": n,
        "seed": seed,
        "derivative_source": u.derivative_source,
        "residuals": res,
        "passed": bool(ok),
        "tolerances": tol,
    }
    _write_report(report, out_dir, "residuals_report.json")
    return (0 if ok else 1), report


def cmd_audit(cfg, out_dir, tol, fmt):
    chart = build_chart(cfg)
    u = build_field(cfg)
    acfg = cfg["analysis"]
    quantity = acfg.get("quantity", "phi_k")
    case = acfg.get("case", "min_on_boundary_nonpos_K")
    domain = acfg.get("domain")
    if domain is None:
        raise ConfigError("analysis.domain = [lo, hi] required for audits")
    rep = cf.principle_audit(u, chart, (float(domain[0]), float(domain[1])),
                             quantity, case)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "audit_report.json").write_text(rep.to_json() + "\n")
    report = json.loads(rep.to_json())
    report["tolerances"] = tol
    return (0 if rep.verdict == "pass" else 1), report


def cmd_bic(cfg, out_dir, tol, fmt):
    factor = build_chart(cfg)
    if not isinstance(factor, bic_mod.ConicalFactor):
        raise ConfigError("the bic subcommand needs a conical chart")
    spec = _field_spec(cfg)
    if spec is None:
        raise ConfigError("the bic subcommand needs a dirichlet field")
    acfg = cfg["analysis"]
    grid = ls.inset_grid(spec.t1, spec.t2, int(acfg.get("levels", 200)))
    prof = bic_mod.bic_length_profile(factor, spec, grid)
    conv = ls.log_convexity_check(prof, tol["convexity_conical"])
    eps_seq = acfg.get("eps_sequence", scenarios.EPS_SEQUENCE)
    t_probe = float(acfg.get("mollify_level", 0.5 * (spec.t1 + spec.t2)))
    lengths, limit = scenarios.mollified(factor, spec, t_probe, eps_seq)
    monotone, converged = _mollified_flags(lengths, limit, tol)
    expected_convex = factor.nonpositive_curvature
    ok = monotone and converged and (conv.passed == expected_convex)
    report = {
        "subcommand": "bic",
        "nonpositive_curvature": factor.nonpositive_curvature,
        "convexity_passed": conv.passed,
        "min_discrete_second_difference": conv.min_discrete,
        "mollified_lengths": [float(x) for x in lengths],
        "singular_length": float(limit),
        "mollified_monotone": monotone,
        "mollified_converged": converged,
        "capped_levels": prof.meta["capped_levels"],
        "passed": bool(ok),
        "tolerances": tol,
    }
    _write_profile(prof, out_dir, fmt)
    _write_report(report, out_dir, "bic_report.json")
    return (0 if ok else 1), report


def _mollified_flags(lengths, limit, tol):
    """(lengths decrease, the last one is at the singular limit)."""
    monotone = bool(np.all(np.diff(lengths) <= tol["mollified_monotone"]))
    converged = bool(abs(lengths[-1] - limit) <= max(tol["mollified_monotone"],
                                                     1e-8 * abs(limit)))
    return monotone, converged


def cmd_counterexample(cfg, out_dir, tol, fmt):
    acfg = cfg["analysis"]
    c = float(acfg.get("factor_c", -0.1))
    radii = acfg.get("radii", [0.05, 0.04, 0.03, 0.02, 0.01])
    expected = 16.0 * np.pi**2 * c  # -4 pi^2 K(0) with K(0) = -4c
    found = scenarios.counterexample(c, radii).defects
    defects = {f"{r:g}": d for r, d in zip(radii, found)}
    ok = all(abs(d - expected) <= tol["defect_rel"] * abs(expected) for d in found)
    report = {
        "subcommand": "counterexample",
        "factor_c": c,
        "curvature_at_origin": -4.0 * c,
        "expected_limit": float(expected),
        "defects_by_radius": defects,
        "passed": bool(ok),
        "tolerances": tol,
    }
    _write_report(report, out_dir, "counterexample_report.json")
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# built-in example scenarios: reports on levelflow.scenarios
# ---------------------------------------------------------------------------

def _example_flat(tol, out_dir):
    sc = scenarios.flat()
    conv = ls.log_convexity_check(sc.profile, tol["convexity"])
    slope = cf.logL_slope_bound(sc.u, sc.chart, sc.profile, tol["identity"])
    sc.profile.to_csv(out_dir / "flat_profile.csv")
    return {
        "scenario": "flat",
        "max_abs_lnL_pp": float(np.max(np.abs(sc.profile.lnL_pp))),
        "convexity_passed": conv.passed,
        "slope_bound_passed": slope.passed,
        "identity_max_err": slope.identity_max_err,
        "passed": bool(conv.passed and slope.passed),
    }


def _example_hyperbolic(tol, out_dir):
    sc = scenarios.hyperbolic()
    s, prof, ln_lam = sc.grid, sc.profile, sc.ln_lambda
    lsin = prof.L * np.sin(s)
    curv = prof.lnL_pp * np.sin(s) ** 2
    gap = ls.sharp_bound_gap(sc.u, sc.chart, np.pi / 2, -1.0)
    conv = ls.log_convexity_check(prof, tol["convexity"])
    prof.to_csv(out_dir / "hyperbolic_profile.csv")
    ok = (np.max(np.abs(lsin - ln_lam)) <= 1e-8 * ln_lam
          and np.max(np.abs(curv - 1.0)) <= 1e-6
          and abs(gap) <= tol["gap_floor"] and conv.passed)
    return {
        "scenario": "hyperbolic",
        "max_rel_err_L_sin": float(np.max(np.abs(lsin - ln_lam)) / ln_lam),
        "min_lnL_pp_sin2": float(np.min(curv)),
        "max_lnL_pp_sin2": float(np.max(curv)),
        "sharp_bound_gap": float(gap),
        "convexity_passed": conv.passed,
        "passed": bool(ok),
    }


def _example_sphere_cap(tol, out_dir):
    sc = scenarios.sphere_cap(c=1.0)
    conv = ls.log_convexity_check(sc.profile, tol["convexity"])
    pts = quasi_random_points(sc.chart, 100, 0, min_gradient_field=sc.u)
    res = max(np.max(np.abs(idn.kato_residual(sc.u, sc.chart, pts))),
              np.max(np.abs(idn.bochner_residual(sc.u, sc.chart, pts))),
              np.max(np.abs(idn.log_gradient_residual(sc.u, sc.chart, pts))))
    sc.profile.to_csv(out_dir / "sphere_cap_profile.csv")
    ok = (not conv.passed) and res <= tol["residual_closed_form"]
    return {
        "scenario": "sphere_cap",
        "convexity_violated_as_expected": not conv.passed,
        "min_lnL_pp": conv.min_lnL_pp,
        "max_identity_residual": float(res),
        "passed": bool(ok),
    }


def _example_conical(tol, out_dir):
    sc = scenarios.conical()
    conv = ls.log_convexity_check(sc.profile, tol["convexity_conical"])
    monotone, converged = _mollified_flags(sc.lengths, sc.limit, tol)
    neg_conv = ls.log_convexity_check(sc.negative, tol["convexity_conical"])
    sc.profile.to_csv(out_dir / "conical_profile.csv")
    return {
        "scenario": "conical",
        "convexity_passed": conv.passed,
        "min_discrete_second_difference": conv.min_discrete,
        "mollified_monotone": monotone,
        "negative_atom_violation_detected": not neg_conv.passed,
        "passed": bool(conv.passed and monotone and converged and not neg_conv.passed),
    }


_SCENARIOS = {
    "flat": _example_flat,
    "hyperbolic": _example_hyperbolic,
    "sphere_cap": _example_sphere_cap,
    "conical": _example_conical,
}


def cmd_examples(name, out_dir, tol):
    if name not in _SCENARIOS:
        raise ConfigError(f"unknown example scenario {name!r}; "
                          f"choose from {sorted(_SCENARIOS)}")
    out_dir.mkdir(parents=True, exist_ok=True)
    report = _SCENARIOS[name](tol, out_dir)
    report["tolerances"] = tol
    _write_report(report, out_dir, f"examples_{name}_report.json")
    return (0 if report["passed"] else 1), report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(subcommand: str, config_path: str | None, *, out: str = ".",
        tol_scale: float = 1.0, threads: int | None = None,
        fmt: str = "json", example_name: str | None = None) -> int:
    """Programmatic entry point mirroring the CLI; returns the exit code.

    ``threads`` has no effect (everything runs on one thread); it stays
    because ``perfbench/workloads.py`` passes ``threads=1``.
    """
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if subcommand == "examples":
            if not example_name:
                raise ConfigError("examples needs a scenario name")
            tol = {k: v * tol_scale for k, v in DEFAULT_TOLERANCES.items()}
            code, report = cmd_examples(example_name, out_dir, tol)
        else:
            if config_path is None:
                raise ConfigError(f"{subcommand} needs --config")
            cfg = load_config(config_path)
            tol = _tolerances(cfg, tol_scale)
            handler = {
                "profile": cmd_profile,
                "convexity": cmd_convexity,
                "residuals": cmd_residuals,
                "audit": cmd_audit,
                "bic": cmd_bic,
                "counterexample": cmd_counterexample,
            }.get(subcommand)
            if handler is None:
                raise ConfigError(f"unknown subcommand {subcommand!r}")
            code, report = handler(cfg, out_dir, tol, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LevelFlowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for key, val in report.items():
        if key != "tolerances":
            print(f"{key}: {val}")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levelflow",
        description="Level-curve length, convexity, curvature-PDE and "
                    "conical-singularity checks for harmonic fields on surfaces.")
    parser.add_argument("subcommand",
                        choices=["profile", "convexity", "residuals", "audit",
                                 "bic", "counterexample", "examples"])
    parser.add_argument("name", nargs="?", default=None,
                        help="scenario name for the examples subcommand")
    parser.add_argument("--config", default=None, help="path to a JSON scenario config")
    parser.add_argument("--out", default=".", help="output directory for reports")
    parser.add_argument("--tol-scale", type=float, default=1.0,
                        help="multiply all default tolerances")
    parser.add_argument("--format", dest="fmt", choices=["csv", "json"],
                        default="json", help="preferred report format")
    args = parser.parse_args(argv)
    return run(args.subcommand, args.config, out=args.out, tol_scale=args.tol_scale,
               fmt=args.fmt, example_name=args.name)


if __name__ == "__main__":
    sys.exit(main())
