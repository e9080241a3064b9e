"""Command-line runner: scenario configs in, CSV/JSON reports out.

Subcommands: the config-driven handlers of ``_SUBCOMMANDS`` and ``examples
NAME`` (the ``_EXAMPLES`` reports on :mod:`levelflow.scenarios`).
A handler returns ``(passed, report, profile or None)`` and writes nothing;
:func:`run` alone writes the profile and the report, whose last key is the
tolerance set used (so failures reproduce), and sets the exit code: 0 when
every check passes, 1 when a mathematical check fails (a report is still
written), 2 on input or configuration errors.

Configs are strict UTF-8 JSON: unknown keys and tolerance names are rejected
with a line-numbered diagnostic where the key can be located; a missing or
mistyped number raises ``ConfigError`` naming its key.
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

_TOP_KEYS = {"seed", "chart", "field", "analysis"}
_CHART_KEYS = {"kind", "factor", "inner_radius", "outer_radius", "profile",
               "scale", "t_min", "t_max", "beta0", "atoms"}
_FIELD_KEYS = {"dirichlet", "catalog", "params"}
_ANALYSIS_KEYS = {"levels", "n_samples", "t_range", "points", "quantity",
                  "case", "domain", "kappa", "eps_sequence", "mollify_level", "radii",
                  "factor_c", "tolerances"}
_FACTOR_KEYS = {"name", "a", "b", "c"}
_REQUIRED = object()


def _find_line(text: str, key: str) -> int | None:
    needle = f'"{key}"'
    for i, line in enumerate(text.splitlines(), start=1):
        if needle in line:
            return i
    return None


def _object(section, where: str, text: str, allowed=None) -> dict:
    """``section``; ConfigError unless it is a JSON object whose keys are all
    in ``allowed`` (any keys when None)."""
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object, got {section!r}")
    for key in section:
        if allowed is not None and key not in allowed:
            line = _find_line(text, key)
            loc = f"line {line}: " if line else ""
            raise ConfigError(f"{loc}unknown key {key!r} in {where}")
    return section


def _number(section: dict, key: str, where: str, default=_REQUIRED, kind=float,
            length=None):
    """``section[key]`` as a ``kind`` or, given ``length``, as a list of that
    many floats (one or more when it is 0); ``default`` when the key is absent.

    A missing, mistyped or misshapen value, or a non-integral one for an int
    ``kind``, raises ConfigError naming the key.
    """
    if key not in section:
        if default is _REQUIRED:
            raise ConfigError(f"missing {where}.{key}")
        return default
    value = section[key]
    items = value if isinstance(value, list) else [value]
    if (isinstance(value, list) != (length is not None) or not items
            or length not in (None, 0, len(items))
            or any(type(v) not in (int, float) for v in items)):
        want = "a number" if length is None else f"a list of {length or 'one or more'} numbers"
        raise ConfigError(f"{where}.{key} must be {want}, got {value!r}")
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where}.{key} must be an integer, got {value!r}")
    return kind(value) if length is None else [float(v) for v in value]


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"line {exc.lineno}: {exc.msg}") from exc
    _object(cfg, "config", text, _TOP_KEYS)
    chart = _object(cfg.get("chart", {}), "chart", text, _CHART_KEYS)
    field = _object(cfg.get("field", {}), "field", text, _FIELD_KEYS)
    analysis = _object(cfg.get("analysis", {}), "analysis", text, _ANALYSIS_KEYS)
    _object(analysis.get("tolerances", {}), "analysis.tolerances", text,
            DEFAULT_TOLERANCES.keys())
    factor = _object(chart.get("factor", {}), "chart.factor", text, _FACTOR_KEYS)
    _object(field.get("dirichlet", {}), "field.dirichlet", text)
    _object(field.get("params", {}), "field.params", text)
    atoms = chart.get("atoms", [])
    if not isinstance(atoms, list):
        raise ConfigError(f"chart.atoms must be a list, got {atoms!r}")
    for i, atom in enumerate(atoms):
        _object(atom, f"chart.atoms[{i}]", text)
    for where, section, key in (("chart.factor", factor, "name"),
                                ("field", field, "catalog"),
                                ("analysis", analysis, "quantity"),
                                ("analysis", analysis, "case")):
        if not isinstance(section.get(key, ""), str):
            raise ConfigError(f"{where}.{key} must be a string, got {section[key]!r}")
    cfg.setdefault("seed", 0)
    cfg.setdefault("analysis", {})
    return cfg


def _build_factor(fcfg: dict):
    name = fcfg.get("name")
    if name == "flat":
        return flat_factor()
    if name == "sphere_cap":
        return sphere_cap_factor(_number(fcfg, "c", "chart.factor", 0.1))
    if name == "half_plane":
        return half_plane_factor()
    if name == "radial_log":
        return radial_log_field(*(_number(fcfg, k, "chart.factor", d)
                                  for k, d in (("a", 0.0), ("b", 1.0), ("c", 0.0))))
    raise ConfigError(f"unknown factor name {name!r}")


def build_chart(cfg: dict):
    ccfg = cfg.get("chart")
    if not isinstance(ccfg, dict):
        raise ConfigError("missing 'chart' section")
    kind = ccfg.get("kind")
    if kind == "conformal":
        factor = _build_factor(ccfg.get("factor", {"name": "flat"}))
        return ConformalChart(factor, _number(ccfg, "inner_radius", "chart", 1.0),
                              _number(ccfg, "outer_radius", "chart", None))
    if kind == "warped":
        if ccfg.get("profile", "cosh") != "cosh":
            raise ConfigError("only the cosh warp profile is built in")
        return WarpedChart.cosh_cylinder(*(_number(ccfg, k, "chart")
                                           for k in ("scale", "t_min", "t_max")))
    if kind == "conical":
        atoms = [(tuple(_number(a, "z", f"chart.atoms[{i}]", length=2)),
                  _number(a, "alpha", f"chart.atoms[{i}]"))
                 for i, a in enumerate(ccfg.get("atoms", []))]
        return bic_mod.conical_factor(_number(ccfg, "beta0", "chart", 0.0), atoms)
    raise ConfigError(f"unknown chart kind {kind!r}")


def _smooth_chart(cfg: dict):
    """The config's chart; a conical one, which has no smooth metric, is refused."""
    chart = build_chart(cfg)
    if isinstance(chart, bic_mod.ConicalFactor):
        raise ConfigError("a conical chart takes only the convexity and bic subcommands")
    return chart


def build_field(cfg: dict):
    fcfg = cfg.get("field")
    if not isinstance(fcfg, dict):
        raise ConfigError("missing 'field' section")
    spec = _field_spec(cfg)
    if spec is not None:
        return solve_annulus_dirichlet(spec)
    if "catalog" in fcfg:
        params = fcfg.get("params", {})
        return catalog_field(fcfg["catalog"],
                             **{k: _number(params, k, "field.params") for k in params})
    raise ConfigError("field must specify 'dirichlet' or 'catalog'")


def _tolerances(cfg: dict, tol_scale: float) -> dict:
    given = cfg.get("analysis", {}).get("tolerances", {})
    tol = {**DEFAULT_TOLERANCES,
           **{k: _number(given, k, "analysis.tolerances") for k in given}}
    return {k: v * tol_scale for k, v in tol.items()}


def _field_spec(cfg) -> DirichletSpec | None:
    fcfg = cfg.get("field", {})
    if "dirichlet" in fcfg:
        return DirichletSpec(*(_number(fcfg["dirichlet"], k, "field.dirichlet")
                               for k in ("R", "t1", "t2")))
    return None


def _write_report(report: dict, out_dir: Path, name: str) -> None:
    with open(out_dir / name, "w", newline="\n") as fh:
        json.dump(report, fh, indent=2, allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands: each returns (passed, report, profile or None)
# ---------------------------------------------------------------------------

def _length_profile(cfg, chart):
    """(length profile of the config's field on its level grid, n_samples)."""
    u = build_field(cfg)
    acfg = cfg["analysis"]
    t_range = _number(acfg, "t_range", "analysis", None, length=2)
    if t_range is None:
        t_range = ls.boundary_values(u, chart)
        if t_range is None:
            raise ConfigError("analysis.t_range required for this field/chart")
    grid = ls.inset_grid(float(t_range[0]), float(t_range[1]),
                         _number(acfg, "levels", "analysis", 50, int))
    n_samples = _number(acfg, "n_samples", "analysis", 512, int)
    return ls.length_profile(u, chart, grid, n_samples=n_samples), n_samples


def _conical_profile(cfg, factor, tol):
    """(Dirichlet spec, inset-grid profile, its convexity check) on a conical chart."""
    spec = _field_spec(cfg)
    if spec is None:
        raise ConfigError("conical charts need a dirichlet field")
    grid = ls.inset_grid(spec.t1, spec.t2,
                         _number(cfg["analysis"], "levels", "analysis", 200, int))
    prof = bic_mod.bic_length_profile(factor, spec, grid)
    return spec, prof, ls.log_convexity_check(prof, tol["convexity_conical"])


def cmd_profile(cfg, tol):
    prof, n_samples = _length_profile(cfg, _smooth_chart(cfg))
    err, err2 = np.abs(prof.Lp - prof.L_fd_p), np.abs(prof.Lpp - prof.L_fd_pp)
    rel = np.max(err / np.maximum(np.abs(prof.Lp), 1e-30))
    rel2 = np.max(err2 / np.maximum(np.abs(prof.Lpp), 1e-30))
    # gated on the column's largest value: per level, a correct L' near 0 fails
    scaled = np.max(err) / max(np.max(np.abs(prof.Lp)), 1e-30)
    scaled2 = np.max(err2) / max(np.max(np.abs(prof.Lpp)), 1e-30)
    ok = bool(scaled <= tol["cross_check_rel"] and scaled2 <= tol["cross_check_rel"])
    return ok, {
        "subcommand": "profile",
        "levels": int(prof.t_grid.size),
        "n_samples": n_samples,
        "cross_check_rel_Lp": float(rel),
        "cross_check_rel_Lpp": float(rel2),
        "cross_check_scaled_Lp": float(scaled),
        "cross_check_scaled_Lpp": float(scaled2),
        "passed": ok,
        "profile_csv": "profile.csv",
    }, prof


def cmd_convexity(cfg, tol):
    chart = build_chart(cfg)
    if isinstance(chart, bic_mod.ConicalFactor):
        _, prof, rep = _conical_profile(cfg, chart, tol)
        return rep.passed, {
            "subcommand": "convexity",
            "chart": "conical",
            "nonpositive_curvature": chart.nonpositive_curvature,
            "min_discrete_second_difference": rep.min_discrete,
            "capped_levels": prof.meta["capped_levels"],
            "passed": rep.passed,
        }, prof
    prof, _ = _length_profile(cfg, chart)
    rep = ls.log_convexity_check(prof, tol["convexity"])
    return rep.passed, {
        "subcommand": "convexity",
        "min_lnL_pp": rep.min_lnL_pp,
        "argmin_t": rep.argmin_t,
        "min_discrete_second_difference": rep.min_discrete,
        "passed": rep.passed,
    }, prof


def cmd_residuals(cfg, tol):
    chart = _smooth_chart(cfg)
    u = build_field(cfg)
    n = _number(cfg["analysis"], "points", "analysis", 100, int)
    seed = _number(cfg, "seed", "config", 0, int)
    if n < 1:
        raise ConfigError(f"analysis.points must be at least 1, got {n}")
    if seed < 0:
        raise ConfigError(f"config.seed must be non-negative, got {seed}")
    pts = quasi_random_points(chart, n, seed, min_gradient_field=u)
    closed = u.derivative_source == "closed_form"
    rtol = tol["residual_closed_form"] if closed else tol["residual_fd"]
    res = {name: float(np.max(np.abs(r))) for name, r in
           zip(("kato", "bochner", "log_gradient"), idn.identity_residuals(u, chart, pts))}
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
    ok = bool(res["kato"] <= rtol and res["bochner"] <= rtol
              and res["log_gradient"] <= rtol
              and res["pde1_max"] <= tol["pde_fd"]
              and res["pde1_star_max"] <= tol["pde_fd"]
              and (res["pde2_gap_min"] is None or res["pde2_gap_min"] >= -tol["gap_floor"])
              and (res["pde2_gap_vs_theoretical"] is None
                   or res["pde2_gap_vs_theoretical"] <= tol["pde_fd"] * 10))
    return ok, {
        "subcommand": "residuals",
        "points": n,
        "seed": seed,
        "derivative_source": u.derivative_source,
        "residuals": res,
        "passed": ok,
    }, None


def cmd_audit(cfg, tol):
    chart = _smooth_chart(cfg)
    u = build_field(cfg)
    acfg = cfg["analysis"]
    rep = cf.principle_audit(u, chart, tuple(_number(acfg, "domain", "analysis", length=2)),
                             acfg.get("quantity", "phi_k"),
                             acfg.get("case", "min_on_boundary_nonpos_K"))
    return rep.verdict == "pass", json.loads(rep.to_json()), None


def cmd_bic(cfg, tol):
    factor = build_chart(cfg)
    if not isinstance(factor, bic_mod.ConicalFactor):
        raise ConfigError("the bic subcommand needs a conical chart")
    spec, prof, conv = _conical_profile(cfg, factor, tol)
    acfg = cfg["analysis"]
    eps_seq = _number(acfg, "eps_sequence", "analysis", scenarios.EPS_SEQUENCE, length=0)
    t_probe = _number(acfg, "mollify_level", "analysis", 0.5 * (spec.t1 + spec.t2))
    lengths, limit, capped, limit_capped = scenarios.mollified(factor, spec, t_probe, eps_seq)
    monotone, converged = _mollified_flags(lengths, limit, tol)
    ok = bool(monotone and converged and (conv.passed == factor.nonpositive_curvature))
    return ok, {
        "subcommand": "bic",
        "nonpositive_curvature": factor.nonpositive_curvature,
        "convexity_passed": conv.passed,
        "min_discrete_second_difference": conv.min_discrete,
        "mollified_lengths": [float(x) for x in lengths],
        "singular_length": float(limit),
        "mollified_monotone": monotone,
        "mollified_converged": converged,
        "capped_levels": prof.meta["capped_levels"],
        "capped_mollified_eps": [float(e) for e, c in zip(eps_seq, capped) if c],
        "singular_length_capped": limit_capped,
        "passed": ok,
    }, prof


def _mollified_flags(lengths, limit, tol):
    """(lengths decrease, the last one is at the singular limit)."""
    monotone = bool(np.all(np.diff(lengths) <= tol["mollified_monotone"]))
    converged = bool(abs(lengths[-1] - limit) <= max(tol["mollified_monotone"],
                                                     1e-8 * abs(limit)))
    return monotone, converged


def cmd_counterexample(cfg, tol):
    acfg = cfg["analysis"]
    c = _number(acfg, "factor_c", "analysis", -0.1)
    radii = _number(acfg, "radii", "analysis", [0.05, 0.04, 0.03, 0.02, 0.01], length=0)
    if min(radii) <= 0:
        raise ConfigError(f"analysis.radii must be positive, got {radii}")
    expected = 16.0 * np.pi**2 * c  # -4 pi^2 K(0) with K(0) = -4c
    found = scenarios.counterexample(c, radii).defects
    ok = all(abs(d - expected) <= tol["defect_rel"] * abs(expected) for d in found)
    return ok, {
        "subcommand": "counterexample",
        "factor_c": c,
        "curvature_at_origin": -4.0 * c,
        "expected_limit": float(expected),
        "defects_by_radius": {f"{r:g}": d for r, d in zip(radii, found)},
        "passed": ok,
    }, None


_SUBCOMMANDS = {
    "profile": cmd_profile,
    "convexity": cmd_convexity,
    "residuals": cmd_residuals,
    "audit": cmd_audit,
    "bic": cmd_bic,
    "counterexample": cmd_counterexample,
}


# ---------------------------------------------------------------------------
# built-in example scenarios: reports on levelflow.scenarios
# ---------------------------------------------------------------------------

def _example_flat(tol):
    sc = scenarios.flat()
    conv = ls.log_convexity_check(sc.profile, tol["convexity"])
    slope = cf.logL_slope_bound(sc.u, sc.chart, sc.profile, tol["identity"])
    ok = bool(conv.passed and slope.passed)
    return ok, {
        "scenario": "flat",
        "max_abs_lnL_pp": float(np.max(np.abs(sc.profile.lnL_pp))),
        "convexity_passed": conv.passed,
        "slope_bound_passed": slope.passed,
        "identity_max_err": slope.identity_max_err,
        "passed": ok,
    }, sc.profile


def _example_hyperbolic(tol):
    sc = scenarios.hyperbolic()
    s, prof, ln_lam = sc.grid, sc.profile, sc.ln_lambda
    lsin = prof.L * np.sin(s)
    curv = prof.lnL_pp * np.sin(s) ** 2
    gap = ls.sharp_bound_gap(sc.u, sc.chart, np.pi / 2, -1.0)
    conv = ls.log_convexity_check(prof, tol["convexity"])
    ok = bool(np.max(np.abs(lsin - ln_lam)) <= 1e-8 * ln_lam
              and np.max(np.abs(curv - 1.0)) <= 1e-6
              and abs(gap) <= tol["gap_floor"] and conv.passed)
    return ok, {
        "scenario": "hyperbolic",
        "max_rel_err_L_sin": float(np.max(np.abs(lsin - ln_lam)) / ln_lam),
        "min_lnL_pp_sin2": float(np.min(curv)),
        "max_lnL_pp_sin2": float(np.max(curv)),
        "sharp_bound_gap": float(gap),
        "convexity_passed": conv.passed,
        "passed": ok,
    }, prof


def _example_sphere_cap(tol):
    sc = scenarios.sphere_cap(c=1.0)
    conv = ls.log_convexity_check(sc.profile, tol["convexity"])
    pts = quasi_random_points(sc.chart, 100, 0, min_gradient_field=sc.u)
    res = max(np.max(np.abs(r)) for r in idn.identity_residuals(sc.u, sc.chart, pts))
    ok = bool((not conv.passed) and res <= tol["residual_closed_form"])
    return ok, {
        "scenario": "sphere_cap",
        "convexity_violated_as_expected": not conv.passed,
        "min_lnL_pp": conv.min_lnL_pp,
        "max_identity_residual": float(res),
        "passed": ok,
    }, sc.profile


def _example_conical(tol):
    sc = scenarios.conical()
    conv = ls.log_convexity_check(sc.profile, tol["convexity_conical"])
    monotone, converged = _mollified_flags(sc.lengths, sc.limit, tol)
    neg_conv = ls.log_convexity_check(sc.negative, tol["convexity_conical"])
    ok = bool(conv.passed and monotone and converged and not neg_conv.passed)
    return ok, {
        "scenario": "conical",
        "convexity_passed": conv.passed,
        "min_discrete_second_difference": conv.min_discrete,
        "mollified_monotone": monotone,
        "negative_atom_violation_detected": not neg_conv.passed,
        "passed": ok,
    }, sc.profile


_EXAMPLES = {
    "flat": _example_flat,
    "hyperbolic": _example_hyperbolic,
    "sphere_cap": _example_sphere_cap,
    "conical": _example_conical,
}


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
            if example_name not in _EXAMPLES:
                raise ConfigError(f"unknown example scenario {example_name!r}; "
                                  f"choose from {sorted(_EXAMPLES)}")
            tol = _tolerances({}, tol_scale)
            passed, report, prof = _EXAMPLES[example_name](tol)
            stem, csv_name = f"examples_{example_name}", f"{example_name}_profile.csv"
        else:
            if subcommand not in _SUBCOMMANDS:
                raise ConfigError(f"unknown subcommand {subcommand!r}")
            if config_path is None:
                raise ConfigError(f"{subcommand} needs --config")
            cfg = load_config(config_path)
            tol = _tolerances(cfg, tol_scale)
            passed, report, prof = _SUBCOMMANDS[subcommand](cfg, tol)
            stem, csv_name = subcommand, "profile.csv"
    except LevelFlowError as exc:
        kind = "config error" if isinstance(exc, ConfigError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 2
    if prof is not None:
        prof.to_csv(out_dir / csv_name)
        if fmt == "json" and subcommand != "examples":
            # JSON has no NaN: a missing value (an edge row, a capped level) is null
            _write_report({c: [float(v) if np.isfinite(v) else None
                               for v in getattr(prof, "t_grid" if c == "t" else c)]
                           for c in ls.CSV_COLUMNS}, out_dir, "profile.json")
    _write_report({**report, "tolerances": tol}, out_dir, f"{stem}_report.json")
    for key, val in report.items():
        print(f"{key}: {val}")
    return 0 if passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levelflow",
        description="Level-curve length, convexity, curvature-PDE and "
                    "conical-singularity checks for harmonic fields on surfaces.")
    parser.add_argument("subcommand", choices=[*_SUBCOMMANDS, "examples"])
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
