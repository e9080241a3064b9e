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
  fixed inputs (fast path, quadrature path and raising inputs), or the
  class and message of what they raise.

The package is imported from the Python path, so two source trees compare
byte for byte with

    PYTHONPATH=/path/to/other/src python tools/snapshot.py /tmp/snap_a
    PYTHONPATH=src python tools/snapshot.py /tmp/snap_b
    diff -r /tmp/snap_a /tmp/snap_b
"""

from __future__ import annotations

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
    """(label, call) pairs covering the five level functions."""
    import levelflow as lf

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
    integral_cases = [
        ("canonical, flat, -1.5", canonical, flat, -1.5, 512),
        ("arctan, hyp, 0.7", arctan, hyp, 0.7, 512),
        ("arctan, hyp, 2.2, 4", arctan, hyp, 2.2, 4),
        ("log, cap, -ln 1.5", log, cap, -np.log(1.5), 512),
        ("log, cap, -5", log, cap, -5.0, 512),
        ("log, disc, 2", log, disc, 2.0, 512),
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
    return calls


def _levels_text() -> str:
    lines = []
    for label, call in _level_calls():
        try:
            got = repr(call())
        except Exception as exc:  # the class and message are the output
            got = f"raises {type(exc).__name__}: {exc}"
        lines.append(f"{label} -> {got}\n")
    return "".join(lines)


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
    (out / "levels.txt").write_text(_levels_text())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
