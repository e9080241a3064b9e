"""The package's scipy imports: read from its source, and absent at cold start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import levelflow

PACKAGE = Path(levelflow.__file__).parent

# module -> every scipy name it imports; a new scipy import fails here
SCIPY_IMPORTS = {
    "harmonic": {"scipy.sparse", "scipy.sparse.linalg.spsolve"},
}


def _scipy_imports(path):
    """{scipy name imported by the module: whether inside a function body}."""
    tree = ast.parse(path.read_text())
    in_function = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            used = [a.name for a in node.names if a.name.split(".")[0] == "scipy"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            used = [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        names.update(dict.fromkeys(used, id(node) in in_function))
    return names


def test_scipy_imports_match_the_allow_list():
    # read from the source: a run loads only the scipy modules of the
    # functions it calls, so sys.modules cannot list the names the package uses
    found = {p.stem: _scipy_imports(p) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: set(used) for name, used in found.items() if used} == SCIPY_IMPORTS


def test_scipy_is_imported_only_inside_functions():
    for path in sorted(PACKAGE.glob("*.py")):
        assert all(_scipy_imports(path).values()), f"module-level scipy import in {path.name}"


COLD_START = """
import json, sys
from pathlib import Path

import levelflow, levelflow.cli
from levelflow.charts import ConformalChart, flat_factor
from levelflow.sampling import quasi_random_points

out = Path(sys.argv[1])
quasi_random_points(ConformalChart(flat_factor(), 1.0, 4.0), 48, 7)
codes = [levelflow.cli.run("residuals", sys.argv[2], out=str(out / "residuals"))]
codes += [levelflow.cli.run("examples", None, out=str(out / name), example_name=name)
          for name in ("flat", "conical")]
print(json.dumps({"codes": codes,
                  "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_cold_start_loads_no_scipy(tmp_path):
    config = tmp_path / "flat.json"
    config.write_text(json.dumps({
        "seed": 7,
        "chart": {"kind": "conformal", "factor": {"name": "flat"},
                  "inner_radius": 1.0, "outer_radius": 4.0},
        "field": {"dirichlet": {"R": 4.0, "t1": 0.0, "t2": -1.0}},
        "analysis": {"points": 48}}))
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path), str(config)],
                          capture_output=True, text=True, env=env, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}
