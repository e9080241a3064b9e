"""The package's scipy imports, read from its source."""

import ast
from pathlib import Path

import levelflow

# module -> every scipy name it imports; a new scipy import fails here
SCIPY_IMPORTS = {
    "harmonic": {"scipy.sparse", "scipy.sparse.linalg.spsolve",
                 "scipy.interpolate.RectBivariateSpline"},
    "levelsets": {"scipy.interpolate.CubicSpline"},
    "sampling": {"scipy.stats.qmc"},
}


def _scipy_imports(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names |= {a.name for a in node.names if a.name.split(".")[0] == "scipy"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy":
            names |= {f"{node.module}.{a.name}" for a in node.names}
    return names


def test_scipy_imports_match_the_allow_list():
    # read from the source: importing scipy.stats alone loads scipy.optimize,
    # so sys.modules cannot tell which scipy names the package uses
    found = {p.stem: _scipy_imports(p)
             for p in sorted(Path(levelflow.__file__).parent.glob("*.py"))}
    assert {name: used for name, used in found.items() if used} == SCIPY_IMPORTS
