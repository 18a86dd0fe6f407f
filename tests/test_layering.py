"""The module layering of bmadmm, read from the source.

The dual certificate proves a factor optimal whatever produced it, so the
modules below the solvers never import one, not even inside a function.
"""

import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "bmadmm")
BELOW_THE_SOLVER = ["certify", "manifold", "native", "problems", "sparse", "trace", "errors"]
SOLVERS = {"solver", "curvature", "rgd"}


def imported_modules(path):
    """The bmadmm modules that the source file at ``path`` imports, at any
    level."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("bmadmm."):
                found.add(node.module.split(".")[1])
            elif node.module == "bmadmm":
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("bmadmm.")
            )
    return found


@pytest.mark.parametrize("name", BELOW_THE_SOLVER)
def test_imports_no_solver(name):
    assert not imported_modules(os.path.join(SRC, name + ".py")) & SOLVERS


def test_the_walk_sees_function_level_imports(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "from . import sparse\n"
        "def f():\n"
        "    from .solver import _solve\n"
        "    import bmadmm.rgd\n"
        "    from bmadmm.curvature import escape_step\n"
    )
    assert imported_modules(path) == {"sparse", "solver", "rgd", "curvature"}
