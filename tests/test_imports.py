"""The package imports only public scipy names.

scipy's private modules and functions (a ``_``-prefixed part of the dotted
path) may change in any release.  The tests and their oracles may import
them; the package may not.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "isozonoid"


def _private_scipy_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            paths = [node.module] + [f"{node.module}.{alias.name}"
                                     for alias in node.names]
        else:
            continue
        for path in paths:
            parts = path.split(".")
            if parts[0] == "scipy" and any(p.startswith("_") for p in parts):
                yield node.lineno, path


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")),
                         ids=lambda path: path.name)
def test_package_imports_no_private_scipy_name(source):
    tree = ast.parse(source.read_text(), filename=str(source))
    assert list(_private_scipy_imports(tree)) == []


def test_private_scipy_imports_are_found():
    tree = ast.parse("import scipy._lib\n"
                     "from scipy.optimize._optimize import _LineSearchError\n"
                     "from scipy.optimize import _linesearch, linprog\n"
                     "from scipy.optimize import minimize\n"
                     "import scipy.optimize\n")
    assert list(_private_scipy_imports(tree)) == [
        (1, "scipy._lib"), (2, "scipy.optimize._optimize"),
        (2, "scipy.optimize._optimize._LineSearchError"),
        (3, "scipy.optimize._linesearch")]
