"""numpy stays in the two layers that vectorize: the subset search
(``solver``) and the family scans (``cerny``).  Every other package module,
the race layer among them, runs on the standard library alone, so that a
command which needs neither layer could run without numpy."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "carefulsync"
NUMPY_MODULES = {"solver.py", "cerny.py"}


def _imports_numpy(path):
    """The lines at which the module at ``path`` imports numpy or a numpy
    submodule, at the top or inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "numpy" for name in names):
            lines.append(node.lineno)
    return lines


def test_only_the_search_and_the_scans_import_numpy():
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name not in NUMPY_MODULES and (lines := _imports_numpy(path))
    }
    assert offenders == {}
    assert (PACKAGE / "pawnrace.py").exists()
    # the two exceptions still need it
    assert all(_imports_numpy(PACKAGE / name) for name in NUMPY_MODULES)


def test_the_check_sees_each_form_of_import(tmp_path):
    forms = ["import numpy as np", "import numpy.linalg", "from numpy import int64",
             "def f():\n    from numpy.random import default_rng"]
    for i, source in enumerate(forms):
        path = tmp_path / f"m{i}.py"
        path.write_text(source + "\n", encoding="utf-8")
        assert _imports_numpy(path), source
    path = tmp_path / "clean.py"
    path.write_text("import numbers\nfrom .numpy_free import x\n", encoding="utf-8")
    assert _imports_numpy(path) == []

