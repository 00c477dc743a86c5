"""No module of the package reads a private name of another one: what a
module keeps behind a leading underscore (say, the int64 column layout in
``cerny``) stays a decision of that module alone."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "carefulsync"


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _foreign_private_reads(path):
    """``(line, "module.name")`` for each private name of another package
    module that the module at ``path`` imports or reads as an attribute."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # local name -> the package module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and not _private(alias.name):
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append((node.lineno, f"{node.module or ''}.{alias.name}"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append((node.lineno, f"{modules[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    offenders = {
        path.name: reads
        for path in sorted(PACKAGE.glob("*.py"))
        if (reads := _foreign_private_reads(path))
    }
    assert offenders == {}
