"""Every public name of the package is run by a command or a demo: some
package module other than ``__init__.py``, or some demo, references it.  A
name that only the tests, the benchmark or a reader of the package use is
listed in ``KEPT`` with its reason, so that the public surface cannot grow
unnoticed."""

import ast
from pathlib import Path

import carefulsync

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "carefulsync"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

KEPT = {
    "parse_word": "the benchmark re-applies the race words with it",
    "count_shortest": "bench/spans.py wraps it",
    "cache_info": "the observability record of the module-level memos",
    "__version__": "the package version",
}


def _references(path):
    """The package names that the file at ``path`` imports, reads, or reads
    as an attribute of a package module, leaving out what a function or
    class reads of its own name (a recursion is no use)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = set()  # local names bound to a package module
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "carefulsync"):
            for alias in node.names:
                if node.module in (None, "carefulsync") and alias.name in MODULES:
                    modules.add(alias.asname or alias.name)
                else:
                    found.add(alias.name)

    def walk(node, owners):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owners = owners | {node.name}
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name = node.id
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            name = node.attr
        if name is not None and name not in owners:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, owners)

    walk(tree, frozenset())
    return found


def _referenced():
    paths = [*sorted(PACKAGE.glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    return set().union(*(_references(path) for path in paths if path.name != "__init__.py"))


def test_every_public_name_is_run_by_a_command_or_a_demo():
    referenced = _referenced()
    assert [name for name in carefulsync.__all__
            if name not in referenced and name not in KEPT] == []


def test_kept_names_are_public_and_still_unreferenced():
    referenced = _referenced()
    assert [name for name in KEPT
            if name not in carefulsync.__all__ or name in referenced] == []
