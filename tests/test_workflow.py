"""The CI workflow names every slow check: pytest does not collect
``tests/slow_drops.py`` in the tier-1 run, so a check that the ``slow-drops``
job leaves out would never run anywhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_slow_drops_job_runs_every_slow_check_once():
    tree = ast.parse((ROOT / "tests" / "slow_drops.py").read_text(encoding="utf-8"))
    checks = [node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")]
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    # the job runs from its key to the next key at the same indent, or the end
    job = re.search(r"^  slow-drops:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)
    named = re.findall(r"tests/slow_drops\.py::(\w+)", job)
    assert checks and sorted(named) == sorted(checks)
