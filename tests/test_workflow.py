"""The CI workflow runs every slow check: pytest does not collect
``tests/slow_drops.py`` in the tier-1 run, so a check that the ``slow-drops``
job left out would never run anywhere.  And it runs the installed console
script, which no test reaches."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def job(name):
    """The lines of one job: from its key to the next key at the same
    indent, or the end."""
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    return re.search(rf"^  {name}:\n(.*?)(?=^  \S|\Z)", workflow, re.M | re.S).group(1)


def test_slow_drops_job_runs_every_slow_check_once():
    # the whole file, so a check added to it cannot be left out, and no
    # step that names a single check, so none runs twice
    tree = ast.parse((ROOT / "tests" / "slow_drops.py").read_text(encoding="utf-8"))
    assert any(isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
               for node in tree.body)
    runs = re.findall(r"^\s+run: (.*)$", job("slow-drops"), re.M)
    assert runs.count(
        "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q tests/slow_drops.py") == 1
    assert "slow_drops.py::" not in job("slow-drops")


def test_tier1_job_runs_the_installed_console_script():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'carefulsync = "carefulsync.cli:main"' in pyproject
    step = re.search(r"^      - name: Install the package and run its console script\n"
                     r"(.*?)(?=^      - |\Z)", job("tier1"), re.M | re.S)
    assert step, "no console-script step in the tier-1 job"
    lines = [line.strip() for line in step.group(1).splitlines()]
    assert "python -m pip install --no-deps ." in lines
    assert "carefulsync tables pn2 > /dev/null || exit 1" in lines
    assert "carefulsync race count -h || exit 1" in lines
