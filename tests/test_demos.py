"""Every demo prints exactly its golden transcript under ``tests/golden``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_every_demo_has_a_transcript():
    assert len(DEMOS) == 4
    assert {p.stem for p in DEMOS} == {p.stem for p in (ROOT / "tests" / "golden").glob("*.txt")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )
    assert result.returncode == 0, result.stderr
    golden = ROOT / "tests" / "golden" / f"{demo.stem}.txt"
    assert result.stdout == golden.read_text(encoding="utf-8")
