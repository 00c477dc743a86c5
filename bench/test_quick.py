"""Smoke test of the benchmark harness: the quick profile runs every
workload end to end and reports well-formed results.  Timings are never
checked here, only the shape of the output.

    python -m pytest bench/test_quick.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def test_quick_profile_reports_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "3"],
        capture_output=True, text=True, timeout=170, cwd=os.path.dirname(HERE),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    expected = {
        f"{name}/{key}": unit
        for name in workloads.NAMES
        for key, unit in {**run.END_TO_END, **run.PER_LAYER}.items()
    }
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    for name in workloads.NAMES:
        base = os.path.join(run.RESULTS, f"{name}-quick-seed3-trace")
        with open(base + "0.json", encoding="utf-8") as handle:
            summary = json.load(handle)
        assert {"git_sha", "python", "numpy", "nproc"} <= set(summary)
        with open(base + "1-spans.jsonl", encoding="utf-8") as handle:
            spans = [json.loads(line) for line in handle]
        assert spans and {"op", "id", "parent", "name", "start", "end"} == set(spans[0])
        assert {s["name"] for s in spans} >= {"op"}


def test_one_workload_prints_the_contract_line():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--workload", "bfs-wide",
         "--trace", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=170, cwd=os.path.dirname(HERE),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["metrics"]) == set(run.END_TO_END)


def test_checkers_reject_a_wrong_output():
    op = workloads.solve_cerny(8, 2)
    wrong = {"rc": 0, "out": "threshold\t52\nword\t" + "b" * 52 + "\nexplored\t9\nlevels\t52\n"}
    problems = run.checks.check(op, wrong, {})
    assert any("word leaves" in p or "undefined" in p for p in problems)
    assert run.checks.check(op, {"rc": 3, "err": "cap"}, {})
