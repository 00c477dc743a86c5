"""Smoke runs of the benchmark's workloads on their quick inputs.

The benchmark checks every output independently of the package: a
per-state simulator re-applies the race words, word counts are compared with
race counts, ``explored >= levels`` is checked, and the scans are compared
with its own split recursion and the published drop rows.  So these runs
guard the subset kernel, the single-pass search and the int64 scans end to
end.  Timings are never checked, only correctness and the names of the
end-to-end metrics.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["family-scan", "bfs-wide", "long-words"])
def test_quick_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--quick",
         "--workload", workload, "--trace", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}


def test_traced_quick_run_times_the_cli_handlers():
    # the tracer wraps the entries of cli._HANDLERS; a dispatch that went
    # around them would leave the cli.* layers at zero
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--quick",
         "--workload", "family-scan", "--trace", "1", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["metrics"]["cli.tables.s"]["value"] > 0
    assert result["metrics"]["cli.scan.s"]["value"] > 0
