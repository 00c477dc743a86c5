"""Smoke run of the benchmark's family-scan workload on its quick inputs.

The benchmark checks every output with its own split recursion and the
published drop rows, independently of the package, so this guards the int64
scans end to end.  Timings are never checked, only correctness and the
names of the end-to-end metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_family_scan_quick_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--quick",
         "--workload", "family-scan", "--trace", "0", "--seconds", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
