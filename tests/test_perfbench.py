"""The timed benchmark runs end to end on short runs.

perfbench/run.py with --trace 1 patches functions of the solver module by
name (perfbench/spans.py), so a cleanup that drops one of those names fails
here rather than only when the benchmark is next run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload, trace", [
    ("solve-d64-uniform", 1),
    ("solve-d128-fixed", 1),
    ("exponent-sweep", 1),
    ("exponent-sweep", 0),
])
def test_benchmark_smoke(workload, trace):
    r = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, r.stderr
    assert result["failed"] == 0, r.stderr
    assert result["metrics"]
