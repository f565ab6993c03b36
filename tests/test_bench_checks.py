"""The benchmark's own checks, run as a test: one short traced run of every
workload checks each op's answer against perfbench/expected.json, the
catalog batteries against tests/golden byte for byte, and that every
tracer layer is reached on the workloads that must reach it."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_checks_pass():
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--trace", "1",
         "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    failed = [line for line in run.stderr.splitlines() if line.startswith("check failed:")]
    assert run.returncode == 0, "\n".join(failed) or run.stderr
    assert failed == []
