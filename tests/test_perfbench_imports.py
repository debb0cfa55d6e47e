"""The benchmark under ``perfbench/`` imports names from ``ctsched``; a
library change that removes one of them fails here, not first in a
benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_workloads_import():
    code = "import sys; sys.path[:0] = sys.argv[1:3]; import workloads"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
