"""The benchmark under ``perfbench/`` imports names from ``ctsched``; its
oracle set-up builds models from transition tables, serializes and parses
them and builds their products; and its traced layer extras call the
product env's pair API, ``embed``, ``mec_decompose`` and
``sample_transition``.  A library change that removes or breaks one of them
fails here, not first in a benchmark run."""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

CODE = """\
import sys
sys.path[:0] = sys.argv[1:3]
import spans
import workloads
t = spans.Tracer(True)
workloads.setup_oracle(0, t)
workloads.extras(workloads.setup_learn(0, t), t, calls=200)
print(" ".join(s["name"] for s in t.spans))
"""


def test_benchmark_workloads_import():
    proc = subprocess.run(
        [sys.executable, "-c", CODE, str(ROOT / "perfbench"),
         str(ROOT / "src")], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    for name in ("product.build_product", "formats.serialize_model",
                 "model.mec_decompose", "simulate.env_sample",
                 "simulate.sample_transition", "simulate.rng_uniform"):
        assert name in names
