"""The benchmark's traced run completes, checks out and sees the whole graph."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_tiny_training_run():
    """An engine change that empties the graph before bench/layer_trace.py
    counts it, or breaks its per-layer backward, fails here."""
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-tiny-b32", "--seed", "1",
                           "--seconds", "1", "--trace", "1"], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["tensor.nodes"]["value"] == 105
    assert result["metrics"]["birnn.nodes"]["value"] == 20
