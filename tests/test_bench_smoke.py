"""The benchmark's traced and untraced runs complete, check out and, traced,
see the whole graph."""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_tiny_training(trace: str) -> dict:
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-tiny-b32", "--seed", "1",
                           "--seconds", "1", "--trace", trace], cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    return result


def test_untraced_tiny_training_run():
    """The timed rounds train with an output directory, so they write
    checkpoints; a write that breaks fails here."""
    metrics = run_tiny_training("0")["metrics"]
    for name in ("setup_s", "samples_per_s", "peak_rss_mb", "loss"):
        assert math.isfinite(metrics[name]["value"]), name


def test_traced_tiny_training_run():
    """An engine change that empties the graph before bench/layer_trace.py
    counts it, or breaks its per-layer backward, fails here."""
    result = run_tiny_training("1")
    assert result["metrics"]["tensor.nodes"]["value"] == 102
    assert result["metrics"]["birnn.nodes"]["value"] == 20
