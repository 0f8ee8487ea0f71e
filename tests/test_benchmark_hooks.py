"""The benchmark's traced run wraps pfkit names from outside; every name it
looks up must stay bound, and every per-layer metric must come out.  The
runs also hold each workload's correctness gate: every op must pass."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["suite-full", "language", "scan"])
def test_traced_run_reports_every_layer(tmp_path, workload):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # trace.overhead_s needs an untraced twin run, which run.py makes
    expected = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", workload,
           "--seed", "1", "--t0", repr(time.monotonic()), "--trace", str(tmp_path / "trace.json")]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["failed_ops"]
    assert expected <= set(result["layers"])
