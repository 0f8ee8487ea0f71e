"""pfkit benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload suite-full --seed 42 --seconds 20 --trace 0

Run from the root of a source checkout; pfkit is imported from ``src/``.
Each measured run is a fresh interpreter (``workload.py``), so caches start
cold.  With ``--trace 0`` the script runs the workload again and again
until ``--seconds`` have passed, with set-up-only interpreters between the
runs, and reports the median of each end-to-end metric.  With ``--trace 1`` it
runs the workload once untraced and once traced and reports the per-layer
metrics.  The last line of standard output is::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Raw numbers, the environment and the report digests go to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("suite-full", "language", "scan")
SETUP_PROBES = 2  # before each run and after the last
CHILD_TIMEOUT_S = 170
BUDGET_S = 150  # no new run starts if it would likely end past this


def child(workload, seed, *extra):
    """Run workload.py in a fresh interpreter and return its JSON line."""
    env = dict(os.environ)
    env.pop("PFKIT_THREADS", None)  # measure the program's default pool size
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload, "--seed", str(seed), *extra]
    proc = subprocess.run(cmd + ["--t0", repr(time.monotonic())], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload.py exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_digests(seed, runs) -> int:
    """Every suite-full report of one seed must have one digest, across all
    runs made in this checkout.  Returns the number of runs that differ."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    first = known.setdefault(str(seed), runs[0]["digest"])
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return sum(r["digest"] != first for r in runs)


def expected_metrics(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--negative-control", action="store_true",
                    help="flip one reference symbol; the run must report failed ops")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pfkit" / "__init__.py").is_file():
        print(f"pfkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    extra = ["--negative-control"] if args.negative_control else []

    started = time.monotonic()
    if args.trace:
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        runs = [child(args.workload, args.seed, *extra),
                child(args.workload, args.seed, "--trace", str(trace_file), *extra)]
        metrics = dict(runs[1]["layers"], **{"trace.overhead_s": runs[1]["wall_s"] - runs[0]["wall_s"]})
        units = expected_metrics("per_layer")
        setups = []
    else:
        # set-up probes sit between the runs, so that their median spans
        # the whole measuring window rather than one moment of it
        probe = lambda: [child(args.workload, args.seed, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]  # noqa: E731
        setups, runs = [], []
        while True:
            setups += probe()
            runs.append(child(args.workload, args.seed, *extra))
            elapsed = time.monotonic() - started
            if elapsed >= args.seconds or elapsed * (len(runs) + 1) / len(runs) > BUDGET_S:
                break
        setups += probe()
        med = lambda key: statistics.median(r[key] for r in runs)  # noqa: E731
        metrics = {
            "setup_s": statistics.median(setups + [r["setup_s"] for r in runs]),
            "wall_s": med("wall_s"),
            "cpu_s": med("cpu_s"),
            "peak_rss_mb": med("peak_rss_mb"),
            "ops_per_s": statistics.median(r["attempted"] / r["wall_s"] for r in runs),
        }
        units = expected_metrics("end_to_end")
    if set(metrics) != set(units):
        print(f"metric names differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}", file=sys.stderr)
        return 3

    failed = sum(r["failed"] for r in runs)
    if args.workload == "suite-full" and not args.negative_control:
        failed += check_digests(args.seed, runs)
    attempted = sum(r["attempted"] for r in runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "negative_control": args.negative_control, "env": runs[0]["env"], "setups": setups,
        "runs": [{k: v for k, v in r.items() if k not in ("env", "layers")} for r in runs],
        "elapsed_s": time.monotonic() - started,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({k: v for k, v in record.items() if k not in ("runs", "setups")}), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
