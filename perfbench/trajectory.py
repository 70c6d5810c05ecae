#!/usr/bin/env python3
"""Measures one trajectory point and appends it to perfbench/trajectory.json.

    python3 perfbench/trajectory.py --label <commit>

For each workload in BENCHMARK.json: ten untraced runs of run_seconds with
seeds 1000, 1001, ... (1000 is the default seed), then one traced run at
seed 1000. Seeds differ between runs as they do when the benchmark is
gated, so a spread includes what the seed changes (job order; the
array-1024 trace). The point records,
per end-to-end metric, the median and the quartiles of the runs and their
spread (q3 - q1) / median, as statistics.quantiles(n=4) gives them. It
also records the traced run's per-layer metrics and each layer's share of
the traced op time. The host stamp (nproc, build type, compiler) comes from
the benchmark's own output.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "trajectory.json"
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10
SECONDS = SPEC["run_seconds"]
DEFAULT_SEED = 1000
LAYERS = ["apps", "frontend", "ir", "layout", "analysis", "core", "verify",
          "trace", "sim", "obs"]


def run(workload: str, seed: int, trace: int):
    """Returns (stamp, result) of one run; exits on a failed run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: run failed\n{proc.stderr[-2000:]}")
    stamp = dict(f.split("=", 1) for f in lines[-2].split()[2:] if "=" in f)
    return stamp, json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit being measured")
    args = parser.parse_args()

    point = {"label": args.label, "runs": RUNS, "run_seconds": SECONDS,
             "workloads": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        results = []
        for seed in range(DEFAULT_SEED, DEFAULT_SEED + RUNS):
            stamp, res = run(w, seed, 0)
            results.append(res)
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()),
                file=sys.stderr)
        point["host"] = {k: stamp[k] for k in ("nproc", "build", "compiler")}
        e2e = {}
        for m in SPEC["end_to_end"]:
            e2e[m["name"]] = {"unit": m["unit"], **summarize(
                [r["metrics"][m["name"]]["value"] for r in results])}
        _, traced = run(w, DEFAULT_SEED, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        op_ms = layer["tracing.op_ms"]
        point["workloads"][w] = {
            "end_to_end": e2e,
            "ops": [r["attempted"] for r in results],
            "layer_share": {l: layer[f"{l}.self_ms"] / op_ms if op_ms else 0.0
                            for l in LAYERS},
            "per_layer": layer,
        }

    doc = (json.loads(OUT.read_text()) if OUT.exists()
           else {"schema": "perfbench-trajectory-v1", "points": []})
    doc["points"].append(point)
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    for w, p in point["workloads"].items():
        print(w, " ".join(f"{k}: {v['median']:.4g} (spread {v['spread']:.3f})"
                          for k, v in p["end_to_end"].items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
