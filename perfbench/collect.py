#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/baseline/NAME.json

Runs are sequential, one process at a time. For every workload and
end-to-end metric the summary holds the values in seed order, their median,
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median; the wall-clock
figures, the machine slowdown each run read and the run's own duration get
the same summary. With
``--trace-seed`` it also records one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])
    info["run_s"] = time.perf_counter() - t0
    return info, json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=None, help="comma-separated; default all")
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    summary = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for name in names:
        rows, walls = [], []
        for seed in seeds:
            info, result = run_once(name, seed, bench["run_seconds"], 0)
            rows.append(result)
            walls.append(dict(info["wall"], run_s=info["run_s"]))
            summary["env"] = info["env"]
            print(name, seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()}),
                  flush=True)
        entry = {
            "attempted": [r["attempted"] for r in rows],
            "failed": [r["failed"] for r in rows],
            "correct": all(r["correct"] for r in rows),
            "metrics": {
                m["name"]: summarize([r["metrics"][m["name"]]["value"] for r in rows])
                for m in bench["end_to_end"]
            },
            "wall": {key: summarize([w[key] for w in walls]) for key in walls[0]},
        }
        if args.trace_seed is not None:
            _, traced = run_once(name, args.trace_seed, bench["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        summary["workloads"][name] = entry
        for metric, s in list(entry["metrics"].items()) + list(entry["wall"].items()):
            print(f"{name:12s} {metric:18s} median {s['median']:.6g} spread {s['spread']:.4f}",
                  flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
