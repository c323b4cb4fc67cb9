#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at its minimal size (one round, ``--seconds 1``) with
tracing off and on, and asserts that each run passes its checks, prints
exactly the metrics BENCHMARK.json names, and shows the zeros the layer
predictions call for. It also checks that the benchmark refuses to run, with
no result line, in a directory that holds only BENCHMARK.json and the
benchmark's own files.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> tuple[int, list[str]]:
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_result(lines: list[str], names: list[str], label: str) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, f"{label}: keys {sorted(result)}"
    assert result["correct"] and result["failed"] == 0, f"{label}: checks failed"
    assert result["attempted"] >= 1, label
    assert sorted(result["metrics"]) == sorted(names), f"{label}: metric names differ"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), f"{label}: {name}"
    return {k: v["value"] for k, v in result["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in bench["end_to_end"]]
    layers = [m["name"] for m in bench["per_layer"]]
    for w in bench["workloads"]:
        name = w["name"]
        code, lines = run(name, 0)
        assert code == 0, f"{name} untraced exited {code}"
        values = check_result(lines, e2e, f"{name} untraced")
        assert all(values[m] != 0 for m in e2e), f"{name}: an end-to-end metric reads 0"

        code, lines = run(name, 1)
        assert code == 0, f"{name} traced exited {code}"
        values = check_result(lines, layers, f"{name} traced")
        trace = json.loads((ROOT / json.loads(lines[-2])["trace_file"]).read_text())
        if name != "common_rate":
            for mod in ("common_info", "gray_wyner"):
                assert values[f"{mod}.minimize.calls"] == 0, f"{name}: {mod}.minimize ran"
        if name == "ci_synth":
            assert values["rd.kernel.calls"] == 0, "ci_synth reached the rd kernel"
            assert values["cli.calls"] > 0 and values["synthesis.delta.calls"] > 0
        if name == "rd_cold":
            assert values["rd.joint.sweep_miss_share"] == 1.0, "rd_cold hit the sweep cache"
            assert values["audit.lemma1.calls"] > 0
        if name == "rd_warm":
            assert values["rd.joint.sweep_misses"] == trace["rounds"], "not one miss per source"
        if name == "common_rate":
            assert values["gray_wyner.minimize.calls"] > 0 and values["common_info.descent.calls"] > 0
        print(f"ok {name}: {len(e2e)} end-to-end and {len(layers)} per-layer metrics", flush=True)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines = run(bench["workloads"][0]["name"], 0, cwd=bare)
        assert code != 0 and not any(ln.startswith("{\"correct\"") for ln in lines), \
            "ran without the program's sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok: refuses to run without the program's sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
