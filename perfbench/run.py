#!/usr/bin/env python3
"""Benchmark of the ``witl`` solvers.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload rd_cold --seed 1 --seconds 25 --trace 0

Each workload runs in this one process as a closed loop: a single caller
waits for each public-API answer before it sends the next, and every answer
is checked against its reference. Rounds of ops run until ``--seconds`` have
passed; the round in progress is finished so every run sees whole rounds.

Times are normalized to a nominal machine speed: after each op the speed
probe of ``speed.py`` runs for a fixed share of the op's time, and op times
are divided by the run's mean probe slowdown; set-up time is divided by the
slowdown read just before and just after it. Wall-clock figures are printed
alongside, on the line before the result.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json. ``--trace 1``
prints its per-layer metrics: half of the time goes to an untraced child run,
half to a traced run in this process, and the gap in throughput between the
two is the tracing overhead. Spans, per-op latencies and the environment are
written to ``.perfbench_out/`` in the checkout.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from contextlib import ExitStack
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("rd_cold", "rd_warm", "common_rate", "ci_synth")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
#: fresh-interpreter set-ups per run besides this process's own; setup_s is
#: the median of all of them
SETUP_PROBES = 2
#: probe time after each op or set-up, as a share of its time
PROBE_SHARE = 0.15
#: probe time before the first op
PROBE_FIRST_S = 0.05


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a child that only times set-up, or only measures (no set-up children)
    ap.add_argument("--phase", choices=("full", "setup", "measure"), default="full",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup(workload: str, seed: int, workdir: Path):
    """Import the program and make the inputs; returns (rounds, wall seconds
    taken, the machine's mean slowdown read just before and just after).
    NumPy, which the probe needs, is imported before the clock starts."""
    import speed

    probe = speed.Probe()
    before = probe.read(PROBE_FIRST_S)
    t0 = time.perf_counter()
    import witl
    import workloads

    if Path(witl.__file__).resolve().parent != (SRC / "witl").resolve():
        raise RuntimeError(f"witl imported from {witl.__file__}, not from {SRC}")

    rounds = workloads.WORKLOADS[workload](seed, workdir)
    wall = time.perf_counter() - t0
    after = probe.read(max(PROBE_FIRST_S, PROBE_SHARE * wall))
    return rounds, wall, (before + after) / 2.0


def child(args, phase: str, seconds: float | None = None) -> tuple[dict, dict]:
    """Run this script in a fresh interpreter; returns its last two lines."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(seconds or args.seconds),
           "--trace", "0", "--phase", phase]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{phase} child exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def measure(rounds, seconds: float, tracer=None):
    """Closed loop over whole rounds; op time excludes the probe and the checks.
    Returns the ops, the checks, the rounds run and the run's slowdown."""
    import speed
    from workloads import Checks

    checks = Checks()
    ops = []  # (op id, kind, wall latency s, ok, round, slowdown read around it)
    done = 0
    t_start = time.perf_counter()
    probe = speed.Probe()
    before = probe.read(PROBE_FIRST_S)
    for round_ops in rounds:
        if done and time.perf_counter() - t_start >= seconds:
            break
        done += 1
        for op in round_ops:
            op_id = len(ops)
            checks.begin()
            error = None
            if tracer is not None:
                tracer.op_id = op_id
            with ExitStack() as spans:
                if tracer is not None:
                    spans.enter_context(tracer.span(f"op.{op.kind}"))
                    if op.span:
                        spans.enter_context(tracer.span(op.span))
                t0 = time.perf_counter()
                try:
                    result = op.call()
                except Exception as exc:  # a failed op is counted, never dropped
                    result, error = None, exc
                latency = time.perf_counter() - t0
            after = probe.read(PROBE_SHARE * latency)
            if error is None:
                try:
                    op.check(result, checks)
                except Exception as exc:
                    error = exc
            if error is not None:
                checks.fail(f"{op.kind}: {type(error).__name__}: {error}")
                traceback.print_exception(error, file=sys.stderr)
            ok = not checks.failed_since_begin()
            ops.append((op_id, op.kind, latency, ok, done - 1, (before + after) / 2.0))
            before = after
    if tracer is not None:
        tracer.op_id = None
    return ops, checks, done, probe.slowdown


def per_kind(ops, slowdown: float) -> dict[str, list[float]]:
    """Latencies of each op kind, wall time divided by ``slowdown``."""
    out: dict[str, list[float]] = {}
    for op in ops:
        out.setdefault(op[1], []).append(op[2] / slowdown)
    return out


def interquartile_mean(values: list[float]) -> float:
    """Mean of the middle half; the median below four values."""
    if len(values) < 4:
        return statistics.median(values)
    cut = len(values) // 4
    return statistics.fmean(sorted(values)[cut:len(values) - cut])


def throughput(ops, slowdown: float) -> float:
    """Ops per second of op time, each op counted at the interquartile mean
    latency of its kind: the run's mix of kinds sets it, and a rare slow op
    (conditional RD near a zero-rate boundary can take 10-40 s against a
    typical 0.5 s) moves it no more than any other op."""
    central = {kind: interquartile_mean(v) for kind, v in per_kind(ops, slowdown).items()}
    return len(ops) / sum(central[op[1]] for op in ops)


def latency_p50(ops, slowdown: float) -> float:
    """Median latency of each op kind, combined over kinds by geometric mean:
    the mix of kinds a run reaches moves it less than a median over all ops,
    which jumps between kinds whose latencies differ."""
    medians = [statistics.median(v) for v in per_kind(ops, slowdown).values()]
    return math.exp(statistics.fmean(math.log(v) for v in medians))


def wall_figures(ops, slowdown: float) -> dict:
    return {"wall_ops_per_s": throughput(ops, 1.0),
            "wall_latency_p50_s": latency_p50(ops, 1.0),
            "slowdown": slowdown}


def end_to_end(ops, checks, setup_s: float, slowdown: float) -> dict:
    ok = sum(1 for op in ops if op[3])
    return {
        "setup_s": setup_s,
        "ops_per_s": throughput(ops, slowdown),
        "latency_p50_s": latency_p50(ops, slowdown),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_ok_share": ok / len(ops),
        # 1 when the workload compares nothing with a reference (rd_cold)
        "check_margin_min": 1.0 if checks.margin_min is None else checks.margin_min,
    }


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "witl").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "python_threads": threading.active_count(),
        "commit": commit(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def emit(section: str, values: dict, attempted: int, failed: int):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    metrics = {}
    for m in spec:
        if m["name"] not in values:
            raise KeyError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run(args, workdir: Path) -> int:
    rounds, setup_wall, setup_slowdown = setup(args.workload, args.seed, workdir)
    if args.phase == "setup":
        print(json.dumps({"setup_wall_s": setup_wall, "slowdown": setup_slowdown}))
        print(json.dumps({"setup_s": setup_wall / setup_slowdown}))
        return 0
    env = environment(args.seed)
    if env["python_threads"] > env["nproc"]:
        raise RuntimeError("more threads than processors")

    if not args.trace:
        samples = [setup_wall / setup_slowdown]
        if args.phase == "full":
            samples += [child(args, "setup")[1]["setup_s"] for _ in range(SETUP_PROBES)]
        ops, checks, _, slowdown = measure(rounds, args.seconds)
        failed = sum(1 for op in ops if not op[3])
        values = end_to_end(ops, checks, statistics.median(samples), slowdown)
        for what in checks.failures:
            print(f"check failed: {what}", file=sys.stderr)
        print(json.dumps({"env": env, "wall": wall_figures(ops, slowdown), "accuracy": checks.accuracy,
                          "setup_samples_s": samples}))
        emit("end_to_end", values, len(ops), failed)
        return 0

    from tracer import Tracer, layer_metrics

    half = args.seconds / 2.0
    untraced_info, untraced = child(args, "measure", half)
    tracer = Tracer()
    tracer.install()
    try:
        ops, checks, done, slowdown = measure(rounds, half, tracer)
    finally:
        tracer.uninstall()
    failed = sum(1 for op in ops if not op[3])
    values = layer_metrics(tracer.spans)
    traced_ops_per_s = throughput(ops, slowdown)
    untraced_ops_per_s = untraced["metrics"]["ops_per_s"]["value"]
    values["trace.ops_per_s"] = traced_ops_per_s
    values["trace.untraced_ops_per_s"] = untraced_ops_per_s
    values["trace.untraced_wall_ops_per_s"] = untraced_info["wall"]["wall_ops_per_s"]
    values["trace.slowdown"] = slowdown
    values["trace.overhead_share"] = 1.0 - traced_ops_per_s / untraced_ops_per_s
    values["trace.spans"] = len(tracer.spans)
    for key in ("rd.joint.ref_err_max_bits", "rd.joint.channel_rate_excess_max_bits",
                "rd.joint.distortion_overshoot_max", "gray_wyner.ref_err_max_bits",
                "audit.lemma1.min_slack_bits"):
        values[key] = checks.accuracy.get(key, 0.0)
    for what in checks.failures:
        print(f"check failed: {what}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace_{args.workload}_seed{args.seed}.json"
    trace_file.write_text(json.dumps({
        "env": env,
        "workload": args.workload,
        "seconds": args.seconds,
        "rounds": done,
        "span_fields": ["name", "start_s", "end_s", "parent", "op", "extra"],
        "spans": tracer.spans,
        "ops": [{"op": i, "kind": k, "latency_s": lat, "ok": good, "round": r, "slowdown": f}
                for i, k, lat, good, r, f in ops],
        "accuracy": checks.accuracy,
        "layers": values,
    }))
    print(json.dumps({"env": env, "trace_file": str(trace_file.relative_to(ROOT))}))
    attempted = len(ops) + untraced["attempted"]
    emit("per_layer", values, attempted, failed + untraced["failed"])
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "witl" / "__init__.py").is_file():
        print(f"error: no witl sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work_{os.getpid()}"
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
