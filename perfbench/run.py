#!/usr/bin/env python3
"""Benchmark of the msn training kit.

One workload per process:

    python3 perfbench/run.py --workload train-blobs --seed 1 --seconds 15 --trace 0

prints the workload's metrics and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` reports the per-layer
metrics of a traced run and writes its spans to .bench_work/.

Every workload in fresh processes, with a table of the named metrics:

    python3 perfbench/run.py --all [--seed 0] [--seconds 15] [--trace 0|1]

A few operations of every workload, checking that each metric is printed:

    python3 perfbench/run.py --smoke

Run from the root of a checkout of the repository; `msn` is imported from
its src/ directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from spans import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("train-blobs", "train-cifar", "eval-cifar", "gradcheck-net")
# One BLAS/OpenMP thread, so that the CPU time of the process is the time an
# operation kept its one thread busy (see spans.clock). The setting must be in
# place before numpy is imported.
THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170

# Workload-specific names of the end-to-end metrics, as the detail line and --all print them.
NAMED = {
    "train-blobs": {"iter_ms_p50": "op_ms_p50", "iter_ms_p95": "op_ms_p95",
                    "train_img_per_s": "img_per_s"},
    "eval-cifar": {"eval_batch_ms_p50": "op_ms_p50", "eval_batch_ms_p95": "op_ms_p95",
                   "eval_img_per_s": "img_per_s"},
    "gradcheck-net": {"fd_eval_ms_p50": "op_ms_p50", "fd_eval_ms_p95": "op_ms_p95",
                      "fd_evals_per_s": "ops_per_s"},
}
NAMED["train-cifar"] = NAMED["train-blobs"]


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def set_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": THREADS, "python": platform.python_version()}


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q))


def end_to_end(res, scaled: bool = True) -> dict:
    """With ``scaled``, each operation's time is at the reference host speed
    (see spans.HostSpeed); rates divide by the time-weighted factor."""
    factors = HostSpeed.factors(res.probe_s) if scaled else [1.0] * len(res.op_ms)
    op_ms = [t * f for t, f in zip(res.op_ms, factors)]
    weighted = sum(op_ms) / sum(res.op_ms)
    return {
        "setup_s": statistics.median(res.setup_s),
        "op_ms_p50": percentile(op_ms, 50),
        "op_ms_p95": percentile(op_ms, 95),
        "ops_per_s": len(op_ms) / res.window_s / weighted,
        "img_per_s": res.images / res.window_s / weighted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer, res) -> tuple:
    """Per-layer metrics from the spans, plus the per-phase table of the traced ops."""
    from spans import TENSOR_OPS
    ops = res.traced_ops
    n = max(len(ops), 1)
    setups = max(res.traced_setups, 1)
    spans = tracer.rows()
    self_times = tracer.self_times()
    per_op, per_op_self, per_setup = defaultdict(float), defaultdict(float), defaultdict(float)
    per_op_calls = defaultdict(int)
    any_total, any_self, any_calls = defaultdict(float), defaultdict(float), defaultdict(int)
    for span, own in zip(spans, self_times):
        name, start, end, _, request = span
        any_total[name] += end - start
        any_self[name] += own
        any_calls[name] += 1
        if request in ops:
            per_op[name] += end - start
            per_op_self[name] += own
            per_op_calls[name] += 1
        elif isinstance(request, str) and request.startswith("setup:"):
            per_setup[name] += end - start

    counters = defaultdict(float)
    for (key, request), value in tracer.counters.items():
        if key == "tensor.conv2d.im2col_bytes" and request not in ops:
            continue
        counters[key] += value

    # phases: the top-level spans of each traced op; "other" is the rest of the op
    by_request = defaultdict(list)
    for span in spans:
        parent = span[3]
        if span[4] in ops and (parent < 0 or spans[parent][4] != span[4]):
            by_request[span[4]].append(span)
    phase_names = {"data.batch": "data", "data.flip": "data",
                   "network.forward_heads": "forward", "network.attach_msn_loss": "loss",
                   "tensor.backward": "backward", "trainer.sgd_step": "sgd_step",
                   "trainer.evaluate": "eval", "network.predict": "forward"}
    phases = defaultdict(float)
    op_total = 0.0
    for request, start, end in res.phases:
        op_total += end - start
        covered = 0.0
        for span in by_request[request]:
            phases[phase_names.get(span[0], "other")] += span[2] - span[1]
            covered += span[2] - span[1]
        phases["other"] += (end - start) - covered
    phase_ms = {k: v * 1e3 / n for k, v in sorted(phases.items())}
    phase_ms["op"] = op_total * 1e3 / n

    ms = 1e3
    m = {}
    for op in TENSOR_OPS:
        m[f"tensor.{op}.fwd_ms"] = per_op[f"tensor.{op}"] * ms / n
        m[f"tensor.{op}.bwd_ms"] = per_op[f"tensor.{op}.bwd"] * ms / n
    m["tensor.autodiff_ms"] = per_op_self["tensor.backward"] * ms / n
    m["tensor.ops_per_iter"] = sum(per_op_calls[f"tensor.{op}"] for op in TENSOR_OPS) / n
    m["tensor.conv2d.im2col_mb"] = counters["tensor.conv2d.im2col_bytes"] / 2**20 / n
    m["tensor.grad_check.self_ms"] = any_self["tensor.grad_check"] * ms / n
    m["losses.msl_total_ms"] = per_op["losses.msl_total"] * ms / n
    m["losses.within_ms"] = per_op["losses.within"] * ms / n
    m["losses.hinge_active_frac"] = (counters["losses.hinge_active"]
                                     / max(counters["losses.represented"], 1))
    m["network.forward_heads_ms"] = per_op["network.forward_heads"] * ms / n
    m["network.attach_msn_loss_ms"] = per_op["network.attach_msn_loss"] * ms / n
    m["network.predict_ms"] = per_op["network.predict"] * ms / n
    m["data.batch_ms"] = per_op["data.batch"] * ms / n
    m["data.flip_ms"] = per_op["data.flip"] * ms / n
    for key in ("synth", "gcn", "zca_fit", "zca_apply"):
        m[f"data.{key}_ms"] = per_setup[f"data.{key}"] * ms / setups
    m["trainer.backward_ms"] = per_op["tensor.backward"] * ms / n
    m["trainer.sgd_step_ms"] = per_op["trainer.sgd_step"] * ms / n
    m["trainer.evaluate_ms"] = per_op["trainer.evaluate"] * ms / n
    m["trainer.other_ms"] = phase_ms.get("other", 0.0)
    for key in ("write", "read"):
        calls = any_calls[f"checkpoint.{key}"]
        m[f"checkpoint.{key}_ms"] = any_total[f"checkpoint.{key}"] * ms / max(calls, 1)
    m["checkpoint.bytes"] = counters["checkpoint.bytes"] / max(counters["checkpoint.files"], 1)
    m["config.load_datasets_ms"] = per_setup["config.load_datasets"] * ms / setups
    traced = percentile(res.traced_op_ms, 50)
    untraced = percentile(res.op_ms, 50)
    m["trace.op_ms_p50"] = traced
    m["trace.untraced_op_ms_p50"] = untraced
    m["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    m["trace.spans_per_op"] = sum(1 for s in spans if s[4] in ops) / n
    return m, phase_ms


# ---------------------------------------------------------------------------
# one workload


def run_one(args) -> int:
    set_threads()
    if not (ROOT / "src" / "msn" / "__init__.py").is_file():
        print(f"error: no msn package under {ROOT / 'src'}; run from a checkout of the "
              f"repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import Tracer

    spec = benchmark_spec()
    reference = json.loads((HERE / "reference.json").read_text())
    tracer = Tracer() if args.trace else None
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    res = workloads.run(args.workload, args.seed, args.seconds, work, args.smoke,
                        tracer, reference)
    correct = all(res.checks.values())
    e2e = end_to_end(res)
    raw = end_to_end(res, scaled=False)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        values, phases = per_layer(tracer, res)
        WORK.mkdir(exist_ok=True)
        trace_path = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_path)
        print(f"spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}")
        print("phases (ms per op): " + json.dumps({k: round(v, 4) for k, v in phases.items()}))
    else:
        values = e2e
    samples = {"setup_s": len(res.setup_s), "op_ms": len(res.op_ms),
               "traced_op_ms": len(res.traced_op_ms)}
    named = [{"workload": args.workload, "name": "setup_s", "value": e2e["setup_s"],
              "unit": "s", "samples": samples["setup_s"]}]
    for name, metric in NAMED[args.workload].items():
        named.append({"workload": args.workload, "name": name, "value": e2e[metric],
                      "unit": "ms" if metric.startswith("op_ms") else "1/s",
                      "samples": samples["op_ms"]})
    named.append({"workload": args.workload, "name": "peak_rss_mb",
                  "value": e2e["peak_rss_mb"], "unit": "MiB", "samples": 1})
    named.append({"workload": args.workload, "name": "failed_frac",
                  "value": 0.0 if correct else 1.0, "unit": "fraction",
                  "samples": res.attempted})
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), "samples": samples, "checks": res.checks,
              "info": res.info, "named_metrics": named,
              "unscaled": {k: raw[k] for k in ("op_ms_p50", "op_ms_p95", "img_per_s")},
              "host_loop_ms_p50": percentile(res.probe_s, 50) * 1e3}
    if args.trace:
        detail["layers"] = values  # with those BENCHMARK.json leaves out
    print("detail: " + json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": res.attempted,
        "failed": 0 if correct else res.attempted,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload, each in a fresh process


def child(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + (["--smoke"] if smoke else [])
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail = next(json.loads(l[len("detail: "):]) for l in lines if l.startswith("detail: "))
    return detail, json.loads(lines[-1])


def run_all(args) -> int:
    print(f"{'workload':14} {'metric':32} {'value':>14} {'unit':12} samples")
    ok = True
    for workload in WORKLOADS:
        detail, result = child(workload, args.seed, args.seconds, args.trace, args.smoke)
        ok &= result["correct"]
        rows = (detail["named_metrics"] if not args.trace else
                [{"name": k, "value": v, "unit": "", "samples": detail["samples"]["traced_op_ms"]}
                 for k, v in detail["layers"].items()])
        for row in rows:
            print(f"{workload:14} {row['name']:32} {row['value']:14.4f} {row['unit']:12} "
                  f"{row['samples']}")
        failed = [k for k, v in detail["checks"].items() if not v]
        print(f"{workload:14} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_checks={failed}")
    return 0 if ok else 1


def run_smoke(args) -> int:
    """Every workload for a few operations, traced and untraced; checks the output."""
    spec = benchmark_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            detail, result = child(workload, args.seed, 0.0, trace, smoke=True)
            declared = spec["per_layer" if trace else "end_to_end"]
            metrics = result["metrics"]
            for m in declared:
                got = metrics.get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{workload} trace={trace}: {m['name']} missing or malformed")
            if set(metrics) != {m["name"] for m in declared}:
                problems.append(f"{workload} trace={trace}: unexpected metrics")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: checks failed {detail['checks']}")
            named = {row["name"] for row in detail["named_metrics"]
                     if row["workload"] == workload and row["unit"] and row["samples"] >= 1}
            wanted = {"setup_s", "peak_rss_mb", "failed_frac", *NAMED[workload]}
            if not wanted <= named:
                problems.append(f"{workload}: named metrics missing {sorted(wanted - named)}")
            print(f"smoke {workload} trace={trace}: {len(metrics)} metrics, "
                  f"attempted={result['attempted']}")
    for p in problems:
        print(f"smoke problem: {p}")
    print("smoke " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, one process each")
    parser.add_argument("--smoke", action="store_true",
                        help="a few operations per workload; with no --workload, check "
                             "every workload's output")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(benchmark_spec()["run_seconds"])
    if args.all:
        return run_all(args)
    if args.workload is None:
        if args.smoke:
            return run_smoke(args)
        parser.error("give --workload, --all or --smoke")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
