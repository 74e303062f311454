#!/usr/bin/env python3
"""Run the benchmark many times and summarise each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads train-blobs,eval-cifar]
                                [--first-seed 100] [--traced 1] [--out FILE]

Each run is a fresh `run.py` process with its own seed (first-seed, first-seed
+ 1, ...). For every end-to-end metric it prints the median and the distance
between the first and third quartile (statistics.quantiles, n=4) as a share of
the median, next to the metric's bound and a third of it; the same for the
unscaled times and rates of the `detail` line (see spans.HostSpeed), which no
bound applies to. With ``--traced N``
it also makes N traced runs per workload and keeps the median of each
per-layer metric. ``--out`` writes all of it, with the environment, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run


def summarise(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else float("inf"), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: the workloads of BENCHMARK.json)")
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = run.benchmark_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "first_seed": args.first_seed, "workloads": {}}
    steady = True
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    for workload in names:
        values, unscaled, failures, environment = {}, {}, 0, None
        for k in range(args.runs):
            detail, result = run.child(workload, args.first_seed + k, seconds, 0, False)
            environment = detail["environment"]
            failures += result["failed"] > 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            for name, value in detail["unscaled"].items():
                unscaled.setdefault(name, []).append(value)
        entry = {"end_to_end": {}, "unscaled": {}, "failed_runs": failures}
        for name, series in values.items():
            s = summarise(series)
            entry["end_to_end"][name] = s
            ok = name == "setup_s" or s["iqr_share"] < bounds[name] / 3
            steady &= ok
            print(f"{workload:14} {name:12} median {s['median']:12.4f} "
                  f"iqr/median {s['iqr_share']:.4f} bound {bounds[name]:.2f} "
                  f"(third {bounds[name] / 3:.4f}) {'ok' if ok else 'WIDE'}", flush=True)
        for name, series in unscaled.items():
            s = summarise(series)
            entry["unscaled"][name] = s
            print(f"{workload:14} {name:12} median {s['median']:12.4f} "
                  f"iqr/median {s['iqr_share']:.4f} unscaled", flush=True)
        layers = {}
        for k in range(args.traced):
            detail, result = run.child(workload, args.first_seed + k, seconds, 1, False)
            failures += result["failed"] > 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        if layers:
            entry["per_layer_median"] = {k: statistics.median(v) for k, v in layers.items()}
        entry["environment"] = environment
        entry["failed_runs"] = failures
        steady &= failures == 0
        print(f"{workload:14} failed runs: {failures}", flush=True)
        report["workloads"][workload] = entry
        if args.out:  # after every workload, so an interrupted pass keeps the rest
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
                fh.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
