#!/usr/bin/env python3
"""Write perfbench/reference.json: the outputs each workload must reproduce.

    python3 perfbench/record_reference.py --seeds 0-19 [--workloads eval-cifar]

For each seed it runs one `msn train` invocation of train-blobs and
train-cifar and one `msn eval` of eval-cifar, at the benchmark's settings,
and records the final loss, metrics.csv digest and test error of training,
and the test error, near ties and a logits sketch of eval (see
workloads.matches_reference). ``--workloads`` re-records only those
workloads and keeps the other entries of the table. Run it on the commit whose arithmetic is the reference; the benchmark
then checks later commits against it. gradcheck-net needs no table: its check
is the `msn verify` threshold.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import sys

import run

# A final loss may differ from the table by this share of it. Swapping the
# OpenBLAS kernels (OPENBLAS_CORETYPE) moved train-blobs' final loss by up to
# 6.5e-4 of its value; a wrong gradient moves it by far more.
LOSS_RTOL = 1e-2


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workloads", default="train-blobs,train-cifar,eval-cifar",
                        help="comma-separated")
    args = parser.parse_args()
    run.set_threads()
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    path = run.HERE / "reference.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    names = args.workloads.split(",")
    table["_environment"] = run.environment()
    for name in names:
        table[name] = {} if name == "eval-cifar" else {"_loss_rtol": LOSS_RTOL}
    for seed in seeds(args.seeds):
        for name in names:
            settings = dataclasses.replace(workloads.SETTINGS[name], setups=1)
            work = run.WORK / f"reference-{name}-{seed}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                res = workloads.RUNNERS[name](seed, 0.0, work, settings, None, {})
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if not all(res.checks.values()):
                print(f"{name} seed {seed}: checks failed {res.checks}", file=sys.stderr)
                return 1
            info = res.info
            if name == "eval-cifar":
                entry = {k: info[k] for k in ("test_images", "test_error", "near_ties",
                                              "logits_norm", "logits_sketch")}
            else:
                entry = {"iterations": info["iterations_per_invocation"],
                         "final_loss": info["final_loss"], "test_error": info["test_error"],
                         "metrics_csv_sha256": info["metrics_csv_sha256"]}
            table[name][str(seed)] = entry
            print(f"{name} seed {seed}: {entry}", flush=True)
    path.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
