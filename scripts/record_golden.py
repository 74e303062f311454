#!/usr/bin/env python3
"""Re-record tests/golden.json, the bits that tests/test_golden.py pins.

Trains each run in RUNS with `msn train --seed 0` and writes the sha256 of its
metrics.csv and final.ckpt, the CSV lines (so that a mismatch can name the
first differing line), and the numpy, BLAS and CPU the bits were made on.
Re-record only when a change moves the bits on purpose, and say so in
CHANGES.md. Prints, for each run, whether its bits are `unchanged` or
`changed` against the golden.json being replaced.
"""

import argparse
import hashlib
import json
import platform
import tempfile
from pathlib import Path

import numpy as np

from msn import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"

# Each run is a shipped config with some keys replaced: blobs_small cut to 300
# iterations, and cifar_subset on synthetic blobs of CIFAR shape (GCN, ZCA,
# flips, a resnet with batch_norm) for 10 iterations.
RUNS = {
    "blobs_small": {"config": "configs/blobs_small.json",
                    "override": {"train": {"iterations": 300}}},
    "cifar_shape": {"config": "configs/cifar_subset.json",
                    "override": {"data": {"dataset": "blobs", "subset": None,
                                          "blobs": {"classes": 2, "train_per_class": 100,
                                                    "test_per_class": 20,
                                                    "image_shape": [32, 32, 3],
                                                    "separation": 3.0}},
                                 "train": {"iterations": 10, "eval_interval": 5}}},
}


def fingerprint() -> dict:
    """What fixes the bits besides the code: the numpy version, the BLAS build,
    and the CPU, whose model picks the kernels a DYNAMIC_ARCH OpenBLAS runs."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"numpy": np.__version__,
            "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
            "cpu": cpu}


def _merged(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        out[key] = _merged(base.get(key) or {}, value) if isinstance(value, dict) else value
    return out


def record(run: dict, work_dir: Path) -> dict:
    """Train ``run`` under ``work_dir``; return the fields golden.json keeps for it."""
    config = _merged(json.loads((ROOT / run["config"]).read_text()), run["override"])
    config_path = work_dir / "config.json"
    config_path.write_text(json.dumps(config))
    out_dir = work_dir / "run"
    code = cli.main(["train", "--config", str(config_path), "--seed", "0", "--out", str(out_dir)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"msn train exited {code} on {run['config']}")
    csv = (out_dir / "metrics.csv").read_bytes()
    return {"metrics_csv_sha256": hashlib.sha256(csv).hexdigest(),
            "final_ckpt_sha256": hashlib.sha256((out_dir / "final.ckpt").read_bytes()).hexdigest(),
            "metrics_csv": csv.decode().splitlines()}


def compare(old: dict, new: dict) -> dict:
    """Run name -> "unchanged" when ``old`` holds the same recorded fields for
    it as ``new``, else "changed" (a run that ``old`` lacks counts as changed).
    The fingerprints are not compared."""
    before = old.get("runs", {})
    return {name: "unchanged" if before.get(name) == fields else "changed"
            for name, fields in new["runs"].items()}


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    old = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    golden = {"fingerprint": fingerprint(), "runs": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, run in RUNS.items():
            work_dir = Path(tmp) / name
            work_dir.mkdir()
            golden["runs"][name] = record(run, work_dir)
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    for name, verdict in compare(old, golden).items():
        print(f"{name}: {verdict}")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
