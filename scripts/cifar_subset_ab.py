#!/usr/bin/env python3
"""Two-class CIFAR-10 sanity runs through the full pipeline, both loss modes.

Runs the experiment of configs/cifar_subset.json: a small residual network
trained on a 2x500-image training subset with GCN + ZCA + flips. Reports test
error and the within-class loss trend for each loss mode. Needs the binary
dataset on disk (see `msn fetch-data`) under $MSN_DATA_DIR, default ./data.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from msn.config import ConfigError, RunConfig, load_datasets
from msn.trainer import evaluate, train

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "cifar_subset.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    base = RunConfig.from_file(CONFIG, seed=args.seed)
    try:
        train_ds, test_ds = load_datasets(base)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for mode in ("msl", "ce"):
        config = RunConfig.from_file(CONFIG, seed=args.seed, loss=mode)
        result = train(config.train, config.network, train_ds)
        test_error = evaluate(result.state, test_ds)
        within = [r.loss_within for r in result.rows]
        print(f"{mode}: test_error={test_error:.4f} "
              f"within_first100={np.mean(within[:100]):.4f} "
              f"within_last100={np.mean(within[-100:]):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
