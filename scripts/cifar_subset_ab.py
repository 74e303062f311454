#!/usr/bin/env python3
"""Two-class CIFAR-10 sanity runs through the full pipeline, both loss modes.

Needs the binary dataset on disk (see `msn fetch-data`). Trains a small
residual network on a 2x500-image training subset with GCN + ZCA + flips,
then reports test error and the within-class loss trend for the full-loss run.
"""

import argparse
import sys

import numpy as np

from msn.config import RunConfig, load_datasets
from msn.data import cifar10_files_present
from msn.trainer import evaluate, train


def build_config(args, mode):
    return RunConfig.from_dict({
        "network": {"family": "resnet", "depth_k": 1, "width_multiplier": 0.5,
                    "attachment": [4], "num_classes": 2,
                    "input_shape": [32, 32, 3]},
        "data": {"dataset": "cifar10", "data_dir": args.data_dir,
                 "gcn": True, "zca": True, "flip": True,
                 "subset": {"classes": list(args.classes),
                            "train_per_class": args.train_per_class,
                            "test_per_class": args.test_per_class}},
        "train": {"iterations": args.iterations, "batch_size": 64,
                  "batching": "class-aware", "eval_interval": 500,
                  "seed": args.seed, "loss": mode},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default="data")
    parser.add_argument("--classes", type=int, nargs=2, default=[0, 1])
    parser.add_argument("--train-per-class", type=int, default=500)
    parser.add_argument("--test-per-class", type=int, default=100)
    parser.add_argument("--iterations", type=int, default=3000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if not cifar10_files_present(args.data_dir):
        print(f"CIFAR-10 not found under {args.data_dir!r}; run "
              f"`msn fetch-data --dataset cifar10 --out {args.data_dir}` first",
              file=sys.stderr)
        return 1

    for mode in ("msl", "ce"):
        config = build_config(args, mode)
        train_ds, test_ds = load_datasets(config)
        result = train(config.to_train_config(), config.network, train_ds)
        test_error = evaluate(result.state, test_ds)
        within = [r.loss_within for r in result.rows]
        print(f"{mode}: test_error={test_error:.4f} "
              f"within_first100={np.mean(within[:100]):.4f} "
              f"within_last100={np.mean(within[-100:]):.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
