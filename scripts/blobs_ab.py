#!/usr/bin/env python3
"""Matched A/B on synthetic blobs: full separability loss vs cross-entropy only.

Runs the experiment of configs/blobs_small.json in both loss modes at each
seed. Both runs at a given seed share the dataset and every hyperparameter
except the within-class weight. Prints one row per (seed, mode) with the final
train and test errors, the final mean in-class logit distance, and the
linear-fit slope of the total loss over the last 200 iterations (the
continued-learning signature: the cross-entropy run freezes after saturation,
the full loss keeps moving).
"""

import argparse
from pathlib import Path

import numpy as np

from msn.config import RunConfig, load_datasets
from msn.trainer import evaluate, train

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blobs_small.json"


def run_once(config_path, seed, mode):
    """Train the config at ``config_path`` at ``seed`` in loss ``mode`` and summarize."""
    config = RunConfig.from_file(config_path, seed=seed, loss=mode)
    train_ds, test_ds = load_datasets(config)
    result = train(config.train, config.network, train_ds)
    rows = result.rows
    late = np.polyfit(np.arange(200), [r.loss_total for r in rows[-200:]], 1)[0]
    return dict(
        train_error=evaluate(result.state, train_ds),
        test_error=evaluate(result.state, test_ds),
        distance=rows[-1].mean_distance,
        late_slope=float(late),
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args()

    print(f"{'seed':>4} {'mode':>4} {'train_err':>9} {'test_err':>8} "
          f"{'in_class_dist':>13} {'late_slope':>12}")
    for seed in args.seeds:
        for mode in ("msl", "ce"):
            r = run_once(CONFIG, seed, mode)
            print(f"{seed:>4} {mode:>4} {r['train_error']:>9.4f} "
                  f"{r['test_error']:>8.4f} {r['distance']:>13.4f} "
                  f"{r['late_slope']:>+12.2e}")


if __name__ == "__main__":
    main()
