#!/usr/bin/env python3
"""Matched A/B of one run config: full separability loss vs cross-entropy only.

Trains --config in both loss modes at each seed on one build of its datasets;
the two runs differ only in the within-class weight. Prints one row per
(seed, mode) with the fields of ``summarize``. A CIFAR-10 config needs the
binary dataset (see `msn fetch-data`) under $MSN_DATA_DIR, default ./data.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from msn.config import ConfigError, RunConfig, load_datasets
from msn.trainer import evaluate, train

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "blobs_small.json"


def _slope(values):
    """Least-squares slope of ``values`` per iteration."""
    return float(np.polyfit(np.arange(len(values)), values, 1)[0])


def summarize(result, train_ds, test_ds) -> dict:
    """The continued-learning summary of a run trained from iteration 0: the
    final train and test errors; the first iteration at <= 1% batch train
    error, and the total-loss slope over the 200 iterations from it (None
    when either is missing) and over the last 200 (the cross-entropy run
    freezes after saturation, the full loss keeps moving; None below 2
    iterations); the final mean in-class distance; the mean within-class
    loss over the first and the last 100 iterations (None for a run of 0
    iterations)."""
    rows = result.rows
    losses = [r.loss_total for r in rows]
    within = [r.loss_within for r in rows]
    first = next((r.iteration for r in rows if r.train_error <= 0.01), None)
    room = first is not None and first + 200 <= len(rows)
    return dict(
        train_error=evaluate(result.state, train_ds),
        test_error=evaluate(result.state, test_ds),
        saturated_at=first,
        early_slope=_slope(losses[first:first + 200]) if room else None,
        late_slope=_slope(losses[-200:]) if len(losses) >= 2 else None,
        final_distance=rows[-1].mean_distance if rows else None,
        within_first100=float(np.mean(within[:100])) if rows else None,
        within_last100=float(np.mean(within[-100:])) if rows else None,
    )


def run_pair(config_path, seed) -> dict:
    """Train the config at ``config_path`` at ``seed`` in each loss mode,
    msl first, on one build of its datasets: {mode: summary}."""
    configs = {mode: RunConfig.from_file(config_path, seed=seed, loss=mode)
               for mode in ("msl", "ce")}
    train_ds, test_ds = load_datasets(configs["msl"])  # the loss does not enter
    return {mode: summarize(train(config.train, config.network, train_ds, flip=config.data.flip),
                            train_ds, test_ds)
            for mode, config in configs.items()}


def _cell(value, spec):
    return "-" if value is None else format(value, spec)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", type=Path, default=CONFIG,
                        help="run config to train (default: configs/blobs_small.json)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args()

    print(f"{'seed':>4} {'mode':>4} {'train_err':>9} {'test_err':>8} {'sat_iter':>8} "
          f"{'early_slope':>12} {'late_slope':>12} {'in_class_dist':>13} "
          f"{'within_first100':>15} {'within_last100':>14}")
    for seed in args.seeds:
        try:
            pair = run_pair(args.config, seed)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for mode, s in pair.items():
            print(f"{seed:>4} {mode:>4} {s['train_error']:>9.4f} {s['test_error']:>8.4f} "
                  f"{_cell(s['saturated_at'], 'd'):>8} {_cell(s['early_slope'], '+.2e'):>12} "
                  f"{_cell(s['late_slope'], '+.2e'):>12} {_cell(s['final_distance'], '.4f'):>13} "
                  f"{_cell(s['within_first100'], '.4f'):>15} "
                  f"{_cell(s['within_last100'], '.4f'):>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
