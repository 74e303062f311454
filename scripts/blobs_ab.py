#!/usr/bin/env python3
"""Matched A/B on synthetic blobs: full separability loss vs cross-entropy only.

Both runs at a given seed share the dataset and every hyperparameter except
the within-class weight. Prints one row per (seed, mode) with the final train
and test errors, the final mean in-class logit distance, and the linear-fit
slope of the total loss over the last 200 iterations (the continued-learning
signature: the cross-entropy run freezes after saturation, the full loss
keeps moving).
"""

import argparse

import numpy as np

from msn.config import split_blobs
from msn.data import synthetic_blobs
from msn.network import NetworkSpec
from msn.trainer import TrainConfig, evaluate, train


def run_once(seed, mode, args):
    spec = NetworkSpec(family="vgg", width_multiplier=args.width,
                       attachment=(1, 2), num_classes=args.classes,
                       input_shape=(8, 8, 1), num_blocks=2)
    config = TrainConfig(iterations=args.iterations, batch_size=args.batch_size,
                         batching="class-aware", seed=seed,
                         within_weight=0.0 if mode == "ce" else 1.0)
    ds = synthetic_blobs(args.classes, args.train_per_class + args.test_per_class,
                         image_shape=(8, 8, 1), separation=args.separation,
                         rng=np.random.default_rng((seed, 9000)))
    train_ds, test_ds = split_blobs(ds, args.train_per_class, args.test_per_class)
    result = train(config, spec, train_ds)
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
    parser.add_argument("--iterations", type=int, default=2000)
    parser.add_argument("--classes", type=int, default=4)
    parser.add_argument("--train-per-class", type=int, default=500)
    parser.add_argument("--test-per-class", type=int, default=100)
    parser.add_argument("--separation", type=float, default=3.0)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--width", type=float, default=1 / 16)
    args = parser.parse_args()

    print(f"{'seed':>4} {'mode':>4} {'train_err':>9} {'test_err':>8} "
          f"{'in_class_dist':>13} {'late_slope':>12}")
    for seed in args.seeds:
        for mode in ("msl", "ce"):
            r = run_once(seed, mode, args)
            print(f"{seed:>4} {mode:>4} {r['train_error']:>9.4f} "
                  f"{r['test_error']:>8.4f} {r['distance']:>13.4f} "
                  f"{r['late_slope']:>+12.2e}")


if __name__ == "__main__":
    main()
