#!/usr/bin/env python3
"""How often a plain shuffled batch activates the within-class term.

The within-class loss only sees a class once the batch holds at least two of
its samples, so small batches over many classes rarely engage it. Sweeps
batch sizes and prints the fraction of the trainer's shuffled batches with
any repeated class.
"""

import argparse

import numpy as np

from msn.data import synthetic_blobs
from msn.trainer import TrainConfig, batch_indices_for_iteration


def active_fractions(classes, per_class, sizes, batches, seed):
    """For each batch size, the fraction of ``batches`` full shuffled batches
    over ``classes`` x ``per_class`` blobs that hold a class at least twice."""
    ds = synthetic_blobs(classes, per_class, rng=np.random.default_rng(seed))
    fractions = []
    for size in sizes:
        config = TrainConfig(iterations=0, batch_size=size, seed=seed)
        active = drawn = iteration = 0
        while drawn < batches:
            batch = batch_indices_for_iteration(ds, config, iteration)
            iteration += 1
            if len(batch) < size:
                continue  # ragged epoch tail keeps sizes comparable
            counts = np.unique(ds.labels[batch], return_counts=True)[1]
            active += int(counts.max() >= 2)
            drawn += 1
        fractions.append(active / batches)
    return fractions


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--classes", type=int, default=16)
    parser.add_argument("--per-class", type=int, default=100)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[2, 3, 4, 6, 8, 12, 16, 32])
    parser.add_argument("--batches", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    fractions = active_fractions(args.classes, args.per_class, args.sizes,
                                 args.batches, args.seed)
    print(f"{'batch_size':>10} {'active_fraction':>15}")
    for size, fraction in zip(args.sizes, fractions):
        print(f"{size:>10} {fraction:>15.3f}")


if __name__ == "__main__":
    main()
