#!/usr/bin/env python3
"""Check that the host-speed loop does not follow the program's memory use.

    python3 perfbench/probe_check.py [--rounds 300]

The benchmark scales each operation by the time of spans.HostSpeed's loop,
run just before it. That is fair only if the loop's time depends on the host
and not on what the operation before it left in the caches and the heap. In
one process, with one BLAS thread, this times the loop after each of three
kinds of preceding work, interleaved in rotating order so that host drift
falls on all three alike:

- quiet: nothing;
- small: an 8 MiB float32 array written, and 10,000 Python objects made;
- large: a 256 MiB float32 array written, and 200,000 Python objects made,
  all still alive while the loop runs.

It prints the loop's median after each and its ratio to the quiet median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys

import run
from spans import HostSpeed

KINDS = {"quiet": (0, 0), "small": (8, 10_000), "large": (256, 200_000)}


def preceding_work(mib: int, objects: int):
    import numpy as np  # after run.set_threads()
    array = np.ones(mib << 18, dtype=np.float32) if mib else None
    if array is not None:
        array *= 2.0
    return array, [object() for _ in range(objects)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=300)
    args = parser.parse_args()
    run.set_threads()
    host = HostSpeed()
    loop_ms = {kind: [] for kind in KINDS}
    order = list(KINDS)
    for k in range(args.rounds):
        for kind in order[k % 3:] + order[:k % 3]:
            alive = preceding_work(*KINDS[kind])
            loop_ms[kind].append(host.sample() * 1e3)
            del alive
    medians = {kind: statistics.median(v) for kind, v in loop_ms.items()}
    report = {"environment": run.environment(), "rounds": args.rounds,
              "loop_ms_p50": medians,
              "ratio_to_quiet": {k: v / medians["quiet"] for k, v in medians.items()}}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
