"""Spans and probes that the benchmark attaches to `msn` from outside.

Nothing under `src/msn` knows about this module. Tracing replaces a module
attribute (for example `msn.network.conv2d`) with a wrapper for the length of
a `with` block and puts the original back afterwards. `network` and `trainer`
import ops by name, so each name is wrapped where its caller looks it up.

A span is one wrapped call: name, start, end, parent span and request id (the
training iteration, eval batch or fd evaluation it belongs to). Spans stay in
memory; `Tracer.write` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import os
import statistics
import time
from array import array
from collections import defaultdict

# Operations and spans are timed in CPU time of the process. The benchmark
# runs one BLAS thread, so this is the time the operation kept the CPU busy,
# without the time a shared host took the CPU away (10-15% on the 2-CPU VM the
# benchmark was built on, in bursts of seconds). Set-up is timed in wall time.
clock = time.process_time
wall = time.perf_counter


class HostSpeed:
    """A fixed interpreter loop, timed just before every operation.

    Even in CPU time the shared host runs the same code up to twice as slow
    for stretches of 5 to 40 seconds (neighbours on the core), so the median
    of a 15-second run depends on which stretches it met. The loop slows with
    the host, and its time scales each operation to the reference speed:
    ``factors()`` gives REF_MS over the median loop time of the WINDOW
    samples around each operation. The loop touches only a few cached small
    integers and allocates nothing, and an untimed pass warms it up, so what
    the program leaves in the caches and heap barely moves it (see README and
    probe_check.py). Its own time is outside every operation and is counted
    in ``spent``.
    """

    REF_MS = 0.1  # about the loop's median on the machine the baseline was recorded on
    WINDOW = 9

    def __init__(self):
        self.samples = array("d")
        self.spent = 0.0

    @staticmethod
    def _loop() -> None:
        for _ in range(12):
            for i in range(250):
                i ^ 7  # small ints stay in the interpreter's cache: no allocation

    def sample(self) -> float:
        """Time one pass of the loop, after an untimed pass that brings its
        code back into the caches the operation before it used."""
        before = clock()
        self._loop()
        start = clock()
        self._loop()
        took = clock() - start
        self.samples.append(took)
        self.spent += clock() - before
        return took

    @classmethod
    def factors(cls, samples) -> list:
        """REF_MS over the median of the WINDOW samples centred on each one."""
        half = cls.WINDOW // 2
        out = []
        for i in range(len(samples)):
            around = samples[max(0, i - half):i + half + 1]
            out.append(cls.REF_MS / (statistics.median(around) * 1e3))
        return out


TENSOR_OPS = ("conv2d", "max_pool2", "batch_norm", "relu", "global_average_pool",
              "linear", "residual_add")


@contextlib.contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder plus counters measured at the same boundaries.

    Spans are kept in columns (flat arrays and lists of strings) rather than
    one container per span: containers the cyclic garbage collector tracks
    would make it run more often, and how often it frees the autodiff graphs
    (reference cycles) changes the speed of the code being traced.
    """

    def __init__(self):
        self.names: list = []            # span name
        self.requests: list = []         # request id: "iter:12", "batch:3", "setup:0", ...
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")        # index of the enclosing span, or -1
        self.stack: list = []
        self.request = None
        # (counter name, request id) -> value
        self.counters: dict = defaultdict(float)

    def count(self, key: str, value: float) -> None:
        self.counters[(key, self.request)] += value

    def open(self, name: str) -> int:
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.names.append(name)
        self.requests.append(self.request)
        self.ends.append(0.0)
        self.starts.append(clock())
        self.stack.append(len(self.names) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.ends[index] = clock()
        self.stack.pop()

    def rows(self) -> list:
        """(name, start, end, parent, request) per span, in opening order."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.requests))

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, kwargs, out)`` sees each result."""
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, kwargs, out)
            return out
        return traced

    def wrap_backward(self, name: str):
        """An ``after`` hook that records the returned tensor's backward closure."""
        def after(args, kwargs, out):
            inner = out._backward

            def traced_backward():
                index = self.open(name)
                try:
                    inner()
                finally:
                    self.close(index)
            out._backward = traced_backward
        return after

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for row in self.rows():
                fh.write(json.dumps(row) + "\n")

    def self_times(self) -> list:
        """Duration minus the time covered by direct child spans, per span."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                own[parent] -= end - start
        return own


def instrumentation(tracer: Tracer, msn) -> list:
    """The replacements that trace every layer of `msn`.

    ``msn`` is the imported package; its submodules must already be loaded.
    """
    network, trainer, losses, data, checkpoint, cli, tensor = (
        msn.network, msn.trainer, msn.losses, msn.data, msn.checkpoint, msn.cli, msn.tensor)
    w = tracer.wrap

    def count_im2col(args, kwargs, out):
        x, kernel = args[0], args[1]
        stride = kwargs.get("stride", args[3] if len(args) > 3 else 1)
        pad = kwargs.get("pad", args[4] if len(args) > 4 else 0)
        n, h, wd, ci = x.data.shape
        kh, kw = kernel.data.shape[:2]
        oh = (h + 2 * pad - kh) // stride + 1
        ow = (wd + 2 * pad - kw) // stride + 1
        tracer.count("tensor.conv2d.im2col_bytes", n * oh * ow * kh * kw * ci * x.data.itemsize)
        tracer.wrap_backward("tensor.conv2d.bwd")(args, kwargs, out)

    def count_hinges(args, kwargs, out):
        xi = kwargs.get("xi", args[1] if len(args) > 1 else None)
        distances = out[2]
        tracer.count("losses.represented", len(distances))
        tracer.count("losses.hinge_active", sum(1 for d in distances.values() if d > xi))

    def count_bytes(args, kwargs, out):
        tracer.count("checkpoint.bytes", os.path.getsize(args[0]))
        tracer.count("checkpoint.files", 1)

    replacements = []
    for op in TENSOR_OPS:
        after = count_im2col if op == "conv2d" else tracer.wrap_backward(f"tensor.{op}.bwd")
        replacements.append((network, op, w(f"tensor.{op}", getattr(network, op), after)))
    replacements += [
        (tensor.Tensor, "backward", w("tensor.backward", tensor.Tensor.backward)),
        (tensor, "grad_check", w("tensor.grad_check", tensor.grad_check)),
        (network, "msl_total", w("losses.msl_total", network.msl_total)),
        (losses, "within_class_loss", w("losses.within", losses.within_class_loss,
                                        count_hinges)),
        (network, "forward_heads", w("network.forward_heads", network.forward_heads)),
        (trainer, "forward_heads", w("network.forward_heads", trainer.forward_heads)),
        (trainer, "attach_msn_loss",
         w("network.attach_msn_loss", trainer.attach_msn_loss,
           lambda a, k, out: tracer.wrap_backward("network.attach_msn_loss.bwd")(a, k, out[0]))),
        (trainer, "predict", w("network.predict", trainer.predict)),
        (trainer, "batch_indices_for_iteration",
         w("data.batch", trainer.batch_indices_for_iteration)),
        (trainer, "random_flip", w("data.flip", trainer.random_flip)),
        (trainer, "sgd_momentum_step", w("trainer.sgd_step", trainer.sgd_momentum_step)),
        (trainer, "evaluate", w("trainer.evaluate", trainer.evaluate)),
        (cli, "evaluate", w("trainer.evaluate", cli.evaluate)),
        (data, "synthetic_blobs", w("data.synth", data.synthetic_blobs)),
        (data, "global_contrast_normalize", w("data.gcn", data.global_contrast_normalize)),
        (data, "zca_fit", w("data.zca_fit", data.zca_fit)),
        (data, "zca_apply", w("data.zca_apply", data.zca_apply)),
        (checkpoint, "write_tensors", w("checkpoint.write", checkpoint.write_tensors,
                                        count_bytes)),
        (checkpoint, "read_tensors", w("checkpoint.read", checkpoint.read_tensors,
                                       count_bytes)),
        (cli, "load_datasets", w("config.load_datasets", cli.load_datasets)),
    ]
    return replacements
