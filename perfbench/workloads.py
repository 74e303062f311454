"""The four benchmark workloads and the numbers each one reports.

Every workload is a closed loop: one caller, one process, and the next
operation starts only when the previous one has returned. An operation is a
training iteration (train-*), an eval batch of 256 images (eval-cifar) or one
finite-difference loss evaluation (gradcheck-net).

The workloads drive the public entry points `msn.cli.main`,
`msn.trainer.evaluate` and `msn.tensor.grad_check` on configs, checkpoints
and arrays generated here from the workload seed. The untraced run attaches
one timestamp probe per operation (a wrapper around the function that starts
it); the traced run adds the span wrappers of `spans.instrumentation`.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import inspect
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import msn
import msn.checkpoint
import msn.cli
import msn.config
import msn.data
import msn.losses
import msn.network
import msn.tensor
import msn.trainer
from spans import HostSpeed, Tracer, clock, instrumentation, patched, wall

# eval-cifar: logits may differ from the reference by this share of their norm
LOGITS_RTOL = 1e-3
NEAR_TIE = 1e-4  # top-two logit gap, as a share of the largest logit, that counts as a tie
GRADCHECK_THRESHOLD = 1e-4  # the threshold `msn verify` applies to the full network
# 216 of the network's 5,120 parameters. Each reaches the loss without passing
# a ReLU or max-pool kink, so the central difference (step 1e-5) is exact to
# the threshold for every seed. Trunk parameters ahead of a ReLU are not: for
# seeds 1, 25 and 47 a kink falls inside the step and the check of
# block1.conv1.kernel reads 1e-2 at step 1e-5 but 1e-7 at step 1e-7.
GRADCHECK_PARAMS = ("block4.unit1.conv2.bias", "block4.unit1.proj.kernel",
                    "head1.fc.weight", "head1.fc.bias", "head2.fc.weight", "head2.fc.bias",
                    "head3.fc.weight", "head3.fc.bias", "head4.fc.weight", "head4.fc.bias")


def blobs_small_config() -> dict:
    """The shape of configs/blobs_small.json, 200 iterations per invocation."""
    return {
        "network": {"family": "vgg", "width_multiplier": 0.0625, "attachment": [1, 2],
                    "num_classes": 4, "input_shape": [8, 8, 1], "num_blocks": 2},
        "data": {"dataset": "blobs", "gcn": False, "zca": False, "flip": False,
                 "blobs": {"classes": 4, "train_per_class": 500, "test_per_class": 100,
                           "image_shape": [8, 8, 1], "separation": 3.0}},
        "train": {"iterations": 200, "batch_size": 64, "batching": "class-aware",
                  "eval_interval": 100, "seed": 0, "loss": "msl"},
    }


def cifar_shape_config(iterations: int = 48, test_per_class: int = 100) -> dict:
    """configs/cifar_subset.json with synthetic blobs of CIFAR shape in place of CIFAR-10."""
    return {
        "network": {"family": "resnet", "depth_k": 1, "width_multiplier": 0.5,
                    "attachment": [4], "num_classes": 2, "input_shape": [32, 32, 3]},
        "data": {"dataset": "blobs", "gcn": True, "zca": True, "zca_eps": 0.01, "flip": True,
                 "blobs": {"classes": 2, "train_per_class": 500,
                           "test_per_class": test_per_class,
                           "image_shape": [32, 32, 3], "separation": 3.0}},
        "train": {"iterations": iterations, "batch_size": 64, "batching": "class-aware",
                  "eval_interval": 500, "seed": 0, "loss": "msl"},
    }


@dataclass
class Settings:
    """How much work one run does; `smoke` shrinks it to a few operations."""

    setups: int            # set-ups per run; setup_s is their median
    warmup: int = 0        # leading operations per invocation left out of the latencies
    iterations: int = 0    # training iterations per `msn train` invocation
    test_per_class: int = 0
    learns: bool = True    # an invocation is long enough that its loss must fall


# A CIFAR-shaped set-up is an 11 s ZCA fit (one BLAS thread); two per run keep
# the 92 runs of a full benchmark pass well inside an hour.
SETTINGS = {
    "train-blobs": Settings(setups=5, warmup=3, iterations=200),
    "train-cifar": Settings(setups=2, warmup=3, iterations=48),
    "eval-cifar": Settings(setups=2, test_per_class=640),
    "gradcheck-net": Settings(setups=7),
}
SMOKE = {
    "train-blobs": Settings(setups=1, warmup=1, iterations=4, learns=False),
    "train-cifar": Settings(setups=1, warmup=1, iterations=3, learns=False),
    "eval-cifar": Settings(setups=1, test_per_class=160),
    "gradcheck-net": Settings(setups=1),
}


@dataclass
class Outcome:
    """Raw measurements of one run, before they become metrics."""

    op_ms: list = field(default_factory=list)         # untraced, after warm-up
    probe_s: list = field(default_factory=list)       # host-speed loop before each of op_ms
    traced_op_ms: list = field(default_factory=list)  # traced, after warm-up
    window_s: float = 0.0     # CPU time of the untraced operations in op_ms
    images: int = 0           # images those operations processed
    attempted: int = 0        # every operation started, traced or not
    setup_s: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    traced_ops: set = field(default_factory=set)      # request ids of traced operations
    traced_setups: int = 0
    phases: list = field(default_factory=list)        # (request id, start, end) per traced op
    host: HostSpeed = field(default_factory=HostSpeed)
    warmed: bool = False

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(self.checks.get(name, True) and ok)

    def keep_untraced(self, tracing: bool) -> bool:
        """False for the first untraced invocation of a traced run. The first
        pass through the program in a process runs on memory it has not
        touched yet, and the tracing overhead compares traced with untraced
        operations."""
        if tracing and not self.warmed:
            self.warmed = True
            return False
        return True

    def measured_s(self) -> float:
        return self.window_s + sum(self.traced_op_ms) / 1e3

    def has_samples(self, tracing: bool) -> bool:
        return bool(self.op_ms) and (not tracing or bool(self.traced_op_ms))


class _StopAtFirstOp(Exception):
    """Raised by the set-up probe at the first operation of an invocation."""


@contextlib.contextmanager
def maybe_traced(tracer: Tracer | None, on: bool):
    if tracer is not None and on:
        with patched(instrumentation(tracer, msn)):
            yield
    else:
        yield


def _cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = msn.cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _printed(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line.split("=", 1)[1]
    return None


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# train-blobs and train-cifar: `msn train`


def run_train(name: str, seed: int, seconds: float, work: Path, settings: Settings,
              tracer: Tracer | None, reference: dict) -> Outcome:
    config = (blobs_small_config() if name == "train-blobs"
              else cifar_shape_config(settings.iterations))
    config["train"].update(iterations=settings.iterations, seed=seed)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    res = Outcome()
    state = {"starts": [], "ends": [], "probes": [], "first_wall": None, "end": None,
             "abort": False}
    shas, finals = [], []
    invocation = 0

    def on_batch(dataset, train_config, iteration):
        if not state["ends"]:
            state["first_wall"] = wall()
        state["ends"].append(clock())  # of the previous iteration
        if state["abort"]:
            raise _StopAtFirstOp
        state["probes"].append(res.host.sample())
        state["starts"].append(clock())
        res.attempted += 1
        if tracer is not None:
            tracer.request = f"iter:{res.attempted}"
        return batch_fn(dataset, train_config, iteration)

    def on_save(*args, **kwargs):
        state["end"] = clock()
        if tracer is not None:
            tracer.request = f"post:{invocation}"
        return save_fn(*args, **kwargs)

    def one_invocation(abort: bool, traced: bool) -> None:
        nonlocal batch_fn, save_fn
        state.update(starts=[], ends=[], probes=[], end=None, abort=abort)
        gc.collect()  # autodiff graphs are reference cycles; free the last invocation's
        run_dir = work / f"run{invocation}"
        with maybe_traced(tracer, traced):
            batch_fn = msn.trainer.batch_indices_for_iteration
            save_fn = msn.cli.save_checkpoint
            with patched([(msn.trainer, "batch_indices_for_iteration", on_batch),
                          (msn.cli, "save_checkpoint", on_save)]):
                if tracer is not None:
                    tracer.request = f"setup:{invocation}"
                t0 = wall()
                try:
                    code, stdout = _cli(["train", "--config", config_path, "--seed", seed,
                                         "--out", run_dir])
                except _StopAtFirstOp:
                    code, stdout = None, ""
        res.setup_s.append(state["first_wall"] - t0)
        res.traced_setups += traced
        if abort:
            return
        res.check("cli_exit_0", code == 0)
        res.check("test_error_printed", _printed(stdout, "test_error") is not None)
        starts, ends = state["starts"], state["ends"][1:] + [state["end"]]
        durations = [b - a for a, b in zip(starts, ends)]
        kept = durations[settings.warmup:]
        if traced:
            res.traced_op_ms += [d * 1e3 for d in kept]
            first = res.attempted - len(durations) + 1
            for k in range(settings.warmup, len(durations)):
                res.phases.append((f"iter:{first + k}", starts[k], ends[k]))
                res.traced_ops.add(f"iter:{first + k}")
        elif res.keep_untraced(tracer is not None):
            res.op_ms += [d * 1e3 for d in kept]
            res.probe_s += state["probes"][settings.warmup:]
            res.window_s += sum(kept)
            res.images += len(kept) * config["train"]["batch_size"]
        csv_path = run_dir / "metrics.csv"
        rows = list(csv.DictReader(csv_path.open())) if csv_path.is_file() else []
        losses = [float(r["loss_total"]) for r in rows]
        res.check("one_csv_row_per_iteration", len(rows) == settings.iterations)
        res.check("loss_finite_every_iteration", all(math.isfinite(v) for v in losses))
        if losses:
            shas.append(_sha256(csv_path))
            finals.append((losses[-1], losses[0], _printed(stdout, "test_error")))

    batch_fn = save_fn = None
    traced_next = False
    while True:
        # in a traced run invocations alternate untraced/traced, untraced first
        one_invocation(abort=False, traced=traced_next)
        if tracer is not None:
            traced_next = not traced_next
        invocation += 1
        last = sum(res.op_ms[-settings.iterations:]) / 1e3 if res.op_ms else 0.0
        if res.measured_s() >= seconds - 0.5 * last and res.has_samples(tracer is not None):
            break
    while len(res.setup_s) < settings.setups:
        one_invocation(abort=True, traced=tracer is not None)
        invocation += 1

    if not finals:
        return res  # the failed checks above already mark the run
    final_loss, first_loss, test_error = finals[0]
    res.check("same_metrics_csv_every_invocation", len(set(shas)) == 1)
    res.info.update(metrics_csv_sha256=shas[0], final_loss=final_loss,
                    first_loss=first_loss, test_error=test_error,
                    iterations_per_invocation=settings.iterations,
                    invocations=invocation)
    expected = reference.get(str(seed))
    if expected is not None and expected.get("iterations") == settings.iterations:
        tol = reference["_loss_rtol"]
        res.check("final_loss_matches_reference",
                  abs(final_loss - expected["final_loss"]) <= tol * abs(expected["final_loss"]))
        res.info["metrics_csv_matches_reference"] = shas[0] == expected["metrics_csv_sha256"]
        res.info["reference"] = "seed table"
    elif settings.learns:
        # seeds outside the table: the run must still learn
        res.check("final_loss_below_first_loss", final_loss < first_loss)
        res.info["reference"] = "no entry for this seed; checked final < first loss"
    else:
        res.info["reference"] = "no entry for this seed; too few iterations to check learning"
    return res


# ---------------------------------------------------------------------------
# eval-cifar: `msn eval` of a checkpoint written during set-up


def calibrated_network(config: dict, seed: int):
    """The network whose checkpoint eval-cifar evaluates.

    Built from the seed like any network, then fitted to the test images so
    that it predicts both classes: batch-norm running statistics are set to
    those of 256 test images, and the deepest head's bias centres their
    logits. Untrained, the network predicts one class for every image in
    infer mode, so its test error would not depend on the forward arithmetic.
    """
    run_config = msn.config.RunConfig.from_dict(config)
    _, test = msn.cli.load_datasets(run_config)
    net = msn.network.build_network(run_config.network, seed)
    rng = np.random.default_rng(seed)
    images = test.images[rng.choice(len(test), 256, replace=False)]
    momentum = inspect.signature(msn.tensor.batch_norm).parameters["momentum"].default
    for buffer in net.buffers.values():
        buffer[:] = 0.0
    # one update from zero leaves (1 - momentum) times the batch statistics
    msn.network.forward_heads(net, images, mode="train", update_stats=True)
    for buffer in net.buffers.values():
        buffer /= 1.0 - momentum
    logits = msn.network.forward_heads(net, images, mode="infer")[-1].data
    net.heads[-1].fc_bias.data -= logits.mean(axis=0)
    return net


def logits_summary(logits: np.ndarray) -> dict:
    """What eval-cifar compares with the reference: a random projection of all
    deepest-head logits, their norm, and the number of near ties (images whose
    top two logits are within NEAR_TIE of the largest logit magnitude)."""
    flat = logits.astype(np.float64).ravel()
    sketch = np.random.default_rng(0).standard_normal((8, flat.size)) @ flat
    top2 = np.sort(logits, axis=1)[:, -2:]
    ties = (top2[:, 1] - top2[:, 0]) < NEAR_TIE * np.abs(logits).max()
    return {"logits_norm": float(np.linalg.norm(flat)), "logits_sketch": sketch.tolist(),
            "near_ties": int(ties.sum())}


def matches_reference(summary: dict, test_error: str, images: int, expected: dict) -> dict:
    """The eval-cifar checks against a reference entry.

    Logits may differ from the reference by LOGITS_RTOL of its norm, far more
    than reordered float32 sums move them and far less than a wrong kernel
    does. The test error may differ only by images that were near ties in the
    reference, where such a reordering can flip the prediction.
    """
    deviation = np.abs(np.subtract(summary["logits_sketch"], expected["logits_sketch"])).max()
    wrong = round(float(test_error) * images)
    wrong_ref = round(float(expected["test_error"]) * images)
    return {"logits_match_reference":
            bool(deviation <= LOGITS_RTOL * expected["logits_norm"]),
            "test_error_matches_reference": abs(wrong - wrong_ref) <= expected["near_ties"]}


def run_eval(seed: int, seconds: float, work: Path, settings: Settings,
             tracer: Tracer | None, reference: dict) -> Outcome:
    config = cifar_shape_config(test_per_class=settings.test_per_class)
    config["train"]["seed"] = seed  # the CLI derives the synthetic data from it
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config))
    ckpt_path = work / "net.ckpt"
    net = calibrated_network(config, seed)  # before the set-ups, untimed
    res = Outcome()
    calls = {"batches": [], "first_wall": None, "captured": None, "logits": []}
    digests, errors, summaries = set(), set(), []

    def on_predict(state, images, *args, **kwargs):
        if calls["first_wall"] is None:
            calls["first_wall"] = wall()
        probe = res.host.sample()
        t0 = clock()
        res.attempted += 1
        if tracer is not None:
            tracer.request = f"batch:{res.attempted}"
        preds = predict_fn(state, images, *args, **kwargs)
        calls["batches"].append((f"batch:{res.attempted}", t0, clock(), len(images), probe))
        return preds

    def on_forward(*args, **kwargs):
        logits = forward_fn(*args, **kwargs)
        calls["logits"].append(logits[-1].data.copy())  # the head predict reads
        return logits

    def on_cli_evaluate(state, dataset, *args, **kwargs):
        calls["captured"] = (state, dataset)
        return cli_evaluate_fn(state, dataset, *args, **kwargs)

    def probes(cli: bool) -> list:
        nonlocal predict_fn, forward_fn, cli_evaluate_fn
        predict_fn, forward_fn = msn.trainer.predict, msn.network.forward_heads
        replacements = [(msn.trainer, "predict", on_predict),
                        (msn.network, "forward_heads", on_forward)]
        if cli:
            cli_evaluate_fn = msn.cli.evaluate
            replacements.append((msn.cli, "evaluate", on_cli_evaluate))
        return replacements

    def record_pass(traced: bool) -> None:
        keep = traced or res.keep_untraced(tracer is not None)
        for request, a, b, n, probe in calls["batches"]:
            if not keep:
                break
            if traced:
                res.traced_op_ms.append((b - a) * 1e3)
                res.traced_ops.add(request)
                res.phases.append((request, a, b))
            else:
                res.op_ms.append((b - a) * 1e3)
                res.probe_s.append(probe)
                res.window_s += b - a
                res.images += n
        logits = np.concatenate(calls["logits"])
        digests.add(hashlib.sha256(logits.tobytes()).hexdigest())
        if not summaries:
            summaries.append(logits_summary(logits))
        calls.update(batches=[], logits=[])

    predict_fn = forward_fn = cli_evaluate_fn = None
    cli_passes = passes = 0
    traced_next = False
    while len(res.setup_s) < settings.setups:
        # set-up: write the checkpoint, then `msn eval` up to its first batch
        gc.collect()
        with maybe_traced(tracer, traced_next):
            with patched(probes(cli=True)):
                if tracer is not None:
                    tracer.request = f"setup:{cli_passes}"
                calls["first_wall"] = None
                t0 = wall()
                msn.trainer.save_checkpoint(
                    net, msn.trainer.OptimizerState.zeros_like(net.params),
                    [h.xi_state for h in net.heads], ckpt_path)
                code, stdout = _cli(["eval", "--checkpoint", ckpt_path,
                                     "--config", config_path])
        res.setup_s.append(calls["first_wall"] - t0)
        res.traced_setups += traced_next
        res.check("cli_exit_0", code == 0)
        printed = _printed(stdout, "test_error")
        res.check("test_error_printed", printed is not None)
        errors.add(printed)
        record_pass(traced_next)
        cli_passes += 1
        if tracer is not None:
            traced_next = not traced_next

    # fill the window with more passes of msn.trainer.evaluate over the same
    # network and test set that `msn eval` loaded; the garbage collector runs
    # on its own schedule, as it does in `msn eval`
    state, dataset = calls["captured"]
    while res.measured_s() < seconds or not res.has_samples(tracer is not None):
        with maybe_traced(tracer, traced_next):
            with patched(probes(cli=False)):
                if tracer is not None:
                    tracer.request = f"pass:{passes}"
                error = msn.trainer.evaluate(state, dataset)
        errors.add(f"{error:.6f}")
        record_pass(traced_next)
        passes += 1
        if tracer is not None:
            traced_next = not traced_next

    test_error = sorted(errors)[0]
    res.check("same_test_error_every_pass", len(errors) == 1)
    res.check("same_logits_every_pass", len(digests) == 1)
    res.info.update(test_error=test_error, test_images=len(dataset),
                    cli_invocations=cli_passes, **summaries[0])
    expected = reference.get(str(seed))
    if expected is not None and expected.get("test_images") == len(dataset):
        for name, ok in matches_reference(summaries[0], test_error, len(dataset),
                                          expected).items():
            res.check(name, ok)
        res.info["reference"] = "seed table"
    else:
        res.info["reference"] = "no entry for this seed; checked agreement across passes"
    return res


# ---------------------------------------------------------------------------
# gradcheck-net: tensor.grad_check on the four-head float64 resnet


def gradcheck_problem(seed: int):
    """The network, inputs and loss of `msn.verify.full_network_gradcheck`,
    restricted to the parameters in GRADCHECK_PARAMS."""
    rng = np.random.default_rng(seed + 17)
    spec = msn.network.NetworkSpec(family="resnet", depth_k=1, width_multiplier=0.25,
                                   attachment=(1, 2, 3, 4), num_classes=2,
                                   input_shape=(8, 8, 3))
    state = msn.network.build_network(spec, seed=seed, dtype=np.float64)
    images = rng.standard_normal((4, 8, 8, 3))
    labels = np.array([0, 0, 1, 1])
    xi_states = [msn.losses.XiState(initial_xi=0.05) for _ in state.heads]
    arrays = [state.params[n].data.copy() for n in GRADCHECK_PARAMS]

    def loss(*tensors):
        for name, t in zip(GRADCHECK_PARAMS, tensors):
            state.params[name] = t
        logits = msn.network.forward_heads(state, images, mode="train", update_stats=False)
        out, _, _ = msn.network.attach_msn_loss(logits, labels, xi_states, update_xi=False)
        return out

    return loss, arrays


def run_gradcheck(seed: int, seconds: float, work: Path, settings: Settings,
                  tracer: Tracer | None, reference: dict) -> Outcome:
    res = Outcome()
    for _ in range(settings.setups):
        t0 = wall()
        loss, arrays = gradcheck_problem(seed)
        res.setup_s.append(wall() - t0)

    calls = []  # (request id, start, end, probe) of every f call in one grad_check

    def probed(*tensors):
        probe = res.host.sample()
        t0 = clock()
        request = f"fd:{res.attempted + len(calls)}"
        if tracer is not None:
            tracer.request = request
        out = loss(*tensors)
        calls.append((request, t0, clock(), probe))
        return out

    worst_seen = set()
    traced_next = False
    while res.measured_s() < seconds or not res.has_samples(tracer is not None):
        calls.clear()
        with maybe_traced(tracer, traced_next):
            if tracer is not None:
                tracer.request = f"gc:{len(worst_seen)}"
            t0, probing = clock(), res.host.spent
            worst = msn.tensor.grad_check(probed, arrays)
            elapsed = clock() - t0 - (res.host.spent - probing)
        worst_seen.add(worst)
        fd_calls = calls[1:]  # the first call feeds the analytic gradient
        res.attempted += len(fd_calls)
        res.check("worst_rel_error_within_threshold", worst <= GRADCHECK_THRESHOLD)
        if traced_next:
            res.traced_op_ms += [(b - a) * 1e3 for _, a, b, _ in fd_calls]
            res.traced_ops.update(r for r, _, _, _ in fd_calls)
            res.phases += [(r, a, b) for r, a, b, _ in fd_calls]
        elif res.keep_untraced(tracer is not None):
            res.op_ms += [(b - a) * 1e3 for _, a, b, _ in fd_calls]
            res.probe_s += [probe for _, _, _, probe in fd_calls]
            res.window_s += elapsed
            res.images += 4 * len(fd_calls)
        if tracer is not None:
            traced_next = not traced_next
    res.check("same_worst_error_every_call", len(worst_seen) == 1)
    res.info.update(worst_rel_error=max(worst_seen), threshold=GRADCHECK_THRESHOLD,
                    coordinates=sum(a.size for a in arrays))
    return res


RUNNERS = {
    "train-blobs": lambda *a: run_train("train-blobs", *a),
    "train-cifar": lambda *a: run_train("train-cifar", *a),
    "eval-cifar": run_eval,
    "gradcheck-net": run_gradcheck,
}


def run(name: str, seed: int, seconds: float, work: Path, smoke: bool,
        tracer: Tracer | None, reference: dict) -> Outcome:
    settings = (SMOKE if smoke else SETTINGS)[name]
    work.mkdir(parents=True, exist_ok=True)
    try:
        return RUNNERS[name](seed, seconds, work, settings, tracer, reference.get(name, {}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
