"""SGD-with-momentum training loop, schedules, evaluation, checkpointing,
and metrics logging.

Everything is deterministic given the config seed: per-iteration randomness
(batch composition, flip masks) derives from (seed, purpose, iteration), so a
resumed run replays the exact trajectory of an uninterrupted one.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field

import numpy as np

from . import checkpoint as ckpt
from .data import LabeledDataset, class_aware_batch_indices, random_flip
from .losses import XiConfig, XiState
from .network import NetworkSpec, NetworkState, attach_msn_loss, build_network, forward_heads, predict
from .tensor import NonFiniteError, check_finite

_TAG_EPOCH, _TAG_BATCH, _TAG_FLIP = 1, 2, 3
EVAL_BATCH = 256

CSV_HEADER = ("iteration,lr,xi_head1,xi_head2,xi_head3,xi_head4,"
              "loss_total,loss_between,loss_within,train_error,test_error")


class TrainingDivergedError(RuntimeError):
    """Non-finite loss or gradient; carries the offending iteration."""

    def __init__(self, iteration: int, what: str):
        super().__init__(f"training diverged at iteration {iteration}: {what}")
        self.iteration = iteration


@dataclass
class TrainConfig:
    iterations: int
    batch_size: int = 128
    momentum: float = 0.9
    lr: float = 0.01
    lr_decay: float = 0.9
    lr_period: int = 20_000
    eval_interval: int = 100
    batching: str = "shuffled"
    seed: int = 0
    loss: str = "msl"  # "ce" is the cross-entropy baseline: within-class weight 0
    xi: XiConfig = field(default_factory=XiConfig)

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 < self.lr_decay <= 1.0):
            raise ValueError("lr_decay must lie in (0, 1]")
        if self.lr_period < 1 or self.eval_interval < 1:
            raise ValueError("lr_period and eval_interval must be at least 1")
        if self.batching not in ("shuffled", "class-aware"):
            raise ValueError(f"unknown batching mode {self.batching!r}")
        if self.batching == "class-aware" and self.batch_size < 2:
            raise ValueError("class-aware batching needs batch_size >= 2")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.loss not in ("msl", "ce"):
            raise ValueError(f"loss must be 'msl' or 'ce', got {self.loss!r}")


@dataclass
class OptimizerState:
    """Per-parameter velocity buffers mirroring parameter shapes."""

    velocity: dict

    @classmethod
    def zeros_like(cls, params: dict) -> "OptimizerState":
        return cls(velocity={name: np.zeros_like(t.data) for name, t in params.items()})


@dataclass
class IterationRecord:
    iteration: int
    lr: float
    xi: dict  # block index -> xi used this iteration
    loss_total: float
    loss_between: float
    loss_within: float
    train_error: float
    mean_distance: float
    test_error: float | None = None


def _csv_row(r: "IterationRecord") -> str:
    xi_cols = [repr(r.xi[b]) if b in r.xi else "" for b in (1, 2, 3, 4)]
    cells = [str(r.iteration), repr(r.lr), *xi_cols,
             repr(r.loss_total), repr(r.loss_between), repr(r.loss_within),
             repr(r.train_error),
             repr(r.test_error) if r.test_error is not None else ""]
    return ",".join(cells)


def _continue_csv(path, start: int):
    """``path`` opened to append after its rows 0..start-1, which must follow
    CSV_HEADER, one whole row per iteration in order; the rows after them were
    never checkpointed and are cut. A file that does not fit, or is missing, is
    a CheckpointError, raised before a byte changes."""
    try:
        with open(path, "rb") as fh:
            lines = list(itertools.islice(fh, start + 1))
    except OSError as exc:
        raise ckpt.CheckpointError(f"{path}: cannot resume its metrics: {exc.strerror}") from exc
    if (len(lines) != start + 1 or lines[0] != f"{CSV_HEADER}\n".encode()
            or any(not line.startswith(b"%d," % i) or not line.endswith(b"\n")
                   for i, line in enumerate(lines[1:]))):
        raise ckpt.CheckpointError(
            f"{path}: does not hold the header and rows 0..{start - 1} of the resumed run")
    os.truncate(path, sum(map(len, lines)))
    return open(path, "a")


@dataclass
class TrainResult:
    """The trained network and optimizer, and one IterationRecord per iteration run."""

    state: NetworkState
    opt_state: OptimizerState
    rows: list


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, index))


def lr_schedule(config: TrainConfig, iteration: int) -> float:
    """Piecewise-constant decay: lr * decay^(iteration // period)."""
    if iteration < 0:
        raise ValueError("iteration must be non-negative")
    return config.lr * config.lr_decay ** (iteration // config.lr_period)


def sgd_momentum_step(params: dict, opt_state: OptimizerState,
                      lr: float, momentum: float) -> None:
    """v <- momentum*v - lr*g; w <- w + v, in place per parameter tensor."""
    for name, p in params.items():
        g = p.grad
        if g is None:
            continue
        check_finite(g, f"gradient for {name}")
        v = opt_state.velocity[name]
        v[...] = momentum * v - lr * g
        p.data += v


def batch_indices_for_iteration(dataset: LabeledDataset, config: TrainConfig,
                                iteration: int) -> np.ndarray:
    """Deterministic batch selection addressable by iteration number alone."""
    n = len(dataset)
    if config.batching == "class-aware":
        return class_aware_batch_indices(
            dataset, config.batch_size, _rng(config.seed, _TAG_BATCH, iteration))
    per_epoch = (n + config.batch_size - 1) // config.batch_size
    epoch, slot = divmod(iteration, per_epoch)
    perm = _rng(config.seed, _TAG_EPOCH, epoch).permutation(n)
    return perm[slot * config.batch_size:(slot + 1) * config.batch_size]


def evaluate(state: NetworkState, dataset: LabeledDataset) -> float:
    """Fraction of prediction mismatches over the dataset, in infer mode, in
    batches of EVAL_BATCH."""
    wrong = 0
    for start in range(0, len(dataset), EVAL_BATCH):
        idx = slice(start, start + EVAL_BATCH)
        preds = predict(state, dataset.images[idx])
        wrong += int((preds != dataset.labels[idx]).sum())
    return wrong / len(dataset) if len(dataset) else 0.0


def _run_state(state: NetworkState, opt_state: OptimizerState, xi_states,
               iteration) -> dict:
    """Every checkpoint tensor by name: the live parameter, buffer and velocity
    arrays, the xi of each head with an entry in ``xi_states``, packed as
    ``[xi, n, *history]``, and the iteration, a view of it if it is an array."""
    tensors = {name: t.data for name, t in state.params.items()} | state.buffers
    tensors |= {f"opt.velocity.{name}": v for name, v in opt_state.velocity.items()}
    for head, xi in zip(state.heads, xi_states):
        tensors[f"xi.head{head.attach_block}.state"] = np.array(
            [xi.xi, len(xi.history), *xi.history], dtype=np.float64)
    tensors["meta.iteration"] = np.asarray(iteration, dtype=np.float64).reshape(1)
    return tensors


def save_checkpoint(state: NetworkState, opt_state: OptimizerState,
                    xi_states, path, iteration: int = 0) -> None:
    """All parameters, buffers, velocities, xi states, and the iteration."""
    ckpt.write_tensors(path, _run_state(state, opt_state, xi_states, iteration))


def load_checkpoint(path, spec: NetworkSpec, xi_factory=XiState) -> tuple:
    """Rebuild (NetworkState, OptimizerState, iteration) from a checkpoint that
    holds exactly what ``save_checkpoint`` writes for ``spec``, or raise
    CheckpointError."""
    stored = ckpt.read_tensors(path)
    state = build_network(spec, seed=0, xi_factory=xi_factory)
    opt_state, iteration = OptimizerState.zeros_like(state.params), np.zeros(1)
    fixed = _run_state(state, opt_state, [], iteration)  # all but the xi states
    live = _run_state(state, opt_state, [h.xi_state for h in state.heads], iteration)
    if stored.keys() != live.keys():
        raise ckpt.CheckpointError(
            f"checkpoint does not match the network: missing {sorted(live.keys() - stored.keys())}"
            f", unexpected {sorted(stored.keys() - live.keys())}")
    for name, array in fixed.items():
        if stored[name].shape != array.shape:
            raise ckpt.CheckpointError(
                f"{name}: checkpoint shape {stored[name].shape} vs network {array.shape}")
        array[...] = stored[name]
    for head, name in zip(state.heads, [key for key in live if key not in fixed]):
        packed, history = stored[name], head.xi_state.history
        n = len(packed) - 2
        if packed.ndim != 1 or not 0 <= n <= history.maxlen or packed[1] != n:
            raise ckpt.CheckpointError(f"{name}: not [xi, n, *history] with n <= "
                                       f"{history.maxlen} history values")
        if not (0 < packed[0] < np.inf and np.isfinite(packed[2:]).all()):
            raise ckpt.CheckpointError(f"{name}: xi {packed[0]} is not finite and positive, "
                                       f"or a history value is not finite")
        head.xi_state.xi = float(packed[0])
        history.extend(packed[2:].tolist())
    if not (iteration[0] >= 0 and float(iteration[0]).is_integer()):
        raise ckpt.CheckpointError(f"stored iteration {iteration[0]} is not a count")
    return state, opt_state, int(iteration[0])


def train(config: TrainConfig, spec: NetworkSpec, dataset: LabeledDataset,
          eval_dataset: LabeledDataset | None = None,
          resume_path=None, csv_path=None, flip: bool = False) -> TrainResult:
    """Run the full loop: batch, augment, forward, loss, backward, step, xi, log.

    With ``flip`` each image of each batch is mirrored with probability 0.5.
    With ``resume_path`` the loop continues from the checkpointed iteration on
    the identical trajectory. With ``csv_path`` the metrics stream to disk,
    flushed at evaluation intervals. A fresh run writes the file anew. A run
    resumed at iteration k appends to it, so it ends as an uninterrupted run's
    would: the file must hold the header and then rows 0..k-1, checked by
    each row's first cell; rows after those are cut, and a file that is
    missing or holds fewer rows or another header raises CheckpointError and
    is left as it was. ``rows`` of the result holds only the iterations this
    call ran.
    """
    if len(dataset) == 0:
        raise ValueError("training dataset is empty")
    if resume_path is not None:
        state, opt_state, start = load_checkpoint(
            resume_path, spec, xi_factory=config.xi.state)
    else:
        state = build_network(spec, config.seed, xi_factory=config.xi.state)
        opt_state = OptimizerState.zeros_like(state.params)
        start = 0

    rows = []
    csv_file = None
    if csv_path is not None and resume_path is not None:
        csv_file = _continue_csv(csv_path, start)
    elif csv_path is not None:
        csv_file = open(csv_path, "w")
        csv_file.write(CSV_HEADER + "\n")

    try:
        for it in range(start, config.iterations):
            idx = batch_indices_for_iteration(dataset, config, it)
            images = dataset.images[idx]
            labels = dataset.labels[idx]
            if flip:
                images = random_flip(images, _rng(config.seed, _TAG_FLIP, it))

            xi_used = {h.attach_block: h.xi_state.xi for h in state.heads}
            lr = lr_schedule(config, it)
            state.zero_grads()
            # non-finite arithmetic stays silent: check_finite reports it once,
            # as TrainingDivergedError
            with np.errstate(over="ignore", invalid="ignore"):
                try:
                    logits = forward_heads(state, images, mode="train")
                    loss, aggregate, per_head = attach_msn_loss(
                        logits, labels, [h.xi_state for h in state.heads],
                        within_weight=0.0 if config.loss == "ce" else 1.0)
                    check_finite(loss.data, "loss")
                    loss.backward()
                    sgd_momentum_step(state.params, opt_state, lr, config.momentum)
                except NonFiniteError as exc:
                    raise TrainingDivergedError(it, str(exc)) from exc
            for head, breakdown in zip(state.heads, per_head):
                head.xi_state.update(breakdown.within)

            train_error = float(
                (logits[-1].data.argmax(axis=1) != labels).mean())
            test_error = None
            if eval_dataset is not None and (it + 1) % config.eval_interval == 0:
                test_error = evaluate(state, eval_dataset)

            row = IterationRecord(
                iteration=it, lr=lr, xi=xi_used,
                loss_total=float(aggregate.total),
                loss_between=float(aggregate.between),
                loss_within=float(aggregate.within),
                train_error=train_error,
                mean_distance=aggregate.mean_distance(),
                test_error=test_error)
            rows.append(row)
            if csv_file is not None:
                csv_file.write(_csv_row(row) + "\n")
                if (it + 1) % config.eval_interval == 0:
                    csv_file.flush()
    finally:
        if csv_file is not None:
            csv_file.close()
    return TrainResult(state=state, opt_state=opt_state, rows=rows)
