"""Network builders and the separability-module plumbing.

Three scaled-down families share the same four-block skeleton with max
pooling between blocks:

  vgg          plain conv+relu stacks, 3 convs in block 1 and 4 in blocks 2-4,
               base widths 64/128/256/512
  resnet       a single stem conv (block 1, width 16) then three stages of K
               pre-activation residual units at widths 16/32/64
  wide-resnet  resnet with the stage widths multiplied by a widening factor

Every block in the attachment mask gets a separability head (global average
pooling + FC) on the block's output, before the pooling that follows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .losses import LogitBatch, LossBreakdown, XiState, msl_total
from .tensor import (
    Tensor,
    _result,
    _with_backward,
    accumulate_grad,
    batch_norm,
    conv2d,
    global_average_pool,
    linear,
    max_pool2,
    no_grad,
    relu,
    residual_add,
)

FAMILIES = ("vgg", "resnet", "wide-resnet")

# Named attachment configurations: which blocks carry a head.
ATTACHMENT_CONFIGS = {
    "config1": (4,),
    "config2": (3, 4),
    "config3": (2, 4),
    "config4": (1, 4),
    "config5": (2, 3, 4),
    "config6": (1, 3, 4),
    "config7": (1, 2, 3, 4),
}

VGG_WIDTHS = (64, 128, 256, 512)
VGG_CONVS_PER_BLOCK = (3, 4, 4, 4)
RESNET_STEM_WIDTH = 16
RESNET_STAGE_WIDTHS = (16, 32, 64)


def _scaled(channels: int, multiplier: float) -> int:
    scaled = int(round(channels * multiplier))
    if scaled < 1:
        raise ValueError(
            f"width multiplier {multiplier} collapses {channels} channels below 1")
    return scaled


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: family, depth, width, and head attachment."""

    family: str
    depth_k: int = 1
    width_multiplier: float = 1.0
    widen_factor: int = 10
    attachment: tuple = (4,)
    num_classes: int = 10
    input_shape: tuple = (32, 32, 3)
    num_blocks: int = 4

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.depth_k < 1:
            raise ValueError("depth_k must be at least 1")
        if self.widen_factor < 1:
            raise ValueError("widen_factor must be at least 1")
        if not (1 <= self.num_blocks <= 4):
            raise ValueError("num_blocks must be in 1..4")
        mask = tuple(sorted(set(int(b) for b in self.attachment)))
        if not mask:
            raise ValueError("attachment mask must be non-empty")
        if mask[0] < 1 or mask[-1] > self.num_blocks:
            raise ValueError(
                f"attachment mask {mask} outside blocks 1..{self.num_blocks}")
        object.__setattr__(self, "attachment", mask)
        if self.num_classes < 2:
            raise ValueError("need at least 2 classes")
        if len(self.input_shape) != 3:
            raise ValueError(
                f"input_shape must be (height, width, channels), got {self.input_shape}")
        h, w, _ = self.input_shape
        factor = 2 ** (self.num_blocks - 1)
        if h % factor or w % factor:
            raise ValueError(
                f"input {self.input_shape} not divisible by {factor} for "
                f"{self.num_blocks - 1} pooling stages")
        # channel validity is checked here so bad widths fail before building
        self.block_channels()

    def block_channels(self) -> list:
        """Output channel count of each block after width scaling."""
        w = self.width_multiplier
        if self.family == "vgg":
            return [_scaled(c, w) for c in VGG_WIDTHS[:self.num_blocks]]
        widen = self.widen_factor if self.family == "wide-resnet" else 1
        chans = [_scaled(RESNET_STEM_WIDTH, w)]
        for c in RESNET_STAGE_WIDTHS[:self.num_blocks - 1]:
            chans.append(_scaled(c * widen, w))
        return chans

    @staticmethod
    def attachment_for(name: str) -> tuple:
        if name not in ATTACHMENT_CONFIGS:
            raise ValueError(f"unknown attachment config {name!r}")
        return ATTACHMENT_CONFIGS[name]


@dataclass
class MsmHead:
    """Separability head: FC weights on a pooled block output, with its own xi."""

    attach_block: int
    fc_weight: Tensor
    fc_bias: Tensor
    xi_state: XiState


@dataclass
class NetworkState:
    """All trainable tensors plus batch-norm running buffers, by stable name.

    Names follow ``block{i}.conv{j}.kernel``, ``block{i}.unit{u}.bn1.gamma``,
    ``head{i}.fc.weight`` and so on; buffers use ``...bn.running_mean/var``.
    """

    spec: NetworkSpec
    params: dict
    buffers: dict
    heads: list
    dtype: np.dtype = np.float32

    def num_params(self) -> int:
        return sum(t.data.size for t in self.params.values())

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


def build_network(spec: NetworkSpec, seed: int,
                  dtype=np.float32,
                  xi_factory: Callable[[], XiState] = XiState) -> NetworkState:
    """Initialize all parameters for ``spec`` deterministically from ``seed``.

    Conv and FC weights draw from N(0, 2/fan_in); biases start at zero, batch
    norm at gamma=1/beta=0 with running mean 0 and variance 1.
    """
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    buffers: dict[str, np.ndarray] = {}

    def add_param(name, shape, fan_in=None):
        if fan_in is None:
            data = np.zeros(shape, dtype=dtype)
        else:
            std = np.sqrt(2.0 / fan_in)
            data = (rng.standard_normal(shape) * std).astype(dtype)
        params[name] = Tensor(data, requires_grad=True)

    def add_conv(name, kh, kw, cin, cout):
        add_param(f"{name}.kernel", (kh, kw, cin, cout), fan_in=kh * kw * cin)
        add_param(f"{name}.bias", (cout,))

    def add_bn(name, c):
        params[f"{name}.gamma"] = Tensor(np.ones(c, dtype=dtype), requires_grad=True)
        params[f"{name}.beta"] = Tensor(np.zeros(c, dtype=dtype), requires_grad=True)
        buffers[f"{name}.running_mean"] = np.zeros(c, dtype=dtype)
        buffers[f"{name}.running_var"] = np.ones(c, dtype=dtype)

    chans = spec.block_channels()
    cin = spec.input_shape[2]
    for block in range(1, spec.num_blocks + 1):
        cout = chans[block - 1]
        if spec.family == "vgg":
            for j in range(1, VGG_CONVS_PER_BLOCK[block - 1] + 1):
                add_conv(f"block{block}.conv{j}", 3, 3, cin, cout)
                cin = cout
        elif block == 1:
            add_conv("block1.conv1", 3, 3, cin, cout)
            cin = cout
        else:
            for u in range(1, spec.depth_k + 1):
                unit = f"block{block}.unit{u}"
                ucin = cin if u == 1 else cout
                add_bn(f"{unit}.bn1", ucin)
                add_conv(f"{unit}.conv1", 3, 3, ucin, cout)
                add_bn(f"{unit}.bn2", cout)
                add_conv(f"{unit}.conv2", 3, 3, cout, cout)
                if ucin != cout:
                    add_conv(f"{unit}.proj", 1, 1, ucin, cout)
            cin = cout

    heads = []
    for block in spec.attachment:
        d = chans[block - 1]
        add_param(f"head{block}.fc.weight", (d, spec.num_classes), fan_in=d)
        add_param(f"head{block}.fc.bias", (spec.num_classes,))
        heads.append(MsmHead(
            attach_block=block,
            fc_weight=params[f"head{block}.fc.weight"],
            fc_bias=params[f"head{block}.fc.bias"],
            xi_state=xi_factory(),
        ))
    return NetworkState(spec=spec, params=params, buffers=buffers, heads=heads,
                        dtype=np.dtype(dtype))


def _forward_block(state: NetworkState, x: Tensor, block: int,
                   mode: str, update_stats: bool) -> Tensor:
    spec = state.spec
    p = state.params
    b = state.buffers

    def bn(name, t):
        return batch_norm(t, p[f"{name}.gamma"], p[f"{name}.beta"],
                          b[f"{name}.running_mean"], b[f"{name}.running_var"],
                          mode=mode, update_stats=update_stats)

    if spec.family == "vgg":
        for j in range(1, VGG_CONVS_PER_BLOCK[block - 1] + 1):
            x = relu(conv2d(x, p[f"block{block}.conv{j}.kernel"],
                            p[f"block{block}.conv{j}.bias"], stride=1, pad=1))
        return x
    if block == 1:
        return conv2d(x, p["block1.conv1.kernel"], p["block1.conv1.bias"],
                      stride=1, pad=1)
    for u in range(1, spec.depth_k + 1):
        unit = f"block{block}.unit{u}"
        h = relu(bn(f"{unit}.bn1", x))
        h = conv2d(h, p[f"{unit}.conv1.kernel"], p[f"{unit}.conv1.bias"],
                   stride=1, pad=1)
        h = relu(bn(f"{unit}.bn2", h))
        h = conv2d(h, p[f"{unit}.conv2.kernel"], p[f"{unit}.conv2.bias"],
                   stride=1, pad=1)
        if f"{unit}.proj.kernel" in p:
            skip = conv2d(x, p[f"{unit}.proj.kernel"], p[f"{unit}.proj.bias"],
                          stride=1, pad=0)
        else:
            skip = x
        x = residual_add(h, skip)
    return x


def forward_heads(state: NetworkState, images, mode: str = "train",
                  update_stats: bool = True) -> list:
    """Single trunk pass; returns one logits tensor per attached head.

    Heads come back ordered by block index. The trunk is computed once and
    shared; each attached block feeds global average pooling and that head's
    FC layer. Train mode folds the batch statistics into the batch-norm
    running buffers unless ``update_stats`` is False.
    """
    spec = state.spec
    if not isinstance(images, Tensor):
        images = Tensor(np.asarray(images, dtype=state.dtype))
    if images.data.ndim != 4 or images.data.shape[1:] != tuple(spec.input_shape):
        raise ValueError(
            f"images shape {images.data.shape} does not match spec input "
            f"(N, {spec.input_shape[0]}, {spec.input_shape[1]}, {spec.input_shape[2]})")

    logits = []
    x = images
    for block in range(1, spec.num_blocks + 1):
        x = _forward_block(state, x, block, mode, update_stats)
        if block in spec.attachment:
            pooled = global_average_pool(x)
            logits.append(linear(pooled, state.params[f"head{block}.fc.weight"],
                                 state.params[f"head{block}.fc.bias"]))
        if block < spec.num_blocks:
            x = max_pool2(x)
    return logits


def msn_loss(heads: Sequence, within_weight: float = 1.0,
             distance_mode: str = "euclidean"):
    """Average the per-head combined losses into the network objective.

    ``heads`` is a sequence of (LogitBatch, XiState) pairs sharing one label
    vector. Returns (aggregate breakdown, per-head breakdowns, per-head logit
    gradients already scaled by 1/len(heads)). Pure: the thresholds are read,
    never advanced.
    """
    if not heads:
        raise ValueError("msn_loss needs at least one head")
    labels = heads[0][0].y
    for batch, _ in heads[1:]:
        if not np.array_equal(batch.y, labels):
            raise ValueError("all heads must share the same labels")

    per_head = []
    grads = []
    scale = 1.0 / len(heads)
    for batch, xi_state in heads:
        breakdown, grad = msl_total(batch, xi_state.xi,
                                    within_weight=within_weight,
                                    distance_mode=distance_mode)
        per_head.append(breakdown)
        grads.append(grad * scale)

    distance_keys = set()
    for bd in per_head:
        distance_keys.update(bd.per_class_distance)
    mean_distances = {
        j: float(np.mean([bd.per_class_distance[j] for bd in per_head
                          if j in bd.per_class_distance]))
        for j in sorted(distance_keys)
    }
    aggregate = LossBreakdown(
        between=float(np.mean([bd.between for bd in per_head])),
        within=float(np.mean([bd.within for bd in per_head])),
        total=float(np.mean([bd.total for bd in per_head])),
        per_class_distance=mean_distances,
    )
    return aggregate, per_head, grads


def attach_msn_loss(logit_tensors: Sequence, labels: np.ndarray,
                    xi_states: Sequence, within_weight: float = 1.0,
                    distance_mode: str = "euclidean", update_xi: bool = True):
    """Build the scalar loss node over the heads' logit tensors.

    Backward seeds each head's logits with its share of the averaged gradient,
    from where reverse accumulation reaches the whole trunk. This is the one
    place that advances each head's threshold with its own within-class loss,
    unless ``update_xi`` is False.
    """
    if len(logit_tensors) != len(xi_states):
        raise ValueError("one xi state per head is required")
    pairs = [(LogitBatch(q=t.data, y=labels), xi) for t, xi in zip(logit_tensors, xi_states)]
    aggregate, per_head, grads = msn_loss(pairs, within_weight=within_weight,
                                          distance_mode=distance_mode)
    if update_xi:
        for xi_state, breakdown in zip(xi_states, per_head):
            xi_state.update(breakdown.within)
    dtype = logit_tensors[0].data.dtype
    with np.errstate(over="ignore"):  # diverged losses saturate to inf, caught upstream
        value = np.asarray(aggregate.total, dtype=dtype)
    out = _result(value, logit_tensors, "msn_loss")

    def _bw():
        for t, g in zip(logit_tensors, grads):
            accumulate_grad(t, out.grad * g)

    return _with_backward(out, _bw), aggregate, per_head


def predict(state: NetworkState, images) -> np.ndarray:
    """Class indices from the deepest head's logits (ties: lowest index).

    Runs under ``no_grad``: no graph is built, so nothing outlives the call.
    """
    with no_grad():
        return forward_heads(state, images, mode="infer")[-1].data.argmax(axis=1)
