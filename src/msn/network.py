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

The forward walk (``_walk``) is the one description of each network's layout,
heads included: ``build_network`` runs it once to create the tensors in the
order it asks for them, and ``forward_heads`` runs it to get the logits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .losses import LogitBatch, LossBreakdown, XiState, msl_total
from .tensor import (
    Tensor,
    _result,
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

# Images per trunk pass in ``predict``: the batch size both shipped configs
# train at, which keeps a block's activations and im2col columns cache-sized.
PREDICT_BLOCK = 64


def _scaled(channels: int, multiplier: float) -> int:
    scaled = channels * multiplier
    if not np.isfinite(scaled):
        raise ValueError(f"width multiplier {multiplier} makes {channels} channels infinite")
    scaled = round(scaled)
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
    """Separability head on a pooled block output, with its own xi.

    Its FC tensors are ``head{b}.fc.weight`` and ``head{b}.fc.bias`` in the
    network's ``params``; the head holds no copy of them.
    """

    attach_block: int
    xi_state: XiState
    params: dict = field(repr=False, compare=False)

    @property
    def fc_bias(self) -> Tensor:
        """The FC bias as ``params`` holds it now (perfbench calibrates it)."""
        return self.params[f"head{self.attach_block}.fc.bias"]


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

    def zero_grads(self) -> None:
        for t in self.params.values():
            t.grad = None


def build_network(spec: NetworkSpec, seed: int,
                  dtype=np.float32,
                  xi_factory: Callable[[], XiState] = XiState) -> NetworkState:
    """Initialize all parameters for ``spec`` deterministically from ``seed``.

    One forward walk, under ``no_grad`` and in infer mode on a zero image of
    the smallest size the pooling stages accept, makes each tensor when the
    walk first asks for it: the trunk's, then each head's FC. Conv and FC
    weights draw from N(0, 2/fan_in); biases, beta and running means start at
    zero, gamma and running variances at one.
    """
    rng = np.random.default_rng(seed)

    def make(shape, fan_in=None, fill=0.0):
        if fan_in is None:
            return np.full(shape, fill, dtype=dtype)
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)

    params = {}
    state = NetworkState(spec=spec, params=params, buffers={}, dtype=np.dtype(dtype),
                         heads=[MsmHead(block, xi_factory(), params) for block in spec.attachment])
    side = 2 ** (spec.num_blocks - 1)
    with no_grad():
        _walk(state, Tensor(np.zeros((1, side, side, spec.input_shape[2]), dtype)),
              "infer", False, make)
    return state


def _walk(state: NetworkState, x: Tensor, mode: str, update_stats: bool,
          make: Callable | None = None) -> list:
    """The logits of each attached head, in block order, for the batch ``x``.

    This walk is the one description of the network's layout. It gets every
    tensor by name; given ``make(shape, fan_in, fill)``, it first creates each
    one that is missing, so the walk's order is the creation order. An
    attached block's output is pooled before the max pooling that follows it,
    so only (N, C) vectors wait for the heads.
    """
    spec, p, b = state.spec, state.params, state.buffers

    def get(store, name, shape, fan_in=None, fill=0.0):
        if make is not None and name not in store:
            data = make(shape, fan_in, fill)
            store[name] = data if store is b else Tensor(data, requires_grad=True)
        return store[name]

    def conv(name, t, k, cout):
        cin = t.shape[-1]
        return conv2d(t, get(p, f"{name}.kernel", (k, k, cin, cout), fan_in=k * k * cin),
                      get(p, f"{name}.bias", (cout,)), pad=k // 2)

    def bn(name, t):
        c = t.shape[-1:]
        return batch_norm(t, get(p, f"{name}.gamma", c, fill=1.0), get(p, f"{name}.beta", c),
                          get(b, f"{name}.running_mean", c),
                          get(b, f"{name}.running_var", c, fill=1.0),
                          mode=mode, update_stats=update_stats)

    def unit(name, t, cout):
        """Pre-activation residual unit; the skip is projected where the width changes."""
        h = conv(f"{name}.conv1", relu(bn(f"{name}.bn1", t)), 3, cout)
        h = conv(f"{name}.conv2", relu(bn(f"{name}.bn2", h)), 3, cout)
        skip = conv(f"{name}.proj", t, 1, cout) if t.shape[-1] != cout else t
        return residual_add(h, skip)

    pooled = {}
    for block, cout in enumerate(spec.block_channels(), 1):
        if spec.family == "vgg":
            for j in range(1, VGG_CONVS_PER_BLOCK[block - 1] + 1):
                x = relu(conv(f"block{block}.conv{j}", x, 3, cout))
        elif block == 1:
            x = conv("block1.conv1", x, 3, cout)
        else:
            for u in range(1, spec.depth_k + 1):
                x = unit(f"block{block}.unit{u}", x, cout)
        if block in spec.attachment:
            pooled[block] = global_average_pool(x)
        if block < spec.num_blocks:
            x = max_pool2(x)
    # the heads' FCs come after the whole trunk: the creation order is the
    # rng's draw order, and the trunk's tensors are drawn first
    return [linear(v, get(p, f"head{block}.fc.weight", (v.shape[-1], spec.num_classes),
                          fan_in=v.shape[-1]),
                   get(p, f"head{block}.fc.bias", (spec.num_classes,)))
            for block, v in pooled.items()]


def forward_heads(state: NetworkState, images, mode: str = "train",
                  update_stats: bool = True) -> list:
    """Single trunk pass over the image array ``images``; returns one logits
    tensor per attached head, ordered by block index.

    Train mode folds the batch statistics into the batch-norm running buffers
    unless ``update_stats`` is False.
    """
    spec = state.spec
    images = np.asarray(images, dtype=state.dtype)
    if images.ndim != 4 or images.shape[1:] != tuple(spec.input_shape):
        raise ValueError(
            f"images shape {images.shape} does not match spec input "
            f"(N, {spec.input_shape[0]}, {spec.input_shape[1]}, {spec.input_shape[2]})")
    return _walk(state, Tensor(images), mode, update_stats)


def attach_msn_loss(logit_tensors: Sequence, labels: np.ndarray,
                    xi_states: Sequence, within_weight: float = 1.0, *,
                    update_xi: bool = False):
    """Build the scalar loss node: the mean of the heads' combined losses.

    Scores each head's logits and the one ``labels`` vector with ``msl_total``
    at that head's xi, which only ``train`` advances; returns (loss node,
    aggregate, per-head breakdowns). Backward seeds each head's logits with its
    gradient / len(heads), from where reverse accumulation reaches the trunk.
    ``update_xi=True`` raises; it stays while perfbench passes it (ROADMAP item 1).
    """
    if update_xi:
        raise ValueError("attach_msn_loss does not advance xi; train updates each head's xi")
    if not logit_tensors or len(logit_tensors) != len(xi_states):
        raise ValueError(f"need at least one head and one xi state per head, got "
                         f"{len(logit_tensors)} heads and {len(xi_states)} xi states")
    per_head = []
    grads = []
    scale = 1.0 / len(logit_tensors)
    for t, xi_state in zip(logit_tensors, xi_states):
        breakdown, grad = msl_total(LogitBatch(q=t.data, y=labels), xi_state.xi,
                                    within_weight=within_weight)
        per_head.append(breakdown)
        grads.append(grad * scale)

    # one label vector gives every head the same classes, in ascending order
    mean_distances = {j: float(np.mean([bd.per_class_distance[j] for bd in per_head]))
                      for j in per_head[0].per_class_distance}
    aggregate = LossBreakdown(
        between=float(np.mean([bd.between for bd in per_head])),
        within=float(np.mean([bd.within for bd in per_head])),
        total=float(np.mean([bd.total for bd in per_head])),
        per_class_distance=mean_distances,
    )

    def _bw():
        for t, g in zip(logit_tensors, grads):
            accumulate_grad(t, out.grad * g)

    dtype = logit_tensors[0].data.dtype
    out = _result(np.asarray(aggregate.total, dtype=dtype), logit_tensors, _bw)
    return out, aggregate, per_head


def predict(state: NetworkState, images) -> np.ndarray:
    """Class indices from the deepest head's logits (ties: lowest index).

    Runs the trunk over consecutive blocks of at most PREDICT_BLOCK images,
    under ``no_grad``: no graph is built, so nothing outlives the call. Zero
    images make one empty pass, which still checks their shape.
    """
    with no_grad():
        return np.concatenate([
            forward_heads(state, images[start:start + PREDICT_BLOCK],
                          mode="infer")[-1].data.argmax(axis=1)
            for start in range(0, max(len(images), 1), PREDICT_BLOCK)])
