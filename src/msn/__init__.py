"""Desk-scale CNN training kit built around the mixture separability loss:
a between-class cross-entropy term plus a within-class pairwise-distance
squared hinge, attachable as pooling+FC heads at multiple network blocks."""

from .losses import (
    LogitBatch,
    LossBreakdown,
    XiState,
    between_class_loss,
    msl_total,
    pair_count,
    softmax_probs,
    within_class_loss,
)
from .network import (
    ATTACHMENT_CONFIGS,
    MsmHead,
    NetworkSpec,
    NetworkState,
    attach_msn_loss,
    build_network,
    forward_heads,
    msn_loss,
    predict,
)
from .tensor import Tensor, grad_check
from .trainer import TrainConfig, TrainLog, evaluate, lr_schedule, train

__all__ = [
    "ATTACHMENT_CONFIGS",
    "LogitBatch",
    "LossBreakdown",
    "MsmHead",
    "NetworkSpec",
    "NetworkState",
    "Tensor",
    "TrainConfig",
    "TrainLog",
    "XiState",
    "attach_msn_loss",
    "between_class_loss",
    "build_network",
    "evaluate",
    "forward_heads",
    "grad_check",
    "lr_schedule",
    "msl_total",
    "msn_loss",
    "pair_count",
    "predict",
    "softmax_probs",
    "train",
    "within_class_loss",
]
