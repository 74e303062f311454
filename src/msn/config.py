"""Run configuration: strict JSON schema plus dataset assembly.

A run config has four top-level sections: ``network``, ``data``, ``train``,
and ``out_dir``. Unknown keys anywhere are rejected before any compute
starts. Flags (seed, out dir, loss mode) override file values at the CLI.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import data as D
from .network import NetworkSpec
from .trainer import TrainConfig


class ConfigError(ValueError):
    """Bad configuration; the message names the offending key."""


def _check_keys(section: str, given: dict, allowed) -> None:
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) in {section}: {unknown}")


def _take(section: str, given: dict, key: str, default, kind=None):
    value = given.get(key, default)
    if kind is not None and value is not None and not isinstance(value, kind):
        raise ConfigError(f"{section}.{key}: expected {kind}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class BlobsConfig:
    classes: int = 4
    train_per_class: int = 500
    test_per_class: int = 100
    image_shape: tuple = (8, 8, 1)
    separation: float = 3.0
    noise: float = 1.0

    @classmethod
    def from_dict(cls, d: dict) -> "BlobsConfig":
        _check_keys("data.blobs", d, ["classes", "train_per_class", "test_per_class",
                                      "image_shape", "separation", "noise"])
        base = cls()
        return cls(
            classes=int(_take("data.blobs", d, "classes", base.classes, int)),
            train_per_class=int(_take("data.blobs", d, "train_per_class",
                                      base.train_per_class, int)),
            test_per_class=int(_take("data.blobs", d, "test_per_class",
                                     base.test_per_class, int)),
            image_shape=tuple(_take("data.blobs", d, "image_shape",
                                    list(base.image_shape), list)),
            separation=float(_take("data.blobs", d, "separation",
                                   base.separation, (int, float))),
            noise=float(_take("data.blobs", d, "noise", base.noise, (int, float))),
        )


@dataclass(frozen=True)
class SubsetConfig:
    classes: tuple
    train_per_class: int
    test_per_class: int

    @classmethod
    def from_dict(cls, d: dict) -> "SubsetConfig":
        _check_keys("data.subset", d, ["classes", "train_per_class", "test_per_class"])
        if "classes" not in d or "train_per_class" not in d or "test_per_class" not in d:
            raise ConfigError("data.subset needs classes, train_per_class, test_per_class")
        return cls(classes=tuple(int(c) for c in d["classes"]),
                   train_per_class=int(d["train_per_class"]),
                   test_per_class=int(d["test_per_class"]))


@dataclass(frozen=True)
class DataConfig:
    dataset: str = "blobs"
    data_dir: str | None = None
    url: str | None = None
    sha256: str | None = None
    gcn: bool = True
    zca: bool = True
    zca_eps: float = 1e-2
    flip: bool = True
    blobs: BlobsConfig = field(default_factory=BlobsConfig)
    subset: SubsetConfig | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "DataConfig":
        _check_keys("data", d, ["dataset", "data_dir", "url", "sha256", "gcn", "zca",
                                "zca_eps", "flip", "blobs", "subset"])
        dataset = _take("data", d, "dataset", "blobs", str)
        if dataset not in ("blobs", "cifar10"):
            raise ConfigError(f"data.dataset: unknown dataset {dataset!r}")
        return cls(
            dataset=dataset,
            data_dir=_take("data", d, "data_dir", None, str),
            url=_take("data", d, "url", None, str),
            sha256=_take("data", d, "sha256", None, str),
            gcn=bool(_take("data", d, "gcn", True, bool)),
            zca=bool(_take("data", d, "zca", True, bool)),
            zca_eps=float(_take("data", d, "zca_eps", 1e-2, (int, float))),
            flip=bool(_take("data", d, "flip", True, bool)),
            blobs=BlobsConfig.from_dict(_take("data", d, "blobs", {}, dict)),
            subset=(SubsetConfig.from_dict(d["subset"])
                    if d.get("subset") is not None else None),
        )

    def resolve_data_dir(self) -> str:
        return self.data_dir or os.environ.get("MSN_DATA_DIR", "data")


_NETWORK_KEYS = ["family", "depth_k", "width_multiplier", "widen_factor",
                 "attachment", "num_classes", "input_shape", "num_blocks"]

_TRAIN_KEYS = ["iterations", "batch_size", "momentum", "lr", "lr_decay", "lr_period",
               "eval_interval", "batching", "seed", "loss", "within_weight",
               "distance_mode", "xi"]

_XI_KEYS = ["initial", "decay", "window", "plateau_tol", "floor"]


def _network_from_dict(d: dict) -> NetworkSpec:
    _check_keys("network", d, _NETWORK_KEYS)
    if "family" not in d:
        raise ConfigError("network.family is required")
    kwargs = dict(d)
    attachment = kwargs.get("attachment", [4])
    if isinstance(attachment, str):
        kwargs["attachment"] = NetworkSpec.attachment_for(attachment)
    else:
        kwargs["attachment"] = tuple(int(b) for b in attachment)
    kwargs["input_shape"] = tuple(kwargs.get("input_shape", (32, 32, 3)))
    try:
        return NetworkSpec(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"network: {exc}") from exc


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    data: DataConfig
    train_section: dict
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        _check_keys("config", d, ["network", "data", "train", "out_dir"])
        if "network" not in d or "train" not in d:
            raise ConfigError("config needs 'network' and 'train' sections")
        train = dict(d["train"])
        _check_keys("train", train, _TRAIN_KEYS)
        if "iterations" not in train:
            raise ConfigError("train.iterations is required")
        xi = dict(train.get("xi", {}))
        _check_keys("train.xi", xi, _XI_KEYS)
        loss = train.get("loss", "msl")
        if loss not in ("msl", "ce"):
            raise ConfigError(f"train.loss: expected 'msl' or 'ce', got {loss!r}")
        return cls(
            network=_network_from_dict(dict(d.get("network", {}))),
            data=DataConfig.from_dict(dict(d.get("data", {}))),
            train_section=train,
            out_dir=_take("config", d, "out_dir", None, str),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        return cls.from_dict(raw)

    def with_overrides(self, seed=None, out_dir=None, loss=None) -> "RunConfig":
        train = dict(self.train_section)
        if seed is not None:
            train["seed"] = int(seed)
        if loss is not None:
            if loss not in ("msl", "ce"):
                raise ConfigError(f"loss override must be 'msl' or 'ce', got {loss!r}")
            train["loss"] = loss
        return RunConfig(network=self.network, data=self.data, train_section=train,
                         out_dir=out_dir if out_dir is not None else self.out_dir)

    @property
    def loss_mode(self) -> str:
        return self.train_section.get("loss", "msl")

    def to_train_config(self) -> TrainConfig:
        t = self.train_section
        xi = t.get("xi", {})
        weight = float(t.get("within_weight", 1.0))
        if self.loss_mode == "ce":
            weight = 0.0
        try:
            return TrainConfig(
                iterations=int(t["iterations"]),
                batch_size=int(t.get("batch_size", 128)),
                momentum=float(t.get("momentum", 0.9)),
                lr=float(t.get("lr", 0.01)),
                lr_decay=float(t.get("lr_decay", 0.9)),
                lr_period=int(t.get("lr_period", 20_000)),
                eval_interval=int(t.get("eval_interval", 100)),
                batching=t.get("batching", "shuffled"),
                seed=int(t.get("seed", 0)),
                within_weight=weight,
                distance_mode=t.get("distance_mode", "euclidean"),
                xi_initial=float(xi.get("initial", 0.5)),
                xi_decay=float(xi.get("decay", 0.9)),
                xi_window=int(xi.get("window", 100)),
                xi_plateau_tol=float(xi.get("plateau_tol", 1e-3)),
                xi_floor=float(xi.get("floor", 1e-4)),
                flip_augment=self.data.flip,
            )
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"train: {exc}") from exc

    def resolved_dict(self) -> dict:
        cfg = self.to_train_config()
        return {
            "network": asdict(self.network),
            "data": asdict(self.data),
            "train": {
                "iterations": cfg.iterations, "batch_size": cfg.batch_size,
                "momentum": cfg.momentum, "lr": cfg.lr, "lr_decay": cfg.lr_decay,
                "lr_period": cfg.lr_period, "eval_interval": cfg.eval_interval,
                "batching": cfg.batching, "seed": cfg.seed,
                "loss": self.loss_mode, "within_weight": cfg.within_weight,
                "distance_mode": cfg.distance_mode,
                "xi": {"initial": cfg.xi_initial, "decay": cfg.xi_decay,
                       "window": cfg.xi_window, "plateau_tol": cfg.xi_plateau_tol,
                       "floor": cfg.xi_floor},
            },
            "out_dir": self.out_dir,
        }

    def resolved_json(self) -> str:
        return json.dumps(self.resolved_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def split_blobs(ds: D.LabeledDataset, train_per_class: int, test_per_class: int):
    """Per class, the first ``train_per_class`` samples train and the next
    ``test_per_class`` test; both splits keep class order."""
    train_idx, test_idx = [], []
    for c in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == c)
        train_idx.append(idx[:train_per_class])
        test_idx.append(idx[train_per_class:train_per_class + test_per_class])
    train = ds.take(np.concatenate(train_idx))
    test = ds.take(np.concatenate(test_idx))
    return (D.LabeledDataset(train.images, train.labels, ds.num_classes, "train"),
            D.LabeledDataset(test.images, test.labels, ds.num_classes, "test"))


def load_datasets(config: RunConfig):
    """Materialize (train, test) per the data section, fully preprocessed.

    Blobs derive from the training seed so that loss-mode A/B runs at one seed
    share the exact dataset. CIFAR-10 is read from the resolved data dir and
    must already be fetched. GCN and ZCA (fit on the training split) apply
    here; flips happen at batch time inside the trainer.
    """
    dc = config.data
    seed = config.to_train_config().seed
    if dc.dataset == "blobs":
        b = dc.blobs
        total = b.train_per_class + b.test_per_class
        ds = D.synthetic_blobs(b.classes, total, image_shape=b.image_shape,
                               separation=b.separation, noise=b.noise,
                               rng=np.random.default_rng((seed, 9000)))
        train, test = split_blobs(ds, b.train_per_class, b.test_per_class)
    else:
        data_dir = dc.resolve_data_dir()
        if not D.cifar10_files_present(data_dir):
            raise ConfigError(
                f"CIFAR-10 files not found under {data_dir!r}; run "
                f"`msn fetch-data --dataset cifar10 --out {data_dir}` first")
        train, test = D.load_cifar10(data_dir)
        if dc.subset is not None:
            train = D.subset_per_class(train, dc.subset.classes, dc.subset.train_per_class)
            test = D.subset_per_class(test, dc.subset.classes, dc.subset.test_per_class)

    if dc.gcn:
        train = D.LabeledDataset(D.global_contrast_normalize(train.images),
                                 train.labels, train.num_classes, "train")
        test = D.LabeledDataset(D.global_contrast_normalize(test.images),
                                test.labels, test.num_classes, "test")
    if dc.zca:
        transform = D.zca_fit(train.images, eps=dc.zca_eps)
        train = D.LabeledDataset(D.zca_apply(transform, train.images),
                                 train.labels, train.num_classes, "train")
        test = D.LabeledDataset(D.zca_apply(transform, test.images),
                                test.labels, test.num_classes, "test")
    return train, test
