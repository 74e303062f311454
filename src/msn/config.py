"""Run configuration: strict JSON schema plus dataset assembly.

A run config has four top-level sections: ``network``, ``data``, ``train``,
and ``out_dir``. Each section is read into its dataclass, whose fields give
the allowed keys, the required ones, the defaults and the JSON value types.
The CLI's flags (seed, out dir, loss) replace file values as the file is read.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import types
import typing
from dataclasses import MISSING, asdict, dataclass, field
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


def _at_least_1(config, *names) -> None:
    for name in names:
        value = getattr(config, name)
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")


@dataclass(frozen=True)
class BlobsConfig:
    classes: int = 4
    train_per_class: int = 500
    test_per_class: int = 100
    image_shape: tuple = (8, 8, 1)
    separation: float = 3.0
    noise: float = 1.0

    def __post_init__(self):
        _at_least_1(self, "classes", "train_per_class", "test_per_class")


@dataclass(frozen=True)
class SubsetConfig:
    classes: tuple
    train_per_class: int
    test_per_class: int

    def __post_init__(self):
        if not self.classes or len(set(self.classes)) != len(self.classes):
            raise ValueError(f"classes must be non-empty and distinct, got {list(self.classes)}")
        _at_least_1(self, "train_per_class", "test_per_class")


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

    def __post_init__(self):
        if self.dataset not in ("blobs", "cifar10"):
            raise ValueError(f"unknown dataset {self.dataset!r}")
        if self.zca_eps <= 0:
            raise ValueError(f"zca_eps must be positive, got {self.zca_eps}")
        if self.subset is not None and self.dataset != "cifar10":
            raise ValueError(f"subset applies to cifar10, not to {self.dataset!r}")

    def resolve_data_dir(self) -> str:
        return self.data_dir or os.environ.get("MSN_DATA_DIR", "data")


_EXPECTED = {int: "an integer", float: "a number", bool: "true or false",
             str: "a string", tuple: "a list of integers"}


@functools.cache
def _schema(cls) -> dict:
    """Field name -> (type, required, nullable); ``X | None`` has type ``X``."""
    schema, hints = {}, typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        kind = hints[f.name]
        if isinstance(kind, types.UnionType):
            (kind,) = (t for t in typing.get_args(kind) if t is not type(None))
        required = f.default is MISSING and f.default_factory is MISSING
        schema[f.name] = (kind, required, f.default is None)
    return schema


def _fields(cls, section: str, given, keys: dict, also=()) -> dict:
    """Typed values for the fields of dataclass ``cls`` from the JSON object
    ``given``. ``keys`` maps keys to fields; keys in ``also`` are allowed too,
    and their values are left to the caller."""
    if type(given) is not dict:
        raise ConfigError(f"{section}: expected an object, got {json.dumps(given, default=repr)}")
    _check_keys(section, given, [*keys, *also])
    values, schema = {}, _schema(cls)
    for key, name in keys.items():
        kind, required, nullable = schema[name]
        value = given.get(key)
        if key not in given:
            if required:
                raise ConfigError(f"{section}.{key} is required")
        elif value is None and nullable:
            values[name] = None
        elif dataclasses.is_dataclass(kind):
            values[name] = _read(kind, f"{section}.{key}", value)
        elif kind is tuple and type(value) is list and all(type(v) is int for v in value):
            values[name] = tuple(value)
        elif type(value) is kind or (kind is float and type(value) is int):
            values[name] = kind(value)
        else:
            raise ConfigError(f"{section}.{key}: expected {_EXPECTED[kind]}, "
                              f"got {json.dumps(value, default=repr)}")
    return values


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError reported for ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _read(cls, section: str, given):
    """Dataclass ``cls`` from a JSON object whose keys are its fields."""
    return _build(section, cls, **_fields(cls, section, given, {n: n for n in _schema(cls)}))


# The train section is TrainConfig in another shape: the xi_* fields sit in a
# nested "xi" block under these keys, and flip_augment is data.flip. Reading
# and writing both use these two maps.
_XI_KEYS = {"initial": "xi_initial", "decay": "xi_decay", "window": "xi_window",
            "plateau_tol": "xi_plateau_tol", "floor": "xi_floor"}
_TRAIN_FIELDS = {n: n for n in _schema(TrainConfig)
                 if n not in _XI_KEYS.values() and n != "flip_augment"}


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    data: DataConfig
    train: TrainConfig
    out_dir: str | None = None

    @classmethod
    def from_dict(cls, d: dict, seed=None, out_dir=None, loss=None) -> "RunConfig":
        """The run ``d`` describes. ``seed``, ``out_dir`` and ``loss``, where
        given (the CLI's overrides), replace the file's values before the
        sections are built, so they are checked as file values are."""
        top = _fields(cls, "config", d, {"out_dir": "out_dir"}, also=("network", "data", "train"))
        if "network" not in d or "train" not in d:
            raise ConfigError("config needs 'network' and 'train' sections")
        network, train = d["network"], d["train"]
        if type(network) is dict and type(network.get("attachment")) is str:
            mask = _build("network.attachment", NetworkSpec.attachment_for, network["attachment"])
            network = {**network, "attachment": list(mask)}
        values = _fields(TrainConfig, "train", train, _TRAIN_FIELDS, also=("xi",))
        values.update(_fields(TrainConfig, "train.xi", train.get("xi", {}), _XI_KEYS))
        values.update({k: v for k, v in (("seed", seed), ("loss", loss)) if v is not None})
        if out_dir is not None:
            top["out_dir"] = out_dir
        data = _read(DataConfig, "data", d.get("data", {}))
        return cls(network=_read(NetworkSpec, "network", network), data=data,
                   train=_build("train", TrainConfig, **values, flip_augment=data.flip), **top)

    @classmethod
    def from_file(cls, path, seed=None, out_dir=None, loss=None) -> "RunConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw, seed=seed, out_dir=out_dir, loss=loss)

    def resolved_dict(self) -> dict:
        train = vars(self.train)
        return {"network": asdict(self.network), "data": asdict(self.data),
                "train": {**{k: train[n] for k, n in _TRAIN_FIELDS.items()},
                          "xi": {k: train[n] for k, n in _XI_KEYS.items()}},
                "out_dir": self.out_dir}

    def resolved_json(self) -> str:
        return json.dumps(self.resolved_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def load_datasets(config: RunConfig):
    """Materialize (train, test) per the data section, fully preprocessed.

    Blobs derive from the training seed so that loss-mode A/B runs at one seed
    share the exact dataset. CIFAR-10 is read from the resolved data dir and
    must already be fetched. The images must fit the network's input shape
    and class count. GCN and ZCA (fit on the training split) apply here;
    flips happen at batch time inside the trainer.
    """
    dc, spec = config.data, config.network
    if dc.dataset == "blobs":
        b = dc.blobs
        total = b.train_per_class + b.test_per_class
        ds = _build("data.blobs", D.synthetic_blobs, b.classes, total,
                    image_shape=b.image_shape, separation=b.separation, noise=b.noise,
                    rng=np.random.default_rng((config.train.seed, 9000)))
        # per class, the first train_per_class samples train and the next
        # test_per_class test; both splits keep class order
        per_class = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]
        train = np.concatenate([idx[:b.train_per_class] for idx in per_class])
        test = np.concatenate([idx[b.train_per_class:][:b.test_per_class] for idx in per_class])
        train, test = ds.take(train), ds.take(test)
    else:
        data_dir = dc.resolve_data_dir()
        if not D.cifar10_files_present(data_dir):
            raise ConfigError(
                f"CIFAR-10 files not found under {data_dir!r}; run "
                f"`msn fetch-data --dataset cifar10 --out {data_dir}` first")
        train, test = D.load_cifar10(data_dir)
        if dc.subset is not None:
            s = dc.subset
            train = _build("data.subset", D.subset_per_class, train, s.classes, s.train_per_class)
            test = _build("data.subset", D.subset_per_class, test, s.classes, s.test_per_class)
    if train.images.shape[1:] != spec.input_shape:
        raise ConfigError(f"data: image shape {train.images.shape[1:]} is not "
                          f"network.input_shape {spec.input_shape}")
    if train.num_classes > spec.num_classes:
        raise ConfigError(f"data: {train.num_classes} classes exceed "
                          f"network.num_classes {spec.num_classes}")

    if dc.gcn:
        train, test = (dataclasses.replace(ds, images=D.global_contrast_normalize(ds.images))
                       for ds in (train, test))
    if dc.zca:
        transform = _build("data.zca", D.zca_fit, train.images, eps=dc.zca_eps)
        train, test = (dataclasses.replace(ds, images=D.zca_apply(transform, ds.images))
                       for ds in (train, test))
    return train, test
