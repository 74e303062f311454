"""Run configuration: strict JSON schema plus dataset assembly.

A run config has three sections: ``network``, ``data`` and ``train``. The
file has the shape of RunConfig and is read into it recursively: each
dataclass's fields give the allowed keys of its object, the required ones, the
defaults and the JSON value types, and ``asdict`` writes it back. The CLI's
flags (seed, loss) replace file values before the read.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
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


def _unique_keys(path, pairs: list) -> dict:
    """One JSON object of the file ``path``; a repeated key, of which
    ``json.loads`` would keep the last value, is an error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"{path}: repeated key {key!r}")
        obj[key] = value
    return obj


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


def _build(section: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, its ValueError reported for ``section``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def _read(cls, section: str, given):
    """Dataclass ``cls`` from the JSON object ``given``, whose keys are its
    fields; a field of dataclass type is read from a nested object.
    ``section`` is the object's dotted key in messages, "" for the config."""
    where = section or "config"
    if type(given) is not dict:
        raise ConfigError(f"{where}: expected an object, got {json.dumps(given, default=repr)}")
    schema = _schema(cls)
    _check_keys(where, given, schema)
    values = {}
    for name, (kind, required, nullable) in schema.items():
        key, value = f"{section}.{name}" if section else name, given.get(name)
        if name not in given:
            if required:
                raise ConfigError(f"{key} is required")
        elif value is None and nullable:
            values[name] = None
        elif dataclasses.is_dataclass(kind):
            values[name] = _read(kind, key, value)
        elif kind is tuple and type(value) is list and all(type(v) is int for v in value):
            values[name] = tuple(value)
        elif kind is float and type(value) in (int, float):
            if not abs(value) <= sys.float_info.max:  # NaN, an infinity, past float range
                raise ConfigError(f"{key}: expected a finite number, got {json.dumps(value)}")
            values[name] = float(value)
        elif type(value) is kind:
            values[name] = value
        else:
            raise ConfigError(f"{key}: expected {_EXPECTED[kind]}, "
                              f"got {json.dumps(value, default=repr)}")
    return _build(where, cls, **values)


@dataclass(frozen=True)
class RunConfig:
    network: NetworkSpec
    train: TrainConfig
    data: DataConfig = field(default_factory=DataConfig)

    @classmethod
    def from_dict(cls, d: dict, seed=None, loss=None) -> "RunConfig":
        """The run ``d`` describes. ``seed`` and ``loss``, where given (the
        CLI's overrides), replace the file's values before it is read, so
        they are checked as file values are. A named ``network.attachment``
        is replaced by its list of blocks."""
        if type(d) is dict:
            d = dict(d)
            overrides = {k: v for k, v in (("seed", seed), ("loss", loss)) if v is not None}
            if type(d.get("train")) is dict:
                d["train"] = {**d["train"], **overrides}
            network = d.get("network")
            if type(network) is dict and type(network.get("attachment")) is str:
                mask = _build("network.attachment", NetworkSpec.attachment_for,
                              network["attachment"])
                d["network"] = {**network, "attachment": list(mask)}
        return _read(cls, "", d)

    @classmethod
    def from_file(cls, path, seed=None, loss=None) -> "RunConfig":
        path = Path(path)
        try:
            raw = json.loads(path.read_text(encoding="utf-8"),
                             object_pairs_hook=functools.partial(_unique_keys, path))
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc.strerror}") from exc
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(raw, seed=seed, loss=loss)

    def resolved_dict(self) -> dict:
        return asdict(self)

    def resolved_json(self) -> str:
        return json.dumps(self.resolved_dict(), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# dataset assembly
# ---------------------------------------------------------------------------

def load_datasets(config: RunConfig, *, test_only: bool = False):
    """Materialize (train, test) per the data section, fully preprocessed.

    Blobs derive from the training seed so that loss-mode A/B runs at one seed
    share the exact dataset. CIFAR-10 is read from ``D.data_root()`` and must
    already be fetched. The images must fit the network's input shape
    and class count. GCN and ZCA (fit on the training split) apply here;
    flips happen at batch time inside the trainer. With ``test_only`` the
    training split is still built to fit ZCA on, but only the test split is
    whitened and returned, with None in the training split's place.
    """
    dc, spec = config.data, config.network
    if dc.dataset == "blobs":
        b = dc.blobs
        total = b.train_per_class + b.test_per_class
        ds = _build("data.blobs", D.synthetic_blobs, b.classes, total,
                    image_shape=b.image_shape, separation=b.separation,
                    rng=np.random.default_rng((config.train.seed, 9000)))
        # per class, the first train_per_class samples train and the next
        # test_per_class test; both splits keep class order
        per_class = [np.flatnonzero(ds.labels == c) for c in range(ds.num_classes)]
        train = np.concatenate([idx[:b.train_per_class] for idx in per_class])
        test = np.concatenate([idx[b.train_per_class:][:b.test_per_class] for idx in per_class])
        train, test = ds.take(train), ds.take(test)
    else:
        data_dir = D.data_root()
        if not D.cifar10_files_present(data_dir):
            raise ConfigError(
                f"CIFAR-10 files not found under {data_dir!r}; run "
                f"`msn fetch-data --dataset cifar10 --out {data_dir}` first")
        s = dc.subset
        subset = None if s is None else (s.classes, s.train_per_class, s.test_per_class)
        train, test = _build("data.subset", D.load_cifar10, data_dir, subset)
    if train.images.shape[1:] != spec.input_shape:
        raise ConfigError(f"data: image shape {train.images.shape[1:]} is not "
                          f"network.input_shape {spec.input_shape}")
    if train.num_classes > spec.num_classes:
        raise ConfigError(f"data: {train.num_classes} classes exceed "
                          f"network.num_classes {spec.num_classes}")

    if dc.gcn:
        train, test = (dataclasses.replace(ds, images=D.global_contrast_normalize(ds.images))
                       for ds in (train, test))
    kept = (test,) if test_only else (train, test)
    if dc.zca:
        transform = _build("data.zca", D.zca_fit, train.images, eps=dc.zca_eps)
        kept = tuple(dataclasses.replace(ds, images=D.zca_apply(transform, ds.images))
                     for ds in kept)
    return (None, *kept) if test_only else kept
