"""Config schema strictness, dataset assembly, and the CLI contract
(subcommands, outputs, exit codes)."""

import argparse
import builtins
import copy
import csv
import dataclasses
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msn import checkpoint as ckpt
from msn import cli, trainer
from msn.cli import main
from msn import data as D
from msn.config import ConfigError, RunConfig, load_datasets
from msn.network import build_network
from msn.trainer import OptimizerState, evaluate, save_checkpoint
from msn.verify import CheckResult, gradcheck_suite, invariant_suite, oracle_suite

from test_data import tar_cifar_files, traced_peak, write_cifar_files


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def minimal_config(**train_overrides):
    train = {"iterations": 8, "batch_size": 9, "batching": "class-aware",
             "eval_interval": 4, "seed": 0, "xi": {"window": 4}}
    train.update(train_overrides)
    return {
        "network": {"family": "vgg", "width_multiplier": 1 / 32,
                    "attachment": [2], "num_classes": 3,
                    "input_shape": [8, 8, 1], "num_blocks": 2},
        "data": {"dataset": "blobs", "gcn": False, "zca": False, "flip": False,
                 "blobs": {"classes": 3, "train_per_class": 30,
                           "test_per_class": 10, "image_shape": [8, 8, 1],
                           "separation": 6.0}},
        "train": train,
    }


def write_config(tmp_path, cfg, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def shipped_config(name):
    return json.loads((CONFIGS / name).read_text())


# The exact config.resolved.json written for configs/blobs_small.json. Every
# run directory records its config in this form, so any change shows here.
BLOBS_SMALL_RESOLVED = """\
{
  "data": {
    "blobs": {
      "classes": 4,
      "image_shape": [
        8,
        8,
        1
      ],
      "separation": 3.0,
      "test_per_class": 100,
      "train_per_class": 500
    },
    "data_dir": null,
    "dataset": "blobs",
    "flip": false,
    "gcn": false,
    "subset": null,
    "zca": false,
    "zca_eps": 0.01
  },
  "network": {
    "attachment": [
      1,
      2
    ],
    "depth_k": 1,
    "family": "vgg",
    "input_shape": [
      8,
      8,
      1
    ],
    "num_blocks": 2,
    "num_classes": 4,
    "widen_factor": 10,
    "width_multiplier": 0.0625
  },
  "train": {
    "batch_size": 64,
    "batching": "class-aware",
    "eval_interval": 100,
    "iterations": 2000,
    "loss": "msl",
    "lr": 0.01,
    "lr_decay": 0.9,
    "lr_period": 20000,
    "momentum": 0.9,
    "seed": 0,
    "xi": {
      "decay": 0.9,
      "floor": 0.0001,
      "initial": 0.5,
      "plateau_tol": 0.001,
      "window": 100
    }
  }
}
"""

# The exact config.resolved.json written for configs/cifar_subset.json; it
# pins how a subset, zca_eps and a resnet spec are written.
CIFAR_SUBSET_RESOLVED = """\
{
  "data": {
    "blobs": {
      "classes": 4,
      "image_shape": [
        8,
        8,
        1
      ],
      "separation": 3.0,
      "test_per_class": 100,
      "train_per_class": 500
    },
    "data_dir": null,
    "dataset": "cifar10",
    "flip": true,
    "gcn": true,
    "subset": {
      "classes": [
        0,
        1
      ],
      "test_per_class": 100,
      "train_per_class": 500
    },
    "zca": true,
    "zca_eps": 0.01
  },
  "network": {
    "attachment": [
      4
    ],
    "depth_k": 1,
    "family": "resnet",
    "input_shape": [
      32,
      32,
      3
    ],
    "num_blocks": 4,
    "num_classes": 2,
    "widen_factor": 10,
    "width_multiplier": 0.5
  },
  "train": {
    "batch_size": 64,
    "batching": "class-aware",
    "eval_interval": 500,
    "iterations": 3000,
    "loss": "msl",
    "lr": 0.01,
    "lr_decay": 0.9,
    "lr_period": 20000,
    "momentum": 0.9,
    "seed": 0,
    "xi": {
      "decay": 0.9,
      "floor": 0.0001,
      "initial": 0.5,
      "plateau_tol": 0.001,
      "window": 100
    }
  }
}
"""

def subset(classes, dataset="cifar10"):
    """Mutation: train on ``dataset`` subset to ``classes``, 2 train and 1 test image each."""
    return lambda d: d["data"].update(dataset=dataset, subset={
        "classes": classes, "train_per_class": 2, "test_per_class": 1})


def cifar_shaped_config():
    """configs/cifar_subset.json on synthetic blobs of CIFAR shape: 1,000
    training and 200 test images of 32x32x3."""
    raw = shipped_config("cifar_subset.json")
    del raw["data"]["subset"]
    raw["data"].update(dataset="blobs", blobs={"classes": 2, "train_per_class": 500,
                                               "test_per_class": 100,
                                               "image_shape": [32, 32, 3]})
    return raw


# Each value has the wrong JSON type or is out of range for its field.
BAD_VALUES = [
    pytest.param(lambda d: d["train"].update(batch_size=9.7), "train.batch_size",
                 id="train.batch_size=9.7"),
    pytest.param(lambda d: d["train"].update(iterations=True), "train.iterations",
                 id="train.iterations=true"),
    pytest.param(lambda d: d["train"].update(lr="0.1"), "train.lr", id="train.lr='0.1'"),
    pytest.param(lambda d: d["train"].update(seed=0.5), "train.seed", id="train.seed=0.5"),
    pytest.param(lambda d: d["train"].update(xi=[]), "train.xi", id="train.xi=[]"),
    pytest.param(lambda d: d["train"].update(loss="hinge"), "train: loss",
                 id="train.loss=hinge"),
    pytest.param(lambda d: d["train"]["xi"].update(window=0), "window",
                 id="train.xi.window=0"),
    pytest.param(lambda d: d["train"]["xi"].update(floor=-1), "floor",
                 id="train.xi.floor=-1"),
    pytest.param(lambda d: d["train"]["xi"].update(plateau_tol=-1), "plateau_tol",
                 id="train.xi.plateau_tol=-1"),
    pytest.param(lambda d: d["network"].update(num_classes="3"), "network.num_classes",
                 id="network.num_classes='3'"),
    pytest.param(lambda d: d["network"].update(width_multiplier="x"),
                 "network.width_multiplier", id="network.width_multiplier='x'"),
    pytest.param(lambda d: d["network"].update(attachment=5), "network.attachment",
                 id="network.attachment=5"),
    pytest.param(lambda d: d["network"].update(attachment="config9"), "network.attachment",
                 id="network.attachment=config9"),
    pytest.param(lambda d: d["network"].update(input_shape=[8, 8]), "input_shape",
                 id="network.input_shape=[8,8]"),
    pytest.param(lambda d: d["network"].update(attachment=[4]), "outside blocks 1..2",
                 id="network.attachment=[4]"),
    pytest.param(lambda d: d["data"]["blobs"].update(classes=True), "data.blobs.classes",
                 id="data.blobs.classes=true"),
    pytest.param(lambda d: d["data"].update(subset={"classes": [0, 1], "train_per_class": 2.5,
                                                    "test_per_class": 1}),
                 "data.subset.train_per_class", id="data.subset.train_per_class=2.5"),
    pytest.param(lambda d: d["train"].update(batch_size=1), "train: class-aware",
                 id="train.batch_size=1-class-aware"),
    *(pytest.param(lambda d, k=key, v=value: d["data"]["blobs"].update({k: v}),
                   f"data.blobs: {key}", id=f"data.blobs.{key}={value}")
      for key, value in [("classes", 0), ("train_per_class", 0), ("train_per_class", -1),
                         ("test_per_class", -5)]),
    *(pytest.param(lambda d, v=v: d["data"].update(zca_eps=v), "data: zca_eps",
                   id=f"data.zca_eps={v}") for v in (0, -1)),
    pytest.param(subset([0, 1], dataset="blobs"), "data: subset", id="data.subset-on-blobs"),
    pytest.param(subset([0, 0]), "data.subset: classes", id="data.subset.classes=[0,0]"),
    pytest.param(subset([]), "data.subset: classes", id="data.subset.classes=[]"),
    pytest.param(lambda d: d["train"]["xi"].update(initial=float("nan")),
                 "train.xi.initial: expected a finite number, got NaN", id="train.xi.initial=NaN"),
    pytest.param(lambda d: d["train"].update(lr=float("nan")),
                 "train.lr: expected a finite number, got NaN", id="train.lr=NaN"),
    pytest.param(lambda d: d["data"].update(zca_eps=float("inf")),
                 "data.zca_eps: expected a finite number, got Infinity",
                 id="data.zca_eps=Infinity"),
    pytest.param(lambda d: d["data"]["blobs"].update(separation=float("nan")),
                 "data.blobs.separation: expected a finite number, got NaN",
                 id="data.blobs.separation=NaN"),
    pytest.param(lambda d: d["network"].update(width_multiplier=1e308),
                 "network: width multiplier 1e+308 makes 64 channels infinite",
                 id="network.width_multiplier=1e308"),
    pytest.param(lambda d: d["train"]["xi"].update(window=2 ** 62),
                 f"train.xi: xi window must lie in [1, {2 ** 62 - 1}], got {2 ** 62}",
                 id="train.xi.window=2**62"),
]

# Each config parses, but its data cannot be built or does not fit the network.
BAD_DATA = [
    pytest.param(lambda d: d["data"]["blobs"].update(separation=0), "separation",
                 id="data.blobs.separation=0"),
    pytest.param(lambda d: d["data"]["blobs"].update(image_shape=[8, 8, 3]),
                 "input_shape", id="data.blobs.image_shape=[8,8,3]"),
    pytest.param(lambda d: d["data"]["blobs"].update(classes=4), "num_classes",
                 id="data.blobs.classes=4"),
    pytest.param(lambda d: (d["data"].update(zca=True),
                            d["data"]["blobs"].update(classes=1, train_per_class=1)),
                 "data.zca: need at least 2 samples", id="data.zca-one-image"),
]

# Each key is one that its section does not have.
UNKNOWN_KEYS = [
    pytest.param(lambda d: d.update(extra=1), "extra", id="extra"),
    pytest.param(lambda d: d["network"].update(bogus=2), "bogus", id="network.bogus"),
    pytest.param(lambda d: d["data"].update(crop=True), "crop", id="data.crop"),
    pytest.param(lambda d: d["data"]["blobs"].update(spin=3), "spin", id="data.blobs.spin"),
    pytest.param(lambda d: d["train"]["xi"].update(ceiling=9), "ceiling", id="train.xi.ceiling"),
    *(pytest.param(lambda d, k=key, v=value: d["train"].update({k: v}), key, id=f"train.{key}")
      for key, value in [("warmup", 5), ("lr_warmup", 1), ("within_weight", 0.5),
                         ("distance_mode", "euclidean")]),
    # keys a run config had until they left it; a run directory written then holds them
    pytest.param(lambda d: d.update(out_dir="runs/x"), "out_dir", id="out_dir"),
    *(pytest.param(lambda d, k=key: d["data"].update({k: None}), key, id=f"data.{key}")
      for key in ("url", "sha256")),
    pytest.param(lambda d: d["data"]["blobs"].update(noise=1.0), "noise", id="data.blobs.noise"),
]


@pytest.fixture
def cifar_dir(tmp_path, monkeypatch):
    """A full-size CIFAR-10 directory, named by MSN_DATA_DIR, of sparse files:
    every record is zero bytes, so every image is black and of class 0."""
    data_dir = tmp_path / "cifar"
    write_cifar_files(data_dir)
    monkeypatch.setenv("MSN_DATA_DIR", str(data_dir))
    return data_dir


class TestConfigSchema:
    def test_required_fields(self):
        raw = minimal_config()
        del raw["train"]["iterations"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)
        raw = minimal_config()
        del raw["network"]["family"]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_named_attachment_config(self):
        raw = minimal_config()
        raw["network"].update(attachment="config7", num_blocks=4,
                              input_shape=[16, 16, 1])
        cfg = RunConfig.from_dict(raw)
        assert cfg.network.attachment == (1, 2, 3, 4)

    def test_overrides(self):
        out = RunConfig.from_dict(minimal_config(), seed=5, loss="ce")
        assert out.train.seed == 5
        assert out.train.loss == "ce"
        with pytest.raises(ConfigError, match="loss"):
            RunConfig.from_dict(minimal_config(), loss="hinge")

    @pytest.mark.parametrize("raw", [
        minimal_config(), shipped_config("blobs_small.json"), shipped_config("cifar_subset.json"),
    ], ids=["minimal", "blobs_small", "cifar_subset"])
    def test_resolved_json_reparses_to_same(self, raw):
        cfg = RunConfig.from_dict(raw)
        again = RunConfig.from_dict(json.loads(cfg.resolved_json()))
        assert again == cfg
        assert again.resolved_json() == cfg.resolved_json()

    @pytest.mark.parametrize("mutate,message", [
        (lambda d: d.pop("network"), "network is required"),
        (lambda d: d.pop("train"), "train is required"),
        (lambda d: d.update(train=[]), "train: expected an object, got []"),
    ], ids=["no-network", "no-train", "train=[]"])
    def test_missing_or_malformed_section_is_named(self, mutate, message):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert str(exc.value) == message

    def test_blobs_small_resolved_json_is_pinned(self):
        path = CONFIGS / "blobs_small.json"
        assert RunConfig.from_file(path).resolved_json() == BLOBS_SMALL_RESOLVED

    def test_cifar_subset_resolved_json_is_pinned(self):
        path = CONFIGS / "cifar_subset.json"
        assert RunConfig.from_file(path).resolved_json() == CIFAR_SUBSET_RESOLVED

    def test_readme_documents_every_config_key(self):
        # a key counts as documented when its name, bare or behind any of its
        # section prefixes, is a backticked span of the Configuration section
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
        spans = set(re.findall(r"`([^`]+)`", section))

        def undocumented(d, path=()):
            for key, value in d.items():
                names = [".".join((*path, key)[i:]) for i in range(len(path) + 1)]
                if not spans.intersection(names):
                    yield names[0]
                if isinstance(value, dict):
                    yield from undocumented(value, (*path, key))

        resolved = RunConfig.from_file(CONFIGS / "cifar_subset.json").resolved_dict()
        assert list(undocumented(resolved)) == []

    def test_readme_documents_every_cli_flag(self):
        # a flag counts as documented when it is in a backticked span or a
        # fenced code block anywhere in the README
        readme = (ROOT / "README.md").read_text()
        fence = re.compile(r"^```.*?^```$", re.M | re.S)
        spans = re.findall(r"`([^`]+)`", fence.sub("", readme))
        documented = "\n".join(fence.findall(readme) + spans)
        (commands,) = [action.choices for action in cli.build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction)]
        undocumented = [f"{command} {flag}" for command, parser in commands.items()
                        for action in parser._actions for flag in action.option_strings
                        if flag.startswith("--") and flag != "--help"
                        and not re.search(re.escape(flag) + r"(?![\w-])", documented)]
        assert undocumented == []

    # The CLI test runs these tables too, but its exit 1 cannot tell which
    # layer refused the config; these pin the refusal to the config reader.
    @pytest.mark.parametrize("mutate,needle", BAD_VALUES)
    def test_bad_values_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert needle in str(exc.value)

    @pytest.mark.parametrize("mutate,needle", UNKNOWN_KEYS)
    def test_unknown_keys_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert needle in str(exc.value)


def field_paths(cls, prefix=()):
    """The key path of every field of the dataclass ``cls``, nested sections
    and their fields included."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        path = (*prefix, f.name)
        yield path
        kind = next((t for t in typing.get_args(hints[f.name]) if t is not type(None)),
                    hints[f.name])
        if dataclasses.is_dataclass(kind):
            yield from field_paths(kind, path)


def float_values(config):
    """The value of every float field of ``config`` and of its sections."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            yield from float_values(value)
        elif type(value) is float:
            yield value


# Wrong JSON types, the non-finite floats, and numbers past the float or the
# index range.
ODD_VALUES = ["x", True, 1.5, float("nan"), float("inf"), -float("inf"), 1e308,
              2 ** 62, 2 ** 63, {}, []]


def edited_config(name, edits):
    """The shipped config ``name`` with each (key path, value) of ``edits``
    set; a missing or non-object section on the path becomes an object."""
    raw = shipped_config(name)
    for path, value in edits:
        doc = raw
        for key in path[:-1]:
            if type(doc.get(key)) is not dict:
                doc[key] = {}
            doc = doc[key]
        doc[path[-1]] = copy.deepcopy(value)
    return raw


def check_reader(name, edits):
    """The edited config is refused with ConfigError, and nothing else, or
    read with every float field finite."""
    try:
        config = RunConfig.from_dict(edited_config(name, edits))
    except ConfigError:
        return
    assert all(math.isfinite(v) for v in float_values(config)), edits


SHIPPED = ["blobs_small.json", "cifar_subset.json"]
FIELD_PATHS = list(field_paths(RunConfig))


def test_reader_on_each_single_edit():
    for name in SHIPPED:
        for path in FIELD_PATHS:
            for value in ODD_VALUES:
                check_reader(name, [(path, value)])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(name=st.sampled_from(SHIPPED),
       edits=st.lists(st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(ODD_VALUES)),
                      min_size=1, max_size=3))
def test_reader_on_up_to_three_edits(name, edits):
    check_reader(name, edits)


class TestLoadDatasets:
    def test_blob_splits_and_shapes(self):
        cfg = RunConfig.from_dict(minimal_config())
        train, test = load_datasets(cfg)
        assert len(train) == 90 and len(test) == 30
        assert train.images.shape[1:] == (8, 8, 1)
        for c in range(3):
            assert (train.labels == c).sum() == 30
            assert (test.labels == c).sum() == 10

    def test_same_seed_shares_dataset_across_losses(self):
        msl_cfg = RunConfig.from_dict(minimal_config())
        ce_cfg = RunConfig.from_dict(minimal_config(), loss="ce")
        a, _ = load_datasets(msl_cfg)
        b, _ = load_datasets(ce_cfg)
        np.testing.assert_array_equal(a.images, b.images)

    def test_different_seeds_differ(self):
        base = RunConfig.from_dict(minimal_config())
        a, _ = load_datasets(base)
        b, _ = load_datasets(RunConfig.from_dict(minimal_config(), seed=9))
        assert not np.array_equal(a.images, b.images)

    def test_gcn_zca_chain_applies(self):
        raw = minimal_config()
        raw["data"]["gcn"] = True
        raw["data"]["zca"] = True
        cfg = RunConfig.from_dict(raw)
        train, test = load_datasets(cfg)
        # GCN then ZCA leaves per-image means near zero
        assert abs(train.images.reshape(len(train), -1).mean()) < 0.2

    def test_cifar_shaped_load_peak(self):
        # 14 MiB of float32 output; whole-split float64 copies in GCN and
        # whitening took the peak to 158 MiB, ROW_BLOCK-image blocks to 83
        (train, test), peak = traced_peak(load_datasets, RunConfig.from_dict(cifar_shaped_config()))
        assert len(train) == 1000 and len(test) == 200
        assert peak < 100 * 2 ** 20

    def test_cifar_subset_converts_only_the_kept_images(self, cifar_dir):
        # converting all 50,000 training images to float32 took the peak to
        # 791 MiB; the split's uint8 records alone are 147 MiB
        raw = shipped_config("cifar_subset.json")
        raw["data"]["subset"]["classes"] = [0]
        (train, test), peak = traced_peak(load_datasets, RunConfig.from_dict(raw))
        assert len(train) == 500 and len(test) == 100
        assert peak < 1.25 * len(D.CIFAR10_TRAIN_FILES) * D.CIFAR10_FILE_BYTES

    def test_missing_cifar_reports_config_error(self, tmp_path):
        raw = minimal_config()
        raw["data"] = {"dataset": "cifar10", "data_dir": str(tmp_path / "nope")}
        with pytest.raises(ConfigError):
            load_datasets(RunConfig.from_dict(raw))

    @pytest.mark.parametrize("mutate,needle", BAD_DATA)
    def test_bad_data_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        cfg = RunConfig.from_dict(raw)
        with pytest.raises(ConfigError) as exc:
            load_datasets(cfg)
        assert needle in str(exc.value)


class TestCliFetch:
    def test_fetch_then_already_verified(self, tmp_path, capsys):
        archive, expected = tar_cifar_files(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        dest = tmp_path / "data"
        code = run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 0
        assert "fetched and verified" in capsys.readouterr().out
        assert all((dest / rel).stat().st_size == size for rel, size in expected)
        # second call must not touch the (now dead) source
        code = run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                        "--url", (tmp_path / "dead.tar.gz").as_uri(),
                        "--sha256", digest])
        assert code == 0
        assert "already verified" in capsys.readouterr().out

    def test_upper_case_digest_verifies(self, tmp_path, capsys):
        archive, _ = tar_cifar_files(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest().upper()
        dest = tmp_path / "data"
        for printed in ("fetched and verified", "already verified"):
            assert run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                            "--url", archive.as_uri(), "--sha256", digest]) == 0
            assert printed in capsys.readouterr().out
            assert (dest / "cifar10.tar.gz").is_file()

    @pytest.mark.parametrize("stamp", [b'{"sha25', b"[]", b"null", b"\xff"],
                             ids=["torn", "list", "null", "not-utf8"])
    def test_unreadable_stamp_is_verified_again(self, tmp_path, monkeypatch, capsys, stamp):
        archive, expected = tar_cifar_files(tmp_path, records_per_file=2)
        monkeypatch.setattr(D, "CIFAR10_EXPECTED", expected)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        dest = tmp_path / "data"
        argv = ["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                "--url", archive.as_uri(), "--sha256", digest]
        assert run_cli(argv) == 0
        (dest / ".verified-cifar10").write_bytes(stamp)
        capsys.readouterr()
        # the archive kept in dest is verified again; the source is not read
        argv[argv.index("--url") + 1] = (tmp_path / "dead.tar.gz").as_uri()
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == f"fetched and verified: {dest}\n"
        assert json.loads((dest / ".verified-cifar10").read_text())["sha256"] == digest

    def test_undersized_extraction_exits_2(self, tmp_path):
        archive, _ = tar_cifar_files(tmp_path, records_per_file=2)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "data"),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 2

    def test_default_destination_is_msn_data_dir(self, tmp_path, monkeypatch, capsys):
        archive, _ = tar_cifar_files(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MSN_DATA_DIR", str(tmp_path / "d"))
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 0
        assert capsys.readouterr().out == f"fetched and verified: {tmp_path / 'd'}\n"
        assert (tmp_path / "d" / ".verified-cifar10").is_file()
        assert not (tmp_path / "data").exists()

    def test_unknown_dataset_is_usage_error(self):
        assert run_cli(["fetch-data", "--dataset", "mnist", "--out", "x"]) == 1

    def test_tampered_archive_exits_2(self, tmp_path, capsys):
        archive, _ = tar_cifar_files(tmp_path, records_per_file=2)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        raw = bytearray(archive.read_bytes())
        raw[10] ^= 0xFF
        archive.write_bytes(bytes(raw))
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "d"),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and digest in err[0]

    def test_unusable_out_dir_exits_1(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "data"
        assert run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(out),
                        "--url", (tmp_path / "missing.tar.gz").as_uri(),
                        "--sha256", "0" * 64]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot create data directory {out}: Not a directory"]

    def test_unreachable_url_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(D.time, "sleep", lambda seconds: None)
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "d"),
                        "--url", (tmp_path / "missing.tar.gz").as_uri(),
                        "--sha256", "0" * 64])
        assert code == 3


class TestCliTrainEval:
    def test_train_writes_outputs_and_is_deterministic(self, tmp_path, capsys):
        # the run directory's name is not part of the run: both write the same bytes
        config_path = write_config(tmp_path, minimal_config())
        runs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(["train", "--config", str(config_path), "--out", str(out)])
            assert code == 0
            runs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert sorted(runs[0]) == ["config.resolved.json", "final.ckpt", "metrics.csv"]
        assert runs[0] == runs[1]

    def test_loss_flag_forces_zero_weight(self, tmp_path):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "ce"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out),
                        "--loss", "ce"]) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["train"]["loss"] == "ce"
        rows = list(csv.DictReader((out / "metrics.csv").open()))
        assert len(rows) == resolved["train"]["iterations"]
        for row in rows:
            assert row["loss_within"] == "0.0"
            assert row["loss_total"] == row["loss_between"]

    def test_negative_seed_flag_exits_1_without_run_dir(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out),
                        "--seed", "-1"]) == 1
        assert not out.exists()
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("make,message", [
        (lambda path: None, "cannot read config {}: No such file or directory"),
        (lambda path: path.mkdir(), "cannot read config {}: Is a directory"),
        (lambda path: path.write_bytes(b"\xff\xfe{}"), "{}: invalid JSON ('utf-8' codec "
         "can't decode byte 0xff in position 0: invalid start byte)"),
    ], ids=["missing", "directory", "not-utf8"])
    def test_missing_config_exits_1(self, tmp_path, capsys, make, message):
        config_path, out = tmp_path / "run.json", tmp_path / "out"
        make(config_path)
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: " + message.format(config_path)]

    @pytest.mark.parametrize("under", ["file", "file/run", "file/a/run", "dangling"])
    def test_unusable_out_dir_exits_1(self, tmp_path, capsys, monkeypatch, under):
        monkeypatch.setattr(cli, "load_datasets", lambda *a, **k: pytest.fail("data loaded"))
        config_path = write_config(tmp_path, minimal_config())
        (tmp_path / "file").write_text("")
        (tmp_path / "dangling").symlink_to(tmp_path / "target")
        out = tmp_path / under
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write run directory {out}: Not a directory"]
        assert (tmp_path / "file").read_text() == ""
        assert not os.path.lexists(tmp_path / "target")

    @pytest.mark.parametrize("unwritable", ["metrics.csv", "final.ckpt"])
    def test_write_error_in_run_dir_exits_1(self, tmp_path, capsys, monkeypatch, unwritable):
        if unwritable == "final.ckpt":
            def write_tensors(path, tensors):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            monkeypatch.setattr(ckpt, "write_tensors", write_tensors)
            reason = "No space left on device"
        else:
            # the trainer opens the run directory itself in metrics.csv's place
            monkeypatch.setattr(trainer, "open", lambda path, *a: builtins.open(path.parent, *a),
                                raising=False)
            reason = "Is a directory"
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(write_config(tmp_path, minimal_config())),
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write run directory {out}: {reason}"]
        assert not (out / "final.ckpt").exists()

    def test_finished_run_is_not_overwritten(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == ["config.resolved.json", "final.ckpt", "metrics.csv"]
        capsys.readouterr()
        assert run_cli(["train", "--config", str(config_path), "--out", str(out),
                        "--seed", "1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / 'config.resolved.json'} exists: "
                       "msn train does not overwrite a run"]
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize("dangling", [False, True], ids=["file", "dangling-link"])
    @pytest.mark.parametrize("name", ["config.resolved.json", "metrics.csv", "final.ckpt"])
    def test_any_run_file_refuses_before_loading_data(self, tmp_path, capsys, monkeypatch,
                                                       name, dangling):
        monkeypatch.setattr(cli, "load_datasets", lambda *a, **k: pytest.fail("data loaded"))
        out, target = tmp_path / "run", tmp_path / "target"
        out.mkdir()
        if dangling:
            (out / name).symlink_to(target)
        else:
            (out / name).write_bytes(b"earlier")
        assert run_cli(["train", "--config", str(write_config(tmp_path, minimal_config())),
                        "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {out / name} exists: msn train does not overwrite a run"]
        assert [path.name for path in out.iterdir()] == [name]
        assert not os.path.lexists(target)
        if not dangling:
            assert (out / name).read_bytes() == b"earlier"

    @pytest.mark.parametrize("section", ["top", "train"])
    def test_repeated_key_exits_1(self, tmp_path, capsys, section):
        raw = minimal_config()
        text = json.dumps(raw)
        if section == "top":
            text = '{"network": %s, %s' % (json.dumps(raw["network"]), text[1:])
            key = "network"
        else:
            text = text.replace('"iterations": 8', '"iterations": 5, "iterations": 2')
            key = "iterations"
        config_path, out = tmp_path / "run.json", tmp_path / "out"
        config_path.write_text(text)
        with pytest.raises(ConfigError, match=f"repeated key '{key}'"):
            RunConfig.from_file(config_path)
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {config_path}: repeated key '{key}'"]

    @pytest.mark.parametrize("mutate,needle", BAD_VALUES + BAD_DATA + UNKNOWN_KEYS)
    def test_bad_config_exits_1_without_run_dir(self, tmp_path, capsys, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(write_config(tmp_path, raw)),
                        "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and needle in err[0]

    def test_subset_shortfall_exits_1_without_run_dir(self, tmp_path, capsys, cifar_dir):
        # the all-zero records of cifar_dir hold no image of class 1; kept out
        # of BAD_DATA so the full-size read runs once, not once per parameter
        self.test_bad_config_exits_1_without_run_dir(
            tmp_path, capsys, subset([0, 1]), "data.subset: class 1 has only 0 samples")

    def test_eval_prints_error_and_repeats(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        values = []
        for _ in range(2):
            assert run_cli(["eval", "--checkpoint", str(out / "final.ckpt")]) == 0
            printed = capsys.readouterr().out.strip()
            assert printed.startswith("test_error=")
            assert len(printed.split("=")[1].split(".")[1]) == 6
            values.append(printed)
        assert values[0] == values[1]

    def test_eval_whitens_only_the_test_split(self, tmp_path, capsys, monkeypatch):
        raw = minimal_config()
        raw["data"].update(gcn=True, zca=True)
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(write_config(tmp_path, raw)),
                        "--out", str(out)]) == 0
        _, want = load_datasets(RunConfig.from_file(out / "config.resolved.json"))
        evaluated, whitened = [], []
        zca_apply = D.zca_apply

        def recording_evaluate(state, dataset):
            evaluated.append(dataset)
            return evaluate(state, dataset)

        def recording_zca_apply(transform, images):
            whitened.append(len(images))
            return zca_apply(transform, images)

        monkeypatch.setattr("msn.cli.evaluate", recording_evaluate)
        monkeypatch.setattr(D, "zca_apply", recording_zca_apply)
        assert run_cli(["eval", "--checkpoint", str(out / "final.ckpt")]) == 0
        assert whitened == [len(want)]
        (got,) = evaluated
        assert got.images.dtype == want.images.dtype
        assert got.images.tobytes() == want.images.tobytes()
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_eval_corrupted_checkpoint_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        ckpt = out / "final.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[0:4] = b"XXXX"
        ckpt.write_bytes(bytes(raw))
        assert run_cli(["eval", "--checkpoint", str(ckpt)]) == 2

    def test_eval_corrupt_tensor_name_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        ckpt = out / "final.ckpt"
        raw = bytearray(ckpt.read_bytes())
        raw[12] = 0xFF  # first byte of the first tensor's name
        ckpt.write_bytes(bytes(raw))
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_eval_reads_checkpoint_before_building_datasets(self, tmp_path, capsys,
                                                            monkeypatch):
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        ckpt = out / "final.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-5])

        def no_datasets(config):
            pytest.fail("datasets built before the checkpoint was read")

        monkeypatch.setattr("msn.cli.load_datasets", no_datasets)
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", str(ckpt)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    def test_eval_loads_with_the_runs_xi_window(self, tmp_path, capsys):
        # 201 losses fit window 150's history of 300, not the default's 200
        config_path = write_config(tmp_path, minimal_config(iterations=201, xi={"window": 150}))
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", str(out / "final.ckpt")]) == 0
        assert capsys.readouterr().out.startswith("test_error=")

    def test_eval_of_a_run_with_removed_keys_names_them(self, tmp_path, capsys):
        # config.resolved.json as it was written while the run config held
        # out_dir, data.url, data.sha256 and data.blobs.noise
        config_path = write_config(tmp_path, minimal_config())
        out = tmp_path / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 0
        resolved = out / "config.resolved.json"
        old = json.loads(resolved.read_text())
        old["out_dir"] = str(out)
        old["data"].update(url=None, sha256=None)
        old["data"]["blobs"]["noise"] = 1.0
        resolved.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
        capsys.readouterr()
        assert run_cli(["eval", "--checkpoint", str(out / "final.ckpt")]) == 1
        assert capsys.readouterr().err == "error: unknown key(s) in config: ['out_dir']\n"
        assert run_cli(["eval", "--checkpoint", str(out / "final.ckpt"),
                        "--config", str(config_path)]) == 0
        assert capsys.readouterr().out.startswith("test_error=")

    @pytest.mark.parametrize("make,reason", [
        (lambda path: None, "No such file or directory"),
        (lambda path: path.mkdir(), "Is a directory"),
    ], ids=["missing", "directory"])
    def test_eval_missing_checkpoint_exits_2(self, tmp_path, capsys, make, reason):
        ckpt = tmp_path / "final.ckpt"
        make(ckpt)
        code = run_cli(["eval", "--config", str(CONFIGS / "blobs_small.json"),
                        "--checkpoint", str(ckpt)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot open checkpoint {ckpt}: {reason}"]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_diverging_run_exits_4_naming_the_iteration(self, tmp_path, capsys):
        # overflow in the diverging arithmetic must not warn: the one error
        # line is the whole report
        raw = shipped_config("blobs_small.json")
        raw["train"].update(lr=1e30, iterations=5)
        code = run_cli(["train", "--config", str(write_config(tmp_path, raw)),
                        "--out", str(tmp_path / "run")])
        assert code == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: training diverged at iteration 1:")

    @pytest.mark.parametrize("command", ["train", "eval", "eval --data-dir"])
    def test_malformed_cifar_batch_exits_2_without_run_dir(self, tmp_path, capsys, monkeypatch,
                                                           cifar_dir, command):
        with open(cifar_dir / D.CIFAR10_TRAIN_FILES[0], "r+b") as fh:
            fh.write(b"\xff")  # label byte of the first record
        raw = shipped_config("cifar_subset.json")
        if command == "eval --data-dir":
            # only the flag names the malformed data: not the config, not the environment
            monkeypatch.setenv("MSN_DATA_DIR", str(tmp_path / "elsewhere"))
        else:
            raw["data"]["data_dir"] = str(cifar_dir)
        config_path = str(write_config(tmp_path, raw))
        out = tmp_path / "run"
        if command == "train":
            argv = ["train", "--config", config_path, "--out", str(out)]
        else:
            # eval reads the checkpoint first, so give it a valid one to reach the data
            net = build_network(RunConfig.from_dict(raw).network, seed=0)
            ckpt = tmp_path / "final.ckpt"
            save_checkpoint(net, OptimizerState.zeros_like(net.params),
                            [h.xi_state for h in net.heads], ckpt)
            argv = ["eval", "--config", config_path, "--checkpoint", str(ckpt)]
            if command == "eval --data-dir":
                argv += ["--data-dir", str(cifar_dir)]
        assert run_cli(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "label byte 255 > 9" in err[0]
        assert not out.exists()

    def test_default_out_dir_is_fresh_per_run(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config_path = write_config(tmp_path, minimal_config())
        assert run_cli(["train", "--config", str(config_path)]) == 0
        assert run_cli(["train", "--config", str(config_path)]) == 0
        runs = list((tmp_path / "runs").iterdir())
        assert len(runs) == 2
        # the resolved config of a run written to --out does not name that
        # directory, so training from it without --out takes a fresh one too
        named = tmp_path / "named"
        assert run_cli(["train", "--config", str(config_path), "--out", str(named)]) == 0
        assert run_cli(["train", "--config", str(named / "config.resolved.json")]) == 0
        assert len(list((tmp_path / "runs").iterdir())) == 3


class TestCliVerify:
    def test_suites_pass_with_pinned_check_names(self):
        # every check but the full-network one, which run_suites appends to
        # the gradcheck suite; dropping or reordering a check fails here
        results = gradcheck_suite(0) + oracle_suite(0) + invariant_suite(0)
        assert [r.name for r in results] == [
            "gradcheck/conv2d", "gradcheck/relu", "gradcheck/max_pool2",
            "gradcheck/global_average_pool", "gradcheck/linear",
            "gradcheck/batch_norm_train", "gradcheck/batch_norm_infer",
            "gradcheck/residual_add", "gradcheck/msl_vs_logits",
            "oracle/conv2d_vs_loops", "oracle/max_pool2_vs_loops", "oracle/linear_vs_loops",
            "oracle/global_average_pool_vs_mean", "oracle/softmax_vs_direct",
            "oracle/between_class_vs_direct", "oracle/within_class_vs_all_pairs",
            "oracle/max_pool2_grad_vs_loops", "oracle/conv2d_input_grad_vs_loops",
            "oracle/batch_norm_vs_loops",
            "invariant/singleton_batch_reduces_to_ce", "invariant/head_averaging",
            "invariant/permutation_invariance", "invariant/class_shift_distance",
            "invariant/xi_forced_plateau_sequence", "invariant/lr_schedule_shape",
            "invariant/momentum_unrolled_recurrence", "invariant/non_negative_losses",
        ]
        assert all(r.passed for r in results), [r.line() for r in results if not r.passed]

    def test_a_nan_check_fails_and_exits_5(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_suites", lambda which, seed: [
            CheckResult("check/nan", float("nan"), 1e-6), CheckResult("check/ok", 0.0, 1e-6)])
        assert run_cli(["verify"]) == 5
        assert capsys.readouterr().out.splitlines() == [
            "check/nan worst_err=nan threshold=1.0e-06 FAIL",
            "check/ok worst_err=0.000e+00 threshold=1.0e-06 PASS",
            "1/2 checks passed",
        ]

    def test_python_dash_m_msn_runs_the_cli(self):
        path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-m", "msn", "verify", "--suite", "invariants"],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": path})
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "8/8 checks passed"

    def test_unknown_suite_is_usage_error(self):
        assert run_cli(["verify", "--suite", "bogus"]) == 1

    def test_negative_seed_is_usage_error(self, capsys):
        assert run_cli(["verify", "--seed", "-1"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be non-negative, got -1"]
