"""Config schema strictness, dataset assembly, and the CLI contract
(subcommands, outputs, exit codes)."""

import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from msn.cli import main
from msn import data as D
from msn.config import ConfigError, RunConfig, load_datasets
from msn.network import build_network
from msn.trainer import OptimizerState, TrainConfig, evaluate, save_checkpoint
from msn.verify import gradcheck_suite, invariant_suite, oracle_suite

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
      "noise": 1.0,
      "separation": 3.0,
      "test_per_class": 100,
      "train_per_class": 500
    },
    "data_dir": null,
    "dataset": "blobs",
    "flip": false,
    "gcn": false,
    "sha256": null,
    "subset": null,
    "url": null,
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
  "out_dir": null,
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
      "noise": 1.0,
      "separation": 3.0,
      "test_per_class": 100,
      "train_per_class": 500
    },
    "data_dir": null,
    "dataset": "cifar10",
    "flip": true,
    "gcn": true,
    "sha256": null,
    "subset": {
      "classes": [
        0,
        1
      ],
      "test_per_class": 100,
      "train_per_class": 500
    },
    "url": null,
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
  "out_dir": null,
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


@pytest.fixture
def cifar_dir(tmp_path, monkeypatch):
    """A full-size CIFAR-10 directory, named by MSN_DATA_DIR, of sparse files:
    every record is zero bytes, so every image is black and of class 0."""
    data_dir = tmp_path / "cifar"
    write_cifar_files(data_dir)
    monkeypatch.setenv("MSN_DATA_DIR", str(data_dir))
    return data_dir


class TestConfigSchema:
    def test_minimal_parses(self):
        cfg = RunConfig.from_dict(minimal_config())
        assert cfg.network.family == "vgg"
        assert cfg.train.iterations == 8

    @pytest.mark.parametrize("mutate,needle", [
        (lambda d: d.update(extra=1), "extra"),
        (lambda d: d["network"].update(bogus=2), "bogus"),
        (lambda d: d["train"].update(lr_warmup=1), "lr_warmup"),
        (lambda d: d["train"]["xi"].update(ceiling=9), "ceiling"),
        (lambda d: d["data"].update(crop=True), "crop"),
        (lambda d: d["data"]["blobs"].update(spin=3), "spin"),
        (lambda d: d["train"].update(within_weight=0.5), "within_weight"),
        (lambda d: d["train"].update(distance_mode="euclidean"), "distance_mode"),
    ])
    def test_unknown_keys_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert needle in str(exc.value)

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

    def test_unknown_loss_rejected_by_name(self):
        with pytest.raises(ValueError, match="loss"):
            TrainConfig(iterations=1, loss="hinge")
        with pytest.raises(ConfigError, match="loss"):
            RunConfig.from_dict(minimal_config(loss="hinge"))
        with pytest.raises(ConfigError, match="loss"):
            RunConfig.from_dict(minimal_config(), loss="hinge")

    def test_overrides(self):
        out = RunConfig.from_dict(minimal_config(), seed=5, loss="ce", out_dir="x")
        assert out.train.seed == 5
        assert out.train.loss == "ce"
        assert out.out_dir == "x"

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

    @pytest.mark.parametrize("mutate,needle", BAD_VALUES)
    def test_bad_values_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(raw)
        assert needle in str(exc.value)

    def test_bad_network_reported_as_config_error(self):
        raw = minimal_config()
        raw["network"]["attachment"] = [4]  # outside 2 blocks
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)


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

    @pytest.mark.parametrize("mutate,needle", BAD_DATA)
    def test_bad_data_rejected_by_name(self, mutate, needle):
        raw = minimal_config()
        mutate(raw)
        with pytest.raises(ConfigError) as exc:
            load_datasets(RunConfig.from_dict(raw))
        assert needle in str(exc.value)

    def test_missing_cifar_reports_config_error(self, tmp_path):
        raw = minimal_config()
        raw["data"] = {"dataset": "cifar10", "data_dir": str(tmp_path / "nope")}
        with pytest.raises(ConfigError):
            load_datasets(RunConfig.from_dict(raw))


class TestCliFetch:
    def test_fetch_then_already_verified(self, tmp_path, capsys):
        archive, _ = tar_cifar_files(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        dest = tmp_path / "data"
        code = run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 0
        assert "fetched and verified" in capsys.readouterr().out
        # second call must not touch the (now dead) source
        code = run_cli(["fetch-data", "--dataset", "cifar10", "--out", str(dest),
                        "--url", (tmp_path / "dead.tar.gz").as_uri(),
                        "--sha256", digest])
        assert code == 0
        assert "already verified" in capsys.readouterr().out

    def test_undersized_extraction_exits_2(self, tmp_path):
        archive, _ = tar_cifar_files(tmp_path, records_per_file=2)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "data"),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 2

    def test_config_file_supplies_url_and_digest(self, tmp_path):
        archive, _ = tar_cifar_files(tmp_path)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        raw = minimal_config()
        raw["data"] = {"dataset": "cifar10", "data_dir": str(tmp_path / "d"),
                       "url": archive.as_uri(), "sha256": digest}
        config_path = write_config(tmp_path, raw)
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--config", str(config_path)])
        assert code == 0
        assert (tmp_path / "d" / ".verified-cifar10").is_file()

    def test_unknown_dataset_is_usage_error(self):
        assert run_cli(["fetch-data", "--dataset", "mnist", "--out", "x"]) == 1

    def test_tampered_archive_exits_2(self, tmp_path):
        archive, _ = tar_cifar_files(tmp_path, records_per_file=2)
        digest = hashlib.sha256(archive.read_bytes()).hexdigest()
        raw = bytearray(archive.read_bytes())
        raw[10] ^= 0xFF
        archive.write_bytes(bytes(raw))
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "d"),
                        "--url", archive.as_uri(), "--sha256", digest])
        assert code == 2

    def test_unreachable_url_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(D.time, "sleep", lambda seconds: None)
        code = run_cli(["fetch-data", "--dataset", "cifar10",
                        "--out", str(tmp_path / "d"),
                        "--url", (tmp_path / "missing.tar.gz").as_uri(),
                        "--sha256", "0" * 64])
        assert code == 3


class TestCliTrainEval:
    def test_train_writes_outputs_and_is_deterministic(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run_cli(["train", "--config", str(config_path), "--out", str(out)])
            assert code == 0
            assert (out / "config.resolved.json").is_file()
            assert (out / "metrics.csv").is_file()
            assert (out / "final.ckpt").is_file()
            outs.append(out)
        assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()

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

    def test_unusable_out_dir_exits_1(self, tmp_path, capsys):
        config_path = write_config(tmp_path, minimal_config())
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "run"
        assert run_cli(["train", "--config", str(config_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: cannot write run directory {out}: Not a directory"]

    @pytest.mark.parametrize("key", ["warmup", "within_weight", "distance_mode"])
    def test_invalid_config_key_exits_1(self, tmp_path, capsys, key):
        raw = minimal_config()
        raw["train"][key] = 5
        out = tmp_path / "out"
        assert run_cli(["train", "--config", str(write_config(tmp_path, raw)),
                        "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]

    @pytest.mark.parametrize("mutate,needle", BAD_VALUES + BAD_DATA)
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
