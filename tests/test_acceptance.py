"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 8 and the real-data parts of 9 need the actual CIFAR-10 files and
skip (with instructions) when they are absent; everything else runs on
synthetic data. Expected wall time for the full module is a few minutes,
dominated by the five-seed A/B training runs of criterion 7.
"""

import runpy
import time
from pathlib import Path

import numpy as np
import pytest

from msn.data import (
    cifar10_files_present,
    data_root,
    global_contrast_normalize,
    load_cifar10,
    subset_per_class,
    synthetic_blobs,
    zca_apply,
    zca_fit,
)
from msn.losses import XiConfig
from msn.network import NetworkSpec
from msn.trainer import (
    TrainConfig,
    save_checkpoint,
    train,
)
from msn.verify import invariant_suite, oracle_suite, run_suites


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"


def report(number, detail):
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def check(suite, seed, name):
    """The one result called ``name`` of an `msn verify` suite, asserted to pass."""
    [result] = [r for r in suite(seed) if r.name == name]
    assert result.passed, result.line()
    return result


def _data_dir():
    root = data_root()
    return root if cifar10_files_present(root) else None


needs_cifar = pytest.mark.skipif(
    _data_dir() is None,
    reason="real CIFAR-10 not present; run `msn fetch-data --dataset cifar10 "
           "--out data` (or set MSN_DATA_DIR) and re-run")


# ---------------------------------------------------------------------------
# 1. gradient suite
# ---------------------------------------------------------------------------

def test_criterion_01_gradient_suite():
    start = time.time()
    results = run_suites("gradcheck", seed=0)
    elapsed = time.time() - start
    failed = [r for r in results if not r.passed]
    assert not failed, [r.line() for r in failed]
    full = [r for r in results if r.name == "gradcheck/full_msn_config7"]
    assert full and full[0].worst <= 1e-4
    assert elapsed < 120.0
    report(1, f"{len(results)} checks, worst full-net rel err "
              f"{full[0].worst:.2e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. degeneracy equivalence
# ---------------------------------------------------------------------------

def test_criterion_02_singleton_batches_reduce_to_cross_entropy():
    # 100 batches of distinct labels: total, within and gradient bit for bit
    check(invariant_suite, 2, "invariant/singleton_batch_reduces_to_ce")
    report(2, "100 all-singleton batches, bit-for-bit equality")


# ---------------------------------------------------------------------------
# 3. within-class brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_03_within_class_oracle():
    result = check(oracle_suite, 3, "oracle/within_class_vs_all_pairs")
    report(3, f"200 batches, worst rel err {result.worst:.2e}")


# ---------------------------------------------------------------------------
# 4. threshold schedule
# ---------------------------------------------------------------------------

def test_criterion_04_xi_schedule_sequence():
    check(invariant_suite, 4, "invariant/xi_forced_plateau_sequence")
    report(4, "decays by 0.9 from 0.5 down to the 1e-4 floor and holds there, exact")


# ---------------------------------------------------------------------------
# 5. head averaging
# ---------------------------------------------------------------------------

def test_criterion_05_head_averaging():
    # head counts 1-4, each head at its own xi: gradients bit for bit, total to 1e-12
    result = check(invariant_suite, 5, "invariant/head_averaging")
    report(5, f"head counts 1-4, worst deviation {result.worst:.2e}")


# ---------------------------------------------------------------------------
# 6. batch-size sensitivity analogue
# ---------------------------------------------------------------------------

def test_criterion_06_batch_size_sensitivity():
    sweep = runpy.run_path(str(ROOT / "scripts" / "batch_size_sweep.py"))
    sizes = [2, 3, 4, 6, 8, 12]
    fractions = sweep["active_fractions"](16, 100, sizes, 1000, 6)
    assert all(a < b for a, b in zip(fractions, fractions[1:])), fractions
    report(6, "active-within fraction over batch sizes "
              + ", ".join(f"{s}:{f:.2f}" for s, f in zip(sizes, fractions)))


# ---------------------------------------------------------------------------
# 7. desk-scale training A/B
# ---------------------------------------------------------------------------

def test_criterion_07_desk_scale_ab():
    run_pair = runpy.run_path(str(ROOT / "scripts" / "loss_ab.py"))["run_pair"]
    start = time.time()
    pairs = [run_pair(CONFIGS / "blobs_small.json", seed) for seed in [0, 1, 2, 3, 4]]
    elapsed = time.time() - start
    stats = {mode: [pair[mode] for pair in pairs] for mode in ("msl", "ce")}

    # (a) both loss modes fit the training data, and reach <= 1% train error
    # with 200 iterations to spare
    for mode in ("msl", "ce"):
        for s in stats[mode]:
            assert s["train_error"] <= 0.05, (mode, s)
            assert s["early_slope"] is not None, (mode, s)

    # (b) within-class compression under the full loss, >= 4 of 5 seeds
    smaller = sum(m["final_distance"] < c["final_distance"]
                  for m, c in zip(stats["msl"], stats["ce"]))
    assert smaller >= 4, [(m["final_distance"], c["final_distance"])
                          for m, c in zip(stats["msl"], stats["ce"])]

    # (c) once train error reaches <= 1%, the full loss keeps descending
    for s in stats["msl"]:
        assert s["early_slope"] < 0, s

    # continued learning: after saturation the cross-entropy run freezes while
    # the full loss keeps moving (majority over the 5 seeds; a seed whose CE
    # run has not yet saturated at 2,000 iterations may still be descending)
    frozen = sum(abs(c["late_slope"]) < abs(m["late_slope"])
                 for m, c in zip(stats["msl"], stats["ce"]))
    assert frozen >= 4, [(m["late_slope"], c["late_slope"])
                         for m, c in zip(stats["msl"], stats["ce"])]

    assert elapsed < 600.0
    report(7, f"5 seeds x 2 modes, {smaller}/5 distance wins, "
              f"{frozen}/5 late-slope wins, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. CIFAR-10 subset sanity
# ---------------------------------------------------------------------------

@needs_cifar
def test_criterion_08_cifar_subset_msl_and_ce():
    run_pair = runpy.run_path(str(ROOT / "scripts" / "loss_ab.py"))["run_pair"]
    start = time.time()
    outcomes = {mode: (s["test_error"], s["within_first100"], s["within_last100"])
                for mode, s in run_pair(CONFIGS / "cifar_subset.json", 0).items()}
    elapsed = time.time() - start

    for mode, (test_error, _, _) in outcomes.items():
        assert test_error <= 0.25, (mode, test_error)
    _, first_within, last_within = outcomes["msl"]
    assert last_within < first_within, outcomes["msl"]
    assert elapsed < 1800.0
    report(8, f"test errors msl {outcomes['msl'][0]:.3f} / ce {outcomes['ce'][0]:.3f}, "
              f"within {first_within:.3f}->{last_within:.3f}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 9. data pipeline statistics
# ---------------------------------------------------------------------------

def test_criterion_09a_gcn_statistic():
    rng = np.random.default_rng(9)
    images = rng.random((256, 32, 32, 3)).astype(np.float32)
    out = global_contrast_normalize(images).reshape(256, -1)
    worst = float(np.abs(out.mean(axis=1)).max())
    assert worst <= 1e-6
    report("9a", f"per-image mean after GCN <= {worst:.1e}")


@needs_cifar
def test_criterion_09b_loader_counts_and_zca_on_real_data():
    train_ds, test_ds = load_cifar10(_data_dir())
    assert len(train_ds) == 50_000 and len(test_ds) == 10_000
    _, counts = np.unique(train_ds.labels, return_counts=True)
    assert counts.tolist() == [5000] * 10

    subset = subset_per_class(train_ds, list(range(10)), 100)  # 1,000 images
    images = global_contrast_normalize(subset.images)
    transform = zca_fit(images, eps=1e-2)
    white = zca_apply(transform, images).reshape(len(images), -1).astype(np.float64)
    cov = np.cov(white, rowvar=False)
    diag_mean = float(np.diag(cov).mean())
    off = cov[~np.eye(cov.shape[0], dtype=bool)]
    ratio = float(np.sqrt((off ** 2).mean())) / diag_mean
    assert ratio <= 0.05
    report("9b", f"counts 50k/10k/5k-per-class, ZCA off-diagonal ratio {ratio:.3f}")


# ---------------------------------------------------------------------------
# 10. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_10_determinism_and_resume(tmp_path):
    spec = NetworkSpec(family="vgg", width_multiplier=1 / 32, attachment=(1, 2),
                       num_classes=3, input_shape=(8, 8, 1), num_blocks=2)
    ds = synthetic_blobs(3, 40, rng=np.random.default_rng(10))
    test_ds = synthetic_blobs(3, 10, rng=np.random.default_rng(11))

    def config(iterations):
        return TrainConfig(iterations=iterations, batch_size=12,
                           batching="class-aware", seed=3, eval_interval=5,
                           xi=XiConfig(window=3))

    for name in ("a", "b"):
        train(config(20), spec, ds, eval_dataset=test_ds,
              csv_path=tmp_path / f"{name}.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    full = train(config(20), spec, ds, eval_dataset=test_ds)
    half = train(config(10), spec, ds, eval_dataset=test_ds)
    ckpt = tmp_path / "half.ckpt"
    save_checkpoint(half.state, half.opt_state,
                    [h.xi_state for h in half.state.heads], ckpt, iteration=10)
    resumed = train(config(20), spec, ds, eval_dataset=test_ds, resume_path=ckpt)
    tail = [r for r in full.rows if r.iteration >= 10]
    assert len(resumed.rows) == 10
    for a, b in zip(tail, resumed.rows):
        assert a == b  # row-for-row
    for name in full.state.params:
        np.testing.assert_array_equal(resumed.state.params[name].data,
                                      full.state.params[name].data)
    report(10, "byte-identical CSVs and row-for-row resume equivalence")
