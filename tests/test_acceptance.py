"""Acceptance criteria, one test per criterion, each printing a PASS line.

Criteria 8 and the real-data parts of 9 need the actual CIFAR-10 files and
skip (with instructions) when they are absent; everything else runs on
synthetic data. Expected wall time for the full module is a few minutes,
dominated by the five-seed A/B training runs of criterion 7.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from msn import oracles
from msn.config import RunConfig, load_datasets
from msn.data import (
    cifar10_files_present,
    global_contrast_normalize,
    load_cifar10,
    subset_per_class,
    synthetic_blobs,
    zca_apply,
    zca_fit,
)
from msn.losses import (
    LogitBatch,
    XiState,
    between_class_loss,
    msl_total,
    within_class_loss,
)
from msn.network import NetworkSpec, attach_msn_loss
from msn.tensor import Tensor
from msn.trainer import (
    TrainConfig,
    batch_indices_for_iteration,
    evaluate,
    save_checkpoint,
    train,
)
from msn.verify import run_suites


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def report(number, detail):
    print(f"ACCEPTANCE {number}: PASS ({detail})")


def _data_dir():
    root = os.environ.get("MSN_DATA_DIR", "data")
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
    rng = np.random.default_rng(2)
    for _ in range(100):
        c = int(rng.integers(2, 11))
        n = int(rng.integers(1, c + 1))
        batch = LogitBatch(q=rng.standard_normal((n, c)) * 3,
                           y=rng.permutation(c)[:n])
        breakdown, grad = msl_total(batch, xi=0.5)
        ce, ce_grad = between_class_loss(batch)
        assert breakdown.total == ce  # bit-for-bit
        assert breakdown.within == 0.0
        np.testing.assert_array_equal(grad, ce_grad)
    report(2, "100 all-singleton batches, bit-for-bit equality")


# ---------------------------------------------------------------------------
# 3. within-class brute-force oracle
# ---------------------------------------------------------------------------

def test_criterion_03_within_class_oracle():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 65))
        c = int(rng.integers(2, 11))
        q = rng.standard_normal((n, c)) * 3
        y = rng.integers(0, c, n)
        loss, _, _ = within_class_loss(LogitBatch(q=q, y=y), xi=0.5)
        brute = oracles.within_class_brute(q, y, 0.5)
        worst = max(worst, abs(loss - brute) / max(1.0, abs(brute)))
    assert worst <= 1e-10
    report(3, f"200 batches, worst rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# 4. threshold schedule
# ---------------------------------------------------------------------------

def test_criterion_04_xi_schedule_sequence():
    state = XiState()  # initial 0.5, decay 0.9, floor 1e-4, window 100
    observed = [state.xi]
    for _ in range(120):
        for _ in range(2 * state.window):
            state.update(1.0)
        observed.append(state.xi)
        if state.xi == state.floor and observed[-2] == state.floor:
            break
    expected = [0.5]
    while expected[-1] > state.floor:
        expected.append(max(state.floor, expected[-1] * 0.9))
    assert observed[:len(expected)] == expected  # exact geometric grid
    assert observed[0] == 0.5
    assert observed[1] == pytest.approx(0.45, rel=1e-15)
    assert observed[2] == pytest.approx(0.405, rel=1e-15)
    assert min(observed) == state.floor == 1e-4
    report(4, f"{len(expected) - 1} decays from 0.5 down to the 1e-4 floor, exact")


# ---------------------------------------------------------------------------
# 5. head averaging
# ---------------------------------------------------------------------------

def test_criterion_05_head_averaging():
    rng = np.random.default_rng(5)
    worst = 0.0
    for count in (1, 2, 3, 4):
        n, c = 24, 6
        y = rng.integers(0, c, n)
        logits = [Tensor(rng.standard_normal((n, c)) * 2, requires_grad=True)
                  for _ in range(count)]
        xi_states = [XiState(initial_xi=0.1 * (i + 1)) for i in range(count)]
        loss, aggregate, per_head = attach_msn_loss(logits, y, xi_states)
        mean_total = math.fsum(bd.total for bd in per_head) / count
        worst = max(worst, abs(aggregate.total - mean_total))
        loss.backward()
        for t, xi_state in zip(logits, xi_states):
            _, alone_grad = msl_total(LogitBatch(q=t.data, y=y), xi_state.xi)
            np.testing.assert_array_equal(t.grad, alone_grad * (1.0 / count))
    assert worst <= 1e-12
    report(5, f"head counts 1-4, worst deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 6. batch-size sensitivity analogue
# ---------------------------------------------------------------------------

def test_criterion_06_batch_size_sensitivity():
    classes = 16
    ds = synthetic_blobs(classes, 100, rng=np.random.default_rng(6))
    sizes = [2, 3, 4, 6, 8, 12]
    fractions = []
    for size in sizes:
        config = TrainConfig(iterations=0, batch_size=size, seed=6)
        active = 0
        drawn = 0
        iteration = 0
        while drawn < 1000:
            batch = batch_indices_for_iteration(ds, config, iteration)
            iteration += 1
            if len(batch) < size:
                continue  # ragged epoch tail keeps sizes comparable
            labels = ds.labels[batch]
            if np.unique(labels, return_counts=True)[1].max() >= 2:
                active += 1
            drawn += 1
        fractions.append(active / 1000)
    assert all(a < b for a, b in zip(fractions, fractions[1:])), fractions
    report(6, "active-within fraction over batch sizes "
              + ", ".join(f"{s}:{f:.2f}" for s, f in zip(sizes, fractions)))


# ---------------------------------------------------------------------------
# 7. desk-scale training A/B
# ---------------------------------------------------------------------------

def _shipped_run(name, seed, loss_mode):
    """Train configs/<name> at ``seed`` in ``loss_mode``: (result, train, test)."""
    config = RunConfig.from_file(CONFIGS / name).with_overrides(seed=seed, loss=loss_mode)
    train_ds, test_ds = load_datasets(config)
    return train(config.to_train_config(), config.network, train_ds), train_ds, test_ds


def _slope(values):
    return float(np.polyfit(np.arange(len(values)), values, 1)[0])


def test_criterion_07_desk_scale_ab():
    start = time.time()
    seeds = [0, 1, 2, 3, 4]
    stats = {"msl": [], "ce": []}
    for seed in seeds:
        for mode in ("msl", "ce"):
            result, train_ds, _ = _shipped_run("blobs_small.json", seed, mode)
            rows = result.rows
            train_error = evaluate(result.state, train_ds)
            first = next((r.iteration for r in rows if r.train_error <= 0.01), None)
            assert first is not None and first + 200 <= len(rows)
            early_slope = _slope([r.loss_total for r in rows[first:first + 200]])
            late_slope = _slope([r.loss_total for r in rows[-200:]])
            stats[mode].append(dict(
                train_error=train_error,
                final_distance=rows[-1].mean_distance,
                early_slope=early_slope,
                late_slope=late_slope,
            ))
    elapsed = time.time() - start

    # (a) both loss modes fit the training data
    for mode in ("msl", "ce"):
        for s in stats[mode]:
            assert s["train_error"] <= 0.05, (mode, s)

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
def test_criterion_08_cifar_subset_both_loss_modes():
    start = time.time()
    outcomes = {}
    for mode in ("msl", "ce"):
        result, _, test_ds = _shipped_run("cifar_subset.json", 0, mode)
        test_error = evaluate(result.state, test_ds)
        within = [r.loss_within for r in result.rows]
        outcomes[mode] = (test_error, float(np.mean(within[:100])),
                          float(np.mean(within[-100:])))
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
                           xi_window=3)

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
