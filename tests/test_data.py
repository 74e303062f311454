"""Preprocessing statistics, batching guarantees, synthetic data, and the
fetch/load path (exercised on synthetic archives; real CIFAR-10 when present)."""

import dataclasses
import hashlib
import io
import os
import re
import subprocess
import sys
import tarfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from msn import data as D
from msn.trainer import _TAG_BATCH, TrainConfig, _rng, batch_indices_for_iteration


# ---------------------------------------------------------------------------
# global contrast normalization
# ---------------------------------------------------------------------------

class TestGcn:
    def test_constant_image_maps_to_zero(self):
        images = np.full((2, 4, 4, 3), 0.37, dtype=np.float32)
        np.testing.assert_array_equal(D.global_contrast_normalize(images), 0.0)

    def test_two_point_image(self):
        img = np.zeros((1, 2, 2, 1), dtype=np.float64)
        img[0, 0, :, 0] = 1.0  # half ones, half zeros
        out = D.global_contrast_normalize(img)
        np.testing.assert_allclose(np.sort(out.reshape(-1)), [-1, -1, 1, 1], atol=1e-12)

    def test_random_images_statistics(self, rng):
        images = rng.random((10, 8, 8, 3))
        out = D.global_contrast_normalize(images).reshape(10, -1)
        assert np.abs(out.mean(axis=1)).max() <= 1e-6
        assert np.abs((out ** 2).mean(axis=1) - 1.0).max() <= 1e-6

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.float64, (3, 4, 4, 1), elements=st.floats(0, 1)))
    def test_statistics_property(self, images):
        out = D.global_contrast_normalize(images).reshape(3, -1)
        assert np.abs(out.mean(axis=1)).max() <= 1e-6
        for row, raw in zip(out, images.reshape(3, -1)):
            if np.ptp(raw) > 1e-4:  # non-constant images reach unit mean square
                assert abs((row ** 2).mean() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# ZCA whitening
# ---------------------------------------------------------------------------

def whitening_matrix(t: D.ZcaTransform) -> np.ndarray:
    """The D x D matrix that ``t`` applies, read row by row through
    ``zca_apply`` on the images mean + e_i."""
    return D.zca_apply(t, t.mean + np.eye(t.mean.size))


class TestZca:
    def test_identity_covariance_gives_near_identity(self, rng):
        x = rng.standard_normal((4000, 2, 2, 2))
        matrix = whitening_matrix(D.zca_fit(x, eps=1e-2))
        assert np.abs(matrix - np.eye(len(matrix))).max() <= 0.05

    def test_matrix_is_symmetric(self, rng):
        matrix = whitening_matrix(D.zca_fit(rng.random((200, 3, 3, 2))))
        assert np.abs(matrix - matrix.T).max() <= 1e-6

    def test_fitted_mean_maps_to_zero(self, rng):
        x = rng.random((100, 4, 4, 1)) + 0.5
        t = D.zca_fit(x)
        out = D.zca_apply(t, x.mean(axis=0, keepdims=True))
        assert np.abs(out).max() <= 1e-8

    def test_whitened_covariance_is_near_diagonal(self, rng):
        # well-conditioned mixing (singular values in [0.8, 1.6], well above eps)
        # and enough samples that estimation noise sits below the 5% bound
        g = rng.standard_normal((12, 12))
        u, _, vt = np.linalg.svd(g)
        mix = u @ np.diag(rng.uniform(0.8, 1.6, 12)) @ vt
        x = (rng.standard_normal((20000, 12)) @ mix).reshape(20000, 2, 2, 3)
        t = D.zca_fit(x, eps=1e-2)
        w = D.zca_apply(t, x).reshape(20000, -1)
        cov = np.cov(w, rowvar=False)
        off = cov - np.diag(np.diag(cov))
        assert np.abs(off).max() <= 0.05 * np.diag(cov).mean()

    def test_needs_two_samples(self, rng):
        with pytest.raises(ValueError):
            D.zca_fit(rng.random((1, 2, 2, 1)))

    @staticmethod
    def covariance_eigh_matrix(images, eps):
        """The textbook fit: U diag(1/sqrt(l+eps)) U^T of the pixel covariance."""
        flat = images.reshape(len(images), -1)
        centered = flat - flat.mean(axis=0)
        eigvals, eigvecs = np.linalg.eigh(centered.T @ centered / len(images))
        eigvals = np.clip(eigvals, 0.0, None)
        return (eigvecs * (1.0 / np.sqrt(eigvals + eps))) @ eigvecs.T

    # D = 108 for 6x6x3: N = D-1 fits from the N x N Gram matrix, N = D and
    # D+1 from the D x D one; 64 x 16x16x3 is the wide case, N << D = 768
    @pytest.mark.parametrize("shape", [(40, 6, 6, 3), (300, 3, 3, 2), (107, 6, 6, 3),
                                       (108, 6, 6, 3), (109, 6, 6, 3), (64, 16, 16, 3)],
                             ids=["rank_deficient", "full_rank", "n=d-1", "n=d", "n=d+1",
                                  "wide"])
    def test_matches_covariance_eigendecomposition(self, rng, shape):
        x = rng.random(shape)
        ref = self.covariance_eigh_matrix(x, 1e-2)
        matrix = whitening_matrix(D.zca_fit(x, eps=1e-2))
        assert np.abs(matrix - ref).max() <= 1e-10 * np.abs(ref).max()

    def test_holds_no_d_by_d_array_when_n_below_d(self, rng):
        t = D.zca_fit(rng.random((20, 6, 6, 3)))
        assert t.basis.shape == (20, 108) and t.coef.shape == (20,)
        assert all(np.size(getattr(t, f.name)) < 108 * 108 for f in dataclasses.fields(t))

    def test_direction_outside_the_data_scaled_by_inverse_sqrt_eps(self, rng):
        x = rng.random((10, 4, 4, 1))
        centered = (x - x.mean(axis=0)).reshape(10, -1)
        q, _ = np.linalg.qr(np.concatenate([centered.T, rng.standard_normal((16, 1))],
                                           axis=1))
        v = q[:, -1]  # orthogonal to every centred training image
        matrix = whitening_matrix(D.zca_fit(x, eps=1e-2))
        np.testing.assert_allclose(v @ matrix, v / np.sqrt(1e-2), rtol=0, atol=1e-12)

    def test_identical_images_give_scaled_identity(self, rng):
        x = np.repeat(rng.random((1, 2, 3, 2)), 2, axis=0)
        matrix = whitening_matrix(D.zca_fit(x, eps=1e-2))
        assert np.isfinite(matrix).all()
        np.testing.assert_allclose(matrix, np.eye(12) / np.sqrt(1e-2), rtol=0, atol=1e-12)

    # prints the digest of one fixed fit and the BLAS thread count before and after it
    FIT_IN_CHILD = """
import hashlib
import numpy as np
from msn import data as D
images = D.global_contrast_normalize(
    np.random.default_rng(0).random((300, 32, 32, 3), dtype=np.float32))
get_threads, _ = D._openblas_threads()
before = get_threads()
t = D.zca_fit(images)
print(hashlib.sha256(t.mean.tobytes() + t.basis.tobytes() + t.coef.tobytes()).hexdigest(),
      before, get_threads())
"""

    @pytest.mark.skipif(D._openblas_threads() is None,
                        reason="numpy does not run on its bundled OpenBLAS, whose thread "
                               "count the fit pins")
    def test_fit_bits_do_not_follow_the_blas_thread_count(self):
        """Without the pin, 300 images fit to other bits at one and two OpenBLAS
        threads. On a one-CPU machine OpenBLAS may run one thread either way,
        so there the test passes without showing anything."""
        src = str(Path(D.__file__).resolve().parents[1])
        digests = set()
        for threads in ("1", "2"):
            done = subprocess.run(
                [sys.executable, "-c", self.FIT_IN_CHILD], capture_output=True, text=True,
                timeout=120, env={**os.environ, "PYTHONPATH": src,
                                  "OPENBLAS_NUM_THREADS": threads})
            assert done.returncode == 0, done.stderr
            digest, before, after = done.stdout.split()
            assert before == after  # the fit restores the thread count
            digests.add(digest)
        assert len(digests) == 1


# ---------------------------------------------------------------------------
# GCN and whitening in row blocks
# ---------------------------------------------------------------------------

def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes tracemalloc saw while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_shot_gcn(images):
    """GCN of every image at once, in float64 copies of the whole array."""
    flat = images.reshape(len(images), -1).astype(np.float64)
    centered = flat - flat.mean(axis=1, keepdims=True)
    rms = np.sqrt((centered ** 2).mean(axis=1, keepdims=True))
    out = centered / np.maximum(rms, 1e-8)
    return out.reshape(images.shape).astype(images.dtype)


def one_shot_zca_apply(t, images):
    """``zca_apply`` of every image at once, in float64 copies of the whole array."""
    flat = images.reshape(len(images), -1).astype(np.float64)
    z = flat - t.mean
    low_rank = ((z @ t.basis.T) * t.coef) @ t.basis
    out = z / np.sqrt(t.eps) + low_rank
    return out.reshape(images.shape).astype(images.dtype)


class TestRowBlocks:
    # CIFAR's image shape, whitened by a fit on 1,000 images as for
    # configs/cifar_subset.json. 600 images are two full blocks and a ragged
    # 88; 513 end in a lone image, which numpy would multiply by gemv, so it
    # joins the block before it. The products' bytes match because OpenBLAS
    # computes each row of these gemms the same way for any row count. That
    # is not so for every K: after a fit on 300 or 513 images, some rows of a
    # 256-row block differ from the one-shot product in the last bit.
    @pytest.fixture(scope="class")
    def transform(self):
        return D.zca_fit(np.random.default_rng(1).random((1000, 32, 32, 3)))

    @pytest.mark.parametrize("n", [513, 600])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("flipped", [False, True], ids=["contiguous", "hflip-view"])
    def test_blocked_equals_one_shot(self, transform, n, dtype, flipped):
        assert n > 2 * D.ROW_BLOCK
        images = np.random.default_rng(n).random((n, 32, 32, 3)).astype(dtype)
        if flipped:
            images = D.hflip(images)
        gcn = D.global_contrast_normalize(images)
        assert gcn.dtype == dtype and gcn.tobytes() == one_shot_gcn(images).tobytes()
        white = D.zca_apply(transform, images)
        assert white.dtype == dtype
        assert white.tobytes() == one_shot_zca_apply(transform, images).tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("flipped", [False, True], ids=["contiguous", "hflip-view"])
    def test_input_bytes_are_kept(self, dtype, flipped):
        images = np.random.default_rng(0).random((600, 4, 4, 3)).astype(dtype)
        if flipped:
            images = D.hflip(images)
        before = images.tobytes()
        D.global_contrast_normalize(images)
        D.zca_apply(D.zca_fit(images), images)
        assert images.tobytes() == before

    def test_scratch_is_a_few_blocks_beyond_the_output(self):
        images = np.random.default_rng(0).random((600, 32, 32, 3)).astype(np.float32)
        t = D.zca_fit(images)
        block = (D.ROW_BLOCK + 1) * images[0].size * 8  # float64 rows
        for fn, args in ((D.global_contrast_normalize, (images,)), (D.zca_apply, (t, images))):
            out, peak = traced_peak(fn, *args)
            assert peak < out.nbytes + 3 * block, fn.__name__


# ---------------------------------------------------------------------------
# flips
# ---------------------------------------------------------------------------

class TestFlip:
    def test_involution(self, rng):
        images = rng.random((5, 4, 6, 3))
        np.testing.assert_array_equal(D.hflip(D.hflip(images)), images)

    def test_width_one_unchanged(self, rng):
        images = rng.random((3, 4, 1, 2))
        np.testing.assert_array_equal(D.hflip(images), images)

    def test_index_map(self, rng):
        images = rng.random((2, 3, 5, 1))
        flipped = D.hflip(images)
        for col in range(5):
            np.testing.assert_array_equal(flipped[:, :, 5 - 1 - col, :],
                                          images[:, :, col, :])

    def test_random_flip_mixes_and_is_seeded(self, rng):
        images = rng.random((200, 4, 4, 1))
        out_a = D.random_flip(images, np.random.default_rng(5))
        out_b = D.random_flip(images, np.random.default_rng(5))
        np.testing.assert_array_equal(out_a, out_b)
        flipped_rows = sum(
            1 for i in range(200)
            if not np.array_equal(out_a[i], images[i]))
        assert 40 <= flipped_rows <= 160
        mirrored = D.hflip(images)
        for i in range(200):
            assert (np.array_equal(out_a[i], images[i])
                    or np.array_equal(out_a[i], mirrored[i]))


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def shuffled_epoch(ds, batch_size):
    """The trainer's shuffled batches from iteration 0 until they hold len(ds)
    indices."""
    config = TrainConfig(iterations=0, batch_size=batch_size)
    batches = []
    while sum(len(b) for b in batches) < len(ds):
        batches.append(batch_indices_for_iteration(ds, config, len(batches)))
    return batches


class TestBatches:
    def test_shuffled_epoch_partitions_indices(self):
        ds = D.synthetic_blobs(3, 21, rng=np.random.default_rng(0))
        batches = shuffled_epoch(ds, 16)
        seen = np.concatenate(batches)
        assert sorted(seen.tolist()) == list(range(len(ds)))

    def test_batch_size_equal_to_n_is_single_batch(self):
        ds = D.synthetic_blobs(2, 8, rng=np.random.default_rng(0))
        batches = shuffled_epoch(ds, len(ds))
        assert len(batches) == 1 and len(batches[0]) == len(ds)

    def test_class_aware_guarantees_pairs(self):
        ds = D.synthetic_blobs(10, 40, rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(100):
            batch = D.class_aware_batch_indices(ds, 64, rng)
            assert len(batch) == 64
            labels = ds.labels[batch]
            _, counts = np.unique(labels, return_counts=True)
            assert counts.min() >= 2

    def test_small_class_aware_batches_still_pair(self):
        ds = D.synthetic_blobs(10, 40, rng=np.random.default_rng(1))
        rng = np.random.default_rng(3)
        for _ in range(50):
            labels = ds.labels[D.class_aware_batch_indices(ds, 6, rng)]
            _, counts = np.unique(labels, return_counts=True)
            assert counts.min() >= 2

    def test_class_aware_needs_two(self):
        ds = D.synthetic_blobs(2, 4, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            D.class_aware_batch_indices(ds, 1, np.random.default_rng(0))

    def test_class_aware_sequence_matches_naive_batcher(self):
        def naive_batch(labels, batch_size, rng):
            # the class pools rebuilt from the labels on every call
            classes = np.unique(labels)
            eligible = np.array([c for c in classes if (labels == c).sum() >= 2])
            k = min(len(eligible), batch_size // 2)
            chosen = rng.choice(eligible, size=k, replace=False)
            counts = {int(c): 2 for c in chosen}
            for c in rng.choice(chosen, size=batch_size - 2 * k, replace=True):
                counts[int(c)] += 1
            picks = []
            for c, count in counts.items():
                pool = np.flatnonzero(labels == c)
                picks.append(rng.choice(pool, size=count, replace=count > len(pool)))
            batch = np.concatenate(picks)
            rng.shuffle(batch)
            return batch

        def dataset(counts, seed):
            labels = np.repeat(np.arange(len(counts)), counts)
            labels = np.random.default_rng(seed).permutation(labels)
            return D.LabeledDataset(images=np.zeros((len(labels), 1, 1, 1)),
                                    labels=labels, num_classes=len(counts))

        for seed in range(3):
            # built afresh for each seed, so a cache keyed by id() can meet a
            # reused id; class 1 of the first has one sample, class 3 of the
            # second none, and batch 6 is below twice the class count
            runs = [(dataset([30, 1, 12, 3, 20], seed), 6),
                    (dataset([7, 2, 15, 0, 9], seed + 10), 64)]
            for it in range(200):
                for ds, batch_size in runs:
                    config = TrainConfig(iterations=200, batch_size=batch_size,
                                         batching="class-aware", seed=seed)
                    np.testing.assert_array_equal(
                        batch_indices_for_iteration(ds, config, it),
                        naive_batch(ds.labels, batch_size, _rng(seed, _TAG_BATCH, it)))

    def test_class_pools_are_read_only(self):
        eligible, pools = D.synthetic_blobs(3, 4, rng=np.random.default_rng(0)).class_pools
        for arr in (eligible, *pools.values()):
            with pytest.raises(ValueError):
                arr[0] = 0


# ---------------------------------------------------------------------------
# synthetic blobs
# ---------------------------------------------------------------------------

class TestBlobs:
    def test_separation_must_be_positive(self):
        with pytest.raises(ValueError):
            D.synthetic_blobs(2, 4, separation=0.0, rng=np.random.default_rng(0))

    def test_nearest_class_mean_achieves_zero_error_when_separated(self):
        ds = D.synthetic_blobs(3, 50, separation=25.0, rng=np.random.default_rng(4))
        means = np.stack([ds.images[ds.labels == c].mean(axis=0) for c in range(3)])
        flat = ds.images.reshape(len(ds), -1)
        dists = ((flat[:, None, :] - means.reshape(3, -1)[None]) ** 2).sum(axis=2)
        assert (dists.argmin(axis=1) == ds.labels).all()

    def test_fixed_seed_reproduces(self):
        a = D.synthetic_blobs(2, 10, rng=np.random.default_rng(9))
        b = D.synthetic_blobs(2, 10, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(a.images, b.images)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_subset_per_class(self):
        ds = D.synthetic_blobs(4, 10, rng=np.random.default_rng(2))
        sub = D.subset_per_class(ds, [1, 3], 5)
        assert len(sub) == 10 and sub.num_classes == 2
        assert sorted(np.unique(sub.labels).tolist()) == [0, 1]
        with pytest.raises(ValueError):
            D.subset_per_class(ds, [0], 11)


# ---------------------------------------------------------------------------
# fetch + load on synthetic archives
# ---------------------------------------------------------------------------

def tiny_cifar_record(label, red=0, green=0, blue=0):
    body = bytes([label]) + bytes([red] * 1024) + bytes([green] * 1024) + bytes([blue] * 1024)
    assert len(body) == D.RECORD_BYTES
    return body


def write_cifar_files(root, records_per_file=None):
    """The six CIFAR-10 batch files under ``root``: ``records_per_file`` red
    records each, labelled 0, 1, 2, ... (mod 10) through the files, or by
    default full-size sparse files of zero bytes, so every image is black and
    of class 0. Returns each file's (relative path, size)."""
    label = 0
    for rel in D.CIFAR10_TRAIN_FILES + D.CIFAR10_TEST_FILES:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if records_per_file is None:
            with open(path, "wb") as fh:
                fh.truncate(D.CIFAR10_FILE_BYTES)
        else:
            path.write_bytes(b"".join(tiny_cifar_record((label + i) % 10, red=255)
                                      for i in range(records_per_file)))
            label += records_per_file
    return tuple((rel, (root / rel).stat().st_size)
                 for rel in D.CIFAR10_TRAIN_FILES + D.CIFAR10_TEST_FILES)


def tar_cifar_files(tmp_path, records_per_file=None):
    """``write_cifar_files``' layout as a gzipped tar, which keeps full-size
    zero files small. Returns the archive and each file's (relative path, size)."""
    root = tmp_path / "archived"
    expected = write_cifar_files(root, records_per_file)
    archive = tmp_path / "source.tar.gz"
    with tarfile.open(archive, "w:gz") as tar:
        for rel, _ in expected:
            tar.add(root / rel, arcname=rel)
    return archive, expected


class TestFetch:
    @pytest.mark.parametrize("name,kind", [
        ("../data-evil/x.bin", tarfile.REGTYPE),  # a sibling sharing dest's prefix
        ("link", tarfile.SYMTYPE),
        ("hard", tarfile.LNKTYPE),
    ], ids=["sibling-prefix", "symlink", "hardlink"])
    def test_member_reaching_outside_dest_is_rejected(self, tmp_path, monkeypatch, name, kind):
        outside = tmp_path / "outside.bin"
        outside.write_bytes(b"keep")
        buf = io.BytesIO()
        with tarfile.open(fileobj=buf, mode="w:gz") as tar:
            for info_name, info_kind in (("ok.bin", tarfile.REGTYPE), (name, kind)):
                info = tarfile.TarInfo(info_name)
                info.type = info_kind
                if info_kind == tarfile.REGTYPE:
                    info.size = 4
                else:
                    info.linkname = str(outside)
                tar.addfile(info, io.BytesIO(b"data") if info.size else None)
        archive = tmp_path / "evil.tar.gz"
        archive.write_bytes(buf.getvalue())
        dest = tmp_path / "data"
        monkeypatch.setattr(D, "CIFAR10_EXPECTED", (("ok.bin", 4),))
        with pytest.raises(D.DatasetFormatError, match=re.escape(name)):
            D.fetch_dataset(dest, url=archive.as_uri(),
                            sha256=hashlib.sha256(buf.getvalue()).hexdigest())
        assert not (tmp_path / "data-evil").exists()
        assert not (dest / "ok.bin").exists() and not (dest / name).exists()

    def test_download_sleeps_only_between_attempts(self, tmp_path, monkeypatch):
        sleeps = []
        monkeypatch.setattr(D.time, "sleep", sleeps.append)
        with pytest.raises(D.DownloadError):
            D._download((tmp_path / "none.tar.gz").as_uri(), tmp_path / "out.tar.gz")
        assert sleeps == [1.0, 2.0]


class TestLoader:
    def test_roundtrip_labels_and_planar_order(self, tmp_path):
        root = tmp_path / D.CIFAR10_SUBDIR
        root.mkdir(parents=True)
        record = tiny_cifar_record(7, red=255, green=0, blue=128)
        for rel in D.CIFAR10_TRAIN_FILES:
            (tmp_path / rel).write_bytes(record)
        (tmp_path / D.CIFAR10_TEST_FILES[0]).write_bytes(tiny_cifar_record(0))
        train, test = D.load_cifar10(tmp_path)
        assert train.labels.tolist() == [7] * 5
        np.testing.assert_allclose(train.images[0, :, :, 0], 1.0)
        np.testing.assert_allclose(train.images[0, :, :, 1], 0.0)
        np.testing.assert_allclose(train.images[0, :, :, 2], 128 / 255)
        # all-zero record: black image, label 0
        assert test.labels.tolist() == [0]
        np.testing.assert_array_equal(test.images, 0.0)

    def test_subset_picked_from_records_equals_subset_of_full_load(self, tmp_path):
        rng = np.random.default_rng(0)
        for rel in D.CIFAR10_TRAIN_FILES + D.CIFAR10_TEST_FILES:
            records = rng.integers(0, 256, (300, D.RECORD_BYTES), dtype=np.uint8)
            records[:, 0] %= 10
            (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
            (tmp_path / rel).write_bytes(records.tobytes())
        full = D.load_cifar10(tmp_path)
        picked = D.load_cifar10(tmp_path, ([3, 7, 0], 40, 20))
        for whole, got, per_class in zip(full, picked, (40, 20)):
            want = D.subset_per_class(whole, [3, 7, 0], per_class)
            assert got.images.dtype == np.float32 and got.images.flags.c_contiguous
            assert got.images.tobytes() == want.images.tobytes()
            np.testing.assert_array_equal(got.labels, want.labels)
            assert got.num_classes == 3

    def test_counts(self, tmp_path):
        write_cifar_files(tmp_path, records_per_file=3)
        train, test = D.load_cifar10(tmp_path)
        assert len(train) == 15 and len(test) == 3

    def test_truncated_file_rejected(self, tmp_path):
        write_cifar_files(tmp_path, records_per_file=2)
        path = tmp_path / D.CIFAR10_TRAIN_FILES[0]
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(D.DatasetFormatError):
            D.load_cifar10(tmp_path)

    def test_bad_label_rejected(self, tmp_path):
        write_cifar_files(tmp_path, records_per_file=2)
        bad = bytearray(tiny_cifar_record(0))
        bad[0] = 11
        (tmp_path / D.CIFAR10_TRAIN_FILES[2]).write_bytes(bytes(bad))
        with pytest.raises(D.DatasetFormatError):
            D.load_cifar10(tmp_path)

    def test_missing_file_rejected(self, tmp_path):
        write_cifar_files(tmp_path, records_per_file=2)
        os.remove(tmp_path / D.CIFAR10_TEST_FILES[0])
        with pytest.raises(D.DatasetFormatError):
            D.load_cifar10(tmp_path)


def one_per_class(n=3):
    return D.LabeledDataset(images=np.zeros((n, 2, 2, 1), np.float32),
                            labels=np.arange(n), num_classes=n)


# Refusals that no other test reaches: the call, its exception type, and the
# parts of the message that name what it refused.
REFUSALS = [
    pytest.param(lambda: D.LabeledDataset(images=np.zeros((4, 8, 8)), labels=np.zeros(4, int),
                                          num_classes=2),
                 ValueError, ["rank 4", "(4, 8, 8)"], id="LabeledDataset-rank"),
    pytest.param(lambda: D.LabeledDataset(images=np.zeros((4, 8, 8, 1)),
                                          labels=np.zeros(3, int), num_classes=2),
                 ValueError, ["4 images vs 3 labels"], id="LabeledDataset-count"),
    pytest.param(lambda: D.LabeledDataset(images=np.zeros((2, 8, 8, 1)),
                                          labels=np.array([0, 2]), num_classes=2),
                 ValueError, ["labels outside [0, 2)"], id="LabeledDataset-labels"),
    pytest.param(lambda: D.class_aware_batch_indices(one_per_class(), 4,
                                                     np.random.default_rng(0)),
                 ValueError, ["no class has two or more samples"], id="class-aware-no-pairs"),
]


@pytest.mark.parametrize("call,error,named", REFUSALS)
def test_refusal_names_what_it_refuses(call, error, named):
    with pytest.raises(Exception) as exc:
        call()
    assert type(exc.value) is error
    assert [part for part in named if part not in str(exc.value)] == []
