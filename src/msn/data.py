"""Dataset acquisition, preprocessing, synthetic data, and batching.

The preprocessing chain is global contrast normalization, then ZCA whitening
fitted on the training split, then horizontal flips at batch time (training
only). CIFAR-10 arrives as the canonical binary archive: 3,073-byte records,
one label byte followed by 1,024 bytes each of R, G, B planes in row-major
order, 10,000 records per file.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import json
import os
import tarfile
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

CIFAR10_URL = "https://www.cs.toronto.edu/~kriz/cifar-10-binary.tar.gz"
# Digest of the canonical archive; override with --sha256 if upstream changes.
CIFAR10_SHA256 = "c4a38c50a1bc5f3a1c5537f2155ab9d68f9f25eb1ed8d9ddda3db29a59bca1dd"
CIFAR10_SUBDIR = "cifar-10-batches-bin"
RECORD_BYTES = 3073
RECORDS_PER_FILE = 10_000
CIFAR10_FILE_BYTES = RECORD_BYTES * RECORDS_PER_FILE  # 30,730,000

CIFAR10_TRAIN_FILES = tuple(f"{CIFAR10_SUBDIR}/data_batch_{i}.bin" for i in range(1, 6))
CIFAR10_TEST_FILES = (f"{CIFAR10_SUBDIR}/test_batch.bin",)
CIFAR10_EXPECTED = tuple(
    (name, CIFAR10_FILE_BYTES) for name in CIFAR10_TRAIN_FILES + CIFAR10_TEST_FILES)
# Tries per download; after failed try k (from 0) the next waits min(2**k, 8) s.
DOWNLOAD_ATTEMPTS = 3
# Images per block of float64 scratch in GCN and ZCA whitening.
ROW_BLOCK = 256


class DigestMismatchError(RuntimeError):
    """Archive content does not match the pinned digest."""


class DownloadError(RuntimeError):
    """Network-level failure; retryable."""


class DatasetFormatError(RuntimeError):
    """Malformed dataset bytes (truncation, bad label, wrong sizes)."""


@dataclass(frozen=True)
class LabeledDataset:
    """Images (N, H, W, C) with integer labels in [0, num_classes).

    Frozen, and its labels are not to be changed in place: ``class_pools``
    is built from them once.
    """

    images: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.images.ndim != 4:
            raise ValueError(f"images must be rank 4, got shape {self.images.shape}")
        if len(self.images) != len(self.labels):
            raise ValueError(
                f"{len(self.images)} images vs {len(self.labels)} labels")
        if len(self.labels) and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise ValueError(f"labels outside [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @functools.cached_property
    def class_pools(self) -> tuple:
        """(eligible, pools): the classes with two or more samples, in
        ``np.unique`` order, and a dict from each to its sample indices.

        Built on first use and kept with the dataset; the arrays are read-only.
        """
        classes, counts = np.unique(self.labels, return_counts=True)
        eligible = classes[counts >= 2]
        pools = {int(c): np.flatnonzero(self.labels == c) for c in eligible}
        for arr in (eligible, *pools.values()):
            arr.flags.writeable = False
        return eligible, pools

    def take(self, indices) -> "LabeledDataset":
        return LabeledDataset(images=self.images[indices], labels=self.labels[indices],
                              num_classes=self.num_classes)


# ---------------------------------------------------------------------------
# acquisition
# ---------------------------------------------------------------------------

def _sha256_of(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _missing(dest: Path) -> list:
    """The CIFAR-10 files under ``dest`` that are absent or mis-sized."""
    return [rel for rel, size in CIFAR10_EXPECTED
            if not (dest / rel).is_file() or (dest / rel).stat().st_size != size]


def _download(url: str, target: Path) -> None:
    last = None
    for attempt in range(DOWNLOAD_ATTEMPTS):
        try:
            with urllib.request.urlopen(url, timeout=60) as resp, open(target, "wb") as out:
                while True:
                    chunk = resp.read(1 << 20)
                    if not chunk:
                        break
                    out.write(chunk)
            return
        except (urllib.error.URLError, TimeoutError, ConnectionError, OSError) as exc:
            last = exc
            if attempt + 1 < DOWNLOAD_ATTEMPTS:
                time.sleep(min(2.0 ** attempt, 8.0))
    raise DownloadError(f"could not download {url}: {last}")


def _safe_extract(archive: Path, dest: Path) -> None:
    """Extract only when every member is a plain entry that lands inside ``dest``."""
    root = dest.resolve()
    with tarfile.open(archive, "r:gz") as tar:
        for member in tar.getmembers():
            if member.issym() or member.islnk():
                raise DatasetFormatError(f"archive member is a link: {member.name}")
            if not (root / member.name).resolve().is_relative_to(root):
                raise DatasetFormatError(f"archive member escapes dest: {member.name}")
        tar.extractall(dest)


def fetch_dataset(dest, url: str | None = None, sha256: str | None = None) -> str:
    """Download, digest-verify, and extract the CIFAR-10 archive into ``dest``.

    Idempotent: when the stamp and all expected files are already in place
    the network is never touched. A stamp that is not a JSON object naming
    this digest counts as none, so the archive is verified again. Returns
    "already-verified" or "fetched".
    """
    url = url or CIFAR10_URL
    sha256 = (sha256 or CIFAR10_SHA256).lower()

    dest = Path(dest)
    dest.mkdir(parents=True, exist_ok=True)
    stamp = dest / ".verified-cifar10"
    if stamp.is_file() and not _missing(dest):
        try:
            recorded = json.loads(stamp.read_text())
        except ValueError:
            recorded = None
        if isinstance(recorded, dict) and recorded.get("sha256") == sha256:
            return "already-verified"

    archive = dest / "cifar10.tar.gz"
    if not archive.is_file():
        _download(url, archive)
    actual = _sha256_of(archive)
    if actual != sha256:
        archive.unlink(missing_ok=True)
        raise DigestMismatchError(f"archive digest mismatch: expected {sha256}, got {actual}")
    _safe_extract(archive, dest)
    missing = _missing(dest)
    if missing:
        raise DatasetFormatError(f"extracted files missing or mis-sized: {missing}")
    stamp.write_text(json.dumps({"url": url, "sha256": sha256}))
    return "fetched"


def data_root() -> str:
    """Where CIFAR-10 is read, and fetched by default: $MSN_DATA_DIR, else ``data``."""
    return os.environ.get("MSN_DATA_DIR", "data")


def cifar10_files_present(data_dir) -> bool:
    return not _missing(Path(data_dir))


def _read_cifar_records(paths) -> np.ndarray:
    """The checked uint8 records of the batch files ``paths``, in order, read
    into one array of shape (n, RECORD_BYTES)."""
    sizes = []
    for path in paths:
        if not path.is_file():
            raise DatasetFormatError(f"missing dataset file {path}")
        size = path.stat().st_size
        if size == 0 or size % RECORD_BYTES:
            raise DatasetFormatError(
                f"{path}: {size} bytes is not a whole number of "
                f"{RECORD_BYTES}-byte records")
        sizes.append(size)
    records = np.empty((sum(sizes) // RECORD_BYTES, RECORD_BYTES), np.uint8)
    start = 0
    for path, size in zip(paths, sizes):
        part = records[start:start + size // RECORD_BYTES]
        with open(path, "rb") as fh:
            if fh.readinto(part.reshape(-1)) != size:
                raise DatasetFormatError(f"{path}: shorter than its {size} bytes")
        top = part[:, 0].max()
        if top > 9:
            raise DatasetFormatError(f"{path}: label byte {top} > 9")
        start += len(part)
    return records


def _load_split(paths, classes, per_class) -> LabeledDataset:
    """One split; its records stay uint8 until its one float32 conversion,
    which follows ``subset_per_class`` when ``classes`` is given."""
    records = _read_cifar_records(paths)
    split = LabeledDataset(images=records[:, 1:].reshape(-1, 3, 32, 32).transpose(0, 2, 3, 1),
                           labels=records[:, 0].astype(np.int64), num_classes=10)
    if classes is not None:
        split = subset_per_class(split, classes, per_class)
    images = split.images.astype(np.float32, order="C")
    images /= 255.0
    return replace(split, images=images)


def load_cifar10(data_dir, subset=None) -> tuple:
    """Read the binary batches; returns (train, test) with pixels in [0, 1].

    ``subset``, if given, is (classes, train_per_class, test_per_class): each
    split keeps ``subset_per_class`` of its images, picked from the uint8
    records, so only the kept images are converted."""
    data_dir = Path(data_dir)
    classes, *per_class = subset or (None, None, None)
    return tuple(_load_split([data_dir / rel for rel in files], classes, n)
                 for files, n in zip((CIFAR10_TRAIN_FILES, CIFAR10_TEST_FILES), per_class))


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------

def _by_row_blocks(images: np.ndarray, transform) -> np.ndarray:
    """One output of the shape and dtype of ``images``, filled ROW_BLOCK images
    at a time with ``transform`` of each block as a float64 (rows, pixels)
    copy, which ``transform`` may change in place. A lone last image joins
    the block before it: numpy multiplies a one-row matrix by gemv, which may
    round differently from the gemm that a longer block gets."""
    out = np.empty(images.shape, images.dtype)
    starts = list(range(0, len(images), ROW_BLOCK))
    if len(starts) > 1 and len(images) - starts[-1] == 1:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [len(images)]):
        block = images[start:stop].astype(np.float64, order="C")
        out[start:stop] = transform(block.reshape(stop - start, -1)).reshape(block.shape)
    return out


def global_contrast_normalize(images: np.ndarray) -> np.ndarray:
    """Per image: subtract the scalar mean, scale deviations to unit RMS.

    Runs in blocks of ROW_BLOCK images, so beyond its output it holds about
    two blocks of float64 scratch (the block and its squares)."""
    def normalize(rows):
        rows -= rows.mean(axis=1, keepdims=True)
        rms = np.sqrt((rows ** 2).mean(axis=1, keepdims=True))
        rows /= np.maximum(rms, 1e-8)  # a constant image maps to zeros
        return rows

    return _by_row_blocks(images, normalize)


@dataclass(frozen=True)
class ZcaTransform:
    """Whitening fitted on a training split, kept in low-rank form: the
    mean vector and W = I/sqrt(eps) + basis^T diag(coef) basis, where basis
    is (K, D) with K = min(N, D). No D x D matrix is held when N < D."""

    mean: np.ndarray
    basis: np.ndarray
    coef: np.ndarray
    eps: float


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS that numpy's wheel
    bundles and has loaded, or None where numpy runs on another BLAS."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        try:
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block at one OpenBLAS thread, then restore the count. Where
    the count cannot be set, the block runs at whatever count BLAS uses."""
    threads = _openblas_threads()
    if threads is None:
        yield
        return
    get, set_count = threads
    before = get()
    set_count(1)
    try:
        yield
    finally:
        set_count(before)


def zca_fit(images: np.ndarray, eps: float = 1e-2) -> ZcaTransform:
    """W = U diag(1/sqrt(l+eps)) U^T for the pixel covariance U diag(l) U^T.

    Fitted from the eigendecomposition of the smaller Gram matrix of the
    centred N x D pixels C: C C^T (N x N) when N < D, else C^T C (D x D).
    Its eigenvalues are lam = N l. The rows of basis (U_gram^T C, or
    sqrt(lam) V^T in the D x D case) are covariance eigenvectors scaled to
    norm sqrt(lam), so W = I/sqrt(eps) + sum_k coef_k basis_k^T basis_k with
    coef_k = (1/r_k - 1/sqrt(eps))/lam_k for r_k = sqrt(lam_k/N + eps),
    computed as -1/(sqrt(eps) r_k (r_k + sqrt(eps)) N), which has no
    cancellation and stays finite at lam = 0. Every direction orthogonal to
    the centred data (at least D-N+1 of them when N < D) is scaled by exactly
    1/sqrt(eps).

    The products and the eigendecomposition run at one BLAS thread: at two,
    OpenBLAS gives other bits for the Gram product and ``eigh`` at many image
    counts (100 and 300 of 32x32x3, say), so the fit would follow
    ``OPENBLAS_NUM_THREADS``.
    """
    if len(images) < 2:
        raise ValueError(f"need at least 2 samples to fit ZCA, got {len(images)}")
    centered = images.reshape(len(images), -1).astype(np.float64)
    mean = centered.mean(axis=0)
    centered -= mean
    n, d = centered.shape
    with _one_blas_thread():
        if n < d:
            lam, u = np.linalg.eigh(centered @ centered.T)
            basis = u.T @ centered
        else:
            lam, v = np.linalg.eigh(centered.T @ centered)
            basis = np.sqrt(np.clip(lam, 0.0, None))[:, None] * v.T
    root_eps = np.sqrt(eps)
    r = np.sqrt(np.clip(lam, 0.0, None) / n + eps)
    coef = -1.0 / (root_eps * r * (r + root_eps)) / n
    return ZcaTransform(mean=mean, basis=basis, coef=coef, eps=eps)


def zca_apply(transform: ZcaTransform, images: np.ndarray) -> np.ndarray:
    """(x - mean) W for each flattened image x: O(M K D) for M images, with no
    D x D product.

    Runs in blocks of ROW_BLOCK images, so beyond its output it holds about
    two blocks of float64 scratch (the block and its low-rank term) and two
    (block, K) products."""
    def whiten(z):
        z -= transform.mean
        low_rank = ((z @ transform.basis.T) * transform.coef) @ transform.basis
        z /= np.sqrt(transform.eps)
        z += low_rank
        return z

    return _by_row_blocks(images, whiten)


def hflip(images: np.ndarray) -> np.ndarray:
    """Deterministic left-right mirror of every image."""
    return images[:, :, ::-1, :]


def random_flip(images: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Mirror each image independently with probability 0.5."""
    out = images.copy()
    mask = rng.random(len(images)) < 0.5
    out[mask] = hflip(images[mask])
    return out


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def class_aware_batch_indices(dataset: LabeledDataset, batch_size: int,
                              rng: np.random.Generator) -> np.ndarray:
    """One batch with at least two samples from every represented class.

    Batches of size >= 2c represent every class with samples; smaller batches
    represent a random subset of classes, still two-or-more each. The class
    pools come from ``dataset.class_pools``.
    """
    if batch_size < 2:
        raise ValueError("class-aware batching needs batch_size >= 2")
    eligible, pools = dataset.class_pools
    if eligible.size == 0:
        raise ValueError("no class has two or more samples")
    k = min(len(eligible), batch_size // 2)
    chosen = rng.choice(eligible, size=k, replace=False)
    counts = {int(c): 2 for c in chosen}
    for c in rng.choice(chosen, size=batch_size - 2 * k, replace=True):
        counts[int(c)] += 1
    picks = []
    for c, count in counts.items():
        pool = pools[c]
        picks.append(rng.choice(pool, size=count, replace=count > len(pool)))
    batch = np.concatenate(picks)
    rng.shuffle(batch)
    return batch


# ---------------------------------------------------------------------------
# synthetic data
# ---------------------------------------------------------------------------

def synthetic_blobs(num_classes: int, per_class: int, image_shape=(8, 8, 1),
                    separation: float = 3.0, *, rng: np.random.Generator) -> LabeledDataset:
    """Gaussian blobs around per-class template images; separable when the
    separation dwarfs the unit noise."""
    if separation <= 0:
        raise ValueError("separation must be positive")
    templates = separation * rng.standard_normal((num_classes,) + tuple(image_shape))
    labels = np.repeat(np.arange(num_classes), per_class)
    images = templates[labels] + rng.standard_normal((len(labels),) + tuple(image_shape))
    order = rng.permutation(len(labels))
    return LabeledDataset(images=images[order].astype(np.float32),
                          labels=labels[order], num_classes=num_classes)


def subset_per_class(dataset: LabeledDataset, classes, per_class: int,
                     ) -> LabeledDataset:
    """First ``per_class`` samples of each listed class, labels remapped to 0..k-1."""
    classes = list(classes)
    picks = []
    new_labels = []
    for new_label, c in enumerate(classes):
        idx = np.flatnonzero(dataset.labels == c)[:per_class]
        if len(idx) < per_class:
            raise ValueError(f"class {c} has only {len(idx)} samples, need {per_class}")
        picks.append(idx)
        new_labels.append(np.full(per_class, new_label, dtype=np.int64))
    return LabeledDataset(images=dataset.images[np.concatenate(picks)],
                          labels=np.concatenate(new_labels),
                          num_classes=len(classes))
