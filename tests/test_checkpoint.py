"""Binary checkpoint format: roundtrips and every structured failure mode."""

import os
import stat
import struct

import numpy as np
import pytest

from msn import checkpoint as C


def sample_tensors(rng):
    return {
        "block1.conv1.kernel": rng.standard_normal((3, 3, 2, 4)).astype(np.float32),
        "block1.conv1.bias": rng.standard_normal(4).astype(np.float32),
        "xi.head1.state": rng.random(5),
        "meta.iteration": np.array([42.0]),
    }


def test_roundtrip_is_bit_identical(tmp_path, rng):
    tensors = sample_tensors(rng)
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, tensors)
    loaded = C.read_tensors(path)
    assert sorted(loaded) == sorted(tensors)
    for name in tensors:
        assert loaded[name].dtype == tensors[name].dtype
        np.testing.assert_array_equal(loaded[name], tensors[name])


def test_magic_and_version_fields(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    raw = path.read_bytes()
    assert raw[:4] == b"MSN1"
    assert struct.unpack("<H", raw[4:6])[0] == C.VERSION


def test_bad_magic(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    raw = bytearray(path.read_bytes())
    raw[0:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(C.CheckpointError, match="bad magic"):
        C.read_tensors(path)


def test_version_mismatch(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    raw = bytearray(path.read_bytes())
    raw[4:6] = struct.pack("<H", C.VERSION + 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(C.CheckpointError, match="format version"):
        C.read_tensors(path)


def test_truncation(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    raw = path.read_bytes()
    path.write_bytes(raw[:-7])
    with pytest.raises(C.CheckpointError, match="left in the file"):
        C.read_tensors(path)


def test_trailing_bytes(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(C.CheckpointError):
        C.read_tensors(path)


def encode_tensor(name, arr):
    out = struct.pack("<H", len(name)) + name.encode()
    out += struct.pack("<BB", 1 if arr.dtype == np.float64 else 0, arr.ndim)
    for e in arr.shape:
        out += struct.pack("<I", e)
    return out + arr.tobytes()


def test_duplicate_tensor_name(tmp_path):
    arr = np.arange(3, dtype=np.float64)
    raw = C.MAGIC + struct.pack("<H", C.VERSION) + struct.pack("<I", 2)
    raw += encode_tensor("x", arr) + encode_tensor("x", arr)
    path = tmp_path / "dup.ckpt"
    path.write_bytes(raw)
    with pytest.raises(C.CheckpointError, match="duplicate tensor name"):
        C.read_tensors(path)


def test_write_rejects_unsupported(tmp_path):
    with pytest.raises(ValueError):
        C.write_tensors(tmp_path / "x.ckpt", {"a": np.zeros(3, dtype=np.int32)})
    with pytest.raises(ValueError):
        C.write_tensors(tmp_path / "y.ckpt", {"a": np.zeros((1, 1, 1, 1, 1))})


def test_failed_write_leaves_existing_checkpoint_intact(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    before = path.read_bytes()
    bad = dict(sample_tensors(rng), **{"zz.extra": np.zeros(3, dtype=np.int32)})
    with pytest.raises(ValueError):
        C.write_tensors(path, bad)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]
    assert sorted(C.read_tensors(path)) == sorted(sample_tensors(rng))


def test_write_error_mid_file_removes_temporary(tmp_path, rng, monkeypatch):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, sample_tensors(rng))
    before = path.read_bytes()

    def fail(fd):
        raise OSError("disk full")

    monkeypatch.setattr(C.os, "fsync", fail)
    with pytest.raises(OSError, match="disk full"):
        C.write_tensors(path, sample_tensors(rng))
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


def test_directory_synced_after_file(tmp_path, rng, monkeypatch):
    path = tmp_path / "a.ckpt"
    synced = []
    real_fsync = C.os.fsync

    def record(fd):
        st = os.fstat(fd)
        synced.append((stat.S_ISDIR(st.st_mode), st.st_ino))
        real_fsync(fd)

    monkeypatch.setattr(C.os, "fsync", record)
    C.write_tensors(path, sample_tensors(rng))
    assert synced == [(False, path.stat().st_ino), (True, tmp_path.stat().st_ino)]


def test_overwrite_replaces_contents(tmp_path, rng):
    path = tmp_path / "a.ckpt"
    C.write_tensors(path, {"a": np.zeros(3)})
    C.write_tensors(path, {"b": np.ones(2, dtype=np.float32)})
    loaded = C.read_tensors(path)
    assert list(loaded) == ["b"]
    np.testing.assert_array_equal(loaded["b"], np.ones(2, dtype=np.float32))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ckpt"]


def value_spans(raw):
    """(start, stop) byte offsets of each tensor's values in a checkpoint."""
    (count,) = struct.unpack("<I", raw[6:10])
    pos, spans = 10, []
    for _ in range(count):
        (name_len,) = struct.unpack("<H", raw[pos:pos + 2])
        pos += 2 + name_len
        code, rank = raw[pos], raw[pos + 1]
        extents = struct.unpack("<" + "I" * rank, raw[pos + 2:pos + 2 + 4 * rank])
        pos += 2 + 4 * rank
        stop = pos + int(np.prod(extents)) * (4 if code == 0 else 8)
        spans.append((pos, stop))
        pos = stop
    assert pos == len(raw)
    return spans


def header_offsets(raw):
    """Offsets of every byte that is not part of a tensor's values."""
    values = {i for start, stop in value_spans(raw) for i in range(start, stop)}
    return [i for i in range(len(raw)) if i not in values]


def test_name_that_is_not_utf8(tmp_path):
    raw = C.MAGIC + struct.pack("<H", C.VERSION) + struct.pack("<I", 1)
    raw += encode_tensor("x", np.arange(3, dtype=np.float64)).replace(b"x", b"\xff", 1)
    path = tmp_path / "name.ckpt"
    path.write_bytes(raw)
    with pytest.raises(C.CheckpointError, match="UTF-8"):
        C.read_tensors(path)


@pytest.mark.parametrize("extents", [(2**31, 2**31), (2**32 - 1,) * 4, (1000, 1000)])
def test_extents_beyond_the_file_are_truncation(tmp_path, extents):
    # the count is checked against the file's size before any read, so a
    # corrupt extent neither overflows nor allocates its claimed size
    raw = C.MAGIC + struct.pack("<H", C.VERSION) + struct.pack("<I", 1)
    raw += struct.pack("<H", 1) + b"x" + struct.pack("<BB", 0, len(extents))
    raw += struct.pack("<" + "I" * len(extents), *extents) + bytes(64)
    path = tmp_path / "big.ckpt"
    path.write_bytes(raw)
    with pytest.raises(C.CheckpointError, match="left in the file"):
        C.read_tensors(path)
