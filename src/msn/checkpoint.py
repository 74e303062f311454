"""Bit-exact binary checkpoints.

Layout: magic ``MSN1`` | format version u16 LE | tensor count u32 LE | per
tensor: name length u16 LE, UTF-8 name, dtype code u8 (0 = f32, 1 = f64),
rank u8, extents as u32 LE each, raw values little-endian.
"""

from __future__ import annotations

import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

MAGIC = b"MSN1"
VERSION = 1

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


class CheckpointError(RuntimeError):
    """Malformed checkpoint file."""


def write_tensors(path, tensors: dict) -> None:
    """Serialize name -> float array, sorted by name for byte stability.

    All or nothing: every tensor is checked before a byte is written, the
    bytes go to a temporary file in the target's directory, and that file
    replaces ``path`` only once it is flushed and synced; the directory is
    synced after the rename so the new entry survives a crash. On any failure
    before the rename an existing file at ``path`` is left as it was and the
    temporary file is removed.
    """
    path = Path(path)
    arrays = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        if arr.dtype not in _DTYPE_CODES:
            raise ValueError(f"{name}: unsupported dtype {arr.dtype}")
        if not (1 <= arr.ndim <= 4):
            raise ValueError(f"{name}: rank {arr.ndim} outside 1..4")
        arrays.append((name, arr))
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<H", VERSION))
            fh.write(struct.pack("<I", len(arrays)))
            for name, arr in arrays:
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<BB", _DTYPE_CODES[arr.dtype], arr.ndim))
                for extent in arr.shape:
                    fh.write(struct.pack("<I", extent))
                fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    dir_fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _read_exact(fh, count: int, what: str) -> bytes:
    raw = fh.read(count)
    if len(raw) != count:
        raise CheckpointError(f"checkpoint truncated while reading {what}")
    return raw


def read_tensors(path) -> dict:
    """Name -> array as ``write_tensors`` wrote them. A file that cannot be
    opened, or a malformed byte outside the tensor values, raises
    CheckpointError; each tensor's byte count is checked against the bytes left
    in the file before its values are read."""
    path = Path(path)
    tensors: dict[str, np.ndarray] = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"cannot open checkpoint {path}: {exc.strerror}") from exc
    with fh:
        size = os.fstat(fh.fileno()).st_size
        magic = _read_exact(fh, 4, "magic")
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}, expected {MAGIC!r}")
        (version,) = struct.unpack("<H", _read_exact(fh, 2, "version"))
        if version != VERSION:
            raise CheckpointError(f"format version {version}, expected {VERSION}")
        (count,) = struct.unpack("<I", _read_exact(fh, 4, "tensor count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "name length"))
            try:
                name = _read_exact(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise CheckpointError(f"tensor name is not UTF-8: {exc}") from exc
            if name in tensors:
                raise CheckpointError(f"duplicate tensor name {name!r}")
            code, rank = struct.unpack("<BB", _read_exact(fh, 2, "dtype/rank"))
            if code not in _CODE_DTYPES:
                raise CheckpointError(f"{name!r}: unknown dtype code {code}")
            if not (1 <= rank <= 4):
                raise CheckpointError(f"{name!r}: rank {rank} outside 1..4")
            extents = struct.unpack(
                "<" + "I" * rank, _read_exact(fh, 4 * rank, "extents"))
            dtype = _CODE_DTYPES[code]
            nbytes = math.prod(extents) * dtype.itemsize
            if nbytes > size - fh.tell():
                raise CheckpointError(
                    f"{name!r}: extents {extents} need {nbytes} bytes, "
                    f"{size - fh.tell()} left in the file")
            raw = _read_exact(fh, nbytes, f"values of {name!r}")
            arr = np.frombuffer(raw, dtype=dtype).reshape(extents)
            tensors[name] = arr.astype(dtype.newbyteorder("="), copy=True)
        if fh.read(1):
            raise CheckpointError("trailing bytes after final tensor")
    return tensors
