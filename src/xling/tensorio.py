"""Flat binary tensor files (``.xlf``).

Single-tensor layout, used for per-utterance features and CLI dumps:

    bytes 0..3   magic ``XLF1`` (ASCII)
    u32 LE       rank
    u32 LE * r   dims
    f64 LE       values, row-major

Multi-tensor container, used for model weights (one named section per
parameter): magic ``XLF1``, then u32 LE section count, then per section a
u32 LE name length, the UTF-8 name, and the rank/dims/values block above.
Sections are written sorted by name so identical tensors always produce
identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from .errors import ParseError
from .textio import atomic_path

MAGIC = b"XLF1"


def write_tensor(path, values) -> None:
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.writelines((MAGIC, *_pack(values)))


def read_tensor(path) -> np.ndarray:
    data = _read(path)
    arr, offset = _parse_tensor(data, 4, path)
    if offset != len(data):
        raise ParseError(f"{len(data) - offset} trailing bytes", path=path)
    return arr


def write_sections(path, tensors: dict) -> None:
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.write(MAGIC + struct.pack("<I", len(tensors)))
        for name in sorted(tensors):
            encoded = name.encode("utf-8")
            f.write(struct.pack("<I", len(encoded)) + encoded)
            f.writelines(_pack(tensors[name]))


def read_sections(path) -> dict:
    data = _read(path)
    (count,) = struct.unpack_from("<I", data, 4)
    offset = 8
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, offset)
        offset += 4
        name = data[offset : offset + name_len].decode("utf-8")
        offset += name_len
        tensors[name], offset = _parse_tensor(data, offset, path)
    if offset != len(data):
        raise ParseError(f"{len(data) - offset} trailing bytes", path=path)
    return tensors


def _read(path) -> bytes:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", path=path)
    return data


def _pack(values) -> tuple:
    """The rank/dims/values block :func:`_parse_tensor` reads, as two buffers."""
    arr = np.asarray(values, dtype="<f8", order="C")
    return struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape), arr


def _parse_tensor(data: bytes, offset: int, path) -> tuple[np.ndarray, int]:
    try:
        (rank,) = struct.unpack_from("<I", data, offset)
        offset += 4
        dims = struct.unpack_from(f"<{rank}I", data, offset)
        offset += 4 * rank
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        end = offset + 8 * n
        if end > len(data):
            raise struct.error("tensor data truncated")
        arr = np.frombuffer(data[offset:end], dtype="<f8").reshape(dims)
    except struct.error as exc:
        raise ParseError(str(exc), path=path) from exc
    return arr.astype(np.float64), end
