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

import math
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
    count, offset = _unpack_u32(data, 4, path)
    tensors = {}
    for _ in range(count):
        name_len, offset = _unpack_u32(data, offset, path)
        end = offset + name_len
        if end > len(data):
            raise ParseError(f"section name of {name_len} bytes runs past the end",
                             path=path)
        try:
            name = data[offset:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"section name is not UTF-8: {exc}", path=path) from exc
        tensors[name], offset = _parse_tensor(data, end, path)
    if offset != len(data):
        raise ParseError(f"{len(data) - offset} trailing bytes", path=path)
    return tensors


def _unpack_u32(data: bytes, offset: int, path) -> tuple[int, int]:
    """The u32 LE at ``offset`` and the offset after it."""
    if offset + 4 > len(data):
        raise ParseError(f"truncated at byte {len(data)}, expected a u32 at {offset}",
                         path=path)
    return struct.unpack_from("<I", data, offset)[0], offset + 4


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
    rank, offset = _unpack_u32(data, offset, path)
    if offset + 4 * rank > len(data):
        raise ParseError(f"{rank} dims run past the end", path=path)
    dims = struct.unpack_from(f"<{rank}I", data, offset)
    offset += 4 * rank
    n = math.prod(dims)  # a Python int: a huge header cannot wrap around
    end = offset + 8 * n
    if end > len(data):
        raise ParseError("tensor data truncated", path=path)
    arr = np.frombuffer(data, "<f8", count=n, offset=offset).reshape(dims)
    return arr.astype(np.float64), end  # the one copy: owned, writable, native order
