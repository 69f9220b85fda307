"""Flat binary tensor files (``.xlf``), one tensor per file:

    bytes 0..3   magic ``XLF1`` (ASCII)
    u32 LE       rank
    u32 LE * r   dims
    f64 LE       values, row-major

Per-utterance features, ``forward`` outputs and the ``forward
--dump-weights`` buffer (every parameter, rank 1) all use this layout.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .errors import ParseError
from .textio import atomic_path

MAGIC = b"XLF1"


def write_tensor(path, values) -> None:
    """Write ``values``; a C-contiguous little-endian float64 array is
    written straight from its buffer, without a copy."""
    arr = np.asarray(values, dtype="<f8", order="C")
    with atomic_path(path) as tmp, open(tmp, "wb") as f:
        f.writelines((MAGIC, struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape), arr))


def read_tensor(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] != MAGIC:
        raise ParseError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", path=path)
    if len(data) < 8:
        raise ParseError(f"truncated at byte {len(data)}, expected a u32 at 4", path=path)
    rank = struct.unpack_from("<I", data, 4)[0]
    offset = 8 + 4 * rank
    if offset > len(data):
        raise ParseError(f"{rank} dims run past the end", path=path)
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    n = math.prod(dims)  # a Python int: a huge header cannot wrap around
    end = offset + 8 * n
    if end > len(data):
        raise ParseError("tensor data truncated", path=path)
    if end != len(data):
        raise ParseError(f"{len(data) - end} trailing bytes", path=path)
    arr = np.frombuffer(data, "<f8", count=n, offset=offset).reshape(dims)
    return arr.astype(np.float64)  # the one copy: owned, writable, native order
