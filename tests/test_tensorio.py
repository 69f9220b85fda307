import re
import struct

import numpy as np
import pytest

from xling.errors import ParseError
from xling.tensorio import read_tensor, write_tensor


class TestSingleTensor:
    @pytest.mark.parametrize(
        "shape", [(), (3,), (2, 4), (2, 3, 2), (0, 5)], ids=str
    )
    def test_round_trip(self, tmp_path, shape):
        rng = np.random.default_rng(0)
        arr = rng.standard_normal(shape)
        path = tmp_path / "t.xlf"
        write_tensor(path, arr)
        got = read_tensor(path)
        assert got.shape == arr.shape
        assert np.array_equal(got, arr)

    def test_result_owns_a_writable_copy(self, tmp_path):
        arr = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "t.xlf"
        write_tensor(path, arr)
        got = read_tensor(path)
        assert got.flags.owndata and got.flags.writeable and got.base is None
        assert got.dtype == np.float64 and np.array_equal(got, arr)
        got[0, 0] = 7.0
        assert np.array_equal(read_tensor(path), arr)

    def test_exact_byte_layout(self, tmp_path):
        # magic, u32 rank, u32 dims, little-endian f64 row-major
        arr = np.array([[1.5, -2.0], [0.25, 8.0]])
        path = tmp_path / "t.xlf"
        write_tensor(path, arr)
        expected = (
            b"XLF1"
            + struct.pack("<I", 2)
            + struct.pack("<II", 2, 2)
            + struct.pack("<4d", 1.5, -2.0, 0.25, 8.0)
        )
        assert path.read_bytes() == expected

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.xlf"
        path.write_bytes(b"NOPE" + struct.pack("<I", 1) + struct.pack("<I", 0))
        with pytest.raises(ParseError):
            read_tensor(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "t.xlf"
        path.write_bytes(b"XLF1" + struct.pack("<I", 1) + struct.pack("<I", 4))
        with pytest.raises(ParseError):
            read_tensor(path)

    @pytest.mark.parametrize("data, detail", [
        (b"XLF1", "truncated at byte 4"),
        (b"XLF1\x01\x00", "truncated at byte 6"),
        (b"XLF1" + struct.pack("<I", 2) + struct.pack("<I", 3), "2 dims run past the end"),
        (b"XLF1" + struct.pack("<I", 4) + struct.pack("<4I", *[2**32 - 1] * 4),
         "tensor data truncated"),
    ], ids=["magic only", "rank cut", "dims past the end", "huge dims"])
    def test_cut_header_is_one_parse_error_at_the_path(self, tmp_path, data, detail):
        path = tmp_path / "t.xlf"
        path.write_bytes(data)
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: {detail}"):
            read_tensor(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "t.xlf"
        write_tensor(path, np.zeros(2))
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ParseError):
            read_tensor(path)
