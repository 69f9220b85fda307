import os
import re
import stat
import sys
import threading

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import xling
from xling.errors import ParseError
from xling.textio import atomic_path, cast, read_keys, read_text, records, write_records


class TestRecords:
    def test_skips_blank_and_comment_lines_and_strips_fields(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("# header\n\n  a \t b c \n   # indented comment\nd\te\n",
                        encoding="utf-8")
        assert list(records(path, "\t")) == [(3, ["a", "b c"]), (5, ["d", "e"])]

    def test_crlf_and_cr_line_ends(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(b"a=1\r\nb=2\rc=3\n")
        assert list(records(path, "=", 1, n_fields=2)) == [
            (1, ["a", "1"]), (2, ["b", "2"]), (3, ["c", "3"])
        ]

    def test_whitespace_split_and_maxsplit(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("k  x y\tz\nk=v=w\n", encoding="utf-8")
        assert next(records(path)) == (1, ["k", "x", "y", "z"])
        assert list(records(path, "=", 1))[1] == (2, ["k", "v=w"])

    def test_wrong_field_count_names_path_and_line(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_text("a=1\n# c\nno equals sign\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:3: expected 2 fields"):
            list(records(path, "=", 1, n_fields=2))


class TestNotUtf8:
    @pytest.mark.parametrize("data, line", [
        (b"\xffa=1\n", 1),
        (b"a=1\nb=\xfe\n", 2),
        (b"a=1\r\nb=2\r\n# c\r\nd=\xc3(\n", 4),
        (b"a=1\rb=2\r\x80", 3),
        (b"a=\xe4\xbd\xa0\n\n\xe4\xbd\n", 3),  # a valid CJK char, then a cut one
        (b"\xef\xbb\xbfa=1\n\xff", 2),  # after a byte order mark
    ])
    def test_bad_byte_is_a_parse_error_at_its_line(self, tmp_path, data, line):
        path = tmp_path / "r.txt"
        path.write_bytes(data)
        where = rf"^{re.escape(str(path))}:{line}: not UTF-8: byte 0x"
        with pytest.raises(ParseError, match=where):
            list(records(path, "=", 1))
        with pytest.raises(ParseError, match=where):
            read_text(path)

    @pytest.mark.parametrize("data, line", [
        (b"\0a=1\n", 1),
        (b"a=1\r\nb=x\0y\n", 2),
        (b"a=1\rb=2\r\xe4\xbd\xa0\0", 3),
        (b"\xef\xbb\xbfa=1\nb\0", 2),  # the offset counts the byte order mark
    ])
    def test_nul_byte_is_a_parse_error_at_its_line(self, tmp_path, data, line):
        path = tmp_path / "r.txt"
        path.write_bytes(data)
        where = rf"^{re.escape(str(path))}:{line}: NUL byte at offset {data.index(0)}$"
        with pytest.raises(ParseError, match=where):
            read_text(path)

    def test_read_text_reads_every_line_break_as_newline(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("你\r\n好\rx\n".encode("utf-8"))
        assert read_text(path) == "你\n好\nx\n"


class TestByteOrderMark:
    """One leading UTF-8 byte order mark is read as no content; line numbers
    and byte offsets still count from the file's first byte."""

    BOM = "\ufeff".encode("utf-8")

    def test_one_leading_mark_is_dropped(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(self.BOM + self.BOM + b"a\n")
        assert read_text(path) == "\ufeffa\n"

    def test_comment_after_the_mark_stays_a_comment(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(self.BOM + b"# header\nk=v\n")
        assert list(records(path, "=", 1, n_fields=2)) == [(2, ["k", "v"])]
        assert read_keys(path, {"k": str}) == {"k": "v"}

    def test_first_record_after_the_mark(self, tmp_path):
        path = tmp_path / "r.txt"
        path.write_bytes(self.BOM + b"a|b\n")
        assert list(records(path, "|")) == [(1, ["a", "b"])]


class TestCast:
    def test_converts(self):
        assert cast(int, "12", "p", 1) == 12
        assert cast(float, "0.5", "p", 1) == 0.5

    def test_bad_value_names_path_and_line(self):
        with pytest.raises(ParseError, match=r"^f\.txt:7: expected float, got 'abc'$"):
            cast(float, "abc", "f.txt", 7)


class TestReadKeys:
    KINDS = {"n": int, "x": float, "name": str}

    def test_types_each_value_by_its_key(self, tmp_path):
        path = tmp_path / "k.cfg"
        path.write_text("# c\nn = 3\nx=0.5\nname=a=b\n", encoding="utf-8")
        assert read_keys(path, self.KINDS) == {"n": 3, "x": 0.5, "name": "a=b"}

    @pytest.mark.parametrize("content, line, detail", [
        ("n=1\nm=2\n", 2, "unknown key 'm'"),
        ("n=1\n\nn=1\n", 3, "repeated key 'n'"),
        ("x=0.5\nn=1.5\n", 2, "n: expected int, got '1.5'"),
        ("x=abc\n", 1, "x: expected float, got 'abc'"),
        ("n\n", 1, "expected 2 fields"),
    ], ids=["unknown", "repeated", "bad int", "bad float", "no ="])
    def test_bad_record_is_a_parse_error_at_its_line(self, tmp_path, content, line, detail):
        path = tmp_path / "k.cfg"
        path.write_text(content, encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(f'{path}:{line}: ')}") as exc_info:
            read_keys(path, self.KINDS)
        assert detail in str(exc_info.value)

    @given(pairs=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=5))
    def test_written_rows_read_back(self, tmp_path_factory, pairs):
        path = tmp_path_factory.mktemp("keys") / "k.cfg"
        try:
            write_records(path, pairs.items(), "=", 1)
        except ParseError:
            assert not path.exists()
            return
        assert read_keys(path, dict.fromkeys(pairs, str)) == pairs


class TestOneKeyValueReader:
    """``read_keys`` is the only reader of ``key=value`` records."""

    def test_equals_separated_records_are_read_only_in_textio(self):
        reader = re.compile(r"(?<![\w.])records\([^)]*[\"']=[\"']")
        readers = sorted(p.name for p in Path(xling.__file__).parent.glob("*.py")
                         if reader.search(p.read_text(encoding="utf-8")))
        assert readers == ["textio.py"]


class TestAtomicPath:
    def test_replaces_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old", encoding="utf-8")
        with atomic_path(target) as tmp:
            assert tmp.parent == tmp_path and tmp != target
            tmp.write_text("new", encoding="utf-8")
        assert target.read_text(encoding="utf-8") == "new"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_keeps_old_bytes_and_removes_temp(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_bytes(b"old bytes")
        with pytest.raises(RuntimeError):
            with atomic_path(target) as tmp:
                tmp.write_bytes(b"partial")
                raise RuntimeError("writer failed")
        assert target.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_temp_names_are_unique_per_call(self, tmp_path):
        with atomic_path(tmp_path / "x") as a, atomic_path(tmp_path / "x") as b:
            assert a != b
            a.write_text("a", encoding="utf-8")
            b.write_text("b", encoding="utf-8")
        assert os.listdir(tmp_path) == ["x"]

    def test_two_threads_writing_one_target(self, tmp_path):
        target = tmp_path / "shared.txt"
        errors = []

        def writer(tag):
            try:
                for i in range(300):
                    with atomic_path(target) as tmp:
                        tmp.write_text(f"{tag} {i}\n", encoding="utf-8")
            except Exception as exc:  # collected and asserted on below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(tag,)) for tag in "ab"]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert os.listdir(tmp_path) == ["shared.txt"]
        assert target.read_text(encoding="utf-8") in {"a 299\n", "b 299\n"}

    def test_mode_matches_plain_write_under_same_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            plain = tmp_path / "plain.txt"
            plain.write_text("x", encoding="utf-8")
            with atomic_path(tmp_path / "atomic.txt") as tmp:
                tmp.write_text("x", encoding="utf-8")
        finally:
            os.umask(old)
        mode = stat.S_IMODE(plain.stat().st_mode)
        assert mode == 0o640
        assert stat.S_IMODE((tmp_path / "atomic.txt").stat().st_mode) == mode
