"""The write side of every file format: rows read back as written, and
every writer is atomic (a failed write leaves the old file and no temp)."""

import errno
import os
import re
import struct
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import xling
from xling import tensorio
from xling.audio import read_wav, write_wav
from xling.corpus import DatasetSpec, ManifestEntry, SpeakerSpec, read_manifest, write_manifest
from xling.errors import ParseError
from xling.lexicon import LDPSymbol, PhonemeSequence, dump_phoneme_sequence
from xling.textio import records, write_records, write_text

# (sep, maxsplit) as the package's formats use them: tab-separated files,
# the manifest, key=value files, and whitespace-separated lexicons
SEPARATORS = [("\t", -1), ("|", -1), ("=", 1), (None, -1)]

# separators, line ends, comment marks, whitespace that str.strip removes,
# and the byte order mark that a file may start with
SPECIAL = "\t|= #\n\r\x0b\x85\ufeff"
FIELD = st.one_of(
    st.text(SPECIAL + "ab", max_size=6),  # at a field edge, too
    st.tuples(st.text("ab", min_size=1, max_size=2), st.text(SPECIAL, max_size=2),
              st.text("ab", min_size=1, max_size=2)).map("".join),  # inside a field
    st.text(max_size=6),
)


class TestWriteRecords:
    @pytest.mark.parametrize("sep, maxsplit", SEPARATORS, ids=repr)
    @given(rows=st.lists(st.lists(FIELD, max_size=4), max_size=4))
    def test_rows_read_back_or_raise(self, tmp_path_factory, sep, maxsplit, rows):
        path = tmp_path_factory.mktemp("rt") / "r.txt"
        try:
            write_records(path, rows, sep, maxsplit)
        except ParseError:
            assert not path.exists()
            return
        assert [fields for _, fields in records(path, sep, maxsplit)] == rows

    @pytest.mark.parametrize("row", [
        ["a\tb", "c"], ["a", "b\nc"], ["a", "b\rc"], [" a", "b"], ["a", "b "],
        ["#a", "b"], [], [""], ["a", ""],
    ], ids=repr)
    def test_row_that_would_not_read_back_raises_at_path(self, tmp_path, row):
        path = tmp_path / "r.txt"
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "):
            write_records(path, [["ok", "row"], row], "\t")
        assert not path.exists()

    def test_byte_order_mark_that_would_start_the_file(self, tmp_path):
        path = tmp_path / "r.txt"
        with pytest.raises(ParseError, match="would not read back"):
            write_records(path, [["\ufeffk", "v"]], "\t")
        assert not path.exists()
        write_records(path, [["k", "v"], ["\ufeffk", "v"]], "\t")
        write_records(path, [["\ufeffk", "v"]], "\t", header="h")
        assert [fields for _, fields in records(path, "\t")] == [["\ufeffk", "v"]]

    def test_nul_in_a_field_raises_at_path(self, tmp_path):
        path = tmp_path / "r.txt"
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "):
            write_records(path, [["ok", "a\0b"]], "\t")
        assert not path.exists()

    def test_header_is_a_comment_line(self, tmp_path):
        path = tmp_path / "r.txt"
        write_records(path, [["k", "v=w"]], "=", 1, header="key=value")
        assert path.read_text(encoding="utf-8") == "# key=value\nk=v=w\n"
        assert list(records(path, "=", 1)) == [(2, ["k", "v=w"])]

    def test_write_text_replaces_whole_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("old\n", encoding="utf-8")
        write_text(path, "durations_used\t\n")
        assert path.read_bytes() == b"durations_used\t\n"
        assert os.listdir(tmp_path) == ["t.txt"]


class TestSilentDropsRaise:
    """Rows that used to be written and then skipped or altered on reading."""

    def test_manifest_utt_id_with_leading_hash(self, tmp_path):
        entries = [
            ManifestEntry(utt, "a.wav", "hi", "s", "EN", "M", 1.0, "a.align")
            for utt in ("u0", "#u1")
        ]
        path = tmp_path / "manifest.txt"
        with pytest.raises(ParseError, match="would not read back"):
            write_manifest(entries, path)
        assert not path.exists()
        write_manifest(entries[:1], path)
        assert read_manifest(path) == entries[:1]

    def test_spec_member_with_leading_hash(self, tmp_path):
        members = (SpeakerSpec("s0", "CN", "M", 1.0), SpeakerSpec("#s1", "EN", "F", 1.0))
        with pytest.raises(ParseError, match="would not read back"):
            DatasetSpec("d", members).save(tmp_path / "d.spec")

    def test_spec_name_with_surrounding_space(self, tmp_path):
        members = (SpeakerSpec("s0", "CN", "M", 1.0),)
        with pytest.raises(ParseError, match="would not read back"):
            DatasetSpec(" padded", members).save(tmp_path / "d.spec")

    def test_phoneme_label_with_leading_hash(self, tmp_path):
        ps = PhonemeSequence(
            (LDPSymbol("a", "EN"), LDPSymbol("#a", "EN")), ("a", "b"), (1, 1)
        )
        path = tmp_path / "x.phn"
        with pytest.raises(ParseError, match="would not read back"):
            dump_phoneme_sequence(ps, path)
        assert not path.exists()


class _FullDisk:
    """A binary file whose every write fails, as on a full disk."""

    def __init__(self, path, mode):
        self._file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._file.close()

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def writelines(self, chunks):
        for chunk in chunks:
            self.write(chunk)


class TestFailedWriteKeepsOldFile:
    @pytest.mark.parametrize("write", [
        lambda path: tensorio.write_tensor(path, np.ones((2, 3))),
        lambda path: tensorio.write_sections(path, {"w": np.ones(3)}),
    ], ids=["write_tensor", "write_sections"])
    def test_tensor_writers(self, tmp_path, monkeypatch, write):
        target = tmp_path / "t.xlf"
        target.write_bytes(b"old bytes")
        monkeypatch.setattr(tensorio, "open", _FullDisk, raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(target)
        assert target.read_bytes() == b"old bytes"
        assert os.listdir(tmp_path) == ["t.xlf"]

    def test_write_wav(self, tmp_path):
        target = tmp_path / "a.wav"
        write_wav(target, np.full(160, 0.25), 16000)
        old = target.read_bytes()
        with pytest.raises(wave.Error):
            write_wav(target, np.full(160, 0.5), 0)  # the wave module rejects rate 0
        assert target.read_bytes() == old
        assert os.listdir(tmp_path) == ["a.wav"]
        assert read_wav(target).samples[0] == 0.25


class TestFailedWriteNamesTheTarget:
    """An ``OSError`` on a writer's temp file names the path its caller gave."""

    WRITERS = {
        "write_text": lambda path: write_text(path, "x"),
        "write_records": lambda path: write_records(path, [["a", "b"]]),
        "write_tensor": lambda path: tensorio.write_tensor(path, np.ones(2)),
        "write_sections": lambda path: tensorio.write_sections(path, {"w": np.ones(2)}),
        "write_wav": lambda path: write_wav(path, np.full(16, 0.25), 16000),
    }

    @pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
    @pytest.mark.parametrize("target, error", [
        ("missing/x", FileNotFoundError), ("adir", IsADirectoryError),
        ("afile/x", NotADirectoryError),
    ], ids=["missing_directory", "directory", "file_as_directory"])
    def test_error_names_the_given_path(self, tmp_path, monkeypatch, write, target, error):
        (tmp_path / "adir").mkdir()
        (tmp_path / "afile").write_bytes(b"old bytes")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(error) as info:
            write(target)
        assert info.value.filename == target
        assert str(info.value).endswith(f": {target!r}")
        assert sorted(os.listdir(tmp_path)) == ["adir", "afile"]
        assert os.listdir(tmp_path / "adir") == []
        assert (tmp_path / "afile").read_bytes() == b"old bytes"


class TestReadTensorMagic:
    @pytest.mark.parametrize("data", [b"", b"NOPE", b"NOPE" + struct.pack("<I", 0)],
                             ids=repr)
    def test_bad_magic_checked_before_parsing(self, tmp_path, data):
        path = tmp_path / "t.xlf"
        path.write_bytes(data)
        with pytest.raises(ParseError, match="bad magic"):
            tensorio.read_tensor(path)


class TestOneWriter:
    """Temp files and replacing live in textio; only it, tensorio and audio
    write files, so every output of the package is atomic."""

    WRITERS = {"textio.py", "tensorio.py", "audio.py"}
    ALLOWED = {"os.replace": {"textio.py"}, ".tmp": {"textio.py"},
               "atomic_path(": WRITERS, ".write_text(": WRITERS, ".write_bytes(": WRITERS}

    def test_write_primitives_stay_in_the_writers(self):
        sources = {p.name: p.read_text(encoding="utf-8")
                   for p in Path(xling.__file__).parent.glob("*.py")}
        misplaced = {needle: sorted(name for name, source in sources.items()
                                    if needle in source and name not in allowed)
                     for needle, allowed in self.ALLOWED.items()}
        assert misplaced == {needle: [] for needle in self.ALLOWED}
