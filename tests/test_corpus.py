import re

import numpy as np
import pytest

from xling.audio import write_wav
from xling.corpus import (
    AlignmentRecord,
    BalanceReport,
    DatasetSpec,
    ManifestEntry,
    SpeakerSpec,
    balance_report,
    build_manifest,
    check_duration,
    parse_alignment,
    read_manifest,
    write_manifest,
)
from xling.errors import (
    DurationMismatchError,
    EmptyManifestError,
    MissingSpeakerError,
    ParseError,
)


class TestParseAlignment:
    def test_basic(self, tmp_path):
        path = tmp_path / "u1.align"
        path.write_text("M\t7\nIH\t5\n", encoding="utf-8")
        record = parse_alignment(path)
        assert record.utt_id == "u1"
        assert record.ldp_labels == ("M", "IH")
        assert record.frame_durations == (7, 5)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.align"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_alignment(path)

    def test_bad_frame_count(self, tmp_path):
        path = tmp_path / "b.align"
        path.write_text("M\tseven\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_alignment(path)

    def test_negative_frames(self, tmp_path):
        path = tmp_path / "n.align"
        path.write_text("M\t-3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            parse_alignment(path)


class TestCheckDuration:
    def test_within_tolerance(self):
        record = AlignmentRecord("u", ("A", "B"), (20, 20))
        check_duration(record, 0.4)  # |40 - 40| <= 2
        check_duration(record, 0.42)  # |40 - 42| <= 2

    def test_outside_tolerance(self):
        record = AlignmentRecord("u", ("A",), (40,))
        with pytest.raises(DurationMismatchError):
            check_duration(record, 0.43)  # |40 - 43| > 2


class TestDatasetSpec:
    def test_round_trip(self, tmp_path):
        spec = DatasetSpec(
            "d1",
            (
                SpeakerSpec("cnm", "CN", "M", 5.0),
                SpeakerSpec("enf", "EN", "F", 5.0),
            ),
        )
        path = tmp_path / "d1.spec"
        spec.save(path)
        assert DatasetSpec.load(path) == spec

    def test_member_called_name_round_trips(self, tmp_path):
        # the name line has 2 fields and a member 4, whatever the first says
        spec = DatasetSpec("name", (SpeakerSpec("name", "CN", "M", 1.0),
                                    SpeakerSpec("enf", "EN", "F", 2.0)))
        path = tmp_path / "n.spec"
        spec.save(path)
        assert DatasetSpec.load(path) == spec

    def test_three_field_line_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("name\tx\tdd\ncnm\tCN\tM\t1.0\n", encoding="utf-8")
        with pytest.raises(ParseError, match=r":1: expected name<TAB>value or speaker"):
            DatasetSpec.load(path)

    def test_duplicate_speakers_rejected(self):
        with pytest.raises(ParseError):
            DatasetSpec(
                "x",
                (SpeakerSpec("a", "CN", "M", 1.0), SpeakerSpec("a", "EN", "F", 1.0)),
            )

    def test_bad_enums(self):
        with pytest.raises(ParseError):
            DatasetSpec("x", (SpeakerSpec("a", "FR", "M", 1.0),))
        with pytest.raises(ParseError):
            DatasetSpec("x", (SpeakerSpec("a", "CN", "X", 1.0),))
        with pytest.raises(ParseError):
            DatasetSpec("x", (SpeakerSpec("a", "CN", "M", 0.0),))

    def test_empty_spec_file(self, tmp_path):
        path = tmp_path / "e.spec"
        path.write_text("name\tempty\n", encoding="utf-8")
        with pytest.raises(ParseError):
            DatasetSpec.load(path)


class TestBuildManifest:
    def test_d1_has_two_speakers_within_caps(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d1.spec")
        entries = build_manifest(spec, [minicorpus])
        speakers = {e.speaker_id for e in entries}
        assert speakers == {"d1_cnm", "d1_enf"}
        for member in spec.members:
            total = sum(e.duration_sec for e in entries if e.speaker_id == member.speaker_id)
            assert total <= member.max_hours * 3600 + 1e-6

    def test_truncation_drops_extra_files(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d1.spec")
        entries = build_manifest(spec, [minicorpus])
        on_disk = len(list((minicorpus / "d1_cnm").glob("*.wav")))
        kept = sum(1 for e in entries if e.speaker_id == "d1_cnm")
        assert kept < on_disk

    def test_missing_speaker(self, minicorpus):
        spec = DatasetSpec("x", (SpeakerSpec("ghost", "CN", "M", 1.0),))
        with pytest.raises(MissingSpeakerError):
            build_manifest(spec, [minicorpus])

    def test_deterministic_and_jobs_invariant(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d123.spec")
        a = build_manifest(spec, [minicorpus])
        b = build_manifest(spec, [minicorpus])
        assert a == b

    def test_paper_scale_structure(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d123.spec")
        assert len(spec.members) == 8
        caps = sorted((m.max_hours for m in spec.members), reverse=True)
        assert caps == [0.05, 0.05, 0.01, 0.01, 0.01, 0.01, 0.01, 0.01]
        assert sum(caps) == pytest.approx(0.16)  # 16 h scaled down 100x

    def test_duration_mismatch_propagates(self, tmp_path):
        speaker = tmp_path / "spk"
        speaker.mkdir()
        write_wav(speaker / "u0.wav", np.zeros(16000), 16000)  # 1.0 s = 100 frames
        (speaker / "u0.txt").write_text("好\n", encoding="utf-8")
        (speaker / "u0.align").write_text("hao\t50\n", encoding="utf-8")
        spec = DatasetSpec("x", (SpeakerSpec("spk", "CN", "M", 1.0),))
        with pytest.raises(DurationMismatchError) as exc_info:
            build_manifest(spec, [tmp_path])
        assert "spk_u0" in str(exc_info.value)

    def test_every_entry_alignment_valid(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d123.spec")
        for e in build_manifest(spec, [minicorpus]):
            record = parse_alignment(e.alignment_path, utt_id=e.utt_id)
            check_duration(record, e.duration_sec)
            assert len(record.ldp_labels) == len(record.frame_durations)


class TestManifestIO:
    def test_round_trip(self, minicorpus, tmp_path):
        spec = DatasetSpec.load(minicorpus / "d2.spec")
        entries = build_manifest(spec, [minicorpus])
        path = tmp_path / "manifest.txt"
        write_manifest(entries, path)
        assert read_manifest(path) == entries

    def test_duplicate_utt_rejected(self, tmp_path):
        entry = ManifestEntry("u", "a.wav", "hi", "s", "EN", "M", 1.0, "a.align")
        with pytest.raises(ParseError):
            write_manifest([entry, entry], tmp_path / "m.txt")

    def test_pipe_in_field_rejected(self, tmp_path):
        entry = ManifestEntry("u", "a.wav", "h|i", "s", "EN", "M", 1.0, "a.align")
        with pytest.raises(ParseError):
            write_manifest([entry], tmp_path / "m.txt")


class TestBalanceReport:
    def test_d1_is_balanced(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d1.spec")
        report = balance_report(build_manifest(spec, [minicorpus]))
        assert report.share("language", "CN") == pytest.approx(0.5, abs=1e-9)
        assert report.share("language", "EN") == pytest.approx(0.5, abs=1e-9)
        assert report.share("gender", "M") == pytest.approx(0.5, abs=1e-9)
        assert report.share("gender", "F") == pytest.approx(0.5, abs=1e-9)
        assert not report.flagged

    def test_d1_plus_d2_is_balanced(self, minicorpus):
        entries = []
        for name in ("d1", "d2"):
            spec = DatasetSpec.load(minicorpus / f"{name}.spec")
            entries += build_manifest(spec, [minicorpus])
        report = balance_report(entries)
        # 5+1 CN vs 5+1 EN, 5+1 M vs 5+1 F (scaled down 100x)
        assert report.total_hours == pytest.approx(0.12, abs=1e-9)
        for axis, value in (("language", "CN"), ("gender", "M")):
            assert report.share(axis, value) == pytest.approx(0.5, abs=1e-9)
        assert not report.flagged

    def test_single_speaker_flagged(self):
        entries = [
            ManifestEntry("u1", "a.wav", "x", "s", "CN", "M", 3600.0, "a.align"),
        ]
        report = balance_report(entries)
        assert report.share("language", "CN") == 1.0
        assert set(report.flags) == {"language:CN", "gender:M"}

    def test_totals_match_entries(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d123.spec")
        entries = build_manifest(spec, [minicorpus])
        report = balance_report(entries)
        expected = sum(e.duration_sec for e in entries) / 3600.0
        assert abs(report.total_hours - expected) < 1e-6
        assert abs(sum(report.hours.values()) - report.total_hours) < 1e-12

    def test_empty_manifest(self):
        with pytest.raises(EmptyManifestError):
            balance_report([])

    def test_render_deterministic(self, minicorpus):
        spec = DatasetSpec.load(minicorpus / "d1.spec")
        entries = build_manifest(spec, [minicorpus])
        assert balance_report(entries).render() == balance_report(entries).render()
        assert isinstance(balance_report(entries), BalanceReport)


class TestManifestFields:
    @pytest.mark.parametrize("text", ["one\ntwo", "one\rtwo", " padded "])
    def test_field_that_would_not_read_back_is_rejected(self, tmp_path, text):
        entry = ManifestEntry("u1", "a.wav", text, "s", "EN", "F", 1.0, "a.align")
        path = tmp_path / "manifest.txt"
        with pytest.raises(ParseError):
            write_manifest([entry], path)
        assert not path.exists()


NOT_FILE_NAMES = ["", ".", "..", "../escaped", "a/b"]


class TestIdsAreFileNames:
    @pytest.mark.parametrize("utt_id", NOT_FILE_NAMES)
    def test_manifest_utt_id_refused_at_its_line(self, tmp_path, utt_id):
        path = tmp_path / "manifest.txt"
        path.write_text("u1|a.wav|hi|s|EN|F|1.0|a.align\n"
                        f"{utt_id}|b.wav|hi|s|EN|F|1.0|b.align\n", encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}:2: utt_id "):
            read_manifest(path)

    @pytest.mark.parametrize("speaker_id", NOT_FILE_NAMES)
    def test_speaker_id_refused(self, speaker_id):
        with pytest.raises(ParseError, match="is not a plain file name"):
            SpeakerSpec(speaker_id, "CN", "M", 1.0)

    @pytest.mark.parametrize("name", ["u.1", "..u", "a\\b", "名字"])
    def test_plain_names_read(self, tmp_path, name):
        path = tmp_path / "manifest.txt"
        path.write_text(f"{name}|a.wav|hi|{name}|EN|F|1.0|a.align\n", encoding="utf-8")
        assert read_manifest(path)[0].utt_id == name
        assert SpeakerSpec(name, "CN", "M", 1.0).speaker_id == name


class TestSpeakerSpecChecks:
    @pytest.mark.parametrize("language, gender, max_hours", [
        ("FR", "M", 1.0), ("CN", "X", 1.0), ("CN", "M", 0.0), ("CN", "M", float("nan")),
    ])
    def test_programmatic_member_raises(self, language, gender, max_hours):
        with pytest.raises(ParseError):
            SpeakerSpec("a", language, gender, max_hours)
