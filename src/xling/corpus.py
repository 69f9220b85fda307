"""Dataset manifests, alignment files, and balance reporting.

File formats (line rules in :mod:`xling.textio`):

* alignment: one phoneme per line, ``LABEL<TAB>frames`` with frames in
  10 ms units.  :func:`check_duration` is the one rule for an alignment
  against its audio (the frame total within +-2 frames of the duration's
  rounded frame count); ``manifest`` applies it while scanning, and
  ``features`` again before fitting the alignment to its feature grid, so
  both accept the same alignments.
* manifest: one utterance per line,
  ``utt_id|audio_path|text|speaker|language|gender|duration_sec|alignment_path``.
  The ``utt_id`` names output files, so it must be a plain file name: not
  empty, ``.`` or ``..``, and without ``/``.
* dataset spec: a ``name<TAB>value`` line, then one member per line as
  ``speaker_id<TAB>language<TAB>gender<TAB>max_hours``; the two are told
  apart by their field count, so a speaker may be called ``name``.  A
  ``speaker_id`` starts every ``utt_id`` of its speaker, so it must be a
  plain file name too.

`build_manifest` scans per-speaker directories (``<root>/<speaker_id>/``
holding ``<utt>.wav`` + ``<utt>.txt`` + ``<utt>.align``) in spec order on
the calling thread (the scan parses text, which holds the GIL), validates
every alignment, and truncates each speaker at its hour cap in
lexicographic filename order.  It admits exactly the WAVs that ``stats`` and
``features`` analyze, those that :mod:`xling.audio`'s one WAV rule admits;
their rate is checked later, against the feature config.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .audio import wav_duration_sec
from .errors import (
    DurationMismatchError,
    EmptyManifestError,
    MissingSpeakerError,
    ParseError,
)
from .textio import cast, read_text, records, write_records

FRAMES_PER_SECOND = 100  # 10 ms alignment frames
DURATION_TOLERANCE_FRAMES = 2
IMBALANCE_SHARE = 0.60

LANGUAGES = ("CN", "EN")
GENDERS = ("M", "F")


def is_file_name(name: str) -> bool:
    """Whether ``name`` names a file inside a directory, not the directory,
    its parent or a path below it."""
    return name not in ("", ".", "..") and "/" not in name


@dataclass(frozen=True)
class AlignmentRecord:
    utt_id: str
    ldp_labels: tuple
    frame_durations: tuple


@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    audio_path: str
    text: str
    speaker_id: str
    language: str
    gender: str
    duration_sec: float
    alignment_path: str


@dataclass(frozen=True)
class SpeakerSpec:
    speaker_id: str
    language: str
    gender: str
    max_hours: float

    def __post_init__(self):
        if not is_file_name(self.speaker_id):
            raise ParseError(f"speaker id {self.speaker_id!r} is not a plain file name")
        if self.language not in LANGUAGES:
            raise ParseError(f"unknown language {self.language!r}")
        if self.gender not in GENDERS:
            raise ParseError(f"unknown gender {self.gender!r}")
        if not self.max_hours > 0:
            raise ParseError(f"max_hours must be positive for {self.speaker_id}")


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    members: tuple

    def __post_init__(self):
        ids = [m.speaker_id for m in self.members]
        if len(set(ids)) != len(ids):
            raise ParseError(f"duplicate speaker ids in dataset {self.name!r}")

    @classmethod
    def load(cls, path) -> "DatasetSpec":
        name = None
        members = []
        for line_no, parts in records(path, "\t"):
            # told apart by field count: a member's speaker id may be "name"
            if len(parts) == 2 and parts[0] == "name":
                name = parts[1]
            elif len(parts) == 4:
                max_hours = cast(float, parts[3], path, line_no)
                try:
                    members.append(SpeakerSpec(parts[0], parts[1], parts[2], max_hours))
                except ParseError as exc:
                    raise ParseError(str(exc), path=path, line=line_no) from exc
            else:
                raise ParseError(
                    "expected name<TAB>value or "
                    "speaker<TAB>language<TAB>gender<TAB>max_hours",
                    path=path,
                    line=line_no,
                )
        if name is None:
            name = Path(path).stem
        if not members:
            raise ParseError("dataset spec has no members", path=path)
        return cls(name, tuple(members))

    def save(self, path) -> None:
        rows = [("name", self.name)]
        rows += [(m.speaker_id, m.language, m.gender, str(m.max_hours)) for m in self.members]
        write_records(path, rows, "\t")


def parse_alignment(path, utt_id: str | None = None) -> AlignmentRecord:
    if utt_id is None:
        utt_id = Path(path).stem
    labels, durations = [], []
    for line_no, (label, frames) in records(path, "\t", 1, n_fields=2):
        n = cast(int, frames, path, line_no)
        if n < 0:
            raise ParseError("negative frame count", path=path, line=line_no)
        labels.append(label)
        durations.append(n)
    if not labels:
        raise ParseError("alignment file has no entries", path=path)
    return AlignmentRecord(utt_id, tuple(labels), tuple(durations))


def check_duration(record: AlignmentRecord, duration_sec: float) -> None:
    """Frame total must match the audio duration within +-2 frames."""
    expected = round(duration_sec * FRAMES_PER_SECOND)
    total = sum(record.frame_durations)
    if abs(total - expected) > DURATION_TOLERANCE_FRAMES:
        raise DurationMismatchError(
            f"{record.utt_id}: alignment covers {total} frames but audio is "
            f"{duration_sec:.3f}s (~{expected} frames)"
        )


def _scan_speaker(member: SpeakerSpec, roots) -> list:
    speaker_dir = None
    for root in roots:
        candidate = Path(root) / member.speaker_id
        if candidate.is_dir():
            speaker_dir = candidate
            break
    if speaker_dir is None:
        raise MissingSpeakerError(
            f"speaker {member.speaker_id!r} not found under {[str(r) for r in roots]}"
        )
    entries = []
    budget = member.max_hours * 3600.0 + 1e-9  # epsilon absorbs float accumulation
    total = 0.0
    for wav_path in sorted(speaker_dir.glob("*.wav")):
        stem = wav_path.stem
        text_path = wav_path.with_suffix(".txt")
        align_path = wav_path.with_suffix(".align")
        if not text_path.is_file():
            raise ParseError(f"missing transcript for {wav_path}", path=text_path)
        if not align_path.is_file():
            raise ParseError(f"missing alignment for {wav_path}", path=align_path)
        duration = wav_duration_sec(wav_path)
        if total + duration > budget:
            break  # hour cap reached; later files are dropped
        utt_id = f"{member.speaker_id}_{stem}"
        record = parse_alignment(align_path, utt_id=utt_id)
        check_duration(record, duration)
        entries.append(
            ManifestEntry(
                utt_id=utt_id,
                audio_path=str(wav_path),
                text=read_text(text_path).strip(),
                speaker_id=member.speaker_id,
                language=member.language,
                gender=member.gender,
                duration_sec=duration,
                alignment_path=str(align_path),
            )
        )
        total += duration
    return entries


def build_manifest(spec: DatasetSpec, scan_roots) -> list:
    """Every member's entries in member order; a failed member stops the scan."""
    roots = list(scan_roots)
    return [entry for member in spec.members for entry in _scan_speaker(member, roots)]


def write_manifest(entries, path) -> None:
    seen = set()
    rows = []
    for e in entries:
        if e.utt_id in seen:
            raise ParseError(f"duplicate utt_id {e.utt_id!r}", path=path)
        seen.add(e.utt_id)
        rows.append((e.utt_id, e.audio_path, e.text, e.speaker_id, e.language, e.gender,
                     repr(e.duration_sec), e.alignment_path))
    write_records(path, rows, "|")


def read_manifest(path) -> list:
    entries = []
    seen = set()
    for line_no, parts in records(path, "|", n_fields=8):
        duration = cast(float, parts[6], path, line_no)
        if not is_file_name(parts[0]):
            raise ParseError(f"utt_id {parts[0]!r} is not a plain file name",
                             path=path, line=line_no)
        if parts[0] in seen:
            raise ParseError(f"duplicate utt_id {parts[0]!r}", path=path, line=line_no)
        seen.add(parts[0])
        entries.append(ManifestEntry(*parts[:6], duration, parts[7]))
    if not entries:
        raise ParseError("manifest is empty", path=path)
    return entries


@dataclass(frozen=True)
class BalanceReport:
    hours: dict  # (language, gender) -> hours
    total_hours: float

    @property
    def flags(self) -> tuple:
        """E.g. ``("language:CN",)`` when a share exceeds :data:`IMBALANCE_SHARE`."""
        axes = (("language", LANGUAGES), ("gender", GENDERS))
        return tuple(f"{axis}:{value}" for axis, values in axes for value in values
                     if self.share(axis, value) > IMBALANCE_SHARE)

    def share(self, axis: str, value: str) -> float:
        index = 0 if axis == "language" else 1
        hours = sum(h for key, h in self.hours.items() if key[index] == value)
        return hours / self.total_hours

    def render(self) -> str:
        lines = [f"total_hours\t{self.total_hours:.6f}"]
        for (language, gender), hours in sorted(self.hours.items()):
            lines.append(f"hours\t{language}\t{gender}\t{hours:.6f}")
        for language in LANGUAGES:
            lines.append(f"share_language\t{language}\t{self.share('language', language):.6f}")
        for gender in GENDERS:
            lines.append(f"share_gender\t{gender}\t{self.share('gender', gender):.6f}")
        lines.append("flags\t" + (",".join(self.flags) if self.flags else "none"))
        return "\n".join(lines) + "\n"


def balance_report(entries) -> BalanceReport:
    """Per-(language, gender) hour totals, flagging shares above 60%."""
    if not entries:
        raise EmptyManifestError("cannot report balance of an empty manifest")
    hours = {}
    for e in entries:
        key = (e.language, e.gender)
        hours[key] = hours.get(key, 0.0) + e.duration_sec / 3600.0
    return BalanceReport(hours, sum(hours.values()))
