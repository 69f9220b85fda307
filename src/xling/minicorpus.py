"""Synthetic mini-corpus generator.

Builds a deterministic toy corpus whose structure mirrors the d1/d2/d3
training-set design: d1 holds a CN male and an EN female with the most
data (5 h paper-scale), d2 adds a CN female and an EN male (1 h each),
and d3 adds four more speakers (1 h each), keeping language and gender
at an exact 50/50 split.  Hour caps are divided by ``scale`` (default
100, so 180 s / 36 s per speaker) and every speaker gets a couple of
utterances beyond its cap so manifest truncation is exercised.

Utterance audio is a harmonic tone at a speaker-dependent f0 with a slow
amplitude envelope; transcripts are sampled from the bundled lexicons and
alignments distribute the utterance's feature frames over its phonemes.
The audio is synthetic and does not match the transcripts acoustically;
it exists to drive the feature/manifest pipeline end to end.

Run ``python -m xling.minicorpus OUT_DIR`` to materialize one on disk.
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from .audio import write_wav
from .corpus import DatasetSpec, SpeakerSpec
from .lexicon import Lexicon, text_to_phoneme_sequence
from .textio import write_records, write_text

SAMPLE_RATE = 16000
HOP = 160  # 10 ms
MIN_UTT_FRAMES = 200  # 2 s
MAX_UTT_FRAMES = 500  # 5 s
EXTRA_UTTERANCES = 2  # beyond the hour cap, to exercise truncation

# (speaker_id, dataset, language, gender, paper-scale hours)
SPEAKERS = (
    ("d1_cnm", "d1", "CN", "M", 5.0),
    ("d1_enf", "d1", "EN", "F", 5.0),
    ("d2_cnf", "d2", "CN", "F", 1.0),
    ("d2_enm", "d2", "EN", "M", 1.0),
    ("d3_cnm", "d3", "CN", "M", 1.0),
    ("d3_cnf", "d3", "CN", "F", 1.0),
    ("d3_enm", "d3", "EN", "M", 1.0),
    ("d3_enf", "d3", "EN", "F", 1.0),
)


def _plan_utterances(rng, cap_frames: int) -> list:
    """Frame counts whose prefix fills the cap exactly, plus extras."""
    kept = []
    total = 0
    while total < cap_frames:
        frames = int(rng.integers(MIN_UTT_FRAMES, MAX_UTT_FRAMES + 1))
        if total + frames >= cap_frames:
            remainder = cap_frames - total
            if remainder < MIN_UTT_FRAMES // 2 and kept:
                kept[-1] += remainder
            else:
                kept.append(remainder)
            total = cap_frames
        else:
            kept.append(frames)
            total += frames
    extras = [int(rng.integers(MIN_UTT_FRAMES, MAX_UTT_FRAMES + 1))
              for _ in range(EXTRA_UTTERANCES)]
    return kept + extras


def _sample_text(rng, language: str, lexicon: Lexicon) -> str:
    if language == "CN":
        chars = sorted(lexicon.cn_entries)
        return "".join(str(rng.choice(chars)) for _ in range(int(rng.integers(3, 9))))
    words = sorted(lexicon.en_entries)
    return " ".join(
        str(rng.choice(words)).lower() for _ in range(int(rng.integers(2, 7)))
    )


def _distribute_frames(rng, total: int, bins: int) -> list:
    weights = rng.uniform(0.5, 1.5, bins)
    raw = np.floor(weights / weights.sum() * total).astype(int)
    shortfall = total - int(raw.sum())
    for i in range(shortfall):
        raw[i % bins] += 1
    return [int(v) for v in raw]


def _synth_audio(rng, n_samples: int, f0: float) -> np.ndarray:
    t = np.arange(n_samples) / SAMPLE_RATE
    envelope = 0.25 * (1.0 + 0.3 * np.sin(2 * np.pi * 2.5 * t + rng.uniform(0, 6.28)))
    wave = np.sin(2 * np.pi * f0 * t) + 0.25 * np.sin(2 * np.pi * 2 * f0 * t)
    return envelope * wave


def generate(root, scale: int = 100, seed: int = 0) -> Path:
    """Write the corpus tree and its dataset spec files under ``root``."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lexicon = Lexicon.load_default()

    for index, (speaker_id, _, language, gender, hours) in enumerate(SPEAKERS):
        rng = np.random.default_rng(seed * 1000 + index)
        speaker_dir = root / speaker_id
        speaker_dir.mkdir(exist_ok=True)
        cap_frames = round(hours * 3600 * 100 / scale)
        base_f0 = (120.0 if gender == "M" else 220.0) + 6.0 * index
        for n, frames in enumerate(_plan_utterances(rng, cap_frames)):
            stem = f"utt{n:04d}"
            text = _sample_text(rng, language, lexicon)
            phonemes = text_to_phoneme_sequence(text, lexicon)
            n_samples = frames * HOP
            f0 = base_f0 * rng.uniform(0.97, 1.03)
            write_wav(
                speaker_dir / f"{stem}.wav", _synth_audio(rng, n_samples, f0), SAMPLE_RATE
            )
            write_text(speaker_dir / f"{stem}.txt", text + "\n")
            # the feature grid has frames+1 rows (center padding), still
            # within the +-2 frame tolerance against the audio duration
            durations = _distribute_frames(rng, frames + 1, len(phonemes.ldp))
            rows = [(sym.label, str(d)) for sym, d in zip(phonemes.ldp, durations)]
            write_records(speaker_dir / f"{stem}.align", rows, "\t", 1)

    datasets = {}
    for speaker_id, dataset, language, gender, hours in SPEAKERS:
        member = SpeakerSpec(speaker_id, language, gender, hours / scale)
        datasets.setdefault(dataset, []).append(member)
    for dataset, members in datasets.items():
        DatasetSpec(dataset, tuple(members)).save(root / f"{dataset}.spec")
    all_members = tuple(
        SpeakerSpec(s, lang, g, h / scale) for s, _, lang, g, h in SPEAKERS
    )
    DatasetSpec("d1+d2+d3", all_members).save(root / "d123.spec")
    return root


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Generate the synthetic mini-corpus")
    parser.add_argument("out_dir", help="directory to create the corpus in")
    parser.add_argument("--scale", type=int, default=100,
                        help="divide paper-scale hour caps by this factor")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    generate(args.out_dir, scale=args.scale, seed=args.seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
