"""Output checks for each workload, and the checksum compared with
``reference.json``.

The checks read outputs with their own ``.xlf`` and manifest parsers
instead of ``xling``'s, so a defect in the program's readers cannot hide
one in its writers.  Each check returns a list of problems; empty means
the output is correct.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

N_MELS = 80
QUANTIZER_BINS = 256  # the CLI's default quantizer_bins
PREP_OUTPUTS = ("mel", "energy", "pitch", "energy_avg", "pitch_avg", "energy_q")
FORWARD_OUTPUTS = ("mel_pred", "dur_pred", "pitch_pred", "energy_pred")
FORWARD_STAGES = (
    "embed", "encoder", "aggregate", "add_speaker",
    "stopgrad:duration_predictor", "duration_predictor",
    "stopgrad:pitch_predictor", "pitch_predictor",
    "stopgrad:energy_predictor", "energy_predictor",
    "pitch_embedding", "expand", "decoder", "mel",
)
# Relative to the sum of absolute values: far above the last-bit changes a
# reordering of float operations makes (about 1e-12), far below any wrong result.
CHECKSUM_RTOL = 1e-9
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def read_xlf(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != b"XLF1":
        raise ValueError(f"{path}: bad magic")
    (rank,) = struct.unpack_from("<I", data, 4)
    dims = struct.unpack_from(f"<{rank}I", data, 8)
    offset = 8 + 4 * rank
    count = int(np.prod(dims)) if rank else 1
    if len(data) != offset + 8 * count:
        raise ValueError(f"{path}: {len(data)} bytes, expected {offset + 8 * count}")
    return np.frombuffer(data, dtype="<f8", offset=offset).reshape(dims)


def read_manifest_ids(path) -> list:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [line.split("|")[0] for line in lines if line and not line.startswith("#")]


def read_stats(path) -> dict:
    stats = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        key, value = line.split("=", 1)
        stats[key] = float(value)
    return stats


# ---------------------------------------------------------------- prep

def check_prep(out_dir, expected: dict) -> tuple[list, list]:
    """Problems per utterance id, and the arrays that feed the checksum.

    ``expected`` maps each utterance id the manifest must hold to its
    number of alignment phonemes.
    """
    out_dir = Path(out_dir)
    problems = []
    ids = read_manifest_ids(out_dir / "manifest" / "manifest.txt")
    if ids != list(expected):
        problems.append(("manifest", f"{len(ids)} entries, expected {len(expected)}"))
    stats = read_stats(out_dir / "stats" / "stats.txt")
    if not stats["energy_min"] < stats["energy_max"]:
        problems.append(("stats", f"energy_min {stats['energy_min']} >= energy_max"))
    arrays = [np.array([stats[k] for k in sorted(stats)])]
    for utt_id, n_phonemes in expected.items():
        try:
            tensors = {
                kind: read_xlf(out_dir / "features" / f"{utt_id}.{kind}.xlf")
                for kind in PREP_OUTPUTS
            }
        except (OSError, ValueError) as exc:
            problems.append((utt_id, f"missing or unreadable output: {exc}"))
            continue
        problem = _prep_problem(tensors, n_phonemes)
        if problem:
            problems.append((utt_id, problem))
        arrays.extend(tensors[kind] for kind in PREP_OUTPUTS)
    return problems, arrays


def _prep_problem(t: dict, n_phonemes: int) -> str | None:
    mel = t["mel"]
    if mel.ndim != 2 or mel.shape[1] != N_MELS:
        return f"mel shape {mel.shape}"
    if not (mel.shape[0] == t["energy"].size == t["pitch"].size):
        return f"row counts differ: mel {mel.shape[0]}, energy {t['energy'].size}, pitch {t['pitch'].size}"
    for kind in ("energy_avg", "pitch_avg", "energy_q"):
        if t[kind].size != n_phonemes:
            return f"{kind} has {t[kind].size} values, expected {n_phonemes}"
    q = t["energy_q"]
    if q.size and (q.min() < 0 or q.max() >= QUANTIZER_BINS or np.any(q != np.floor(q))):
        return f"energy_q outside [0, {QUANTIZER_BINS})"
    if not all(np.all(np.isfinite(t[kind])) for kind in PREP_OUTPUTS):
        return "non-finite values"
    return None


# ------------------------------------------------------ pipeline / synth

def check_mel(mel, frames: int) -> str | None:
    """``frames`` rows of ``N_MELS`` finite values."""
    if mel.ndim != 2 or mel.shape != (frames, N_MELS):
        return f"mel shape {mel.shape}, expected ({frames}, {N_MELS})"
    if not np.all(np.isfinite(mel)):
        return "mel has non-finite values"
    return None


def check_pipeline(out_dir, utt_id: str, frames: int) -> tuple[str | None, list]:
    arrays = [read_xlf(Path(out_dir) / f"{utt_id}.{kind}.xlf") for kind in FORWARD_OUTPUTS]
    return check_mel(arrays[0], frames), arrays


def check_synth(out) -> tuple[str | None, list]:
    problem = check_mel(out.mel_pred, sum(out.durations_used))
    stages = tuple(stage for stage, _ in out.trace)
    if problem is None and stages != FORWARD_STAGES:
        problem = f"trace stages {stages}"
    return problem, [out.mel_pred, out.dur_pred, out.pitch_pred, out.energy_pred]


# ------------------------------------------------------------ checksums

def checksum(arrays) -> list:
    """[sum, sum of |x|, position-weighted sum] over all values."""
    total = absolute = weighted = 0.0
    for array in arrays:
        flat = np.asarray(array, dtype=np.float64).ravel()
        weights = np.arange(flat.size) % 7 + 1
        total += float(flat.sum())
        absolute += float(np.abs(flat).sum())
        weighted += float(weights @ flat)
    return [total, absolute, weighted]


def checksum_problem(workload: str, got: list) -> str | None:
    want = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))[workload]
    scale = max(abs(want[1]), 1e-300)
    if all(abs(g - w) <= CHECKSUM_RTOL * scale for g, w in zip(got, want)):
        return None
    return f"checksum {got} differs from reference {want}"
