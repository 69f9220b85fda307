"""WAV input/output for 16-bit PCM mono audio."""

from __future__ import annotations

import wave
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigMismatchError, EmptyAudioError, ParseError
from .textio import atomic_path


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with samples scaled to [-1, 1]."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))
        if self.samples.ndim != 1:
            raise ConfigMismatchError("audio samples must have one axis, "
                                      f"got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise ConfigMismatchError(f"sample rate must be positive, got {self.sample_rate}")
        if self.samples.size and not np.all(np.isfinite(self.samples)):
            raise ConfigMismatchError("audio contains non-finite samples")

    @property
    def duration_sec(self) -> float:
        return self.samples.size / self.sample_rate


def _wave_open(path):
    """``wave.open(path, "rb")``, with a chunk whose declared size runs past
    the end of the file (a bare RuntimeError from ``wave``) as a ``wave.Error``."""
    try:
        return wave.open(str(path), "rb")
    except RuntimeError as exc:
        raise wave.Error("a chunk runs past the end of the file") from exc


@contextmanager
def _open_wav(path):
    """``wave.open(path)``; a header it cannot read is a ParseError at ``path``."""
    try:
        with _wave_open(path) as w:
            if w.getframerate() <= 0:
                raise ParseError(f"bad frame rate {w.getframerate()}", path=path)
            yield w
    except (wave.Error, EOFError) as exc:
        raise ParseError(f"not a readable WAV file: {str(exc) or 'truncated header'}",
                         path=path) from exc


def read_wav(path) -> AudioBuffer:
    """Read a mono 16-bit PCM WAV file at any rate; anything else is rejected."""
    with _open_wav(path) as w:
        channels = w.getnchannels()
        width = w.getsampwidth()
        rate = w.getframerate()
        n = w.getnframes()
        if channels != 1:
            raise ConfigMismatchError(f"{path}: expected mono, got {channels} channels")
        if width != 2:
            raise ConfigMismatchError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
        raw = w.readframes(n)
    if len(raw) != 2 * n:
        raise ParseError(f"data chunk truncated: {len(raw)} of {2 * n} bytes", path=path)
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64)
    samples /= 32768.0
    return AudioBuffer(samples, rate)


def write_wav(path, samples, sample_rate: int) -> None:
    """Write ``samples`` as 16-bit PCM mono; :class:`AudioBuffer` checks them."""
    audio = AudioBuffer(samples, sample_rate)
    if audio.samples.size == 0:
        raise EmptyAudioError("refusing to write an empty WAV file")
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    with atomic_path(path) as tmp, open(tmp, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(audio.sample_rate)
        w.writeframes(pcm.tobytes())


def wav_duration_sec(path) -> float:
    """Duration from the WAV header; reads only the last frame, not the samples.

    That frame proves the data chunk holds every frame the header promises,
    so a cut file is a ParseError here rather than later in ``read_wav``.
    A header of no frames is an EmptyAudioError that names ``path``, since
    no feature can be computed from it.
    """
    with _open_wav(path) as w:
        n = w.getnframes()
        if not n:
            raise EmptyAudioError(f"{path}: WAV holds no samples")
        w.setpos(n - 1)
        if len(w.readframes(1)) != w.getsampwidth() * w.getnchannels():
            raise ParseError(f"data chunk truncated: fewer than the {n} frames "
                             "its header promises", path=path)
        return n / w.getframerate()
