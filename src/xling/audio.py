"""WAV input/output for 16-bit PCM mono audio.

:func:`_open_wav` is the one WAV rule, and both readers apply it:
:func:`read_wav` for ``stats`` and ``features``, :func:`wav_duration_sec`
for ``manifest``.  It refuses an empty WAV and admits any rate, since the
feature config decides which.  :class:`AudioBuffer` refuses no samples, so
neither :func:`write_wav` nor a feature kernel ever sees empty audio.
"""

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
        if not self.samples.size:
            raise EmptyAudioError("audio holds no samples")
        if self.sample_rate <= 0:
            raise ConfigMismatchError(f"sample rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ConfigMismatchError("audio contains non-finite samples")

    @property
    def duration_sec(self) -> float:
        return self.samples.size / self.sample_rate


@contextmanager
def _open_wav(path):
    """The one WAV rule: ``wave.open(path)``, at the first frame, of a mono
    16-bit PCM WAV at a positive rate whose data chunk holds every frame its
    header promises (the last frame is read to prove it), and at least one.
    Another channel count or width is a ConfigMismatchError, no frames an
    EmptyAudioError, the rest ParseErrors at ``path``.
    """
    try:
        with wave.open(str(path), "rb") as w:
            channels, width, rate, n = w.getparams()[:4]
            if rate <= 0:
                raise ParseError(f"bad frame rate {rate}", path=path)
            if channels != 1:
                raise ConfigMismatchError(f"{path}: expected mono, got {channels} channels")
            if width != 2:
                raise ConfigMismatchError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
            if not n:
                raise EmptyAudioError(f"{path}: WAV holds no samples")
            w.setpos(n - 1)
            if len(w.readframes(1)) != 2:
                raise ParseError(f"data chunk truncated: fewer than the {n} frames "
                                 "its header promises", path=path)
            w.rewind()
            yield w
    except RuntimeError as exc:  # wave's report of a chunk that runs past the RIFF chunk
        raise ParseError("not a readable WAV file: a chunk runs past the end of the file",
                         path=path) from exc
    except (wave.Error, EOFError) as exc:
        raise ParseError(f"not a readable WAV file: {str(exc) or 'truncated header'}",
                         path=path) from exc


def read_wav(path) -> AudioBuffer:
    """The samples of a WAV that :func:`_open_wav` admits, at any rate."""
    with _open_wav(path) as w:
        samples = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2") / 32768.0
        return AudioBuffer(samples, w.getframerate())


def write_wav(path, samples, sample_rate: int) -> None:
    """Write ``samples`` as 16-bit PCM mono; :class:`AudioBuffer` checks them."""
    audio = AudioBuffer(samples, sample_rate)
    pcm = np.clip(np.round(audio.samples * 32768.0), -32768, 32767).astype("<i2")
    with atomic_path(path) as tmp, open(tmp, "wb") as f, wave.open(f, "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(audio.sample_rate)
        w.writeframes(pcm.tobytes())


def wav_duration_sec(path) -> float:
    """The duration of a WAV that :func:`_open_wav` admits, from its header."""
    with _open_wav(path) as w:
        return w.getnframes() / w.getframerate()
