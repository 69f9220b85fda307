"""Acoustic feature extraction: log-mel, frame energy, and pitch.

Framing is shared by all three extractors so their frame counts always
agree: the signal is center-padded by half a window (reflected), frames
start every hop, and the frame count is ``len(samples) // hop + 1``.
Defaults follow the 16 kHz / 40 ms window / 10 ms hop / 80-mel setup with
a 1024-point STFT (smallest power of two above the 640-sample window).

The mel is summed filter by filter over each triangle's own run of FFT
bins with numpy's fixed-order reduction, not by a matrix product: a BLAS
product sums in an order that depends on its thread count, so mel bytes
would change with the machine, and its threads would compete with the
``--jobs`` workers for the CPUs.

Pitch uses a normalized cross-correlation estimator searching 50-600 Hz
with parabolic peak interpolation; frames whose peak correlation falls
below the voicing threshold carry the unvoiced sentinel 0.0.  Its
autocorrelation is one ``rfft``/``irfft`` pair per frame at the smallest
power of two above ``win + lag_max`` (1024 points at the defaults).  The
circular correlation of ``win``-sample rows has no wrap-around below lag
``fft_len - win + 1``, and the parabola reads lag ``lag_max + 1`` at most,
so no longer transform is needed.

The STFT and pitch run over blocks of :data:`FRAME_BLOCK` frames, each
written into one preallocated result: a block's magnitudes, or the f0 that
pitch picks from the block's correlation rows before the next block.  So a
block's spectrum and correlation stay in the L2 cache, and no
full-utterance correlation matrix is made.  Blocking changes no bit:
pocketfft transforms each row on its own, and every other step (window,
mean, power, cumulative sum, division, peak pick) works row by row.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio import AudioBuffer
from .errors import (
    BadConfigError,
    ConfigMismatchError,
    LengthMismatchError,
    TooLargeError,
)
from .regulator import as_counts

LINEAR = "linear"
LOG = "log"

FRAME_BLOCK = 64
"""Frames per block of the STFT and pitch kernels: at the defaults a
block's 1024-point spectra and correlations are 0.5 MiB each, so one
block's temporaries fit in a 2 MiB L2 cache."""

MAX_FFT_SIZE = 8192
"""Upper bound on ``FeatureConfig.fft_size`` (0.5 s at 16 kHz).

The window may not exceed the FFT, so this also bounds the window and the
pitch autocorrelation FFT (at most 16,384 points).  A block of
:data:`FRAME_BLOCK` complex spectra then takes at most 4 MiB (8 MiB for the
pitch FFT), and the filterbank, at most 4,097 filters over 4,097 bins,
128 MiB."""

MAX_QUANTIZER_BINS = 2**53
"""Upper bound on ``QuantizerConfig.n_bins``: every bin index up to it is
exact in the float64 ``.xlf`` files the indices are written to."""

NCCF_FLOOR = 1e-9
"""An NCCF denominator at or below this fraction of the frame's energy counts
as zero.  An edge frame is half zero padding, so at the longest lags its
leading sub-frame can be silent too: the denominator is then rounding noise
(about 1e-15 of the energy), and dividing by it gives a correlation above the
Cauchy-Schwarz bound of 1 that can win the peak pick as a spurious f0."""


@dataclass(frozen=True)
class FeatureConfig:
    sample_rate: int = 16000
    win_ms: int = 40
    hop_ms: int = 10
    n_mels: int = 80
    fft_size: int = 1024
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-5
    f0_min: float = 50.0
    f0_max: float = 600.0
    voicing_threshold: float = 0.3

    def __post_init__(self):
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise BadConfigError(f"{f.name} must be finite")
        if self.sample_rate <= 0:
            raise BadConfigError("sample_rate must be positive")
        if (self.win_ms * self.sample_rate) % 1000 or (self.hop_ms * self.sample_rate) % 1000:
            raise BadConfigError("window and hop must be whole numbers of samples")
        if self.win_length < 1 or self.hop_length < 1:
            raise BadConfigError("window and hop must be at least one sample")
        if self.n_mels < 1:
            raise BadConfigError("n_mels must be positive")
        if self.fft_size < self.win_length:
            raise BadConfigError("fft_size must cover the analysis window")
        if self.fft_size > MAX_FFT_SIZE:
            raise TooLargeError(f"fft_size must be at most {MAX_FFT_SIZE}")
        if self.n_mels > self.fft_size // 2 + 1:
            raise TooLargeError(f"n_mels must be at most fft_size // 2 + 1 = "
                                f"{self.fft_size // 2 + 1}")
        if not (0 <= self.fmin < self.fmax <= self.sample_rate / 2):
            raise BadConfigError("need 0 <= fmin < fmax <= Nyquist")
        if self.log_floor <= 0:
            raise BadConfigError("log_floor must be positive")
        if not (0 < self.f0_min < self.f0_max < self.sample_rate / 2):
            raise BadConfigError("need 0 < f0_min < f0_max < Nyquist")
        if not (0 <= self.voicing_threshold < 1):
            # the NCCF peak never exceeds 1, so a threshold of 1 or more voices nothing
            raise BadConfigError("need 0 <= voicing_threshold < 1")

    @property
    def win_length(self) -> int:
        return self.win_ms * self.sample_rate // 1000

    @property
    def hop_length(self) -> int:
        return self.hop_ms * self.sample_rate // 1000


def _check_audio(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    if audio.sample_rate != cfg.sample_rate:
        raise ConfigMismatchError(
            f"audio is {audio.sample_rate} Hz but config expects {cfg.sample_rate} Hz"
        )
    return audio.samples


def _frame_signal(samples: np.ndarray, cfg: FeatureConfig, mode="reflect") -> np.ndarray:
    """Center-padded frames: one row per hop, len(samples)//hop + 1 rows.

    The rows are a read-only strided view of the padded signal, not a copy.
    """
    win, hop = cfg.win_length, cfg.hop_length
    pad = win // 2
    n = samples.size
    if mode == "reflect" and n <= pad:
        mode = "constant"  # too short for a full reflection
    # win - pad on the right: an odd window's last frame still fits
    padded = np.pad(samples, (pad, win - pad), mode=mode)
    return sliding_window_view(padded, win)[::hop][: n // hop + 1]


def _hann(n: int) -> np.ndarray:
    """Periodic Hann window, bit-identical to scipy's ``get_window("hann", n)``."""
    if n <= 1:
        return np.ones(n)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n + 1)[:-1])


def stft_magnitude(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Magnitude spectrogram, T_f x (fft_size/2 + 1), Hann window."""
    samples = _check_audio(audio, cfg)
    window = _hann(cfg.win_length)

    def kernel(block, out):
        np.abs(np.fft.rfft(block * window, n=cfg.fft_size, axis=1), out=out)

    return _by_blocks(kernel, _frame_signal(samples, cfg), cfg.fft_size // 2 + 1)


def _by_blocks(kernel, frames: np.ndarray, width: int) -> np.ndarray:
    """One ``(rows, width)`` array, filled by ``kernel(block, out)`` per block.

    ``kernel`` reads up to :data:`FRAME_BLOCK` rows of ``frames`` and writes
    the same rows of the result; every step it runs is row by row, so the
    bytes do not depend on where the blocks fall.
    """
    out = np.empty((frames.shape[0], width))
    for start in range(0, frames.shape[0], FRAME_BLOCK):
        kernel(frames[start:start + FRAME_BLOCK], out[start:start + FRAME_BLOCK])
    return out


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """Area-normalized triangular filters on the HTK mel scale."""

    def hz_to_mel(f):
        return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)

    def mel_to_hz(m):
        return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)

    n_bins = cfg.fft_size // 2 + 1
    freqs = np.arange(n_bins) * cfg.sample_rate / cfg.fft_size
    edges = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    fb = np.zeros((cfg.n_mels, n_bins))
    for m in range(cfg.n_mels):
        lo, center, hi = edges[m], edges[m + 1], edges[m + 2]
        rising = (freqs - lo) / (center - lo)
        falling = (hi - freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(rising, falling)) * (2.0 / (hi - lo))
    return fb


_MEL_BANDS_LOCK = threading.Lock()
"""Held around :func:`_mel_bands`: ``lru_cache`` holds no lock while it
builds, so threads that miss the cache together would each build."""


@lru_cache(maxsize=8)
def _mel_bands(cfg: FeatureConfig) -> tuple:
    """``(lo, hi, weights)`` per filter: its non-zero run of FFT bins."""
    bands = []
    for row in mel_filterbank(cfg):
        nonzero = np.flatnonzero(row)
        lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero.size else (0, 0)
        weights = row[lo:hi].copy()
        weights.flags.writeable = False
        bands.append((lo, hi, weights))
    return tuple(bands)


def mel_spectrogram(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """The ``(T_f, n_mels)`` natural-log mel magnitudes, floored at cfg.log_floor.

    Each filter is a weighted sum over its own band of bins, added bin by
    bin in a fixed order with no BLAS call (see the module docstring), so
    the bytes do not depend on the machine.
    """
    bins_by_frame = np.ascontiguousarray(stft_magnitude(audio, cfg).T)
    with _MEL_BANDS_LOCK:
        bands = _mel_bands(cfg)
    mel = np.empty((len(bands), bins_by_frame.shape[1]))
    for m, (lo, hi, weights) in enumerate(bands):
        np.sum(bins_by_frame[lo:hi] * weights[:, None], axis=0, out=mel[m])
    return np.log(np.maximum(np.ascontiguousarray(mel.T), cfg.log_floor))


def energy_per_frame(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """L2 norm of each magnitude STFT frame (same framing as the mel)."""
    magnitude = stft_magnitude(audio, cfg)
    power = np.square(magnitude, out=magnitude)
    return np.sqrt(np.sum(power, axis=1))


def pitch_per_frame(audio: AudioBuffer, cfg: FeatureConfig) -> np.ndarray:
    """Per-frame f0 in Hz of any non-empty audio; 0.0 marks unvoiced frames.

    Normalized cross-correlation over lags for f0_min..f0_max, rectangular
    frames on the shared hop grid.  The smallest lag whose local peak comes
    within 15% of the best peak wins (guards against octave-down errors),
    then parabolic interpolation refines it.  Edges are zero-padded rather
    than reflected: a reflected edge frame is time-symmetric and grows a
    spurious mirror-lag correlation peak.

    The peak rule runs on each block's frames x lags correlation matrix
    rather than frame by frame (see ``_pick_pitch``); like the mel, it
    makes no BLAS call.
    """
    samples = _check_audio(audio, cfg)
    win = cfg.win_length
    lag_min = max(1, int(np.ceil(cfg.sample_rate / cfg.f0_max)))
    lag_max = min(win - 1, int(np.floor(cfg.sample_rate / cfg.f0_min)))
    # lags lo..hi-1 are the searched ones and one more on each side for the
    # peak test and the parabola, or none when the window is too short; all
    # lie below fft_len - win + 1, where the circular correlation wraps
    lo = lag_min - 1
    hi = max(lo, lag_max + 2)
    fft_len = 1 << (win + lag_max).bit_length()
    lags = np.arange(lo, hi)

    def kernel(block, out):
        frames = block - block.mean(axis=1, keepdims=True)
        spectrum = np.fft.rfft(frames, n=fft_len, axis=1)
        power = spectrum.real**2
        power += spectrum.imag**2
        autocorr = np.fft.irfft(power, n=fft_len, axis=1)
        # per-lag energies of the leading and trailing sub-frames
        csum = np.zeros((frames.shape[0], win + 1))
        np.cumsum(frames**2, axis=1, out=csum[:, 1:])
        lead = csum[:, win - hi + 1 : win - lo + 1][:, ::-1]
        trail = csum[:, -1:] - csum[:, lo:hi]
        denom = np.sqrt(lead * trail)
        nccf = np.zeros_like(denom)
        np.divide(autocorr[:, lo:hi], denom, out=nccf,
                  where=denom > NCCF_FLOOR * csum[:, -1:])
        out[:, 0] = _pick_pitch(nccf, csum[:, -1], lags, cfg)

    return _by_blocks(kernel, _frame_signal(samples, cfg, mode="constant"), 1)[:, 0]


def _pick_pitch(nccf: np.ndarray, total: np.ndarray, lags: np.ndarray,
                cfg: FeatureConfig) -> np.ndarray:
    """f0 per row of a frames x lags NCCF matrix; 0.0 where unvoiced.

    ``total`` is each frame's energy and ``lags[k]`` the lag of column k.
    Non-peaks are masked before the row maximum, and an argmax over the
    peaks within 15% of it picks the first.  Each voiced row gets the same
    float operations as a loop over frames would give it, so the output is
    bit-identical to that loop, and to this call on any split of the rows.
    """
    values = np.zeros(nccf.shape[0])
    interior = nccf[:, 1:-1]
    is_peak = (interior >= nccf[:, :-2]) & (interior >= nccf[:, 2:])
    best = np.max(np.where(is_peak, interior, -np.inf), axis=1, initial=-np.inf)
    rows = np.flatnonzero((total > 0.0) & (best >= cfg.voicing_threshold))
    if rows.size == 0:
        return values
    near_best = is_peak[rows] & (interior[rows] >= 0.85 * best[rows, None])
    j = np.argmax(near_best, axis=1) + 1
    left, mid, right = nccf[rows, j - 1], nccf[rows, j], nccf[rows, j + 1]
    curvature = left - 2.0 * mid + right
    offset = np.divide(0.5 * (left - right), curvature,
                       out=np.zeros(rows.size), where=curvature < 0)
    lag = lags[j] + np.clip(offset, -0.5, 0.5)
    values[rows] = np.clip(cfg.sample_rate / lag, cfg.f0_min, cfg.f0_max)
    return values


def average_by_phoneme(values, durations, voiced_only: bool = False) -> np.ndarray:
    """Mean of the 1-D per-frame ``values`` over each duration segment.

    With ``voiced_only`` (pitch, where 0.0 marks an unvoiced frame) a
    segment averages its frames above 0.0 only, as FastPitch does.  A
    segment with no frames, or no voiced frames, yields 0.0.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise LengthMismatchError(f"values must have one axis, got shape {v.shape}")
    d = as_counts(durations, 0, "durations")
    if d.sum() != v.size:
        raise LengthMismatchError(f"durations sum to {d.sum()} but series has {v.size} frames")
    out = np.zeros(d.size)
    pos = 0
    for i, n in enumerate(d):
        segment = v[pos : pos + n]
        pos += n
        if voiced_only:
            segment = segment[segment > 0.0]
        if segment.size:
            out[i] = segment.mean()
    return out


@dataclass(frozen=True)
class QuantizerConfig:
    v_min: float
    v_max: float
    n_bins: int = 256
    scale: str = LINEAR

    def __post_init__(self):
        if self.n_bins < 1:
            raise BadConfigError("n_bins must be positive")
        if self.n_bins > MAX_QUANTIZER_BINS:
            raise TooLargeError(f"n_bins must be at most 2**53 = {MAX_QUANTIZER_BINS}")
        if not (math.isfinite(self.v_min) and self.v_min < self.v_max
                and math.isfinite(self.v_max)):
            raise BadConfigError(f"need finite v_min < v_max, got [{self.v_min}, {self.v_max}]")
        if self.scale not in (LINEAR, LOG):
            raise BadConfigError(f"unknown scale {self.scale!r}")
        if self.scale == LOG and self.v_min <= 0:
            raise BadConfigError("log scale requires v_min > 0")

    def _transform(self, v: np.ndarray) -> np.ndarray:
        return np.log(v) if self.scale == LOG else v

    def _inverse(self, s: np.ndarray) -> np.ndarray:
        return np.exp(s) if self.scale == LOG else s


def quantize(values, q: QuantizerConfig) -> np.ndarray:
    """Map values to bin indices, clamping to [v_min, v_max] first.

    +-inf clamp to the end bins; a NaN has no bin and is a
    ConfigMismatchError.
    """
    v = np.asarray(values, dtype=np.float64)
    if np.isnan(v).any():
        raise ConfigMismatchError("cannot quantize NaN values")
    v = np.clip(v, q.v_min, q.v_max)
    lo, hi = q._transform(np.float64(q.v_min)), q._transform(np.float64(q.v_max))
    fraction = (q._transform(v) - lo) / (hi - lo)
    return np.minimum((fraction * q.n_bins).astype(np.int64), q.n_bins - 1)


def dequantize(indices, q: QuantizerConfig) -> np.ndarray:
    """Bin centers (in the configured scale) for the given whole-number indices."""
    raw = np.asarray(indices)
    # the range test runs first, so the cast below cannot overflow
    if raw.size and not (raw.min() >= 0 and raw.max() < q.n_bins):
        raise BadConfigError(f"indices outside [0, {q.n_bins - 1}]")
    with np.errstate(invalid="ignore"):
        idx = raw.astype(np.int64)
    if not np.array_equal(idx, raw):
        raise BadConfigError("indices must be whole numbers")
    lo, hi = q._transform(np.float64(q.v_min)), q._transform(np.float64(q.v_max))
    width = (hi - lo) / q.n_bins
    return q._inverse(lo + (idx + 0.5) * width)
