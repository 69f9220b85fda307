"""Forward-only acoustic model stub for shape and wiring validation.

The dataflow mirrors the cross-lingual model: IPA embeddings run through
a 4-block feed-forward-transformer encoder, the phoneme length regulator
collapses them to phoneme resolution, a speaker embedding is added, the
duration/pitch/energy predictors read that sum through stop-gradient
edges, a 1-D convolution turns pitch values into an additive embedding,
durations expand to frame resolution, and a 4-block decoder plus a linear
projection produce the mel frames.  As in FastPitch, only pitch is
embedded: a teacher-forced energy is checked (one finite value per
phoneme) but changes no output.

A call holds its weights (one allocation, see :func:`init_weights`), its
activations, and, while a convolution runs, a window scratch of at most
:data:`CONV_SCRATCH_BYTES` (plus the padded input rows it is cut from)
that does not grow with the sequence length.  Only the attention scores
grow faster than the activations, with the square of the length, which
:data:`MAX_DECODER_FRAMES` caps.

There is no training here: every parameter is drawn uniformly from
[-0.1, 0.1] by the documented PRNG in :mod:`xling.prng`, so outputs are a
pure deterministic function of (config, seed, inputs) at a fixed BLAS
thread count; attention's batched products can round differently under
``OPENBLAS_NUM_THREADS=1`` and ``=2``.  Each forward run records a trace of
(stage, shape) pairs covering the whole dataflow, including a
``stopgrad:`` annotation on every variance-predictor input.

Every parameter name and shape is declared in :func:`parameter_shapes`.
A conv, ``pitch_embed`` and ``mel_proj`` each declare ``name.weight`` and
a ``name.bias`` over its first axis through ``_affine_params``; a layer
norm declares ``name.gamma`` and ``name.beta`` through ``_ln_params``.
``_conv`` and ``_ln`` read them back under the same ``name``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from itertools import repeat
from typing import get_type_hints

import numpy as np

from . import regulator
from .errors import (
    BadConfigError,
    ConfigMismatchError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
    UnknownSpeakerError,
)
from .prng import Xorshift64Star, uniform
from .textio import read_keys, write_records

ATTN_HEADS = 2
LAYERNORM_EPS = 1e-5
PREDICTOR_KERNEL = 3
INIT_LOW, INIT_HIGH = -0.1, 0.1
MAX_FRAMES_PER_PHONEME = 100
"""Upper bound on an inferred duration: 1 s of 10 ms frames per phoneme.

Inference durations are ``round(exp(log-frames))``; an untrained or
diverged duration predictor can ask for far more frames than any speech
holds, and the decoder's attention grows with the square of the total.
"""
MAX_DECODER_FRAMES = 6000
"""Upper bound on the decoder's frame total: 60 s of 10 ms frames.

The attention scores of one decoder block hold ``ATTN_HEADS * T * T``
float64 values: 576 MB at this cap, and 23.8 GiB at 40,000 frames.  A
teacher-forced total above it is rejected by :func:`check_inputs` before
any weight is made, an inferred one by :func:`forward` before the decoder.
An encoder block's scores have the same shape over the IPA ids, so
:func:`check_inputs` holds their count to the same cap.  No activation
row of a valid config is wider than a row of these scores.
"""
MAX_PITCH_HZ = float(2**31)
"""Upper bound on the magnitude of a teacher-forced pitch value, in Hz.

The pitch embedding adds a multiple of each value to the hidden rows, and
the layer norms and attention scores square them: a pitch near 1e155
overflows float64 there.  A WAV's rate field holds 32 bits, so every f0
that ``features`` can extract lies below the Nyquist rate of 2**31 Hz.
"""
CONV_SCRATCH_BYTES = 12 << 20
"""Upper bound on the window matrix one :func:`_conv` product reads (12 MiB).

A convolution over ``T`` rows splits them into ``ceil(T / rows)`` blocks
of near-equal size, ``rows`` being the most window rows (``8 * C_in * k``
bytes each) that fit here, and multiplies one block at a time.  At the
paper config a decoder ``conv2`` row takes 72 KiB, so the split starts at
171 frames, while ``conv1`` (18 KiB a row) stays one product up to 682
frames: each product packs the whole 18.9 MB weight matrix again.  The
blocks change no bit: BLAS sums every output element over the same
``C_in * k`` products in the same order in any block of two rows or more
(tested at the paper's conv shapes under one and two BLAS threads).
"""
MAX_LAYERS = 64  # per stack; each block adds 18 tensors and a pass of Python per call
MAX_WEIGHT_BYTES = 1 << 30
"""Upper bound on the float64 bytes of one set of weights (1 GiB).

The paper config (hidden 256, 4 + 4 blocks) needs 329 MB; a config that
asks for more than this cap is rejected when it is built, before any
parameter is drawn.
"""


@dataclass(frozen=True)
class ModelConfig:
    n_ipa_symbols: int
    n_speakers: int
    hidden: int = 256
    enc_layers: int = 4
    dec_layers: int = 4
    conv_kernel: int = 9
    ff_channels: int = 1024
    n_mels: int = 80
    pitch_embed_kernel: int = 3

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise BadConfigError(f"{f.name} must be positive")
        if self.hidden % ATTN_HEADS:
            raise BadConfigError(f"hidden must be divisible by {ATTN_HEADS} heads")
        if self.conv_kernel % 2 == 0 or self.pitch_embed_kernel % 2 == 0:
            raise BadConfigError("convolution kernels must be odd")
        if max(self.enc_layers, self.dec_layers) > MAX_LAYERS:
            raise TooLargeError(f"enc_layers and dec_layers must be at most {MAX_LAYERS}")
        n_bytes = 8 * sum(math.prod(shape) for _, shape in parameter_shapes(self))
        if n_bytes > MAX_WEIGHT_BYTES:
            raise TooLargeError(f"weights would take {n_bytes} bytes, "
                                f"above the cap of {MAX_WEIGHT_BYTES}")
        widest = max(self.ff_channels * self.conv_kernel, self.n_mels, self.pitch_embed_kernel,
                     self.hidden * max(self.conv_kernel, PREDICTOR_KERNEL))
        if widest > ATTN_HEADS * MAX_DECODER_FRAMES:
            raise TooLargeError(f"activation rows would hold {widest} values, "
                                f"above the cap of {ATTN_HEADS * MAX_DECODER_FRAMES}")

    def to_file(self, path) -> None:
        rows = [(f.name, str(getattr(self, f.name))) for f in fields(self)]
        write_records(path, rows, "=", 1)

    @classmethod
    def from_file(cls, path) -> "ModelConfig":
        values = read_keys(path, get_type_hints(cls))
        try:
            return cls(**values)
        except TypeError as exc:
            raise ParseError(str(exc), path=path) from exc
        except (BadConfigError, TooLargeError) as exc:
            raise type(exc)(f"{path}: {exc}") from exc


def _affine_params(name: str, shape: tuple) -> list:
    """A weight of ``shape`` and a bias over its first axis."""
    return [(f"{name}.weight", shape), (f"{name}.bias", shape[:1])]


def _ln_params(name: str, hidden: int) -> list:
    return [(f"{name}.gamma", (hidden,)), (f"{name}.beta", (hidden,))]


def _fft_block_params(prefix: str, cfg: ModelConfig) -> list:
    H, ff, k = cfg.hidden, cfg.ff_channels, cfg.conv_kernel
    params = [(f"{prefix}.attn.{gate}", (H, H)) for gate in ("wq", "wk", "wv", "wo")]
    params += [(f"{prefix}.attn.{gate}", (H,)) for gate in ("bq", "bk", "bv", "bo")]
    params += _ln_params(f"{prefix}.ln1", H)
    params += _affine_params(f"{prefix}.conv1", (ff, H, k))
    params += _affine_params(f"{prefix}.conv2", (H, ff, k))
    return params + _ln_params(f"{prefix}.ln2", H)


def _predictor_params(prefix: str, cfg: ModelConfig) -> list:
    H, params = cfg.hidden, []
    for i in (1, 2):
        params += _affine_params(f"{prefix}.conv{i}", (H, H, PREDICTOR_KERNEL))
        params += _ln_params(f"{prefix}.ln{i}", H)
    return params + [(f"{prefix}.proj.weight", (H,)), (f"{prefix}.proj.bias", (1,))]


def parameter_shapes(cfg: ModelConfig) -> list:
    """Every parameter tensor, in the fixed initialization order."""
    params = [
        ("ipa_embedding", (cfg.n_ipa_symbols, cfg.hidden)),
        ("speaker_embedding", (cfg.n_speakers, cfg.hidden)),
    ]
    for i in range(cfg.enc_layers):
        params += _fft_block_params(f"encoder.{i}", cfg)
    for name in ("duration", "pitch", "energy"):
        params += _predictor_params(f"{name}_predictor", cfg)
    params += _affine_params("pitch_embed", (cfg.hidden, 1, cfg.pitch_embed_kernel))
    for i in range(cfg.dec_layers):
        params += _fft_block_params(f"decoder.{i}", cfg)
    return params + _affine_params("mel_proj", (cfg.n_mels, cfg.hidden))


@dataclass(frozen=True)
class Weights:
    config: ModelConfig
    tensors: dict = field(repr=False)


def usable_cpus() -> int:
    """CPUs this process may run on; every CPU where the OS cannot say."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def map_ordered(fn, jobs: int, *iterables) -> list:
    """``list(map(fn, *iterables))`` on ``jobs`` threads: the package's one pool.

    Its tasks are numpy code that releases the GIL.  The first failure in
    input order is raised after the running tasks finish and the rest are
    cancelled, so no thread outlives the call.  A lone task, or any tasks at
    ``jobs == 1``, run on the caller, which starts no thread.
    """
    tasks = list(zip(*iterables))
    if jobs == 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    pool = ThreadPoolExecutor(max_workers=jobs)
    try:
        return list(pool.map(fn, *zip(*tasks)))
    finally:
        pool.shutdown(cancel_futures=True)


def init_weights(cfg: ModelConfig, seed: int) -> Weights:
    """Uniform [-0.1, 0.1] parameters, reproducible from (cfg, seed).

    ``seed`` is a u64; anything outside ``[0, 2**64)`` is a BadConfigError.
    A master xorshift64* stream hands one sub-seed to each tensor (in
    :func:`parameter_shapes` order), all drawn before any tensor is filled.
    Every tensor is a view into one float64 allocation made on the calling
    thread, laid out in that order, so freeing the weights hands the whole
    mapping back to the OS.  :func:`map_ordered` fills the views on one
    thread per usable CPU, each by the counter-based SplitMix64 stream in
    cache-sized blocks, in place (see :mod:`xling.prng`); the bits depend on
    neither the thread count nor the block size.  Nothing is cached: every
    call generates all parameters again.
    """
    if not 0 <= seed < 1 << 64:
        raise BadConfigError(f"seed must be in [0, 2**64), got {seed}")
    master = Xorshift64Star(seed)
    names, shapes = zip(*parameter_shapes(cfg))
    seeds = [master.next_u64() for _ in names]
    sizes = [math.prod(shape) for shape in shapes]
    chunks = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    views = [chunk.reshape(shape) for chunk, shape in zip(chunks, shapes)]
    tensors = dict(zip(names, map_ordered(uniform, usable_cpus(), seeds, shapes,
                                          repeat(INIT_LOW), repeat(INIT_HIGH), views)))
    return Weights(cfg, tensors)


@dataclass(frozen=True)
class TeacherForced:
    """Ground-truth per-phoneme durations (frames), pitch and energy, on one axis.

    :func:`check_inputs` checks all three; :func:`forward` expands by the
    durations and embeds the pitch, but never embeds the energy.
    """

    durations: tuple
    pitch: tuple
    energy: tuple


@dataclass(frozen=True)
class Inference:
    """Durations and pitch come from the predictors."""


@dataclass(frozen=True)
class ForwardOutput:
    mel_pred: np.ndarray  # T_f x n_mels
    dur_pred: np.ndarray  # per-phoneme, log-frames
    pitch_pred: np.ndarray
    energy_pred: np.ndarray
    durations_used: tuple
    trace: tuple  # ordered (stage, shape) pairs


def _ln(x, p, name):
    """Layer norm over the last axis with parameters ``name.gamma``/``.beta``."""
    centred = x - x.mean(axis=-1, keepdims=True)
    var = np.square(centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LAYERNORM_EPS) * p[f"{name}.gamma"] + p[f"{name}.beta"]


def _row_blocks(n: int, rows: int) -> list:
    """``[start, stop)`` bounds of ``ceil(n / rows)`` blocks of near-equal size."""
    count = -(-n // rows)
    bounds = [n * i // count for i in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _conv(x, p, name):
    """Same-padded 1-D convolution over time; x is (T, C_in).

    The ``(rows, C_in * k)`` window matrix of each row block is copied into
    one scratch of at most :data:`CONV_SCRATCH_BYTES` and multiplied into
    its rows of the result; the bias is added once at the end.
    """
    weight = p[f"{name}.weight"]
    T, (c_out, c_in, k) = x.shape[0], weight.shape
    out = np.empty((T, c_out))
    if T == 0:
        return out
    pad = k // 2
    kernel = weight.reshape(c_out, -1).T  # (C_in * k, C_out)
    # with room for three rows or more, near-equal blocks never hold one
    # row: numpy multiplies a one-row matrix by BLAS's matrix-vector path,
    # which rounds differently
    blocks = _row_blocks(T, max(3, CONV_SCRATCH_BYTES // (8 * c_in * k)))
    scratch = np.empty((max(stop - start for start, stop in blocks), c_in, k))
    for start, stop in blocks:
        lo, hi = max(start - pad, 0), min(stop + pad, T)
        windows = scratch[:stop - start]
        windows[...] = np.lib.stride_tricks.sliding_window_view(
            np.pad(x[lo:hi], ((lo - start + pad, stop + pad - hi), (0, 0))), k, axis=0)
        np.matmul(windows.reshape(stop - start, -1), kernel, out=out[start:stop])
    out += p[f"{name}.bias"]
    return out


def _attention(x, p, prefix):
    T, H = x.shape
    head = H // ATTN_HEADS
    # per-head views: q and v are (heads, T, d), k is transposed to (heads, d, T)
    q = (x @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"]).reshape(T, ATTN_HEADS, head)
    k = (x @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"]).reshape(T, ATTN_HEADS, head)
    v = (x @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"]).reshape(T, ATTN_HEADS, head)
    scores = (q.transpose(1, 0, 2) @ k.transpose(1, 2, 0)) / np.sqrt(head)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = (weights @ v.transpose(1, 0, 2)).transpose(1, 0, 2).reshape(T, H)
    return mixed @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def _fft_block(x, p, prefix):
    if x.shape[0] == 0:
        return x
    x = _ln(x + _attention(x, p, f"{prefix}.attn"), p, f"{prefix}.ln1")
    h = _conv(np.maximum(_conv(x, p, f"{prefix}.conv1"), 0.0), p, f"{prefix}.conv2")
    return _ln(x + h, p, f"{prefix}.ln2")


def _predictor(x, p, prefix):
    for i in (1, 2):
        x = _ln(np.maximum(_conv(x, p, f"{prefix}.conv{i}"), 0.0), p, f"{prefix}.ln{i}")
    return x @ p[f"{prefix}.proj.weight"] + p[f"{prefix}.proj.bias"][0]


def positional_encoding(length: int, dim: int) -> np.ndarray:
    positions = np.arange(length, dtype=np.float64)[:, None]
    rates = np.exp(-np.log(10000.0) * (2 * (np.arange(dim) // 2)) / dim)
    angles = positions * rates[None, :]
    encoding = np.empty((length, dim))
    encoding[:, 0::2] = np.sin(angles[:, 0::2])
    encoding[:, 1::2] = np.cos(angles[:, 1::2])
    return encoding


def check_inputs(cfg: ModelConfig, ipa_ids, phoneme_lengths, speaker: int, mode) -> tuple:
    """Check :func:`forward`'s inputs against ``cfg`` alone (no weights needed).

    Phoneme lengths, and teacher-forced durations, are read by
    :func:`regulator.as_counts`: a fraction, a length below 1 or a duration
    below 0 is a LengthMismatchError, and a total of 2**63 or more a
    TooLargeError.  More IPA ids, or a teacher-forced frame total, above
    :data:`MAX_DECODER_FRAMES` is a TooLargeError; ids not on one axis, an
    id that is not a whole number in ``[0, n_ipa_symbols)``, lengths that
    do not sum to the id count, a teacher-forced pitch or energy not on one
    axis, or a teacher-forced sequence of the wrong size a
    ShapeMismatchError; a speaker that is a bool, not an integer, or
    outside the table an UnknownSpeakerError; a teacher-forced pitch or
    energy that is not numbers, or not finite, or a pitch of magnitude
    above :data:`MAX_PITCH_HZ`, a ConfigMismatchError.
    Returns the ids, the phoneme lengths, the teacher-forced durations
    (int64) and pitch (float64); the last two are None under Inference.
    """
    lengths = regulator.as_counts(phoneme_lengths, 1, "phoneme lengths")
    raw_ids = _numbers(ipa_ids, ShapeMismatchError("IPA ids must be whole numbers"))
    if raw_ids.ndim != 1:
        raise ShapeMismatchError(f"IPA ids have shape {raw_ids.shape}, expected one axis")
    if raw_ids.size > MAX_DECODER_FRAMES:
        raise TooLargeError(f"{raw_ids.size} IPA symbols, above the encoder's cap of "
                            f"{MAX_DECODER_FRAMES} rows")
    # the range test runs first, so the cast below cannot overflow
    if raw_ids.size and not (raw_ids.min() >= 0 and raw_ids.max() < cfg.n_ipa_symbols):
        raise ShapeMismatchError(
            f"IPA ids must lie in [0, {cfg.n_ipa_symbols})"
        )
    with np.errstate(invalid="ignore"):
        ids = raw_ids.astype(np.int64)
    if not np.array_equal(ids, raw_ids):
        raise ShapeMismatchError("IPA ids must be whole numbers")
    if isinstance(speaker, bool) or not isinstance(speaker, (int, np.integer)):
        raise UnknownSpeakerError(f"speaker {speaker!r} is not an integer")
    if not (0 <= speaker < cfg.n_speakers):
        raise UnknownSpeakerError(
            f"speaker {speaker} outside table of {cfg.n_speakers}"
        )
    if lengths.sum() != ids.size:
        raise ShapeMismatchError(
            f"phoneme lengths sum to {lengths.sum()} but there are {ids.size} IPA ids"
        )
    n_phonemes = lengths.size
    durations = pitch = None
    if isinstance(mode, TeacherForced):
        durations = regulator.as_counts(mode.durations, 0, "teacher-forced durations")
        pitch, energy = (_numbers(seq, ConfigMismatchError(f"teacher-forced {name} must hold "
                                                           "numbers")).astype(np.float64)
                         for name, seq in (("pitch", mode.pitch), ("energy", mode.energy)))
        for name, seq in (("durations", durations), ("pitch", pitch), ("energy", energy)):
            if seq.ndim != 1:
                raise ShapeMismatchError(f"teacher-forced {name} has shape {seq.shape}, "
                                         "expected one axis")
            if seq.size != n_phonemes:
                raise ShapeMismatchError(
                    f"teacher-forced {name} has {seq.size} values, expected {n_phonemes}"
                )
            if not np.all(np.isfinite(seq)):
                raise ConfigMismatchError(f"teacher-forced {name} has non-finite values")
        if pitch.size and np.abs(pitch).max() > MAX_PITCH_HZ:
            raise ConfigMismatchError(f"teacher-forced pitch has values above "
                                      f"{MAX_PITCH_HZ:.0f} Hz in magnitude")
        _check_frames(int(durations.sum()), "teacher-forced")
    elif not isinstance(mode, Inference):
        raise BadConfigError(f"unknown forward mode {mode!r}")
    return ids, lengths, durations, pitch


def _numbers(values, error: Exception) -> np.ndarray:
    """``values`` as a numpy array of bools, integers or floats; else ``error``."""
    try:
        arr = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise error from exc
    if arr.dtype.kind not in "biuf":
        raise error
    return arr


def _check_frames(total: int, kind: str) -> None:
    if total > MAX_DECODER_FRAMES:
        raise TooLargeError(f"{kind} durations sum to {total} frames, "
                            f"above the cap of {MAX_DECODER_FRAMES}")


def forward(weights: Weights, ipa_ids, phoneme_lengths, speaker: int, mode) -> ForwardOutput:
    """Run the full dataflow; see the module docstring for the wiring."""
    cfg = weights.config
    p = weights.tensors
    ids, lengths, durations, pitch = check_inputs(cfg, ipa_ids, phoneme_lengths, speaker, mode)

    trace = []

    x = p["ipa_embedding"][ids]
    trace.append(("embed", x.shape))
    x = x + positional_encoding(x.shape[0], cfg.hidden)
    for i in range(cfg.enc_layers):
        x = _fft_block(x, p, f"encoder.{i}")
    trace.append(("encoder", x.shape))

    y = regulator.aggregate(x, lengths)
    trace.append(("aggregate", y.shape))
    y = y + p["speaker_embedding"][speaker]
    trace.append(("add_speaker", y.shape))

    # stop-gradient on every variance-predictor input: identity in this
    # forward-only stub, but recorded so the wiring is auditable
    predictions = {}
    for name in ("duration", "pitch", "energy"):
        trace.append((f"stopgrad:{name}_predictor", y.shape))
        predictions[name] = _predictor(y, p, f"{name}_predictor")
        trace.append((f"{name}_predictor", predictions[name].shape))

    if isinstance(mode, Inference):
        pitch = predictions["pitch"]
        log_frames = predictions["duration"]
        if not np.all(np.isfinite(log_frames)):
            raise ShapeMismatchError("duration predictor produced non-finite values")
        with np.errstate(over="ignore"):
            frames = np.round(np.exp(log_frames))
        durations = np.clip(frames, 0, MAX_FRAMES_PER_PHONEME).astype(np.int64)
        _check_frames(int(durations.sum()), "inferred")
    y = y + _conv(pitch[:, None], p, "pitch_embed")
    trace.append(("pitch_embedding", y.shape))

    f = regulator.expand(y, durations)
    trace.append(("expand", f.shape))
    f = f + positional_encoding(f.shape[0], cfg.hidden)
    for i in range(cfg.dec_layers):
        f = _fft_block(f, p, f"decoder.{i}")
    trace.append(("decoder", f.shape))

    mel = f @ p["mel_proj.weight"].T + p["mel_proj.bias"]
    trace.append(("mel", mel.shape))

    return ForwardOutput(
        mel_pred=mel,
        dur_pred=predictions["duration"],
        pitch_pred=predictions["pitch"],
        energy_pred=predictions["energy"],
        durations_used=tuple(int(d) for d in durations),
        trace=tuple((name, tuple(shape)) for name, shape in trace),
    )


def mse_losses(out: ForwardOutput, targets: dict) -> dict:
    """Mean-squared error per output head.

    ``targets`` maps {"mel", "log_durations", "pitch", "energy"} to arrays
    matching the corresponding prediction shapes.
    """
    pairs = {
        "mel_loss": (out.mel_pred, targets["mel"]),
        "dur_loss": (out.dur_pred, targets["log_durations"]),
        "pitch_loss": (out.pitch_pred, targets["pitch"]),
        "energy_loss": (out.energy_pred, targets["energy"]),
    }
    losses = {}
    for name, (pred, target) in pairs.items():
        target = np.asarray(target, dtype=np.float64)
        if pred.shape != target.shape:
            raise ShapeMismatchError(
                f"{name}: prediction {pred.shape} vs target {target.shape}"
            )
        losses[name] = float(np.mean((pred - target) ** 2)) if pred.size else 0.0
    return losses
