"""Command-line pipeline driver.

Subcommands: ``g2p`` (text -> phoneme sequence file), ``regulate``
(embedding tensor + lengths -> aggregated/expanded tensors), ``features``
(WAV [+ alignment] -> mel/energy/pitch and phoneme-averaged/quantized
tracks), ``stats`` (corpus-wide energy/pitch ranges for the quantizer),
``forward`` (phoneme sequence + seed -> deterministic model outputs and a
stage trace), and ``manifest`` (dataset spec + scan roots -> manifest and
balance report).

A ``--config`` file (``key=value`` lines under the rule of
:func:`xling.textio.read_keys`) holds the pipeline's parameters: the
feature parameters, the energy quantizer's ``quantizer_bins`` and
``quantizer_scale``, and the four lexicon paths (all four or none).  Every
other file a run reads or writes is named by a flag, and only by a flag.
:func:`load_pipeline_config` types the config, fills in every default and
runs every config rule when it loads, for every command alike, so no
command accepts a config that another refuses.  Failures print a single
``ERROR <code>: <detail>`` line and exit nonzero; in ``features`` and
``stats`` the detail names the utterance and its WAV.

``features --manifest`` and ``stats`` analyze their utterances on ``--jobs``
threads (:func:`xling.model.map_ordered`), and ``manifest`` scans its
speakers in spec order on the calling thread; no command starts a process.
Results keep manifest order, so every output is byte-identical for any
``--jobs``.  A command writes its outputs only after all of its inputs
are read and checked, so a bad input leaves no output file; a ``features``
batch does so per utterance.  A failure cancels the work that has not
started, so a failed batch leaves some utterances unwritten, and those that
finished keep their files.  Every output is
atomic because every writer of the package is (text through
:mod:`xling.textio`, tensors through :mod:`xling.tensorio`), so concurrent
writers never produce partial files.  ``XLING_LOG`` in {error, info,
debug} controls stderr logging.

:func:`main` owns its process, so once per process, before any work, it
sets the C allocator's policy through glibc's ``mallopt``: one malloc arena
for all threads, blocks below 32 MiB from the heap rather than fresh
mappings, and free heap returned to the system only above 64 MiB.
glibc's defaults move both thresholds as blocks are freed and give each
``--jobs`` thread its own arena, so numpy's per-block temporaries were
mapped, trimmed and faulted in again on every call, and the peak RSS
depended on call order.  The values are constants.  Where the C library
has no ``mallopt`` (anything but glibc), the policy is skipped; importing
this module or calling the library sets nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import functools
import logging
import os
import sys
from pathlib import Path
from typing import NamedTuple, get_type_hints

import numpy as np

from . import corpus, regulator, tensorio
from .audio import read_wav
from .corpus import (
    DatasetSpec,
    balance_report,
    build_manifest,
    parse_alignment,
    write_manifest,
    read_manifest,
)
from .errors import (
    BadConfigError,
    LengthMismatchError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
    UtteranceError,
    XlingError,
)
from .features import (
    LOG,
    FeatureConfig,
    QuantizerConfig,
    average_by_phoneme,
    energy_per_frame,
    mel_spectrogram,
    pitch_per_frame,
    quantize,
)
from .lexicon import (
    Lexicon,
    default_paths,
    dump_phoneme_sequence,
    inventory_ids,
    load_inventory,
    load_phoneme_sequence,
    text_to_phoneme_sequence,
)
from .model import (
    Inference,
    ModelConfig,
    TeacherForced,
    check_inputs,
    forward as model_forward,
    init_weights,
    map_ordered,
    save_weights,
    usable_cpus,
)
from .textio import read_keys, read_text, write_records, write_text

log = logging.getLogger("xling")

_FEATURE_KINDS = get_type_hints(FeatureConfig)
_LEXICON_KEYS = ("en_dict", "cn_dict", "ipa_dict", "ipa_inventory")
_CONFIG_KINDS = {**_FEATURE_KINDS, "quantizer_bins": int,
                 **dict.fromkeys(_LEXICON_KEYS + ("quantizer_scale",), str)}
_STATS_KEYS = ("energy_min", "energy_max", "pitch_min", "pitch_max",
               "n_frames", "n_voiced_frames")
# glibc mallopt parameters: M_ARENA_MAX, M_MMAP_THRESHOLD and M_TRIM_THRESHOLD
_MALLOC_POLICY = ((-8, 1), (-3, 32 << 20), (-1, 64 << 20))


@functools.cache
def _set_malloc_policy() -> None:
    """Apply :data:`_MALLOC_POLICY` once per process (see the module docstring).

    Both thresholds are set: fixing only the mmap one switches off glibc's
    moving thresholds and leaves trimming at 128 KiB, so every call faults
    its temporaries in again.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in _MALLOC_POLICY:
        mallopt(param, value)


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("XLING_LOG", "error")
    if name not in levels:
        raise BadConfigError(f"XLING_LOG must be one of {sorted(levels)}, got {name!r}")
    logging.basicConfig(
        level=levels[name], stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


class PipelineConfig(NamedTuple):
    """A typed ``--config`` with every default filled in."""

    features: FeatureConfig
    lexicon: tuple  # in :meth:`Lexicon.load` argument order
    quantizer_bins: int
    quantizer_scale: str


def load_pipeline_config(path=None) -> PipelineConfig:
    """The typed ``key=value`` config at ``path``; no path gives the defaults.

    Every rule runs here, whether or not the subcommand reads the value:
    the lexicon files it names must exist, and it names all four or none.
    """
    values = {} if path is None else read_keys(path, _CONFIG_KINDS)
    lexicon = tuple(values[key] for key in _LEXICON_KEYS if key in values)
    try:
        cfg = PipelineConfig(
            FeatureConfig(**{key: values[key] for key in _FEATURE_KINDS if key in values}),
            lexicon or default_paths(), values.get("quantizer_bins", 256),
            values.get("quantizer_scale", LOG))
        _quantizer(cfg, 1.0, 2.0)  # any valid range: the real one comes from stats
        for key in _LEXICON_KEYS:
            if key in values and not Path(values[key]).is_file():
                raise BadConfigError(f"{key} points to missing file {values[key]!r}")
        if 0 < len(lexicon) < len(_LEXICON_KEYS):
            missing = [key for key in _LEXICON_KEYS if key not in values]
            raise BadConfigError(f"config overrides lexicon paths but lacks {missing}")
    except (BadConfigError, TooLargeError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    return cfg


def _out_dir(args) -> Path:
    path = Path(args.out or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _check_file_target(path, out_dir: Path) -> None:
    """Refuse ``path`` as a file to write, before any work: it may not be a
    directory, and its directory must exist or be one that ``--out`` makes."""
    target, out = Path(path), out_dir.resolve()
    parent = target.parent.resolve()
    if target.is_dir():
        code = errno.EISDIR
    elif parent.is_dir() or parent in (out, *out.parents):
        return
    else:
        code = errno.ENOTDIR if parent.exists() else errno.ENOENT
    raise OSError(code, os.strerror(code), path)


def _parse_int_list(value: str | None, file_value: str | None, what: str) -> list:
    if (value is None) == (file_value is None):
        raise BadConfigError(f"provide exactly one of --{what} / --{what}-file")
    if value is not None:
        fields = value.split(",")
        if len(fields) > 1 and not all(field.strip() for field in fields):
            raise BadConfigError(f"empty field in --{what} {value!r}")
        parts = value.replace(",", " ").split()
    else:
        parts = read_text(file_value).split()
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise BadConfigError(f"bad integer in {what}: {exc}") from exc


# ----------------------------------------------------------------- g2p

def _cmd_g2p(args, cfg: PipelineConfig) -> int:
    lexicon = Lexicon.load(*cfg.lexicon)
    if (args.text is None) == (args.text_file is None):
        raise BadConfigError("provide exactly one of --text / --text-file")
    if args.text is not None:
        text, name = args.text, (args.name or "text")
    else:
        text = read_text(args.text_file).strip()
        name = args.name or Path(args.text_file).stem
    ps = text_to_phoneme_sequence(text, lexicon)
    out = _out_dir(args) / f"{name}.phn"
    dump_phoneme_sequence(ps, out)
    log.info("wrote %s (%d phonemes, %d IPA symbols)", out, len(ps.ldp), len(ps.ipa))
    return 0


# ------------------------------------------------------------- regulate

def _cmd_regulate(args, cfg: PipelineConfig) -> int:
    X = tensorio.read_tensor(args.embeddings)
    lengths = _parse_int_list(args.lengths, args.lengths_file, "lengths")
    outputs = {"aggregated": regulator.aggregate(X, lengths)}
    if args.durations is not None or args.durations_file is not None:
        durations = _parse_int_list(args.durations, args.durations_file, "durations")
        outputs["expanded"] = regulator.expand(outputs["aggregated"], durations)
    out_dir = _out_dir(args)
    for name, tensor in outputs.items():
        tensorio.write_tensor(out_dir / f"{name}.xlf", tensor)
        log.info("%s %s", name, tensor.shape)
    return 0


# ------------------------------------------------------------- features

def _fit_durations_to_frames(durations, n_frames: int) -> list:
    """Fit an alignment that :func:`corpus.check_duration` accepted to the
    ``n_frames`` of the feature grid, which center padding makes one frame
    longer than the audio.

    The cumulative phoneme bounds are clipped at ``n_frames`` and the last
    one set to it, so extra frames go to the last phoneme and missing ones
    come off the trailing phonemes; the averaged tracks stay total.
    """
    bounds = np.minimum(np.cumsum(durations), n_frames)
    bounds[-1] = n_frames
    return np.diff(bounds, prepend=0).tolist()


def _naming_failures(fn):
    """``fn(utt_id, wav_path, *args, **shared)``, with a failure re-raised
    naming its utterance and WAV path."""

    @functools.wraps(fn)
    def run(utt_id: str, wav_path: str, *args, **shared):
        try:
            return fn(utt_id, wav_path, *args, **shared)
        except XlingError as exc:
            raise UtteranceError(utt_id, wav_path, exc.code, str(exc)) from exc
        except OSError as exc:
            raise UtteranceError(utt_id, wav_path, "IO", str(exc)) from exc

    return run


@_naming_failures
def _extract_one(utt_id: str, wav_path: str, alignment_path: str | None, *, out_dir: Path,
                 feature_cfg: FeatureConfig, quantizer_cfg: QuantizerConfig | None) -> str:
    audio = read_wav(wav_path, expected_rate=feature_cfg.sample_rate)
    tracks = {"mel": mel_spectrogram(audio, feature_cfg),
              "energy": energy_per_frame(audio, feature_cfg),
              "pitch": pitch_per_frame(audio, feature_cfg)}
    if alignment_path is not None:
        record = parse_alignment(alignment_path, utt_id=utt_id)
        corpus.check_duration(record, audio.duration_sec)
        durations = _fit_durations_to_frames(record.frame_durations, tracks["energy"].size)
        tracks["energy_avg"] = average_by_phoneme(tracks["energy"], durations)
        tracks["pitch_avg"] = average_by_phoneme(tracks["pitch"], durations, voiced_only=True)
        if quantizer_cfg is not None:
            tracks["energy_q"] = quantize(tracks["energy_avg"], quantizer_cfg)
    for name, track in tracks.items():
        tensorio.write_tensor(out_dir / f"{utt_id}.{name}.xlf", track)
    return utt_id


def _read_entries(manifest_path) -> list:
    """The manifest's entries; an empty manifest is a ParseError at its path."""
    entries = read_manifest(manifest_path)
    if not entries:
        raise ParseError("manifest is empty", path=manifest_path)
    return entries


def _quantizer(cfg: PipelineConfig, v_min: float, v_max: float) -> QuantizerConfig:
    return QuantizerConfig(v_min, v_max, n_bins=cfg.quantizer_bins, scale=cfg.quantizer_scale)


def _quantizer_from(args, cfg: PipelineConfig) -> QuantizerConfig | None:
    """The energy quantizer over the range of the ``--stats`` file, if any."""
    if args.stats is None:
        return None
    stats = read_keys(args.stats, dict.fromkeys(_STATS_KEYS, float))
    missing = [key for key in _STATS_KEYS[:2] if key not in stats]
    if missing:
        raise ParseError(f"stats file lacks {missing}", path=args.stats)
    return _quantizer(cfg, stats["energy_min"], stats["energy_max"])


def _cmd_features(args, cfg: PipelineConfig) -> int:
    single = {"--wav": args.wav, "--utt-id": args.utt_id, "--alignment": args.alignment}
    if args.manifest is not None:
        unread = [flag for flag, value in single.items() if value is not None]
        if unread:
            raise BadConfigError(f"--manifest cannot be combined with {', '.join(unread)}")
    elif args.wav is None:
        raise BadConfigError("provide --wav or --manifest")
    elif args.stats is not None and args.alignment is None:
        raise BadConfigError("--stats cannot be used without --alignment: "
                             "energy is quantized per phoneme")
    feature_cfg = cfg.features
    frame_ms = 1000 / corpus.FRAMES_PER_SECOND
    if (args.manifest, args.alignment) != (None, None) and feature_cfg.hop_ms != frame_ms:
        raise BadConfigError(f"alignments count {frame_ms:g} ms frames, so averaging per "
                             f"phoneme needs hop_ms={frame_ms:g}, got {feature_cfg.hop_ms}")
    quantizer_cfg = _quantizer_from(args, cfg)
    if args.manifest is not None:
        units = [(entry.utt_id, entry.audio_path, entry.alignment_path)
                 for entry in _read_entries(args.manifest)]
    else:
        units = [(args.utt_id or Path(args.wav).stem, args.wav, args.alignment)]
    extract = functools.partial(_extract_one, out_dir=_out_dir(args),
                                feature_cfg=feature_cfg, quantizer_cfg=quantizer_cfg)
    for utt_id in map_ordered(extract, args.jobs, *zip(*units)):
        log.info("extracted %s", utt_id)
    return 0


# ---------------------------------------------------------------- stats

@_naming_failures
def _stat_one(utt_id: str, wav_path: str, *, feature_cfg: FeatureConfig) -> tuple:
    """Nonzero-energy min, energy max (the analysis refuses empty audio), voiced
    pitch min and max (inf, -inf if none), frame count and voiced count."""
    audio = read_wav(wav_path, expected_rate=feature_cfg.sample_rate)
    energy = energy_per_frame(audio, feature_cfg)
    pitch = pitch_per_frame(audio, feature_cfg)
    voiced = pitch > 0
    return (energy.min(initial=np.inf, where=energy > 0), energy.max(),
            pitch.min(initial=np.inf, where=voiced), pitch.max(initial=-np.inf, where=voiced),
            energy.size, np.count_nonzero(voiced))


def _cmd_stats(args, cfg: PipelineConfig) -> int:
    stat = functools.partial(_stat_one, feature_cfg=cfg.features)
    entries = _read_entries(args.manifest)
    e_min, e_max, p_min, p_max, frames, voiced = zip(*map_ordered(
        stat, args.jobs, [e.utt_id for e in entries], [e.audio_path for e in entries]))
    ranges = (min(e_min), max(e_max), min(p_min), max(p_max))
    if ranges[0] == np.inf:
        raise BadConfigError("corpus has no nonzero energy frames")
    stats = ([float(x) if np.isfinite(x) else 0.0 for x in ranges]
             + [int(sum(frames)), int(sum(voiced))])
    out = _out_dir(args) / "stats.txt"
    write_records(out, zip(_STATS_KEYS, map(repr, stats)), "=", 1)
    log.info("wrote %s over %d utterances", out, len(entries))
    return 0


# -------------------------------------------------------------- forward

def _cmd_forward(args, cfg: PipelineConfig) -> int:
    teacher = {"--pitch-avg": args.pitch_avg, "--energy-avg": args.energy_avg}
    unread = [flag for flag, value in teacher.items() if value is not None]
    if unread and args.alignment is None:
        raise BadConfigError(f"{', '.join(unread)} cannot be used without --alignment")
    missing = [flag for flag, value in teacher.items() if value is None]
    if missing and args.alignment is not None:
        raise BadConfigError(f"--alignment cannot be used without {', '.join(missing)}")
    if args.model_config is not None and args.n_speakers is not None:
        raise BadConfigError("--n-speakers cannot be used with --model-config, "
                             "which sets n_speakers")
    ids_map = inventory_ids(load_inventory(cfg.lexicon[-1]))
    ps = load_phoneme_sequence(args.phonemes)
    try:
        ids = [ids_map[symbol] for symbol in ps.ipa]
    except KeyError as exc:
        raise ParseError(f"IPA symbol {exc.args[0]!r} not in inventory",
                         path=args.phonemes) from exc

    if args.model_config is not None:
        model_cfg = ModelConfig.from_file(args.model_config)
    else:
        n_speakers = 8 if args.n_speakers is None else args.n_speakers
        model_cfg = ModelConfig(n_ipa_symbols=len(ids_map), n_speakers=n_speakers)

    if args.alignment is not None:
        record = parse_alignment(args.alignment)
        if record.ldp_labels != tuple(sym.label for sym in ps.ldp):
            raise LengthMismatchError(
                "alignment phoneme labels do not match the phoneme sequence"
            )
        pitch, energy = map(tensorio.read_tensor, (args.pitch_avg, args.energy_avg))
        for name, track in (("pitch", pitch), ("energy", energy)):
            if track.ndim != 1:
                raise ShapeMismatchError(f"teacher-forced {name} has shape {track.shape}, "
                                         "expected one axis")
        mode = TeacherForced(record.frame_durations, tuple(pitch), tuple(energy))
    else:
        mode = Inference()

    check_inputs(model_cfg, ids, ps.lengths, args.speaker, mode)
    if args.dump_weights is not None:
        _check_file_target(args.dump_weights, Path(args.out or "."))
    weights = init_weights(model_cfg, args.seed)
    out = model_forward(weights, ids, ps.lengths, args.speaker, mode)
    out_dir = _out_dir(args)
    name = Path(args.phonemes).stem
    lines = [f"{stage}\t{'x'.join(str(d) for d in shape)}" for stage, shape in out.trace]
    lines.append("durations_used\t" + " ".join(str(d) for d in out.durations_used))
    outputs = [(tensorio.write_tensor, out_dir / f"{name}.{part}.xlf", getattr(out, part))
               for part in ("mel_pred", "dur_pred", "pitch_pred", "energy_pred")]
    outputs.append((write_text, out_dir / f"{name}.trace.txt", "\n".join(lines) + "\n"))
    if args.dump_weights is not None:  # first: the largest write fails before any other
        outputs.insert(0, (save_weights, args.dump_weights, weights))
    for write, path, value in outputs:
        write(path, value)
    log.info("forward %s: mel %s", name, out.mel_pred.shape)
    return 0


# ------------------------------------------------------------- manifest

def _cmd_manifest(args, cfg: PipelineConfig) -> int:
    spec = DatasetSpec.load(args.spec)
    entries = build_manifest(spec, args.roots)
    report = balance_report(entries)  # before any output: an empty scan writes nothing
    out_dir = _out_dir(args)
    write_manifest(entries, out_dir / "manifest.txt")
    write_text(out_dir / "balance.txt", report.render())
    log.info(
        "manifest %s: %d entries, %.4f h, flags=%s",
        spec.name, len(entries), report.total_hours, report.flags or "none",
    )
    return 0


# ----------------------------------------------------------------- main

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="pipeline config file (key=value lines): "
                        "feature and quantizer parameters and lexicon paths")
    parser.add_argument("--out", help="output directory")


def _positive_int(value: str) -> int:
    try:
        number = int(value)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected an integer of at least 1, got {value!r}")
    return number


def _add_jobs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=_positive_int, default=usable_cpus(),
                        help="worker threads (default: the CPUs this process may use)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xling",
                                     description="Cross-lingual TTS frontend pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("g2p", help="text to phoneme-sequence file")
    _add_common(p)
    p.add_argument("--text", help="literal input text")
    p.add_argument("--text-file", help="read input text from a file")
    p.add_argument("--name", help="output basename (default: text / file stem)")
    p.set_defaults(func=_cmd_g2p)

    p = sub.add_parser("regulate", help="aggregate / expand an embedding tensor")
    _add_common(p)
    p.add_argument("--embeddings", required=True, help=".xlf tensor, rows = IPA symbols")
    p.add_argument("--lengths", help="comma/space separated phoneme lengths")
    p.add_argument("--lengths-file", help="file of whitespace-separated lengths")
    p.add_argument("--durations", help="comma/space separated frame durations")
    p.add_argument("--durations-file", help="file of whitespace-separated durations")
    p.set_defaults(func=_cmd_regulate)

    p = sub.add_parser("features", help="extract mel/energy/pitch (+averaged) tracks")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--wav", help="single WAV input")
    p.add_argument("--utt-id", help="utterance id for single-WAV mode")
    p.add_argument("--alignment", help="alignment file for single-WAV mode")
    p.add_argument("--manifest", help="batch over a manifest file")
    p.add_argument("--stats", help="stats.txt from the stats command: quantizes the "
                   "phoneme-averaged energy (needs --alignment or --manifest)")
    p.set_defaults(func=_cmd_features)

    p = sub.add_parser("stats", help="corpus-wide energy/pitch ranges")
    _add_common(p)
    _add_jobs(p)
    p.add_argument("--manifest", required=True)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("forward", help="run the deterministic model stub")
    _add_common(p)
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (u64)")
    p.add_argument("--phonemes", required=True, help=".phn file from g2p")
    p.add_argument("--model-config", help="ModelConfig key=value file")
    p.add_argument("--speaker", type=int, default=0)
    p.add_argument("--n-speakers", type=int,
                   help="speaker table size of the default model (default: 8); "
                   "refused with --model-config, which sets n_speakers")
    p.add_argument("--alignment", help="teacher-forced durations "
                   "(needs --pitch-avg and --energy-avg)")
    p.add_argument("--pitch-avg", help="teacher-forced per-phoneme pitch (.xlf)")
    p.add_argument("--energy-avg", help="teacher-forced per-phoneme energy (.xlf): "
                   "checked (one finite value per phoneme), not embedded")
    p.add_argument("--dump-weights", help="also write the weight container here")
    p.set_defaults(func=_cmd_forward)

    p = sub.add_parser("manifest", help="build a manifest and balance report")
    _add_common(p)
    p.add_argument("--spec", required=True, help="dataset spec file")
    p.add_argument("--roots", nargs="+", required=True, help="corpus scan roots")
    p.set_defaults(func=_cmd_manifest)

    return parser


def main(argv=None) -> int:
    _set_malloc_policy()
    try:
        _setup_logging()
        args = build_parser().parse_args(argv)
        return args.func(args, load_pipeline_config(args.config))
    except XlingError as exc:
        print(f"ERROR {exc.code}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ERROR IO: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
