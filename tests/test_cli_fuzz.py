"""No input file reaches a traceback: property tests over the d2 flow.

Each valid input file of a small d2 minicorpus flow is mutated once (cut
short, one bit flipped, bytes inserted, or a span repeated) and fed to the
subcommand that reads it, through ``cli.main``; the ``regulate_phn`` and
``regulate_alignment`` kinds mutate the flow's ``.phn`` and alignment under
``regulate`` over a small embedding tensor, and ``forward`` also dumps its
weights under ``--out``.  The run must exit 0, or exit 1 with exactly one
``ERROR <code>:`` line on stderr and no file under its ``--out``; only a
``features --manifest`` batch keeps the files of the utterances that
finished before the failure.

Inserted bytes are control or non-ASCII bytes, never digits, so those
mutations scale no number beyond doubling its digits.  A second strategy
does: it replaces one run of digits in the alignment, model config,
pipeline config, phoneme file or dataset spec, or in the phoneme file or
alignment that ``regulate`` reads, with 0 or 10**k for k in [1, 30], under
the same rule.  ``regulate``'s row cap keeps those draws cheap: at the
tensor's two columns, a repeat to 10**8 rows or more is refused.  A third
feeds ``forward --alignment`` valid ``.xlf`` pitch and energy tensors of
rank 0-2 and any dimensions up to 7, under the same rule.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import numpy as np

from xling.cli import main
from xling.lexicon import load_phoneme_sequence
from xling.tensorio import read_tensor, write_tensor

ONE_ERROR = re.compile(r"ERROR [A-Z_]+: [^\n]*\n")
# n_speakers is last, so any cut that drops a key drops a required one and
# the model never falls back to its paper-sized defaults
MODEL_CONFIG = ("hidden=8\nenc_layers=1\ndec_layers=1\nconv_kernel=3\nff_channels=4\n"
                "n_mels=5\npitch_embed_kernel=3\nn_ipa_symbols=54\nn_speakers=2\n")
PIPELINE_CONFIG = ("win_ms=40\nhop_ms=10\nfft_size=1024\nn_mels=80\nvoicing_threshold=0.3\n"
                   "quantizer_bins=16\n")


def run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def flow(tmp_path_factory):
    """Every input file of a d2 flow over two one-second utterances."""
    from xling.minicorpus import generate

    root = tmp_path_factory.mktemp("fuzz")
    corpus = generate(root / "corpus", scale=3600)
    out = root / "flow"
    assert run("manifest", "--spec", corpus / "d2.spec", "--roots", corpus,
               "--out", out) == (0, "")
    manifest = out / "manifest.txt"
    assert run("stats", "--manifest", manifest, "--out", out, "--jobs", 1) == (0, "")
    wav = Path(manifest.read_text("utf-8").split("|")[1])
    files = {
        "spec": corpus / "d2.spec", "manifest": manifest, "stats": out / "stats.txt",
        "wav": wav, "alignment": wav.with_suffix(".align"),
        "transcript": wav.with_suffix(".txt"), "phn": out / "utt0000.phn",
        "xlf": out / "utt0000.pitch_avg.xlf", "energy": out / "utt0000.energy_avg.xlf",
        "model_config": out / "model.cfg", "pipeline_config": out / "pipeline.cfg",
        "embeddings": out / "x.xlf",
    }
    files.update(regulate_phn=files["phn"], regulate_alignment=files["alignment"])
    files["model_config"].write_text(MODEL_CONFIG, encoding="utf-8")
    files["pipeline_config"].write_text(PIPELINE_CONFIG, encoding="utf-8")
    assert run("g2p", "--text-file", files["transcript"], "--out", out) == (0, "")
    rows = len(load_phoneme_sequence(files["phn"]).ipa)
    write_tensor(files["embeddings"], np.arange(2.0 * rows).reshape(rows, 2))
    assert run("features", "--wav", wav, "--alignment", files["alignment"],
               "--utt-id", "utt0000", "--out", out) == (0, "")
    return {"root": corpus, **files}


def command(kind, f, out):
    """The argv of the subcommand that reads ``kind``, over the files ``f``."""
    forward = ["forward", "--phonemes", f["phn"], "--model-config", f["model_config"],
               "--dump-weights", out / "weights.xlf"]
    single = ["features", "--wav", f["wav"], "--alignment", f["alignment"],
              "--stats", f["stats"], "--config", f["pipeline_config"]]
    regulate = ["regulate", "--embeddings", f["embeddings"], "--phonemes", f["regulate_phn"],
                "--alignment", f["regulate_alignment"]]
    argv = {
        "spec": ["manifest", "--spec", f["spec"], "--roots", f["root"]],
        "manifest": ["features", "--manifest", f["manifest"], "--stats", f["stats"],
                     "--jobs", 1],
        "stats": single, "wav": single, "alignment": single, "pipeline_config": single,
        "transcript": ["g2p", "--text-file", f["transcript"]],
        "phn": forward, "model_config": forward,
        "regulate_phn": regulate, "regulate_alignment": regulate,
        "xlf": forward + ["--alignment", f["alignment"], "--pitch-avg", f["xlf"],
                          "--energy-avg", f["energy"]],
    }[kind]
    return argv + ["--out", out]


@st.composite
def mutation(draw, data: bytes) -> bytes:
    at = draw(st.integers(0, len(data)))
    kind = draw(st.sampled_from(["cut", "flip", "insert", "repeat"]))
    if kind == "cut":
        return data[:at]
    if kind == "flip" and at < len(data):  # a flip past the end inserts instead
        return data[:at] + bytes([data[at] ^ 1 << draw(st.integers(0, 7))]) + data[at + 1:]
    if kind == "repeat":
        start = draw(st.integers(0, at))
        return data[:at] + data[start:at] + data[at:]
    junk = st.sampled_from([*range(0x00, 0x09), *range(0x80, 0x100)])
    return data[:at] + bytes(draw(st.lists(junk, min_size=1, max_size=4))) + data[at:]


KINDS = ["spec", "manifest", "stats", "wav", "alignment", "transcript", "phn", "xlf",
         "model_config", "pipeline_config", "regulate_phn", "regulate_alignment"]


@pytest.mark.parametrize("kind", KINDS)
def test_unmutated_flow_exits_zero(flow, kind, tmp_path):
    assert run(*command(kind, flow, tmp_path)) == (0, "")


@st.composite
def scaled_number(draw, data: bytes) -> bytes:
    """``data`` with one run of digits replaced by 0 or by 10**k, k in [1, 30]."""
    digits = draw(st.sampled_from(list(re.finditer(rb"[0-9]+", data))))
    value = draw(st.just(0) | st.integers(1, 30).map(lambda k: 10**k))
    return data[:digits.start()] + str(value).encode() + data[digits.end():]


def exits_zero_or_with_one_error_line(flow, kind, contents):
    """Run ``kind``'s command with ``contents`` ({kind: bytes}) in place of
    those flow files: it exits 0, or 1 with one error line and no file
    written (a batch keeps its finished utterances' files)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / flow[name].name for name in contents}
        for name, data in contents.items():
            paths[name].write_bytes(data)
        out = Path(tmp) / "out"
        code, err = run(*command(kind, {**flow, **paths}, out))
        written = [p.name for p in out.rglob("*") if p.is_file()]
    assert (code, err) == (0, "") or (code == 1 and ONE_ERROR.fullmatch(err)), (code, err)
    assert code == 0 or kind == "manifest" or not written, (err, written)


@given(data=st.data())
@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_input_exits_zero_or_with_one_error_line(flow, data):
    kind = data.draw(st.sampled_from(KINDS), label="kind")
    mutated = data.draw(mutation(flow[kind].read_bytes()), label="mutated")
    exits_zero_or_with_one_error_line(flow, kind, {kind: mutated})


@given(data=st.data())
@settings(max_examples=300, suppress_health_check=[HealthCheck.too_slow])
def test_scaled_number_exits_zero_or_with_one_error_line(flow, data):
    kind = data.draw(st.sampled_from(["alignment", "model_config", "phn", "spec",
                                      "pipeline_config", "regulate_phn",
                                      "regulate_alignment"]),
                     label="kind")
    mutated = data.draw(scaled_number(flow[kind].read_bytes()), label="mutated")
    exits_zero_or_with_one_error_line(flow, kind, {kind: mutated})


def xlf_bytes(values) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.xlf"
        write_tensor(path, values)
        return path.read_bytes()


def test_huge_teacher_forced_pitch_is_one_error_line(flow, tmp_path):
    # a flipped exponent bit turns a pitch near 100 Hz into one near 1e155,
    # which the decoder's squares would overflow
    huge = tmp_path / "huge.xlf"
    write_tensor(huge, read_tensor(flow["xlf"]) + 1e155)
    code, err = run(*command("xlf", {**flow, "xlf": huge}, tmp_path / "out"))
    assert (code, err) == (1, "ERROR CONFIG_MISMATCH: teacher-forced pitch has values "
                              "above 2147483648 Hz in magnitude\n")
    assert not (tmp_path / "out").exists()


@given(data=st.data())
@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
def test_teacher_forced_tracks_of_any_shape(flow, data):
    contents = {}
    for kind in ("xlf", "energy"):  # the pitch and energy tracks
        shape = data.draw(st.lists(st.integers(0, 7), max_size=2).map(tuple), label=kind)
        contents[kind] = xlf_bytes(np.full(shape, 100.0))
    exits_zero_or_with_one_error_line(flow, "xlf", contents)
