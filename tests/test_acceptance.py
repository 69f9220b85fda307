"""Acceptance suite: one test per shipping criterion.

Each test prints an ``ACCEPTANCE <n> PASS/FAIL`` line (visible with
``pytest -s``) and enforces its stated runtime budget.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from xling.audio import AudioBuffer, write_wav
from xling.cli import main as cli_main
from xling.corpus import DatasetSpec, balance_report, build_manifest
from xling.features import (
    LOG,
    FeatureConfig,
    QuantizerConfig,
    average_by_phoneme,
    dequantize,
    energy_per_frame,
    mel_spectrogram,
    pitch_per_frame,
    quantize,
    stft_magnitude,
)
from xling.lexicon import (
    Lexicon,
    inventory_ids,
    load_phoneme_sequence,
    text_to_phoneme_sequence,
)
from xling.model import Inference, ModelConfig, TeacherForced, forward, init_weights
from xling.regulator import (
    GRL,
    Aggregate,
    Expand,
    StopGrad,
    aggregate,
    cumulative_lengths,
    expand,
    linear_backward,
)
from xling.tensorio import read_tensor, write_tensor

SR = 16000


@contextmanager
def criterion(num, limit_sec, description):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < limit_sec, f"took {elapsed:.1f}s, budget {limit_sec}s"
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {num} PASS ({time.perf_counter() - start:.1f}s): {description}")


def random_lengths(rng, total):
    lengths = []
    remaining = total
    while remaining > 0:
        n = int(rng.integers(1, remaining + 1))
        lengths.append(n)
        remaining -= n
    return lengths


def brute_force_segment_sum(X, lengths):
    bounds = [0]
    for n in lengths:
        bounds.append(bounds[-1] + n)
    out = np.zeros((len(lengths), X.shape[1]))
    for i in range(len(lengths)):
        acc = np.zeros(X.shape[1])
        for k in range(bounds[i], bounds[i + 1]):
            acc = acc + X[k]
        out[i] = acc
    return out


def test_criterion_1_regulator_correctness():
    with criterion(1, 5.0, "aggregate matches brute force bitwise on 1000 instances"):
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            total = int(rng.integers(1, 65))
            D = int(rng.integers(1, 17))
            lengths = random_lengths(rng, total)
            X = rng.standard_normal((total, D))
            assert (aggregate(X, lengths).tobytes()
                    == brute_force_segment_sum(X, lengths).tobytes())
            c = cumulative_lengths(lengths)
            assert c[0] == 0
            assert np.all(np.diff(c) > 0)


def test_criterion_2_adjoint_identities():
    with criterion(2, 5.0, "adjoint identities for Aggregate/Expand; StopGrad/GRL exact"):
        rng = np.random.default_rng(1002)
        for _ in range(1000):
            total = int(rng.integers(1, 65))
            D = int(rng.integers(1, 17))
            lengths = random_lengths(rng, total)
            X = rng.standard_normal((total, D))
            Z = rng.standard_normal((len(lengths), D))
            lhs = float(np.sum(aggregate(X, lengths) * Z))
            rhs = float(np.sum(X * linear_backward(Aggregate(tuple(lengths)), Z)))
            assert abs(lhs - rhs) < 1e-10
            durations = [int(v) for v in rng.integers(0, 5, size=len(lengths))]
            Y = rng.standard_normal((len(lengths), D))
            W = rng.standard_normal((sum(durations), D))
            lhs = float(np.sum(expand(Y, durations) * W))
            rhs = float(np.sum(Y * linear_backward(Expand(tuple(durations)), W)))
            assert abs(lhs - rhs) < 1e-10
        g = np.random.default_rng(7).standard_normal((9, 5))
        assert np.all(linear_backward(StopGrad(), g) == 0.0)
        for lam in (0.1, 0.5, 1.0):
            assert np.array_equal(linear_backward(GRL(lam), g), -lam * g)


def test_criterion_3_length_bookkeeping_end_to_end(lexicon):
    with criterion(3, 30.0, "sum(lengths) == |ipa| and mel rows == sum(durations), 200 utterances"):
        cfg = ModelConfig(
            n_ipa_symbols=len(lexicon.inventory),
            n_speakers=4,
            hidden=16,
            enc_layers=1,
            dec_layers=1,
            conv_kernel=3,
            ff_channels=32,
            n_mels=20,
        )
        weights = init_weights(cfg, seed=3)
        ids_map = inventory_ids(lexicon)
        rng = np.random.default_rng(1003)
        en_words = sorted(lexicon.en_entries)
        cn_chars = sorted(lexicon.cn_entries)
        for _ in range(200):
            parts = [
                str(rng.choice(en_words)).lower() if rng.random() < 0.5 else str(rng.choice(cn_chars))
                for _ in range(int(rng.integers(1, 8)))
            ]
            ps = text_to_phoneme_sequence(" ".join(parts), lexicon)
            assert sum(ps.lengths) == len(ps.ipa)
            durations = tuple(int(v) for v in rng.integers(0, 9, len(ps.ldp)))
            mode = TeacherForced(durations, (0.0,) * len(ps.ldp), (0.0,) * len(ps.ldp))
            out = forward(weights, [ids_map[s] for s in ps.ipa], ps.lengths, 0, mode)
            assert out.mel_pred.shape[0] == sum(durations)


def test_criterion_4_feature_configuration_fidelity():
    with criterion(4, 10.0, "80-dim mel on the 40ms/10ms/16k grid; energy matches L2 oracle"):
        cfg = FeatureConfig()
        assert cfg.sample_rate == 16000
        assert cfg.win_length == 640 and cfg.hop_length == 160
        t = np.arange(SR) / SR
        audio = AudioBuffer(0.4 * np.sin(2 * np.pi * 220 * t), SR)
        mel = mel_spectrogram(audio, cfg)
        assert mel.shape == (101, 80)
        rng = np.random.default_rng(1004)
        noisy = AudioBuffer(rng.uniform(-0.8, 0.8, 7200), SR)
        magnitude = stft_magnitude(noisy, cfg)
        energy = energy_per_frame(noisy, cfg)
        for frame_index in range(magnitude.shape[0]):
            acc = 0.0
            for value in magnitude[frame_index]:
                acc += value * value
            expected = acc**0.5
            assert abs(energy[frame_index] - expected) <= 1e-9 * expected


def test_criterion_5_pitch_oracle():
    with criterion(5, 10.0, "tones 110/220/330/440 within 2 Hz on >=95% frames; silence unvoiced"):
        cfg = FeatureConfig()
        t = np.arange(SR) / SR
        for f0 in (110.0, 220.0, 330.0, 440.0):
            audio = AudioBuffer(0.4 * np.sin(2 * np.pi * f0 * t), SR)
            values = pitch_per_frame(audio, cfg)
            voiced = values[values > 0]
            assert voiced.size > 0
            assert np.mean(np.abs(voiced - f0) <= 2.0) >= 0.95
        silence = AudioBuffer(np.zeros(SR), SR)
        assert np.all(pitch_per_frame(silence, cfg) == 0.0)


def test_criterion_6_averaging_and_quantization():
    with criterion(6, 5.0, "pitch averaging example exact; quantizer round-trip and bounds"):
        pitch = [100.0, 110.0, 0.0, 120.0]
        assert average_by_phoneme(pitch, [2, 2], voiced_only=True).tolist() == [105.0, 120.0]
        for scale, lo, hi in ((None, -2.0, 9.0), (LOG, 0.5, 400.0)):
            q = (
                QuantizerConfig(v_min=lo, v_max=hi, n_bins=256)
                if scale is None
                else QuantizerConfig(v_min=lo, v_max=hi, n_bins=256, scale=LOG)
            )
            rng = np.random.default_rng(1006)
            values = rng.uniform(lo, hi, 1000)
            idx = quantize(values, q)
            recovered = dequantize(idx, q)
            if scale is None:
                widths = np.full(values.shape, (hi - lo) / q.n_bins)
            else:
                edges = np.exp(np.linspace(np.log(lo), np.log(hi), q.n_bins + 1))
                widths = (edges[1:] - edges[:-1])[idx]
            assert np.all(np.abs(recovered - np.clip(values, lo, hi)) <= widths)
            assert quantize([lo], q)[0] == 0
            assert quantize([hi], q)[0] == q.n_bins - 1


def test_criterion_7_model_dimension_fidelity(lexicon):
    with criterion(7, 10.0, "paper-config forward trace complete, shapes right, bitwise repeatable"):
        cfg = ModelConfig(n_ipa_symbols=len(lexicon.inventory), n_speakers=8)
        assert cfg.hidden == 256
        assert cfg.enc_layers == 4 and cfg.dec_layers == 4
        assert cfg.conv_kernel == 9 and cfg.ff_channels == 1024
        weights = init_weights(cfg, seed=77)
        rng = np.random.default_rng(1007)
        lengths = tuple(int(v) for v in rng.integers(1, 4, 10))
        ids = [int(v) for v in rng.integers(0, cfg.n_ipa_symbols, sum(lengths))]
        durations = tuple(int(v) for v in rng.integers(1, 6, 10))
        mode = TeacherForced(durations, tuple(rng.uniform(80, 300, 10)), tuple(rng.uniform(0, 5, 10)))
        out = forward(weights, ids, lengths, 2, mode)
        out2 = forward(weights, ids, lengths, 2, mode)
        for name in ("mel_pred", "dur_pred", "pitch_pred", "energy_pred"):
            assert np.array_equal(getattr(out, name), getattr(out2, name))
        T_X, T_L, T_f = sum(lengths), 10, sum(durations)
        expected_trace = [
            ("embed", (T_X, 256)),
            ("encoder", (T_X, 256)),
            ("aggregate", (T_L, 256)),
            ("add_speaker", (T_L, 256)),
            ("stopgrad:duration_predictor", (T_L, 256)),
            ("duration_predictor", (T_L,)),
            ("stopgrad:pitch_predictor", (T_L, 256)),
            ("pitch_predictor", (T_L,)),
            ("stopgrad:energy_predictor", (T_L, 256)),
            ("energy_predictor", (T_L,)),
            ("pitch_embedding", (T_L, 256)),
            ("expand", (T_f, 256)),
            ("decoder", (T_f, 256)),
            ("mel", (T_f, 80)),
        ]
        assert list(out.trace) == expected_trace
        assert out.mel_pred.shape == (T_f, 80)


def test_criterion_8_corpus_tooling(minicorpus):
    with criterion(8, 30.0, "d1+d2+d3 manifest mirrors the dataset table; 50/50 balance, no flag"):
        spec = DatasetSpec.load(minicorpus / "d123.spec")
        # dataset table: 2 + 2 + 4 speaker rows, caps 5/5/1/1/1/1/1/1 hours
        # (16 h total), here scaled down 100x
        assert len(spec.members) == 8
        caps = sorted((m.max_hours for m in spec.members), reverse=True)
        assert caps == pytest.approx([0.05, 0.05] + [0.01] * 6)
        assert sum(caps) == pytest.approx(0.16)
        entries = build_manifest(spec, [minicorpus])
        per_speaker = {}
        for e in entries:
            per_speaker.setdefault(e.speaker_id, 0.0)
            per_speaker[e.speaker_id] += e.duration_sec
        assert len(per_speaker) == 8
        for member in spec.members:
            assert per_speaker[member.speaker_id] <= member.max_hours * 3600 + 1e-6
        report = balance_report(entries)
        for axis, value in (("language", "CN"), ("language", "EN"),
                            ("gender", "M"), ("gender", "F")):
            assert report.share(axis, value) == pytest.approx(0.5, abs=1e-9)
        assert report.flags == ()


def test_criterion_9_cli_determinism_and_pipeline(minicorpus, tmp_path):
    with criterion(9, 120.0, "all subcommands byte-identical twice; g2p->features->forward pipeline"):
        def run(*argv):
            code = cli_main([str(a) for a in argv])
            assert code == 0, f"command failed: {argv}"

        def snap(d):
            return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}

        # per-subcommand byte-identity
        for i, out in enumerate((tmp_path / "g_a", tmp_path / "g_b")):
            run("g2p", "--text", "我 在 用 mixed speech", "--out", out)
        assert snap(tmp_path / "g_a") == snap(tmp_path / "g_b")

        wav = sorted((minicorpus / "d2_enm").glob("*.wav"))[0]
        run("g2p", "--text-file", wav.with_suffix(".txt"), "--out", tmp_path / "r_in")
        phn = tmp_path / "r_in" / f"{wav.stem}.phn"
        rng = np.random.default_rng(1009)
        rows = len(load_phoneme_sequence(phn).ipa)
        write_tensor(tmp_path / "x.xlf", rng.standard_normal((rows, 8)))
        for out in (tmp_path / "r_a", tmp_path / "r_b"):
            run("regulate", "--embeddings", tmp_path / "x.xlf", "--phonemes", phn,
                "--alignment", wav.with_suffix(".align"), "--out", out)
        assert sorted(snap(tmp_path / "r_a")) == ["aggregated.xlf", "expanded.xlf"]
        assert snap(tmp_path / "r_a") == snap(tmp_path / "r_b")

        for out in (tmp_path / "m_a", tmp_path / "m_b"):
            run("manifest", "--spec", minicorpus / "d123.spec",
                "--roots", minicorpus, "--out", out)
        assert snap(tmp_path / "m_a") == snap(tmp_path / "m_b")

        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path / "man2")
        manifest2 = tmp_path / "man2" / "manifest.txt"

        for out in (tmp_path / "s_a", tmp_path / "s_b"):
            run("stats", "--manifest", manifest2, "--out", out, "--jobs", 4)
        assert snap(tmp_path / "s_a") == snap(tmp_path / "s_b")

        for out in (tmp_path / "f_a", tmp_path / "f_b"):
            run("features", "--manifest", manifest2, "--out", out, "--jobs", 4,
                "--stats", tmp_path / "s_a" / "stats.txt")
        assert snap(tmp_path / "f_a") == snap(tmp_path / "f_b")

        run("g2p", "--text", "你好 world", "--out", tmp_path / "fw_in")
        for out in (tmp_path / "w_a", tmp_path / "w_b"):
            run("forward", "--phonemes", tmp_path / "fw_in" / "text.phn",
                "--seed", 11, "--out", out)
        assert snap(tmp_path / "w_a") == snap(tmp_path / "w_b")

        # timed end-to-end pipeline over the d2 manifest
        start = time.perf_counter()
        model_cfg = tmp_path / "model.cfg"
        ModelConfig(n_ipa_symbols=54, n_speakers=8).to_file(model_cfg)
        from xling.corpus import read_manifest

        pipe = tmp_path / "pipe"
        for entry in read_manifest(manifest2):
            run("g2p", "--text", entry.text, "--name", entry.utt_id, "--out", pipe)
            run("features", "--wav", entry.audio_path,
                "--alignment", entry.alignment_path,
                "--utt-id", entry.utt_id, "--out", pipe, "--jobs", 1)
            run("forward", "--phonemes", pipe / f"{entry.utt_id}.phn",
                "--model-config", model_cfg, "--seed", 5,
                "--alignment", entry.alignment_path,
                "--pitch-avg", pipe / f"{entry.utt_id}.pitch_avg.xlf",
                "--energy-avg", pipe / f"{entry.utt_id}.energy_avg.xlf",
                "--out", pipe)
            mel = read_tensor(pipe / f"{entry.utt_id}.mel_pred.xlf")
            assert mel.shape[1] == 80
        assert time.perf_counter() - start < 120.0
