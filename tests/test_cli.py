import contextlib
import io
import platform
import tempfile
import wave
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from xling.cli import _fit_durations_to_frames, build_parser, main
from xling.lexicon import load_phoneme_sequence
from xling.regulator import MAX_REPEAT_BYTES
from xling.tensorio import read_tensor, write_tensor


def run(*argv):
    return main([str(a) for a in argv])


def snapshot(directory):
    return {
        p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
    }


def write_empty_wav(path):
    """A well-formed 16 kHz mono WAV of no frames (``write_wav`` refuses one)."""
    with wave.open(str(path), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)


def sine(n):
    """``n`` samples of a 200 Hz sine at 16 kHz."""
    return 0.4 * np.sin(2 * np.pi * 200 * np.arange(n) / 16000 + 1)


def write_utterance(speaker, stem, samples, frames):
    """``stem``'s 16 kHz WAV of ``samples`` (none allowed, which ``write_wav``
    refuses), its transcript and a one-phoneme alignment of ``frames``."""
    speaker.mkdir(parents=True, exist_ok=True)
    with wave.open(str(speaker / f"{stem}.wav"), "wb") as w:
        w.setnchannels(1)
        w.setsampwidth(2)
        w.setframerate(16000)
        w.writeframes(np.round(np.asarray(samples) * 32768).astype("<i2").tobytes())
    (speaker / f"{stem}.txt").write_text("你好\n", encoding="utf-8")
    (speaker / f"{stem}.align").write_text(f"ni\t{frames}\n", encoding="utf-8")


def regulate_inputs(directory, minicorpus, width=4):
    """``(embeddings, phonemes, alignment)`` for ``regulate`` over a d2
    utterance: one random row per IPA symbol, ``width`` columns wide, the
    g2p ``.phn`` of its transcript and its minicorpus ``.align``."""
    wav = sorted((minicorpus / "d2_enm").glob("*.wav"))[0]
    assert run("g2p", "--text-file", wav.with_suffix(".txt"), "--out", directory) == 0
    phn = directory / f"{wav.stem}.phn"
    rows = len(load_phoneme_sequence(phn).ipa)
    embeddings = directory / "x.xlf"
    write_tensor(embeddings, np.random.default_rng(0).standard_normal((rows, width)))
    return embeddings, phn, wav.with_suffix(".align")


class TestG2p:
    def test_writes_sequence_file(self, tmp_path):
        out = tmp_path / "out"
        assert run("g2p", "--text", "你好 world", "--out", out) == 0
        ps = load_phoneme_sequence(out / "text.phn")
        assert [s.label for s in ps.ldp] == ["ni", "hao", "W", "ER", "L", "D"]
        assert sum(ps.lengths) == len(ps.ipa)

    def test_empty_text_exits_zero(self, tmp_path):
        out = tmp_path / "out"
        assert run("g2p", "--text", "", "--out", out) == 0
        assert len(load_phoneme_sequence(out / "text.phn")) == 0

    def test_oov_is_machine_parseable_error(self, tmp_path, capsys):
        assert run("g2p", "--text", "zzxqv", "--out", tmp_path) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR OOV: ")

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run("g2p", "--text", "我 在 用 mixed", "--out", out) == 0
        assert snapshot(a) == snapshot(b)

    @pytest.mark.parametrize("flags", [["--text", "hi", "--text-file", "missing.txt"], []],
                             ids=["both", "neither"])
    def test_text_source_is_exactly_one(self, tmp_path, capsys, flags):
        out = tmp_path / "out"
        assert run("g2p", *flags, "--out", out) == 1
        assert capsys.readouterr().err == ("ERROR BAD_CONFIG: provide exactly one of "
                                           "--text / --text-file\n")
        assert not out.exists()


class TestRegulate:
    def test_aggregate_and_expand(self, tmp_path, minicorpus):
        from xling.corpus import parse_alignment
        from xling.regulator import aggregate, expand

        embeddings, phn, alignment = regulate_inputs(tmp_path / "in", minicorpus)
        out = tmp_path / "out"
        assert run("regulate", "--embeddings", embeddings, "--phonemes", phn,
                   "--alignment", alignment, "--out", out) == 0
        Y = aggregate(read_tensor(embeddings), load_phoneme_sequence(phn).lengths)
        F = expand(Y, parse_alignment(alignment).frame_durations)
        for name, expected in (("aggregated", Y), ("expanded", F)):
            written = read_tensor(out / f"{name}.xlf")
            assert (written.shape, written.tobytes()) == (expected.shape, expected.tobytes())

    def test_without_alignment_only_aggregates(self, tmp_path, minicorpus):
        embeddings, phn, _ = regulate_inputs(tmp_path / "in", minicorpus)
        out = tmp_path / "out"
        assert run("regulate", "--embeddings", embeddings, "--phonemes", phn,
                   "--out", out) == 0
        assert sorted(snapshot(out)) == ["aggregated.xlf"]

    @pytest.mark.parametrize("values, detail", [
        (np.zeros((2, 3, 4)), "X must be 2-D, got shape (2, 3, 4)"),
        (np.array([[0.0, np.nan]]), "X contains non-finite entries"),
    ], ids=["rank-3", "nan"])
    def test_embeddings_that_are_no_matrix(self, tmp_path, capsys, minicorpus, values,
                                           detail):
        _, phn, _ = regulate_inputs(tmp_path / "in", minicorpus)
        write_tensor(tmp_path / "x.xlf", values)
        out = tmp_path / "out"
        assert run("regulate", "--embeddings", tmp_path / "x.xlf", "--phonemes", phn,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR LENGTH_MISMATCH: {detail}\n"
        assert not out.exists()

    def test_length_mismatch_error_line(self, tmp_path, capsys, minicorpus):
        _, phn, _ = regulate_inputs(tmp_path / "in", minicorpus)
        rows = len(load_phoneme_sequence(phn).ipa)
        write_tensor(tmp_path / "x.xlf", np.zeros((rows + 1, 2)))
        assert run("regulate", "--embeddings", tmp_path / "x.xlf", "--phonemes", phn,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"ERROR LENGTH_MISMATCH: X has {rows + 1} rows "
                                           f"but lengths sum to {rows}\n")
        assert not (tmp_path / "out").exists()


class TestFeatures:
    def test_single_wav_shapes(self, tmp_path, minicorpus):
        wav = next(iter(sorted((minicorpus / "d2_enm").glob("*.wav"))))
        out = tmp_path / "out"
        assert run("features", "--wav", wav, "--utt-id", "u", "--out", out) == 0
        mel = read_tensor(out / "u.mel.xlf")
        energy = read_tensor(out / "u.energy.xlf")
        pitch = read_tensor(out / "u.pitch.xlf")
        assert mel.shape[1] == 80
        assert mel.shape[0] == energy.size == pitch.size

    def test_one_second_sine_is_101_frames(self, tmp_path):
        from xling.audio import write_wav

        t = np.arange(16000) / 16000
        write_wav(tmp_path / "sine.wav", 0.4 * np.sin(2 * np.pi * 220 * t), 16000)
        out = tmp_path / "out"
        assert run("features", "--wav", tmp_path / "sine.wav", "--out", out) == 0
        assert read_tensor(out / "sine.mel.xlf").shape == (101, 80)

    def test_alignment_produces_averaged_tracks(self, tmp_path, minicorpus):
        speaker = minicorpus / "d3_cnf"
        wav = sorted(speaker.glob("*.wav"))[0]
        align = wav.with_suffix(".align")
        out = tmp_path / "out"
        assert run(
            "features", "--wav", wav, "--alignment", align, "--utt-id", "u",
            "--out", out,
        ) == 0
        n_phonemes = len(align.read_text("utf-8").strip().splitlines())
        assert read_tensor(out / "u.energy_avg.xlf").size == n_phonemes
        assert read_tensor(out / "u.pitch_avg.xlf").size == n_phonemes

    def test_batch_jobs_deterministic(self, tmp_path, minicorpus):
        man_dir = tmp_path / "man"
        assert run(
            "manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", man_dir,
        ) == 0
        a, b = tmp_path / "a", tmp_path / "b"
        for out, jobs in ((a, 1), (b, 4)):
            assert run(
                "features", "--manifest", man_dir / "manifest.txt",
                "--out", out, "--jobs", jobs,
            ) == 0
        assert snapshot(a) == snapshot(b)

    def test_wrong_rate_rejected(self, tmp_path, capsys):
        from xling.audio import write_wav

        write_wav(tmp_path / "a.wav", np.zeros(1000), 22050)
        assert run("features", "--wav", tmp_path / "a.wav", "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR CONFIG_MISMATCH: ")

    @pytest.mark.parametrize("command", ["features", "stats"])
    def test_wrong_rate_names_utterance_and_wav(self, tmp_path, capsys, command):
        from xling.audio import write_wav

        wav = tmp_path / "a.wav"
        write_wav(wav, np.zeros(1000), 22050)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"u|{wav}|a|s|EN|M|0.05|a.align\n", encoding="utf-8")
        assert run(command, "--manifest", manifest, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (f"ERROR CONFIG_MISMATCH: utterance u ({wav}): "
                                           "audio is 22050 Hz but config expects 16000 Hz\n")


class TestEmptyManifest:
    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", ["features", "stats"])
    def test_one_parse_error_and_nothing_written(self, tmp_path, capsys, command, jobs):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# no entries\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--manifest", manifest, "--jobs", jobs, "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR PARSE: {manifest}: manifest is empty\n"
        assert not out.exists()


class TestFitDurations:
    def test_exact_passthrough(self):
        assert _fit_durations_to_frames([3, 4], 7) == [3, 4]

    def test_absorbs_small_difference(self):
        assert _fit_durations_to_frames([3, 4], 8) == [3, 5]
        assert _fit_durations_to_frames([3, 4], 5) == [3, 2]
        assert _fit_durations_to_frames([3, 1], 2) == [2, 0]

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=8), st.integers(-2, 2))
    def test_difference_lands_on_a_trailing_run(self, durations, delta):
        n_frames = sum(durations) + delta
        assume(n_frames >= 0)
        fitted = _fit_durations_to_frames(durations, n_frames)
        assert all(f >= 0 for f in fitted) and sum(fitted) == n_frames
        # a surplus goes to the last phoneme; a shortfall comes off the
        # phonemes from the end, each emptied before the one before it
        k = next((i for i, (f, d) in enumerate(zip(fitted, durations)) if f != d),
                 len(durations))
        assert fitted[:k] == durations[:k] and not any(fitted[k + 1:])
        if delta > 0:
            assert k == len(durations) - 1
        else:
            assert all(f <= d for f, d in zip(fitted, durations))


class TestStatsAndForward:
    def test_stats_then_quantized_features(self, tmp_path, minicorpus):
        man_dir = tmp_path / "man"
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", man_dir)
        stats_dir = tmp_path / "stats"
        assert run("stats", "--manifest", man_dir / "manifest.txt",
                   "--out", stats_dir, "--jobs", 2) == 0
        content = (stats_dir / "stats.txt").read_text("utf-8")
        assert "energy_min=" in content and "pitch_max=" in content
        wav = sorted((minicorpus / "d2_enm").glob("*.wav"))[0]
        out = tmp_path / "feat"
        assert run(
            "features", "--wav", wav, "--alignment", wav.with_suffix(".align"),
            "--utt-id", "u", "--stats", stats_dir / "stats.txt", "--out", out,
        ) == 0
        q = read_tensor(out / "u.energy_q.xlf")
        assert q.size > 0 and q.min() >= 0 and q.max() <= 255

    def test_forward_trace_and_determinism(self, tmp_path):
        out = tmp_path / "g2p"
        run("g2p", "--text", "你好 world", "--out", out)
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "n_ipa_symbols=54\nn_speakers=4\nhidden=16\nenc_layers=2\n"
            "dec_layers=2\nconv_kernel=3\nff_channels=32\nn_mels=80\n"
            "pitch_embed_kernel=3\n",
            encoding="utf-8",
        )
        a, b = tmp_path / "a", tmp_path / "b"
        for dest in (a, b):
            assert run(
                "forward", "--phonemes", out / "text.phn", "--model-config", cfg,
                "--seed", 7, "--out", dest,
            ) == 0
        assert snapshot(a) == snapshot(b)
        trace = (a / "text.trace.txt").read_text("utf-8").splitlines()
        stages = [line.split("\t")[0] for line in trace]
        assert stages[:4] == ["embed", "encoder", "aggregate", "add_speaker"]
        assert "stopgrad:energy_predictor" in stages
        assert stages[-2:] == ["mel", "durations_used"]

    def test_forward_teacher_forced_with_features(self, tmp_path, minicorpus):
        speaker = minicorpus / "d2_cnf"
        wav = sorted(speaker.glob("*.wav"))[0]
        align = wav.with_suffix(".align")
        text = wav.with_suffix(".txt")
        g2p_dir, feat_dir, fwd_dir = tmp_path / "g", tmp_path / "f", tmp_path / "w"
        assert run("g2p", "--text-file", text, "--out", g2p_dir) == 0
        assert run("features", "--wav", wav, "--alignment", align,
                   "--utt-id", wav.stem, "--out", feat_dir) == 0
        cfg = tmp_path / "model.cfg"
        cfg.write_text(
            "n_ipa_symbols=54\nn_speakers=4\nhidden=16\nenc_layers=1\n"
            "dec_layers=1\nconv_kernel=3\nff_channels=32\nn_mels=80\n",
            encoding="utf-8",
        )
        assert run(
            "forward", "--phonemes", g2p_dir / f"{wav.stem}.phn",
            "--model-config", cfg, "--alignment", align,
            "--pitch-avg", feat_dir / f"{wav.stem}.pitch_avg.xlf",
            "--energy-avg", feat_dir / f"{wav.stem}.energy_avg.xlf",
            "--out", fwd_dir,
        ) == 0
        mel = read_tensor(fwd_dir / f"{wav.stem}.mel_pred.xlf")
        durations = [
            int(line.split("\t")[1])
            for line in align.read_text("utf-8").strip().splitlines()
        ]
        assert mel.shape == (sum(durations), 80)

    def test_forward_label_mismatch_fails_before_weights(
        self, tmp_path, minicorpus, monkeypatch, capsys
    ):
        import xling.cli as cli_module

        def no_weights(*args, **kwargs):
            raise AssertionError("weights generated before the inputs were checked")

        monkeypatch.setattr(cli_module, "init_weights", no_weights)
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        align = sorted((minicorpus / "d2_enm").glob("*.align"))[0]
        write_tensor(tmp_path / "avg.xlf", np.ones(6))
        assert run(
            "forward", "--phonemes", tmp_path / "text.phn", "--alignment", align,
            "--pitch-avg", tmp_path / "avg.xlf", "--energy-avg", tmp_path / "avg.xlf",
            "--out", tmp_path,
        ) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR LENGTH_MISMATCH: ")
        assert len(err.splitlines()) == 1


class TestForwardReadsOnlyTheInventory:
    @pytest.fixture
    def phn(self, tmp_path):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        return tmp_path / "text.phn"

    MODEL = "n_ipa_symbols=54\nn_speakers=1\nhidden=8\nenc_layers=1\ndec_layers=1\n"

    def config(self, tmp_path, **paths):
        """``--config`` with the lexicon ``paths`` and ``--model-config``."""
        model = tmp_path / "model.cfg"
        model.write_text(self.MODEL, encoding="utf-8")
        path = tmp_path / "pipeline.cfg"
        path.write_text("".join(f"{key}={value}\n" for key, value in paths.items()),
                        encoding="utf-8")
        return ["--config", path, "--model-config", model]

    def test_forward_does_not_load_the_lexicon(self, tmp_path, phn, monkeypatch):
        import xling.cli as cli_module

        def no_lexicon(*args, **kwargs):
            raise AssertionError("forward loaded the whole lexicon")

        monkeypatch.setattr(cli_module.Lexicon, "load", no_lexicon)
        assert run("forward", "--phonemes", phn, *self.config(tmp_path),
                   "--out", tmp_path / "out") == 0

    def test_configured_inventory_maps_the_ids(self, tmp_path, phn, capsys):
        from xling.lexicon import default_paths

        bundled = default_paths()
        inventory = tmp_path / "inventory.txt"
        symbols = load_phoneme_sequence(phn).ipa
        kept = [line for line in bundled[-1].read_text("utf-8").splitlines()
                if line != symbols[0]]
        inventory.write_text("\n".join(kept) + "\n", encoding="utf-8")
        paths = dict(zip(("en_dict", "cn_dict", "ipa_dict"), bundled[:3]))
        cfg = self.config(tmp_path, **paths, ipa_inventory=inventory)
        assert run("forward", "--phonemes", phn, *cfg, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR PARSE: {phn}: IPA symbol {symbols[0]!r} not in ")
        assert len(err.splitlines()) == 1

    def test_lexicon_keys_are_all_set_or_none(self, tmp_path, phn, capsys):
        from xling.lexicon import default_paths

        cfg = self.config(tmp_path, ipa_inventory=default_paths()[-1])
        assert run("forward", "--phonemes", phn, *cfg, "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            f"ERROR BAD_CONFIG: {tmp_path / 'pipeline.cfg'}: config overrides lexicon "
            "paths but lacks ['en_dict', 'cn_dict', 'ipa_dict']\n")


class TestForwardSeedRange:
    @pytest.fixture
    def inputs(self, tmp_path):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=54\nn_speakers=2\nhidden=4\nenc_layers=1\n"
                       "dec_layers=1\nconv_kernel=3\nff_channels=4\nn_mels=4\n",
                       encoding="utf-8")
        return tmp_path / "text.phn", cfg

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 5])
    def test_seed_outside_u64_is_one_bad_config_line(self, tmp_path, capsys, inputs,
                                                     seed):
        phn, cfg = inputs
        out = tmp_path / "out"
        assert run("forward", "--phonemes", phn, "--model-config", cfg,
                   "--seed", seed, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"ERROR BAD_CONFIG: seed must be in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_at_the_u64_ends_runs(self, tmp_path, inputs, seed):
        phn, cfg = inputs
        assert run("forward", "--phonemes", phn, "--model-config", cfg,
                   "--seed", seed, "--out", tmp_path / "out") == 0
        assert read_tensor(tmp_path / "out" / "text.mel_pred.xlf").shape[1] == 4


class TestDumpWeights:
    MODEL = ("n_ipa_symbols=54\nn_speakers=2\nhidden=4\nenc_layers=1\ndec_layers=1\n"
             "conv_kernel=3\nff_channels=4\nn_mels=4\n")

    def test_dump_is_the_init_weights_buffer_as_one_rank1_tensor(self, tmp_path):
        from xling.model import ModelConfig, init_weights, parameter_shapes

        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text(self.MODEL, encoding="utf-8")
        dumps = [tmp_path / "a.xlf", tmp_path / "b.xlf"]
        for dump in dumps:
            assert run("forward", "--phonemes", tmp_path / "text.phn", "--model-config", cfg,
                       "--seed", 11, "--dump-weights", dump, "--out", tmp_path / "out") == 0
        model_cfg = ModelConfig.from_file(cfg)
        tensors = list(init_weights(model_cfg, 11).tensors.values())
        count = sum(int(np.prod(shape)) for _, shape in parameter_shapes(model_cfg))
        got = read_tensor(dumps[0])
        assert got.shape == (count,)
        assert got.tobytes() == b"".join(t.tobytes() for t in tensors)
        assert dumps[0].stat().st_size == 12 + 8 * count
        assert dumps[0].read_bytes() == dumps[1].read_bytes()


class TestManifestCommand:
    def test_truncated_wav_is_one_parse_error_and_no_manifest(self, tmp_path, minicorpus,
                                                              capsys):
        import shutil

        roots = tmp_path / "roots"
        shutil.copytree(minicorpus / "d2_cnf", roots / "d2_cnf")
        wav = sorted((roots / "d2_cnf").glob("*.wav"))[1]
        wav.write_bytes(wav.read_bytes()[:-100])
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\nd2_cnf\tCN\tF\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", roots, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR PARSE: {wav}: data chunk truncated")
        assert len(err.splitlines()) == 1
        assert not (out / "manifest.txt").exists()

    @pytest.mark.parametrize("channels, width, detail", [
        (2, 2, "expected mono, got 2 channels"),
        (1, 1, "expected 16-bit PCM, got 8-bit"),
    ], ids=["stereo", "8-bit"])
    def test_wav_that_stats_refuses_is_refused_at_scan(self, tmp_path, minicorpus, capsys,
                                                        channels, width, detail):
        """The same utterance in another layout: ``read_wav`` refuses it, so
        the scan does, before its seconds count toward any cap."""
        import shutil

        roots = tmp_path / "roots"
        shutil.copytree(minicorpus / "d1_cnm", roots / "d1_cnm")
        wav = sorted((roots / "d1_cnm").glob("*.wav"))[1]
        with wave.open(str(wav), "rb") as w:
            pcm = np.frombuffer(w.readframes(w.getnframes()), dtype="<i2")
        if width == 1:
            pcm = (pcm // 256 + 128).astype(np.uint8)
        with wave.open(str(wav), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(16000)
            w.writeframes(np.repeat(pcm, channels).tobytes())
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\nd1_cnm\tCN\tM\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", roots, "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR CONFIG_MISMATCH: {wav}: {detail}\n"
        assert not out.exists()

    def test_wav_without_samples_is_one_empty_audio_error(self, tmp_path, capsys):
        speaker = tmp_path / "roots" / "s1"
        speaker.mkdir(parents=True)
        wav = speaker / "u1.wav"
        write_empty_wav(wav)
        (speaker / "u1.txt").write_text("你好\n", encoding="utf-8")
        (speaker / "u1.align").write_text("ni\t1\n", encoding="utf-8")
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\ns1\tCN\tF\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", tmp_path / "roots",
                   "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR EMPTY_AUDIO: {wav}: WAV holds no samples\n"
        assert not (out / "manifest.txt").exists()

    def test_outputs_and_determinism(self, tmp_path, minicorpus):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(
                "manifest", "--spec", minicorpus / "d123.spec",
                "--roots", minicorpus, "--out", out,
            ) == 0
        assert snapshot(a) == snapshot(b)
        balance = (a / "balance.txt").read_text("utf-8")
        assert "flags\tnone" in balance

    def test_missing_first_speaker_stops_the_scan(self, tmp_path, minicorpus, capsys,
                                                   monkeypatch):
        import os

        from xling import corpus
        from xling.corpus import DatasetSpec

        # two usable CPUs, so a per-speaker pool at the default --jobs would show
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        scanned, scan = [], corpus._scan_speaker

        def counting_scan(member, roots):
            scanned.append(member.speaker_id)  # list.append is atomic across threads
            return scan(member, roots)

        monkeypatch.setattr(corpus, "_scan_speaker", counting_scan)
        members = DatasetSpec.load(minicorpus / "d123.spec").members
        spec = tmp_path / "ghost.spec"
        spec.write_text((minicorpus / "d123.spec").read_text("utf-8").replace(
            members[0].speaker_id, "ghost"), encoding="utf-8")
        assert run("manifest", "--spec", spec, "--roots", minicorpus,
                   "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err.startswith("ERROR MISSING_SPEAKER: speaker 'ghost'")
        assert scanned == ["ghost"] and len(members) == 8

    @pytest.mark.parametrize("suffix, what", [(".txt", "transcript"),
                                              (".align", "alignment")])
    def test_wav_without_a_sidecar_writes_nothing(self, tmp_path, capsys, suffix, what):
        speaker = tmp_path / "roots" / "s1"
        write_utterance(speaker, "u1", sine(16000), 100)
        (speaker / f"u1{suffix}").unlink()
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\ns1\tCN\tF\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", tmp_path / "roots",
                   "--out", out) == 1
        assert capsys.readouterr().err == (f"ERROR PARSE: {speaker / f'u1{suffix}'}: "
                                           f"missing {what} for {speaker / 'u1.wav'}\n")
        assert not out.exists()

    def test_speaker_without_wavs_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "roots" / "s1").mkdir(parents=True)
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\ns1\tCN\tF\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", tmp_path / "roots",
                   "--out", out) == 1
        assert capsys.readouterr().err.startswith("ERROR EMPTY_MANIFEST: ")
        assert not out.exists()

    def test_missing_speaker_error(self, tmp_path, minicorpus, capsys):
        spec = tmp_path / "bad.spec"
        spec.write_text("name\tbad\nghost\tCN\tM\t1.0\n", encoding="utf-8")
        assert run("manifest", "--spec", spec, "--roots", minicorpus,
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR MISSING_SPEAKER: ")


class TestAdmissionAgreement:
    """``manifest``, ``stats`` and ``features`` admit the same WAVs: each
    length either passes all three, or fails all three with one
    ``ERROR EMPTY_AUDIO`` line.  A 1 s sine from the same speaker keeps the
    corpus energy range wide whatever the length."""

    @pytest.mark.parametrize("n", [0, 1, 159, 160, 161, 479, 639, 640, 641])
    def test_every_command_admits_the_same_wav(self, tmp_path, capsys, n):
        speaker = tmp_path / "roots" / "s1"
        write_utterance(speaker, "u0", sine(16000), 100)
        # within check_duration's 2 frames of the audio
        write_utterance(speaker, "u1", sine(n), max(1, round(n / 160)))
        spec = tmp_path / "one.spec"
        spec.write_text("name\tone\ns1\tCN\tF\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        codes = [run("manifest", "--spec", spec, "--roots", tmp_path / "roots",
                     "--out", out)]
        manifest = out / "manifest.txt"
        if not manifest.exists():  # hand-written, so the other two read the WAV too
            out.mkdir(exist_ok=True)
            manifest.write_text("".join(
                f"s1_{stem}|{speaker / stem}.wav|你好|s1|CN|F|{samples / 16000}|"
                f"{speaker / stem}.align\n" for stem, samples in (("u0", 16000), ("u1", n))),
                encoding="utf-8")
        codes.append(run("stats", "--manifest", manifest, "--out", out))
        codes.append(run("features", "--manifest", manifest, "--out", out))
        err = capsys.readouterr().err.splitlines()
        if n == 0:
            assert codes == [1, 1, 1]
            assert len(err) == 3 and all(line.startswith("ERROR EMPTY_AUDIO: ") for line in err)
            return
        assert codes == [0, 0, 0] and err == []
        assert f"\nn_frames={n // 160 + 1 + 101}\n" in (out / "stats.txt").read_text("utf-8")
        for track in ("mel", "energy", "pitch"):
            assert read_tensor(out / f"s1_u1.{track}.xlf").shape[0] == n // 160 + 1


SIGNALS = {"sine": sine, "dc": lambda n: np.full(n, 0.1), "silence": np.zeros,
           "noise": lambda n: np.random.default_rng(n).uniform(-0.3, 0.3, n)}


class TestStatsAgreesWithFeatures:
    """Every file ``stats`` writes is one ``features --stats`` accepts: over a
    one-speaker corpus of short sines, DC, silence and noise, ``stats`` exits
    0 exactly when the ``features`` run that reads its file exits 0, and a
    refused corpus is one energy-range line with no ``--out``."""

    @given(st.lists(st.tuples(st.sampled_from(sorted(SIGNALS)), st.integers(1, 4000),
                              st.integers(-2, 2)), min_size=1, max_size=3))
    @example([("dc", 16000, 0)])  # every frame has the same energy
    @example([("sine", 100, 0)])  # one frame
    @example([("dc", 16000, 0), ("sine", 16000, 0)])
    @settings(max_examples=100, deadline=None)
    def test_features_accepts_what_stats_writes(self, utterances):
        with tempfile.TemporaryDirectory() as tmp:
            roots = Path(tmp) / "roots"
            for i, (kind, n, delta) in enumerate(utterances):
                # an alignment within check_duration's 2 frames of the audio
                write_utterance(roots / "s1", f"u{i}", SIGNALS[kind](n),
                                max(0, round(n / 160) + delta))
            spec = Path(tmp) / "one.spec"
            spec.write_text("name\tone\ns1\tCN\tF\t1.0\n", encoding="utf-8")
            manifest, stats = Path(tmp) / "man", Path(tmp) / "stats"
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                assert run("manifest", "--spec", spec, "--roots", roots, "--out", manifest) == 0
                stats_code = run("stats", "--manifest", manifest / "manifest.txt",
                                 "--jobs", 1, "--out", stats)
                features_code = None if stats_code else run(
                    "features", "--manifest", manifest / "manifest.txt",
                    "--stats", stats / "stats.txt", "--jobs", 1, "--out", Path(tmp) / "feat")
            if stats_code == 0:
                assert (features_code, err.getvalue()) == (0, "")
            else:
                assert stats_code == 1 and not stats.exists()
                assert err.getvalue().startswith("ERROR BAD_CONFIG: corpus energy range: ")
                assert err.getvalue().count("\n") == 1


class TestParser:
    def test_help_lists_flags_per_subcommand(self, capsys):
        parser = build_parser()
        jobs = {"features", "stats"}
        for command in ("g2p", "regulate", "features", "stats", "forward", "manifest"):
            with pytest.raises(SystemExit) as exc_info:
                parser.parse_args([command, "--help"])
            assert exc_info.value.code == 0
            out = capsys.readouterr().out
            for flag in ("--config", "--out"):
                assert flag in out
            assert ("--jobs" in out) == (command in jobs)
            assert ("--seed" in out) == (command == "forward")

    @pytest.mark.parametrize("argv", [
        ["g2p", "--text", "hi", "--jobs", "2"],
        ["regulate", "--embeddings", "x.xlf", "--phonemes", "a.phn", "--jobs", "2"],
        ["stats", "--manifest", "m.txt", "--seed", "1"],
        ["features", "--wav", "a.wav", "--seed", "1"],
        ["forward", "--phonemes", "a.phn", "--jobs", "2"],
        ["forward", "--phonemes", "a.phn", "--n-speakers", "3"],  # --model-config sets it
        ["manifest", "--spec", "d.spec", "--roots", "corpus", "--jobs", "2"],
    ])
    def test_flag_not_read_by_the_command_is_a_parser_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(argv)
        assert exc_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_unknown_flag_is_hard_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args(["g2p", "--bogus"])
        assert exc_info.value.code != 0

    def test_bad_feature_value_in_config(self, tmp_path, capsys):
        config = tmp_path / "pipeline.cfg"
        config.write_text("fmin=abc\n", encoding="utf-8")
        wav = tmp_path / "missing.wav"
        assert run("features", "--config", config, "--wav", wav,
                   "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR PARSE: ") and "fmin" in err
        assert f"{config}:1: " in err
        assert len(err.splitlines()) == 1

    def test_bad_log_level_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XLING_LOG", "verbose")
        assert run("g2p", "--text", "好", "--out", tmp_path) == 1
        assert capsys.readouterr().err.startswith("ERROR BAD_CONFIG: ")


class TestMalformedInput:
    """Each bad input is one ``ERROR PARSE`` line naming path:line, exit 1."""

    def one_error_line(self, capsys, code):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR {code}: ")
        return err.strip()

    @pytest.mark.parametrize("content, where, detail", [
        ("energy_min\nenergy_max=2.0\n", ":1: ", "expected 2 fields"),
        ("energy_max=2.0\n", ": ", "lacks ['energy_min']"),
        ("# ranges\nenergy_min=abc\nenergy_max=2.0\n", ":2: ", "expected float, got 'abc'"),
    ])
    def test_bad_stats_file(self, tmp_path, capsys, content, where, detail):
        stats = tmp_path / "stats.txt"
        stats.write_text(content, encoding="utf-8")
        assert run("features", "--wav", tmp_path / "missing.wav",
                   "--alignment", tmp_path / "missing.align", "--stats", stats,
                   "--out", tmp_path) == 1
        err = self.one_error_line(capsys, "PARSE")
        assert f"{stats}{where}" in err and detail in err

    @pytest.mark.parametrize("argv", [
        ["g2p", "--text", "hi", "--config", ""],
        ["manifest", "--spec", "", "--roots", "corpus"],
        ["stats", "--manifest", ""],
        ["features", "--manifest", ""],
        ["forward", "--phonemes", ""],
        ["forward", "--phonemes", "text.phn", "--model-config", ""],
    ], ids=["config", "spec", "stats-manifest", "features-manifest", "phonemes",
            "model-config"])
    def test_empty_path_names_the_path_given(self, tmp_path, capsys, monkeypatch, argv):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        out = tmp_path / "out"
        assert run(*argv, "--out", out) == 1
        assert capsys.readouterr().err == "ERROR IO: [Errno 2] No such file or directory: ''\n"
        assert not out.exists()

    def test_bad_meta_in_phoneme_file(self, tmp_path, capsys):
        assert run("g2p", "--text", "你好", "--out", tmp_path) == 0
        phn = tmp_path / "text.phn"
        lines = phn.read_text(encoding="utf-8").splitlines()
        fields = lines[2].split("\t")
        fields[2] = "x"
        lines[2] = "\t".join(fields)
        phn.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert run("forward", "--phonemes", phn, "--out", tmp_path) == 1
        err = self.one_error_line(capsys, "PARSE")
        assert f"{phn}:3: " in err and "'x'" in err

    def test_bad_quantizer_bins_in_config(self, tmp_path, capsys):
        stats = tmp_path / "stats.txt"
        stats.write_text("energy_min=1.0\nenergy_max=2.0\n", encoding="utf-8")
        config = tmp_path / "pipeline.cfg"
        config.write_text("quantizer_bins=abc\n", encoding="utf-8")
        assert run("features", "--config", config, "--wav", tmp_path / "missing.wav",
                   "--alignment", tmp_path / "missing.align", "--stats", stats,
                   "--out", tmp_path) == 1
        assert "quantizer_bins" in self.one_error_line(capsys, "PARSE")

    def test_zero_length_window_in_config(self, tmp_path, capsys):
        config = tmp_path / "pipeline.cfg"
        config.write_text("win_ms=0\n", encoding="utf-8")
        assert run("features", "--config", config, "--wav", tmp_path / "missing.wav",
                   "--out", tmp_path) == 1
        self.one_error_line(capsys, "BAD_CONFIG")


class TestForwardChecksBeforeWeights:
    @pytest.fixture(autouse=True)
    def no_weights(self, monkeypatch):
        import xling.cli as cli_module

        def fail(*args, **kwargs):
            raise AssertionError("weights generated before the inputs were checked")

        monkeypatch.setattr(cli_module, "init_weights", fail)

    def test_unknown_speaker(self, tmp_path, capsys):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        assert run("forward", "--phonemes", tmp_path / "text.phn", "--speaker", 99,
                   "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR UNKNOWN_SPEAKER: ") and len(err.splitlines()) == 1

    def test_ipa_id_beyond_model_config(self, tmp_path, capsys):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=2\nn_speakers=1\nhidden=16\n", encoding="utf-8")
        assert run("forward", "--phonemes", tmp_path / "text.phn",
                   "--model-config", cfg, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR SHAPE_MISMATCH: ") and len(err.splitlines()) == 1

    def test_decoder_frames_above_the_cap(self, tmp_path, capsys):
        from xling.model import MAX_DECODER_FRAMES

        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=54\nn_speakers=1\nhidden=8\nenc_layers=1\n"
                       "dec_layers=1\nff_channels=8\n", encoding="utf-8")
        alignment = tmp_path / "text.align"
        alignment.write_text("ni\t39995\nhao\t1\nW\t1\nER\t1\nL\t1\nD\t1\n", encoding="utf-8")
        write_tensor(tmp_path / "avg.xlf", np.ones(6))
        assert run("forward", "--phonemes", tmp_path / "text.phn", "--model-config", cfg,
                   "--alignment", alignment, "--pitch-avg", tmp_path / "avg.xlf",
                   "--energy-avg", tmp_path / "avg.xlf", "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err == ("ERROR TOO_LARGE: teacher-forced durations sum to 40000 frames, "
                       f"above the cap of {MAX_DECODER_FRAMES}\n")

    def test_encoder_rows_above_the_cap(self, tmp_path, capsys):
        from xling.model import MAX_DECODER_FRAMES

        run("g2p", "--text", "你好 world", "--out", tmp_path)
        header, *rows = (tmp_path / "text.phn").read_text("utf-8").splitlines()
        per_copy = sum(int(row.split("\t")[3]) for row in rows)
        copies = MAX_DECODER_FRAMES // per_copy + 1
        phn = tmp_path / "long.phn"
        phn.write_text("\n".join([header] + rows * copies) + "\n", encoding="utf-8")
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=54\nn_speakers=1\nhidden=8\nenc_layers=1\n"
                       "dec_layers=1\nff_channels=8\n", encoding="utf-8")
        assert run("forward", "--phonemes", phn, "--model-config", cfg,
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err == (
            f"ERROR TOO_LARGE: {per_copy * copies} IPA symbols, above the encoder's "
            f"cap of {MAX_DECODER_FRAMES} rows\n")

    @pytest.mark.parametrize("flag, values, name", [
        ("--pitch-avg", [120.0, np.nan, 0.0, 0.0, 0.0, 0.0], "pitch"),
        ("--energy-avg", [1.0, 1.0, 1.0, np.inf, 1.0, 1.0], "energy"),
    ])
    def test_non_finite_teacher_forced_values(self, tmp_path, capsys, flag, values, name):
        other = "--energy-avg" if flag == "--pitch-avg" else "--pitch-avg"
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        alignment = tmp_path / "text.align"
        alignment.write_text("ni\t3\nhao\t3\nW\t1\nER\t1\nL\t1\nD\t1\n", encoding="utf-8")
        write_tensor(tmp_path / "values.xlf", np.array(values))
        write_tensor(tmp_path / "finite.xlf", np.ones(6))
        assert run("forward", "--phonemes", tmp_path / "text.phn", "--alignment", alignment,
                   flag, tmp_path / "values.xlf", other, tmp_path / "finite.xlf",
                   "--out", tmp_path) == 1
        assert capsys.readouterr().err == (f"ERROR CONFIG_MISMATCH: teacher-forced {name} "
                                           "has non-finite values\n")

    @pytest.mark.parametrize("shape, detail", [
        ((5,), "has 5 values, expected 6"),
        ((1, 6), "has shape (1, 6), expected one axis"),
        ((6, 1), "has shape (6, 1), expected one axis"),
    ], ids=["wrong_size", "row", "column"])
    @pytest.mark.parametrize("flag, name", [("--pitch-avg", "pitch"),
                                            ("--energy-avg", "energy")])
    def test_wrong_shape_teacher_forced_vector(self, tmp_path, capsys, flag, name, shape,
                                               detail):
        other = "--energy-avg" if flag == "--pitch-avg" else "--pitch-avg"
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        alignment = tmp_path / "text.align"
        alignment.write_text("ni\t3\nhao\t3\nW\t1\nER\t1\nL\t1\nD\t1\n", encoding="utf-8")
        write_tensor(tmp_path / "wrong.xlf", np.ones(shape))
        write_tensor(tmp_path / "six.xlf", np.ones(6))
        out = tmp_path / "out"
        assert run("forward", "--phonemes", tmp_path / "text.phn", "--alignment", alignment,
                   flag, tmp_path / "wrong.xlf", other, tmp_path / "six.xlf",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"ERROR SHAPE_MISMATCH: teacher-forced {name} {detail}\n"
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--pitch-avg"], ["--energy-avg"], ["--pitch-avg", "--energy-avg"],
    ])
    def test_teacher_forced_values_need_an_alignment(self, tmp_path, capsys, flags):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        argv = [arg for flag in flags for arg in (flag, tmp_path / "missing.xlf")]
        out = tmp_path / "out"
        assert run("forward", "--phonemes", tmp_path / "text.phn", *argv, "--out", out) == 1
        assert capsys.readouterr().err == (f"ERROR BAD_CONFIG: {', '.join(flags)} cannot "
                                           "be used without --alignment\n")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [[], ["--pitch-avg"], ["--energy-avg"]])
    def test_alignment_needs_both_teacher_forced_values(self, tmp_path, capsys, flags):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        argv = [arg for flag in flags for arg in (flag, tmp_path / "missing.xlf")]
        out = tmp_path / "out"
        assert run("forward", "--phonemes", tmp_path / "text.phn", "--alignment",
                   tmp_path / "missing.align", *argv, "--out", out) == 1
        missing = [flag for flag in ("--pitch-avg", "--energy-avg") if flag not in flags]
        assert capsys.readouterr().err == ("ERROR BAD_CONFIG: --alignment cannot be used "
                                           f"without {', '.join(missing)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("target, detail", [
        ("missing/w.xlf", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ], ids=["missing_directory", "directory"])
    def test_dump_weights_target_that_cannot_be_written(self, tmp_path, capsys, monkeypatch,
                                                        target, detail):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        (tmp_path / "adir").mkdir()
        out = tmp_path / "out"
        monkeypatch.chdir(tmp_path)
        assert run("forward", "--phonemes", "text.phn", "--dump-weights", target,
                   "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR IO: {detail}: {target!r}\n"
        assert not out.exists()
        assert not any((tmp_path / "adir").iterdir())

    @pytest.mark.parametrize("dump, what", [
        ("o2/u.phn", "the --phonemes file"),
        ("o2/u.mel_pred.xlf", "the mel_pred output"),
        ("small.cfg", "the --model-config file"),
    ], ids=["input", "output", "model_config"])
    def test_dump_weights_onto_a_file_of_the_command(self, tmp_path, capsys, monkeypatch,
                                                     dump, what):
        monkeypatch.chdir(tmp_path)
        run("g2p", "--text", "你好 world", "--name", "u", "--out", "o2")
        (tmp_path / "small.cfg").write_text("n_ipa_symbols=54\nn_speakers=2\nhidden=16\n"
                                            "enc_layers=1\ndec_layers=1\n", encoding="utf-8")
        before = snapshot(tmp_path), snapshot(tmp_path / "o2")
        assert run("forward", "--phonemes", "o2/u.phn", "--model-config", "small.cfg",
                   "--out", "o2", "--dump-weights", dump) == 1
        assert capsys.readouterr().err == (f"ERROR BAD_CONFIG: --dump-weights {dump!r} "
                                           f"would overwrite {what}\n")
        assert (snapshot(tmp_path), snapshot(tmp_path / "o2")) == before

    def test_weights_above_the_cap(self, tmp_path, capsys):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=54\nn_speakers=8\nhidden=1000000\n", encoding="utf-8")
        assert run("forward", "--phonemes", tmp_path / "text.phn",
                   "--model-config", cfg, "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR TOO_LARGE: {cfg}: weights would take ")
        assert len(err.splitlines()) == 1

    def test_value_the_config_rejects_names_the_file(self, tmp_path, capsys):
        run("g2p", "--text", "你好 world", "--out", tmp_path)
        cfg = tmp_path / "model.cfg"
        cfg.write_text("n_ipa_symbols=54\nn_speakers=8\nhidden=255\n", encoding="utf-8")
        assert run("forward", "--phonemes", tmp_path / "text.phn",
                   "--model-config", cfg, "--out", tmp_path) == 1
        assert capsys.readouterr().err == (f"ERROR BAD_CONFIG: {cfg}: hidden must be "
                                           "divisible by 2 heads\n")


class TestMalformedRegulateAndManifest:
    """Bad input to ``regulate`` and ``manifest``: one ``ERROR`` line, exit 1."""

    @pytest.fixture
    def inputs(self, tmp_path, minicorpus):
        return regulate_inputs(tmp_path / "in", minicorpus)

    def one_error_line(self, capsys, code):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR {code}: ")
        return err.strip()

    @pytest.mark.parametrize("case", ["negative", "fraction", "labels"])
    @pytest.mark.parametrize("command", ["regulate", "forward"])
    def test_bad_alignment_writes_nothing(self, tmp_path, capsys, inputs, command, case):
        embeddings, phn, alignment = inputs
        lines = alignment.read_text("utf-8").splitlines()
        label, frames = lines[1].split("\t")
        lines[1] = {"negative": f"{label}\t-{frames}", "fraction": f"{label}\t{frames}.5",
                    "labels": f"{label}x\t{frames}"}[case]
        bad = tmp_path / "bad.align"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        track = tmp_path / "avg.xlf"
        write_tensor(track, np.ones(len(lines)))
        argv = {"regulate": ["--embeddings", embeddings],
                "forward": ["--pitch-avg", track, "--energy-avg", track]}[command]
        out = tmp_path / "out"
        assert run(command, *argv, "--phonemes", phn, "--alignment", bad, "--out", out) == 1
        code, detail = {
            "negative": ("PARSE", f"{bad}:2: negative frame count"),
            "fraction": ("PARSE", f"{bad}:2: expected int, got '{frames}.5'"),
            "labels": ("LENGTH_MISMATCH",
                       "alignment phoneme labels do not match the phoneme sequence")}[case]
        assert self.one_error_line(capsys, code) == f"ERROR {code}: {detail}"
        assert not out.exists()

    def test_empty_alignment_is_read(self, tmp_path, capsys, inputs):
        embeddings, phn, _ = inputs
        empty = tmp_path / "empty.align"
        empty.write_text("# no phonemes\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("regulate", "--embeddings", embeddings, "--phonemes", phn,
                   "--alignment", empty, "--out", out) == 1
        assert capsys.readouterr().err == (f"ERROR PARSE: {empty}: alignment file has "
                                           "no entries\n")
        assert not out.exists()

    @pytest.mark.parametrize("frames, width", [
        (10**24, 3),
        (MAX_REPEAT_BYTES // (3 * 8) + 1, 3),
        (2**63 - 1, 3),
        (2**62, 0),
    ], ids=["duration-above-int64", "expand-above-cap", "expand-at-int64-max", "zero-width"])
    def test_huge_counts_are_too_large(self, tmp_path, capsys, minicorpus, frames, width):
        embeddings, phn, _ = regulate_inputs(tmp_path / "in", minicorpus, width)
        first, *rest = [sym.label for sym in load_phoneme_sequence(phn).ldp]
        alignment = tmp_path / "huge.align"
        lines = [f"{first}\t{frames}"] + [f"{label}\t0" for label in rest]
        alignment.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("regulate", "--embeddings", embeddings, "--phonemes", phn,
                   "--alignment", alignment, "--out", out) == 1
        self.one_error_line(capsys, "TOO_LARGE")
        assert not out.exists()

    def test_missing_embeddings_file(self, tmp_path, capsys, inputs):
        missing = tmp_path / "missing.xlf"
        assert run("regulate", "--embeddings", missing, "--phonemes", inputs[1],
                   "--out", tmp_path / "out") == 1
        assert str(missing) in self.one_error_line(capsys, "IO")

    def test_bad_spec_line(self, tmp_path, capsys, minicorpus):
        spec = tmp_path / "bad.spec"
        spec.write_text("name\tbad\nd2_cnf\tCN\n", encoding="utf-8")
        assert run("manifest", "--spec", spec, "--roots", minicorpus,
                   "--out", tmp_path / "out") == 1
        assert f"{spec}:2: " in self.one_error_line(capsys, "PARSE")
        assert not (tmp_path / "out" / "manifest.txt").exists()


class TestG2pNothingDropped:
    def test_fullwidth_latin_is_spoken(self, tmp_path):
        assert run("g2p", "--text", "ｈｅｌｌｏ", "--out", tmp_path) == 0
        ps = load_phoneme_sequence(tmp_path / "text.phn")
        assert [s.label for s in ps.ldp] == ["HH", "AH", "L", "OW"]

    def test_digits_are_one_oov_error(self, tmp_path, capsys):
        assert run("g2p", "--text", "你好 2021 world", "--out", tmp_path) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR OOV: ") and "offset 3" in err[0]
        assert not (tmp_path / "text.phn").exists()


    @pytest.mark.parametrize("key, text, entry, edited", [
        ("en_dict", "hello", "\nHELLO\tHH AH0 L OW1\n", "\nHELLO\tHH AH0 L OW\u00b9\n"),
        ("cn_dict", "好", "\n好\thao3\n", "\n好\thao\u00b3\n"),
    ], ids=["en", "cn"])
    def test_non_ascii_digit_is_one_unmapped_error(self, tmp_path, capsys, key, text, entry,
                                                   edited):
        from xling.cli import _LEXICON_KEYS
        from xling.lexicon import default_paths

        paths = dict(zip(_LEXICON_KEYS, default_paths()))
        content = paths[key].read_text("utf-8")
        assert entry in content
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(content.replace(entry, edited), encoding="utf-8")
        config = tmp_path / "pipeline.cfg"
        config.write_text("".join(f"{k}={v}\n" for k, v in paths.items()), encoding="utf-8")
        out = tmp_path / "out"
        assert run("g2p", "--text", text, "--config", config, "--out", out) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR UNMAPPED_LDP: "), err
        assert not out.exists()


class TestConfigKeys:
    """An unknown or repeated ``--config`` key is one ``ERROR PARSE``
    line naming the key and ``path:line``, exit 1."""

    KNOWN = "hop_ms=10\nquantizer_bins=128\nquantizer_scale=log\nwin_ms=40\n"

    @pytest.mark.parametrize("content, line, key", [
        (KNOWN + "fmn=100\n", 5, "fmn"),
        (KNOWN + "# shorter\nwin_ms=20\n", 6, "win_ms"),
    ], ids=["unknown", "repeated"])
    def test_rejected_with_path_line(self, tmp_path, capsys, content, line, key):
        config = tmp_path / "pipeline.cfg"
        config.write_text(content, encoding="utf-8")
        assert run("g2p", "--config", config, "--text", "好", "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR PARSE: {config}:{line}: ")
        assert repr(key) in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, argv", [
        ("out_dir", ["g2p", "--text", "好"]),
        ("model_config", ["forward", "--phonemes", "text.phn"]),
        ("dataset_spec", ["manifest", "--spec", "d.spec", "--roots", "."]),
        ("stats", ["features", "--wav", "tone.wav", "--alignment", "tone.align"]),
    ], ids=["out_dir", "model_config", "dataset_spec", "stats"])
    def test_file_key_is_unknown(self, tmp_path, capsys, key, argv):
        """Files are named by flags only: a config key for one is refused
        before the command reads any other input."""
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"{self.KNOWN}{key}={config}\n", encoding="utf-8")
        assert run(*argv, "--config", config, "--out", tmp_path / "out") == 1
        assert capsys.readouterr().err == (
            f"ERROR PARSE: {config}:5: unknown key {key!r}\n")
        assert not (tmp_path / "out").exists()


class TestSpecMemberLine:
    @pytest.mark.parametrize("member, detail", [
        ("d2_cnf\tXX\tF\t0.01", "unknown language 'XX'"),
        ("d2_cnf\tCN\tQ\t0.01", "unknown gender 'Q'"),
        ("d2_cnf\tCN\tF\t0", "max_hours must be positive for d2_cnf"),
    ], ids=["language", "gender", "max_hours"])
    def test_bad_member_names_path_line(self, tmp_path, capsys, minicorpus, member, detail):
        spec = tmp_path / "bad.spec"
        spec.write_text(f"name\tbad\n# members\n{member}\n", encoding="utf-8")
        assert run("manifest", "--spec", spec, "--roots", minicorpus,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.strip() == f"ERROR PARSE: {spec}:3: {detail}"
        assert not (tmp_path / "out" / "manifest.txt").exists()


class TestNotUtf8Input:
    """A non-UTF-8 byte in any text input is one ``ERROR PARSE`` at path:line."""

    def one_parse_error(self, capsys, path, line):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR PARSE: {path}:{line}: not UTF-8: byte 0x")

    def test_config(self, tmp_path, capsys):
        config = tmp_path / "pipeline.cfg"
        config.write_bytes(b"hop_ms=10\nwin_ms=\xff\n")
        assert run("g2p", "--config", config, "--text", "hello", "--out", tmp_path) == 1
        self.one_parse_error(capsys, config, 2)

    def test_text_file(self, tmp_path, capsys):
        text = tmp_path / "t.txt"
        text.write_bytes(b"hello\r\nworld \xe4\xbd\n")
        assert run("g2p", "--text-file", text, "--out", tmp_path) == 1
        self.one_parse_error(capsys, text, 2)


class TestByteOrderMark:
    """A manifest, a lexicon or a pipeline config that starts with a UTF-8
    byte order mark reads as the same file without one."""

    BOM = "\ufeff".encode("utf-8")

    def test_manifest(self, tmp_path, minicorpus):
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path)
        lines = (tmp_path / "manifest.txt").read_bytes().splitlines(keepends=True)
        rows = [line for line in lines if not line.startswith(b"#")][:2]
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(b"".join(rows))
        marked.write_bytes(self.BOM + b"".join(rows))
        for manifest in (plain, marked):
            assert run("features", "--manifest", manifest, "--jobs", 1,
                       "--out", tmp_path / manifest.stem) == 0
        assert snapshot(tmp_path / "marked") == snapshot(tmp_path / "plain")

    def test_lexicon_files_and_config(self, tmp_path):
        from xling.cli import _LEXICON_KEYS
        from xling.lexicon import default_paths

        cfg_lines = []
        for key, bundled in zip(_LEXICON_KEYS, default_paths()):
            copy = tmp_path / f"{key}.txt"
            copy.write_bytes(self.BOM + bundled.read_bytes())
            cfg_lines.append(f"{key}={copy}\n")
        cfg = tmp_path / "pipeline.cfg"
        cfg.write_bytes(self.BOM + "# lexicons\n{}".format("".join(cfg_lines)).encode())
        text = "你好 world"
        assert run("g2p", "--text", text, "--out", tmp_path / "plain") == 0
        assert run("g2p", "--text", text, "--config", cfg, "--out", tmp_path / "marked") == 0
        assert snapshot(tmp_path / "marked") == snapshot(tmp_path / "plain")


class TestNulByteInput:
    @pytest.mark.parametrize("command", ["stats", "features"])
    def test_manifest_audio_path(self, tmp_path, capsys, minicorpus, command):
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path / "man")
        data = (tmp_path / "man" / "manifest.txt").read_bytes()
        offset = data.index(b".wav")
        path = tmp_path / "nul.txt"
        path.write_bytes(data[:offset] + b"\0" + data[offset:])
        line = data[:offset].count(b"\n") + 1
        assert run(command, "--manifest", path, "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == f"ERROR PARSE: {path}:{line}: NUL byte at offset {offset}\n"


class TestBatchFailureNamesUtterance:
    @pytest.fixture
    def manifest(self, tmp_path, minicorpus):
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path / "man")
        lines = (tmp_path / "man" / "manifest.txt").read_text(encoding="utf-8").splitlines()
        entries = [line for line in lines if not line.startswith("#")]
        write_empty_wav(tmp_path / "empty.wav")
        fields = entries[2].split("|")
        fields[1] = str(tmp_path / "empty.wav")
        entries[2] = "|".join(fields)
        path = tmp_path / "broken.txt"
        path.write_text("\n".join(entries) + "\n", encoding="utf-8")
        return path, fields[0], fields[1]

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("command", ["stats", "features"])
    def test_error_line_names_utt_and_wav(self, tmp_path, capsys, manifest, command, jobs):
        path, utt_id, wav = manifest
        assert run(command, "--manifest", path, "--jobs", jobs,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err == (f"ERROR EMPTY_AUDIO: utterance {utt_id} ({wav}): "
                       f"{wav}: WAV holds no samples\n")

    def test_error_survives_pickling_with_its_code(self):
        import pickle

        from xling.errors import UtteranceError

        exc = UtteranceError("d2_cnf_0001", "a.wav", "PARSE", "a.wav: truncated")
        back = pickle.loads(pickle.dumps(exc))
        assert (back.code, str(back)) == ("PARSE", str(exc))
        assert (back.utt_id, back.path, back.detail) == ("d2_cnf_0001", "a.wav",
                                                         "a.wav: truncated")


class TestStatsFileKeys:
    """A stats key set twice or outside the six written by ``stats`` is one
    ``ERROR PARSE`` line at ``path:line``, exit 1."""

    @pytest.mark.parametrize("content, line, key", [
        ("energy_min=1.0\nenergy_max=2.0\nenergy_max=3.0\n", 3, "energy_max"),
        ("energy_min=1.0\nenergy_max=2.0\npitch_mn=50.0\n", 3, "pitch_mn"),
    ], ids=["repeated", "unknown"])
    def test_rejected_with_path_line(self, tmp_path, capsys, content, line, key):
        stats = tmp_path / "stats.txt"
        stats.write_text(content, encoding="utf-8")
        assert run("features", "--wav", tmp_path / "missing.wav",
                   "--alignment", tmp_path / "missing.align", "--stats", stats,
                   "--out", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR PARSE: {stats}:{line}: ") and repr(key) in err

    def test_written_in_the_order_read(self, tmp_path, minicorpus):
        from xling.cli import _STATS_KEYS

        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path)
        assert run("stats", "--manifest", tmp_path / "manifest.txt", "--out", tmp_path,
                   "--jobs", 1) == 0
        lines = (tmp_path / "stats.txt").read_text("utf-8").splitlines()
        assert tuple(line.split("=")[0] for line in lines) == _STATS_KEYS


class TestStatsRanges:
    """``stats`` over silent, unvoiced and mixed utterances: a corpus without
    a nonzero energy frame fails the quantizer's range rule in one ``ERROR``
    line, a pitch range without a voiced frame is written as 0.0, and the
    file holds the ranges of the per-utterance tracks taken together."""

    @pytest.fixture
    def rows(self, tmp_path, minicorpus):
        """The d2 manifest's rows, and a writer of a manifest of some of them
        with the given rows' audio replaced."""
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path / "man")
        lines = (tmp_path / "man" / "manifest.txt").read_text("utf-8").splitlines()
        rows = [line.split("|") for line in lines if not line.startswith("#")]

        def manifest(count, audio):
            from xling.audio import write_wav

            chosen = [list(row) for row in rows[:count]]
            for index, samples in audio.items():
                wav = tmp_path / f"replaced{index}.wav"
                write_wav(wav, samples, 16000)
                chosen[index][1] = str(wav)
            path = tmp_path / "manifest.txt"
            path.write_text("".join("|".join(row) + "\n" for row in chosen), "utf-8")
            return path, [row[1] for row in chosen]

        return manifest

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_all_silent_corpus(self, tmp_path, capsys, rows, jobs):
        manifest, _ = rows(2, {0: np.zeros(16000), 1: np.zeros(8000)})
        out = tmp_path / "out"
        assert run("stats", "--manifest", manifest, "--jobs", jobs, "--out", out) == 1
        assert capsys.readouterr().err == ("ERROR BAD_CONFIG: corpus energy range: need "
                                           "finite v_min < v_max, got [inf, 0.0]\n")
        assert not out.exists()

    def test_white_noise_has_no_voiced_frame(self, tmp_path, rows):
        noise = np.random.default_rng(0).uniform(-0.3, 0.3, 16000)
        manifest, _ = rows(1, {0: noise})
        assert run("stats", "--manifest", manifest, "--out", tmp_path) == 0
        stats = dict(line.split("=") for line in
                     (tmp_path / "stats.txt").read_text("utf-8").splitlines())
        assert (stats["pitch_min"], stats["pitch_max"]) == ("0.0", "0.0")
        assert (stats["n_frames"], stats["n_voiced_frames"]) == ("101", "0")

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_silent_among_voiced_matches_an_oracle(self, tmp_path, rows, jobs):
        from xling.audio import read_wav
        from xling.cli import _STATS_KEYS
        from xling.features import FeatureConfig, energy_per_frame, pitch_per_frame

        manifest, wavs = rows(4, {1: np.zeros(12345)})
        cfg = FeatureConfig()
        audio = [read_wav(wav) for wav in wavs]
        energy = np.concatenate([energy_per_frame(a, cfg) for a in audio])
        pitch = np.concatenate([pitch_per_frame(a, cfg) for a in audio])
        voiced = pitch[pitch > 0]
        ranges = (energy[energy > 0].min(), energy.max(), voiced.min(), voiced.max())
        expected = [*map(float, ranges), energy.size, voiced.size]
        assert run("stats", "--manifest", manifest, "--jobs", jobs, "--out", tmp_path) == 0
        assert (tmp_path / "stats.txt").read_text("utf-8") == "".join(
            f"{key}={value!r}\n" for key, value in zip(_STATS_KEYS, expected))


class TestConfigValuesChecked:
    """A feature or quantizer value that its config rejects is one
    ``ERROR BAD_CONFIG`` line (``TOO_LARGE`` above a size cap), exit 1,
    with nothing written."""

    @pytest.fixture
    def tone(self, tmp_path):
        from xling.audio import write_wav

        t = np.arange(16000) / 16000
        wav = tmp_path / "tone.wav"
        write_wav(wav, 0.5 * np.sin(2 * np.pi * 200.0 * t), 16000)
        return wav

    def one_bad_config_line(self, capsys):
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("ERROR BAD_CONFIG: ")

    @pytest.mark.parametrize("line", [
        "n_mels=-1", "n_mels=0", "log_floor=nan", "voicing_threshold=nan",
    ])
    def test_feature_value(self, tmp_path, capsys, tone, line):
        config = tmp_path / "pipeline.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("features", "--config", config, "--wav", tone, "--out", out) == 1
        self.one_bad_config_line(capsys)
        assert not (out / "tone.mel.xlf").exists()

    def test_non_finite_stats_range(self, tmp_path, capsys, tone):
        stats = tmp_path / "stats.txt"
        stats.write_text("energy_min=0.001\nenergy_max=inf\n", encoding="utf-8")
        alignment = tmp_path / "tone.align"
        alignment.write_text("a\t50\nb\t51\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("features", "--wav", tone, "--alignment", alignment, "--stats", stats,
                   "--out", out) == 1
        self.one_bad_config_line(capsys)
        assert not (out / "tone.energy_q.xlf").exists()

    @pytest.mark.parametrize("mode", ["wav", "manifest"])
    @pytest.mark.parametrize("content, detail", [
        ("energy_min=0.0\nenergy_max=1.0\n", "log scale requires v_min > 0"),
        ("energy_min=2.0\nenergy_max=1.0\n", "need finite v_min < v_max, got [2.0, 1.0]"),
        ("energy_min=0.001\nenergy_max=inf\n", "need finite v_min < v_max, got [0.001, inf]"),
    ], ids=["log-of-zero", "reversed", "infinite"])
    def test_stats_range_names_the_stats_file(self, tmp_path, capsys, tone, mode, content,
                                              detail):
        stats = tmp_path / "stats.txt"
        stats.write_text(content, encoding="utf-8")
        alignment = tmp_path / "tone.align"
        alignment.write_text("a\t50\nb\t51\n", encoding="utf-8")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"tone|{tone}|a b|s|CN|F|1.0|{alignment}\n", encoding="utf-8")
        source = (["--wav", tone, "--alignment", alignment] if mode == "wav"
                  else ["--manifest", manifest])
        out = tmp_path / "out"
        assert run("features", *source, "--stats", stats, "--out", out) == 1
        assert capsys.readouterr().err == f"ERROR BAD_CONFIG: {stats}: {detail}\n"
        assert not out.exists()

    @pytest.mark.parametrize("line", [
        "fft_size=1073741824", "n_mels=100000000", "quantizer_bins=10000000000000000000",
    ])
    def test_size_above_cap(self, tmp_path, capsys, tone, line):
        stats = tmp_path / "stats.txt"
        stats.write_text("energy_min=0.001\nenergy_max=1.0\n", encoding="utf-8")
        alignment = tmp_path / "tone.align"
        alignment.write_text("a\t50\nb\t51\n", encoding="utf-8")
        config = tmp_path / "pipeline.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("features", "--wav", tone, "--alignment", alignment, "--stats", stats,
                   "--config", config, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith(f"ERROR TOO_LARGE: {config}: "), err
        assert not out.exists()


class TestConfigValuesCheckedAtLoad:
    """Every config value is checked when the config loads, also where the
    subcommand does not read it: one ``ERROR BAD_CONFIG`` line, exit 1."""

    @pytest.mark.parametrize("line", [
        "voicing_threshold=5", "voicing_threshold=1", "voicing_threshold=-0.1",
        "quantizer_scale=bogus", "quantizer_bins=-3", "quantizer_bins=0",
        "en_dict=missing.dict", "hop_ms=5", "sample_rate=0", "log_floor=0", "f0_min=700",
    ])
    @pytest.mark.parametrize("command", ["features", "g2p"])
    def test_value_rejected(self, tmp_path, capsys, command, line):
        from xling.audio import write_wav

        wav = tmp_path / "tone.wav"
        write_wav(wav, 0.5 * np.sin(2 * np.pi * 200.0 * np.arange(1600) / 16000), 16000)
        config = tmp_path / "pipeline.cfg"
        config.write_text(line + "\n", encoding="utf-8")
        source = ["--wav", wav] if command == "features" else ["--text", "hello"]
        out = tmp_path / "out"
        assert run(command, "--config", config, *source, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("ERROR BAD_CONFIG: ")
        assert str(config) in err
        assert not out.exists()


class TestFeaturesUnreadFlags:
    @pytest.mark.parametrize("flags", [
        ["--wav", "a.wav"], ["--utt-id", "zz"], ["--alignment", "missing.align"],
        ["--wav", "a.wav", "--utt-id", "zz", "--alignment", "missing.align"],
    ])
    def test_manifest_refuses_single_wav_flags(self, tmp_path, capsys, flags):
        manifest = tmp_path / "manifest.txt"
        manifest.write_text("# no entries\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("features", "--manifest", manifest, *flags, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1, err
        assert err.startswith("ERROR BAD_CONFIG: --manifest cannot be combined with ")
        assert all(flag in err for flag in flags if flag.startswith("--"))
        assert not out.exists()

    def test_needs_wav_or_manifest(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("features", "--out", out) == 1
        assert capsys.readouterr().err == "ERROR BAD_CONFIG: provide --wav or --manifest\n"
        assert not out.exists()

    def test_single_wav_stats_needs_an_alignment(self, tmp_path, capsys):
        # neither file exists: the flags are refused before any is read
        out = tmp_path / "out"
        assert run("features", "--wav", tmp_path / "missing.wav", "--stats",
                   tmp_path / "missing.txt", "--out", out) == 1
        assert capsys.readouterr().err == ("ERROR BAD_CONFIG: --stats cannot be used "
                                           "without --alignment: energy is quantized "
                                           "per phoneme\n")
        assert not out.exists()


class TestFeaturesWriteAfterChecks:
    """A failed utterance writes none of its tracks, and a hop that does not
    match the alignments' frames is refused before any WAV is read."""

    @pytest.fixture
    def utterance(self, minicorpus):
        wav = sorted((minicorpus / "d3_cnf").glob("*.wav"))[0]
        return wav, wav.with_suffix(".align")

    @pytest.fixture
    def hop_5(self, tmp_path):
        config = tmp_path / "hop5.cfg"
        config.write_text("hop_ms=5\n", encoding="utf-8")
        return config

    @pytest.fixture
    def no_wav_read(self, monkeypatch):
        import xling.cli as cli_module

        def fail(*args, **kwargs):
            raise AssertionError("WAV read before the hop was checked")

        monkeypatch.setattr(cli_module, "read_wav", fail)

    @pytest.mark.parametrize("keep, code", [
        (lambda text: text[:text.index("\t") + 1], "PARSE"),
        (lambda text: text[:text.index("\n") - 1], "DURATION_MISMATCH"),
    ], ids=["after-tab", "mid-number"])
    def test_cut_alignment_writes_no_track(self, tmp_path, capsys, utterance, keep, code):
        wav, alignment = utterance
        cut = tmp_path / "cut.align"
        cut.write_text(keep(alignment.read_text("utf-8")), encoding="utf-8")
        out = tmp_path / "out"
        assert run("features", "--wav", wav, "--alignment", cut, "--utt-id", "u",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith(f"ERROR {code}: "), err
        assert not list(out.glob("u.*.xlf"))

    @pytest.mark.parametrize("batch", [False, True], ids=["wav", "manifest"])
    def test_refused_wav_makes_no_out_dir(self, tmp_path, capsys, utterance, batch):
        from xling.audio import write_wav
        from xling.corpus import ManifestEntry, write_manifest

        wav = tmp_path / "a.wav"
        write_wav(wav, np.full(4000, 0.1), 22050)
        source = ["--wav", wav]
        if batch:
            source = ["--manifest", tmp_path / "manifest.txt", "--jobs", 1]
            write_manifest([ManifestEntry("u", str(wav), "你好", "s1", "CN", "F",
                                          4000 / 22050, str(utterance[1]))], source[1])
        out = tmp_path / "o"
        assert run("features", *source, "--out", out) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("ERROR CONFIG_MISMATCH: "), err
        assert not out.exists()

    def test_hop_refused_with_an_alignment(self, tmp_path, capsys, utterance, hop_5,
                                           no_wav_read):
        wav, alignment = utterance
        out = tmp_path / "out"
        assert run("features", "--config", hop_5, "--wav", wav, "--alignment", alignment,
                   "--out", out) == 1
        assert capsys.readouterr().err == (f"ERROR BAD_CONFIG: {hop_5}: alignments count "
                                           "10 ms frames, so averaging per phoneme needs "
                                           "hop_ms=10, got 5\n")
        assert not out.exists()

    def test_hop_refused_in_a_batch(self, tmp_path, capsys, minicorpus, hop_5, no_wav_read):
        assert run("manifest", "--spec", minicorpus / "d3.spec", "--roots", minicorpus,
                   "--out", tmp_path) == 0
        out = tmp_path / "out"
        assert run("features", "--config", hop_5, "--manifest", tmp_path / "manifest.txt",
                   "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR BAD_CONFIG: {hop_5}: alignments count 10 ms frames")
        assert len(err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["features", "stats"])
    def test_hop_refused_without_an_alignment(self, tmp_path, capsys, minicorpus, utterance,
                                              hop_5, no_wav_read, command):
        # stats reads no alignment, but its stats.txt feeds features --stats
        assert run("manifest", "--spec", minicorpus / "d3.spec", "--roots", minicorpus,
                   "--out", tmp_path) == 0
        source = (["--wav", utterance[0]] if command == "features"
                  else ["--manifest", tmp_path / "manifest.txt"])
        out = tmp_path / "out"
        assert run(command, "--config", hop_5, *source, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR BAD_CONFIG: {hop_5}: alignments count 10 ms frames")
        assert len(err.splitlines()) == 1
        assert not out.exists()


class TestJobs:
    @pytest.mark.parametrize("jobs", ["0", "-1", "abc", "1.5"])
    @pytest.mark.parametrize("command", ["features", "stats"])
    def test_below_one_is_a_parser_error(self, capsys, command, jobs):
        with pytest.raises(SystemExit) as exc_info:
            build_parser().parse_args([command, "--jobs", jobs])
        assert exc_info.value.code == 2
        assert "--jobs: expected an integer of at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_default_is_the_usable_cpu_count(self, monkeypatch, cpus):
        import os

        from xling.model import usable_cpus

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert usable_cpus() == cpus
        args = build_parser().parse_args(["stats", "--manifest", "m.txt"])
        assert args.jobs == cpus


class TestBatchOnThreads:
    """``stats`` and ``features --manifest`` analyze utterances on threads of
    this process: no process starts, the outputs do not depend on
    ``--jobs``, and a failure cancels the utterances that have not started."""

    @pytest.fixture
    def manifest(self, tmp_path, minicorpus):
        run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
            "--out", tmp_path / "man")
        return tmp_path / "man" / "manifest.txt"

    def test_no_process_and_outputs_independent_of_jobs(self, tmp_path, monkeypatch,
                                                        manifest):
        import os
        import sys

        from xling import model

        def no_fork():
            raise AssertionError("a process was started")

        class NoPool:
            def __init__(self, max_workers):
                raise AssertionError("a pool was started at --jobs 1")

        monkeypatch.setattr(os, "fork", no_fork)
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
        try:
            for jobs, out in outs.items():
                with monkeypatch.context() as m:
                    if jobs == 1:  # one job runs on the calling thread
                        m.setattr(model, "ThreadPoolExecutor", NoPool)
                    assert run("stats", "--manifest", manifest, "--jobs", jobs,
                               "--out", out) == 0
                    assert run("features", "--manifest", manifest, "--stats",
                               out / "stats.txt", "--jobs", jobs, "--out", out) == 0
        finally:
            sys.setswitchinterval(interval)
        assert len(snapshot(outs[1])) == 1 + 6 * 23
        assert snapshot(outs[1]) == snapshot(outs[2])

    def test_failure_cancels_utterances_not_started(self, tmp_path, capsys, monkeypatch,
                                                    manifest):
        import threading
        import time

        import xling.cli as cli_module

        lines = manifest.read_text(encoding="utf-8").splitlines()
        entries = [line for line in lines if not line.startswith("#")]
        empty = tmp_path / "empty.wav"
        write_empty_wav(empty)
        fields = entries[0].split("|")
        fields[1] = str(empty)
        entries[0] = "|".join(fields)
        broken = tmp_path / "broken.txt"
        broken.write_text("\n".join(entries) + "\n", encoding="utf-8")

        started, lock = [], threading.Lock()
        read_wav = cli_module.read_wav

        def counting_read_wav(path, **kwargs):
            with lock:
                started.append(path)
            if path != str(empty):
                time.sleep(0.3)  # keeps the workers busy while the failure lands
            return read_wav(path, **kwargs)

        monkeypatch.setattr(cli_module, "read_wav", counting_read_wav)
        out = tmp_path / "out"
        assert run("features", "--manifest", broken, "--jobs", 2, "--out", out) == 1
        assert capsys.readouterr().err == (f"ERROR EMPTY_AUDIO: utterance {fields[0]} "
                                           f"({empty}): {empty}: WAV holds no samples\n")
        # the failed utterance, and at most one more on each of the two workers
        assert started[0] == str(empty) and len(started) <= 3, started
        assert len(list(out.glob("*.mel.xlf"))) == len(started) - 1


FAULT_PROBE = """
import resource, sys
from pathlib import Path
from xling import cli, minicorpus

root = Path(sys.argv[1])
minicorpus.generate(root / "corpus", scale=800, seed=7)
assert cli.main(["manifest", "--spec", str(root / "corpus" / "d123.spec"),
                 "--roots", str(root / "corpus"), "--out", str(root)]) == 0
faults = []
for n in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert cli.main(["features", "--manifest", str(root / "manifest.txt"),
                     "--jobs", "2", "--out", str(root / f"run{n}")]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(*faults)
"""


def _no_c_library(name):
    raise OSError("no C library")


class TestMallocPolicy:
    """``main`` sets glibc's allocator policy once per process, so repeated
    calls reuse the heap instead of faulting their temporaries in again."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the policy is set through glibc's mallopt")
    def test_repeated_features_runs_reuse_their_pages(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import xling

        src = str(Path(xling.__file__).parent.parent)
        result = subprocess.run([sys.executable, "-c", FAULT_PROBE, str(tmp_path)],
                                capture_output=True, text=True, check=True, timeout=300,
                                env={**os.environ, "PYTHONPATH": src})
        faults = [int(n) for n in result.stdout.split()]
        # 22 utterances: without the policy the third run takes 11-15 K minor
        # faults, with it a few hundred at most
        assert faults[2] < 1000, faults

    @pytest.mark.parametrize("c_library", [_no_c_library, lambda name: object()],
                             ids=["OSError", "AttributeError"])
    def test_no_mallopt_changes_no_output(self, tmp_path, monkeypatch, minicorpus,
                                          c_library):
        import ctypes

        import xling.cli as cli_module

        wav = sorted((minicorpus / "d2_cnf").glob("*.wav"))[0]
        argv = ("features", "--wav", wav, "--alignment", wav.with_suffix(".align"))
        assert run(*argv, "--out", tmp_path / "policy") == 0
        opened = []
        monkeypatch.setattr(ctypes, "CDLL", lambda name: opened.append(name) or c_library(name))
        cli_module._set_malloc_policy.cache_clear()
        assert run(*argv, "--out", tmp_path / "none") == 0
        assert opened == [None]
        assert snapshot(tmp_path / "policy") == snapshot(tmp_path / "none")


class TestAlignmentAgreement:
    """``manifest``, ``features --manifest`` and ``features --wav --alignment``
    accept the same alignments, by the one rule of ``corpus.check_duration``:
    a frame total within 2 of the audio's rounded frame count."""

    @pytest.mark.parametrize("offset", range(-3, 4))
    @pytest.mark.parametrize("n_samples", [16000, 16100])  # 100 and 100.625 frames
    def test_same_totals_accepted(self, tmp_path, capsys, n_samples, offset):
        from xling.audio import write_wav

        total = round(n_samples / 160) + offset
        speaker = tmp_path / "corpus" / "spk"
        speaker.mkdir(parents=True)
        wav, alignment = speaker / "u.wav", speaker / "u.align"
        write_wav(wav, 0.5 * np.sin(2 * np.pi * 200.0 * np.arange(n_samples) / 16000), 16000)
        (speaker / "u.txt").write_text("hi\n", encoding="utf-8")
        alignment.write_text(f"HH\t{total // 2}\nAY\t{total - total // 2}\n",
                             encoding="utf-8")
        spec, manifest = tmp_path / "agree.spec", tmp_path / "manifest.txt"
        spec.write_text("name\tagree\nspk\tEN\tF\t1.0\n", encoding="utf-8")
        manifest.write_text(f"spk_u|{wav}|hi|spk|EN|F|{n_samples / 16000!r}|{alignment}\n",
                            encoding="utf-8")
        argvs = {"manifest": ["manifest", "--spec", spec, "--roots", tmp_path / "corpus"],
                 "batch": ["features", "--manifest", manifest, "--jobs", 1],
                 "single": ["features", "--wav", wav, "--alignment", alignment]}
        expected = (0, "") if abs(offset) <= 2 else (1, "ERROR DURATION_MISMATCH")
        for name, argv in argvs.items():
            code = run(*argv, "--out", tmp_path / name)
            assert (code, capsys.readouterr().err.split(":")[0]) == expected, name


class TestPartialLexiconConfig:
    """Every command refuses a config that sets some lexicon paths but not
    all four, with one ``ERROR BAD_CONFIG`` line, and writes nothing."""

    @pytest.mark.parametrize("command", ["g2p", "regulate", "features", "stats", "forward",
                                         "manifest"])
    def test_refused_by_every_command(self, tmp_path, capsys, minicorpus, command):
        from xling.lexicon import default_paths

        inputs = tmp_path / "inputs"
        assert run("g2p", "--text", "hello", "--out", inputs) == 0
        assert run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
                   "--out", inputs) == 0
        embeddings, phn, alignment = regulate_inputs(inputs, minicorpus)
        argv = {"g2p": ["--text", "hello"],
                "regulate": ["--embeddings", embeddings, "--phonemes", phn,
                             "--alignment", alignment],
                "features": ["--wav", sorted((minicorpus / "d2_enm").glob("*.wav"))[0]],
                "stats": ["--manifest", inputs / "manifest.txt"],
                "forward": ["--phonemes", inputs / "text.phn"],
                "manifest": ["--spec", minicorpus / "d2.spec", "--roots", minicorpus]}
        config = tmp_path / "pipeline.cfg"
        config.write_text(f"en_dict={default_paths()[0]}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run(command, "--config", config, *argv[command], "--out", out) == 1
        assert capsys.readouterr().err == (
            f"ERROR BAD_CONFIG: {config}: config overrides lexicon paths but lacks "
            "['cn_dict', 'ipa_dict', 'ipa_inventory']\n")
        assert not out.exists()


class TestIdsAreFileNames:
    """A manifest ``utt_id`` or a spec ``speaker_id`` that is not a plain
    file name is one ``ERROR PARSE`` line at ``path:line``, and a
    ``--utt-id`` or ``--name`` flag one ``ERROR BAD_CONFIG`` line, so no
    output name leaves ``--out``."""

    @pytest.mark.parametrize("name", ["../x", "a/b", ""])
    @pytest.mark.parametrize("flag", ["--utt-id", "--name"])
    def test_output_name_flag(self, tmp_path, capsys, minicorpus, flag, name):
        wav = sorted((minicorpus / "d2_enm").glob("*.wav"))[0]
        argv = {"--utt-id": ["features", "--wav", wav], "--name": ["g2p", "--text", "hello"]}
        deep = tmp_path / "deep"
        assert run(*argv[flag], flag, name, "--out", deep / "out") == 1
        assert capsys.readouterr().err == (f"ERROR BAD_CONFIG: {flag} {name!r} is not a "
                                           "plain file name\n")
        assert not deep.exists()

    def test_manifest_utt_id(self, tmp_path, capsys, minicorpus):
        assert run("manifest", "--spec", minicorpus / "d2.spec", "--roots", minicorpus,
                   "--out", tmp_path) == 0
        row = next(line for line in (tmp_path / "manifest.txt").read_text("utf-8").splitlines()
                   if not line.startswith("#"))
        manifest = tmp_path / "escaping.txt"
        manifest.write_text("../escaped|" + row.split("|", 1)[1] + "\n", encoding="utf-8")
        deep = tmp_path / "deep"
        assert run("features", "--manifest", manifest, "--out", deep / "out") == 1
        assert capsys.readouterr().err == (
            f"ERROR PARSE: {manifest}:1: utt_id '../escaped' is not a plain file name\n")
        assert not deep.exists()

    def test_spec_speaker_id(self, tmp_path, capsys, minicorpus):
        spec = tmp_path / "escaping.spec"
        spec.write_text("name\tescaping\n../d2_enm\tEN\tM\t1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("manifest", "--spec", spec, "--roots", minicorpus / "d2_cnf",
                   "--out", out) == 1
        assert capsys.readouterr().err == (
            f"ERROR PARSE: {spec}:2: speaker id '../d2_enm' is not a plain file name\n")
        assert not out.exists()
