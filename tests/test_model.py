import hashlib
import os
import threading

import re

import numpy as np
import pytest
from hypothesis import event, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from xling import model, prng, regulator
from xling.errors import (
    BadConfigError,
    ConfigMismatchError,
    LengthMismatchError,
    ParseError,
    ShapeMismatchError,
    TooLargeError,
    UnknownSpeakerError,
    XlingError,
)
from xling.model import (
    ATTN_HEADS,
    MAX_DECODER_FRAMES,
    MAX_FRAMES_PER_PHONEME,
    MAX_LAYERS,
    MAX_PITCH_HZ,
    MAX_WEIGHT_BYTES,
    Inference,
    ModelConfig,
    TeacherForced,
    Weights,
    _attention,
    _fft_block,
    forward,
    init_weights,
    mse_losses,
    parameter_shapes,
)
from xling.prng import BLOCK, Xorshift64Star, uniform

SMALL = ModelConfig(
    n_ipa_symbols=11,
    n_speakers=3,
    hidden=8,
    enc_layers=2,
    dec_layers=2,
    conv_kernel=3,
    ff_channels=16,
    n_mels=5,
)


@pytest.fixture(scope="module")
def small_weights():
    return init_weights(SMALL, seed=99)


def random_input(rng, cfg, n_phonemes):
    lengths = [int(v) for v in rng.integers(1, 4, n_phonemes)]
    ids = [int(v) for v in rng.integers(0, cfg.n_ipa_symbols, sum(lengths))]
    return ids, lengths


class TestConfig:
    def test_odd_kernels_required(self):
        with pytest.raises(BadConfigError):
            ModelConfig(n_ipa_symbols=4, n_speakers=1, conv_kernel=8)
        with pytest.raises(BadConfigError):
            ModelConfig(n_ipa_symbols=4, n_speakers=1, pitch_embed_kernel=2)

    def test_hidden_divisible_by_heads(self):
        with pytest.raises(BadConfigError):
            ModelConfig(n_ipa_symbols=4, n_speakers=1, hidden=15)

    def test_positive_fields(self):
        with pytest.raises(BadConfigError):
            ModelConfig(n_ipa_symbols=0, n_speakers=1)

    def test_weight_bytes_capped(self):
        paper = ModelConfig(n_ipa_symbols=54, n_speakers=8)
        assert 8 * sum(np.prod(shape) for _, shape in parameter_shapes(paper)) < MAX_WEIGHT_BYTES
        with pytest.raises(TooLargeError, match="weights would take"):
            ModelConfig(n_ipa_symbols=54, n_speakers=8, hidden=1_000_000)

    @pytest.mark.parametrize("field, value", [
        ("enc_layers", MAX_LAYERS + 1), ("dec_layers", MAX_LAYERS + 1),
        ("n_mels", 10**7), ("ff_channels", 10**6), ("conv_kernel", 5001),
        ("pitch_embed_kernel", 10**5 + 1),
    ])
    def test_sizes_the_weight_cap_lets_through_are_capped(self, field, value):
        """Each value keeps the weights under the cap, but would make a forward
        call run a block per layer or hold one activation row per frame far
        wider than a row of attention scores at the frame cap."""
        tiny = dict(n_ipa_symbols=54, n_speakers=2, hidden=8, enc_layers=1, dec_layers=1,
                    conv_kernel=3, ff_channels=4, n_mels=5)
        ModelConfig(**tiny)
        with pytest.raises(TooLargeError, match="above the cap|at most"):
            ModelConfig(**{**tiny, field: value})

    def test_widest_row_at_the_cap_is_allowed(self):
        ModelConfig(n_ipa_symbols=4, n_speakers=1, hidden=8, enc_layers=MAX_LAYERS,
                     dec_layers=MAX_LAYERS, conv_kernel=3, ff_channels=8,
                     n_mels=ATTN_HEADS * MAX_DECODER_FRAMES)

    @pytest.mark.parametrize("value, error, detail", [
        ("hidden=255", BadConfigError, "hidden must be divisible by"),
        ("hidden=1000000", TooLargeError, "weights would take"),
    ])
    def test_file_value_rejected_by_the_config_names_the_path(self, tmp_path, value,
                                                               error, detail):
        path = tmp_path / "model.cfg"
        path.write_text(f"n_ipa_symbols=4\nn_speakers=1\n{value}\n", encoding="utf-8")
        with pytest.raises(error, match=f"^{re.escape(f'{path}: {detail}')}"):
            ModelConfig.from_file(path)

    def test_file_round_trip(self, tmp_path):
        cfg = ModelConfig(n_ipa_symbols=54, n_speakers=8)
        path = tmp_path / "model.cfg"
        cfg.to_file(path)
        assert ModelConfig.from_file(path) == cfg

    def test_file_unknown_key(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("bogus=3\n", encoding="utf-8")
        with pytest.raises(ParseError):
            ModelConfig.from_file(path)


    def test_file_repeated_key_names_path_and_line(self, tmp_path):
        path = tmp_path / "model.cfg"
        path.write_text("n_ipa_symbols=4\nn_speakers=1\nhidden=8\nhidden=16\n",
                        encoding="utf-8")
        with pytest.raises(ParseError, match=rf"^{re.escape(f'{path}:4: ')}.*'hidden'"):
            ModelConfig.from_file(path)

    @given(values=st.fixed_dictionaries(dict(
        n_ipa_symbols=st.integers(1, 10**6), n_speakers=st.integers(1, 10**6),
        hidden=st.integers(1, 10**4).map(lambda h: ATTN_HEADS * h),
        enc_layers=st.integers(1, 64), dec_layers=st.integers(1, 64),
        conv_kernel=st.integers(0, 32).map(lambda k: 2 * k + 1),
        ff_channels=st.integers(1, 10**5), n_mels=st.integers(1, 512),
        pitch_embed_kernel=st.integers(0, 32).map(lambda k: 2 * k + 1),
    )))
    def test_file_round_trip_over_valid_configs(self, tmp_path_factory, values):
        """A config within the size caps reads back equal; one beyond them is
        rejected whether it is built or read."""
        path = tmp_path_factory.mktemp("cfg") / "model.cfg"
        try:
            cfg = ModelConfig(**values)
        except TooLargeError:
            event("beyond a size cap")
            path.write_text("".join(f"{key}={value}\n" for key, value in values.items()),
                            encoding="utf-8")
            with pytest.raises(TooLargeError):
                ModelConfig.from_file(path)
        else:
            cfg.to_file(path)
            assert ModelConfig.from_file(path) == cfg


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(SMALL, seed=7)
        b = init_weights(SMALL, seed=7)
        assert set(a.tensors) == set(b.tensors)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name], b.tensors[name])

    def test_paper_config_bits_are_pinned(self):
        cfg = ModelConfig(n_ipa_symbols=54, n_speakers=8)
        weights = init_weights(cfg, seed=5)
        digest = hashlib.sha256()
        for name, _ in parameter_shapes(cfg):
            digest.update(name.encode("utf-8"))
            digest.update(weights.tensors[name].tobytes())
        assert digest.hexdigest() == (
            "ac48bf6b751bc76b22785035b000b0e6ba7e9a94e22153d028f6a45829bbfe11"
        )

    def test_paper_config_layout_is_pinned(self):
        # the bits pin above hashes names and bytes, not shapes, so a tensor
        # reshaped to the same element count would still pass it
        layout = parameter_shapes(ModelConfig(n_ipa_symbols=54, n_speakers=8))
        assert len(layout) == 164
        assert hashlib.sha256(repr(layout).encode("utf-8")).hexdigest() == (
            "60edaec7b961e5d054c1cbe4caea23615dd67ad72d69c8563cfb5fa56e2c1f37"
        )

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7])
    def test_seed_outside_u64_rejected(self, seed):
        with pytest.raises(BadConfigError, match=r"seed must be in \[0, 2\*\*64\)"):
            init_weights(SMALL, seed=seed)

    def test_largest_u64_seed_is_its_own_stream(self):
        top = init_weights(SMALL, seed=2**64 - 1)
        zero = init_weights(SMALL, seed=0)
        assert any(not np.array_equal(top.tensors[n], zero.tensors[n]) for n in top.tensors)

    def test_seed_changes_parameters(self):
        a = init_weights(SMALL, seed=7)
        b = init_weights(SMALL, seed=8)
        assert any(not np.array_equal(a.tensors[n], b.tensors[n]) for n in a.tensors)

    def test_uniform_bounds(self, small_weights):
        for tensor in small_weights.tensors.values():
            assert tensor.min() >= -0.1 and tensor.max() <= 0.1

    def test_embedding_shape_at_paper_hidden(self):
        cfg = ModelConfig(n_ipa_symbols=54, n_speakers=2)
        names = dict(parameter_shapes(cfg))
        assert names["ipa_embedding"] == (54, 256)

    def test_all_declared_parameters_present(self, small_weights):
        declared = dict(parameter_shapes(SMALL))
        assert set(small_weights.tensors) == set(declared)
        for name, shape in declared.items():
            assert small_weights.tensors[name].shape == shape

    def test_tensors_are_disjoint_views_of_one_buffer(self, small_weights):
        tensors = [small_weights.tensors[name] for name, _ in parameter_shapes(SMALL)]
        buffer = tensors[0].base
        assert buffer is not None and buffer.flags.owndata
        assert sum(t.nbytes for t in tensors) == buffer.nbytes
        address = buffer.__array_interface__["data"][0]
        for tensor in tensors:  # laid out end to end in declaration order
            assert tensor.base is buffer and tensor.flags.c_contiguous
            assert tensor.__array_interface__["data"][0] == address
            address += tensor.nbytes


# conv1/conv2 weights hold 1400 * 16 * 3 = 67,200 values: two block edges each
CROSSES_BLOCKS = ModelConfig(n_ipa_symbols=5, n_speakers=2, hidden=16, enc_layers=1,
                             dec_layers=1, conv_kernel=3, ff_channels=1400, n_mels=4)


def sequential_init(cfg, seed):
    """One tensor after another on the calling thread: the reference order."""
    master = Xorshift64Star(seed)
    return {name: uniform(master.next_u64(), shape, -0.1, 0.1)
            for name, shape in parameter_shapes(cfg)}


class TestParallelInit:
    @pytest.mark.parametrize("cpus", [1, 4, None])
    def test_equals_sequential_reference_for_any_pool_size(self, monkeypatch, cpus):
        assert max(np.prod(s) for _, s in parameter_shapes(CROSSES_BLOCKS)) > 2 * BLOCK
        sizes = []

        class Recording(model.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        if cpus is None:  # no affinity API: one worker per CPU
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 3)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        monkeypatch.setattr(model, "ThreadPoolExecutor", Recording)
        got = init_weights(CROSSES_BLOCKS, seed=13)
        assert sizes == ([] if cpus == 1 else [cpus or 3])  # one CPU: the caller fills
        want = sequential_init(CROSSES_BLOCKS, 13)
        assert list(got.tensors) == list(want)
        for name, tensor in want.items():
            assert tensor.shape == got.tensors[name].shape
            assert np.array_equal(tensor, got.tensors[name]), name

    def test_every_draw_passes_through_splitmix64_fill(self, monkeypatch):
        fill, drawn = prng.splitmix64_fill, []

        def counting(seed, n, out=None):
            out = fill(seed, n, out=out)
            drawn.append(out.size)  # list.append is atomic across threads
            return out

        monkeypatch.setattr(prng, "splitmix64_fill", counting)
        for _ in range(2):
            drawn.clear()
            init_weights(CROSSES_BLOCKS, seed=3)
            shapes = [shape for _, shape in parameter_shapes(CROSSES_BLOCKS)]
            assert len(drawn) == len(shapes)
            assert sum(drawn) == sum(int(np.prod(shape)) for shape in shapes)

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        init_weights(CROSSES_BLOCKS, seed=1)
        assert threading.active_count() == before

    def test_worker_failure_reaches_the_caller(self, monkeypatch):
        def failing(seed, shape, low, high, out=None):
            if shape == (1400,):
                raise MemoryError("no room")
            return uniform(seed, shape, low, high, out=out)

        before = threading.active_count()
        monkeypatch.setattr(model, "uniform", failing)
        with pytest.raises(MemoryError, match="no room"):
            init_weights(CROSSES_BLOCKS, seed=1)
        assert threading.active_count() == before

    def test_failed_fill_cancels_the_fills_not_started(self, monkeypatch):
        import time

        workers = 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(workers)))
        first_seed = Xorshift64Star(1).next_u64()
        started, lock = [], threading.Lock()

        def failing(seed, shape, low, high, out=None):
            with lock:
                started.append(seed)
            if seed == first_seed:
                raise RuntimeError("fill failed")
            time.sleep(0.2)  # keeps the other worker busy while the failure lands
            return np.zeros(shape)

        before = set(threading.enumerate())
        monkeypatch.setattr(model, "uniform", failing)
        with pytest.raises(RuntimeError, match="fill failed"):
            init_weights(SMALL, seed=1)
        # the failed fill, the one the other worker had started, and at most
        # one more that the failed worker took before the rest were cancelled
        assert len(started) <= workers + 1 < len(parameter_shapes(SMALL)), started
        assert set(threading.enumerate()) == before


class TestForward:
    def test_teacher_forced_row_count(self, small_weights):
        rng = np.random.default_rng(0)
        ids, lengths = random_input(rng, SMALL, 10)
        durations = [int(v) for v in rng.integers(0, 8, 10)]
        mode = TeacherForced(tuple(durations), (0.0,) * 10, (0.0,) * 10)
        out = forward(small_weights, ids, lengths, 0, mode)
        assert out.mel_pred.shape == (sum(durations), SMALL.n_mels)
        assert out.durations_used == tuple(durations)

    def test_bitwise_repeatable(self, small_weights):
        rng = np.random.default_rng(1)
        ids, lengths = random_input(rng, SMALL, 6)
        mode = TeacherForced((2,) * 6, (1.0,) * 6, (0.5,) * 6)
        a = forward(small_weights, ids, lengths, 1, mode)
        b = forward(small_weights, ids, lengths, 1, mode)
        for name in ("mel_pred", "dur_pred", "pitch_pred", "energy_pred"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.trace == b.trace

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_bytes_repeat_across_interpreters_at_one_blas_thread_count(self, threads):
        """Outputs are a pure function of (config, seed, inputs) at a fixed BLAS
        thread count; attention's batched products may round differently at
        another count, so only the same count is compared."""
        import subprocess
        import sys
        from pathlib import Path

        import xling

        script = (
            "import hashlib\n"
            "from xling.model import ModelConfig, TeacherForced, forward, init_weights\n"
            "cfg = ModelConfig(n_ipa_symbols=12, n_speakers=2, hidden=64, enc_layers=1,\n"
            "                  dec_layers=1, conv_kernel=3, ff_channels=128, n_mels=16)\n"
            "mode = TeacherForced((50,) * 6, (120.0,) * 6, (0.5,) * 6)\n"
            "out = forward(init_weights(cfg, 5), list(range(12)), [2] * 6, 1, mode)\n"
            "for part in (out.mel_pred, out.dur_pred):\n"
            "    print(hashlib.sha256(part.tobytes()).hexdigest())\n"
        )
        src = str(Path(xling.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        digests = [subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout
                   for _ in range(2)]
        assert digests[0] == digests[1] and len(digests[0].split()) == 2

    def test_trace_enumerates_dataflow(self, small_weights):
        ids, lengths = [0, 1, 2], [2, 1]
        out = forward(small_weights, ids, lengths, 0, Inference())
        total = sum(out.durations_used)
        H = SMALL.hidden
        stages = [(name, shape) for name, shape in out.trace]
        expected = [
            ("embed", (3, H)),
            ("encoder", (3, H)),
            ("aggregate", (2, H)),
            ("add_speaker", (2, H)),
            ("stopgrad:duration_predictor", (2, H)),
            ("duration_predictor", (2,)),
            ("stopgrad:pitch_predictor", (2, H)),
            ("pitch_predictor", (2,)),
            ("stopgrad:energy_predictor", (2, H)),
            ("energy_predictor", (2,)),
            ("pitch_embedding", (2, H)),
            ("expand", (total, H)),
            ("decoder", (total, H)),
            ("mel", (total, SMALL.n_mels)),
        ]
        assert stages == expected

    def test_inference_durations_nonnegative(self, small_weights):
        rng = np.random.default_rng(2)
        ids, lengths = random_input(rng, SMALL, 12)
        out = forward(small_weights, ids, lengths, 2, Inference())
        assert all(d >= 0 for d in out.durations_used)
        expected = np.maximum(np.round(np.exp(out.dur_pred)), 0.0).astype(int)
        assert out.durations_used == tuple(expected)
        assert out.mel_pred.shape[0] == sum(out.durations_used)

    def _with_duration_bias(self, weights, bias):
        tensors = dict(weights.tensors)
        tensors["duration_predictor.proj.bias"] = np.array([bias])
        return Weights(weights.config, tensors)

    def test_inference_durations_clamped(self, small_weights):
        for bias in (12.0, 800.0):
            weights = self._with_duration_bias(small_weights, bias)
            out = forward(weights, [0, 1, 2], [2, 1], 0, Inference())
            assert out.durations_used == (MAX_FRAMES_PER_PHONEME,) * 2
            assert out.mel_pred.shape == (2 * MAX_FRAMES_PER_PHONEME, SMALL.n_mels)

    def test_inference_durations_underflow_to_zero(self, small_weights):
        weights = self._with_duration_bias(small_weights, -800.0)
        out = forward(weights, [0, 1, 2], [2, 1], 0, Inference())
        assert out.durations_used == (0, 0)

    def test_teacher_forced_frames_capped_before_weights(self):
        def mode(total):
            return TeacherForced((total - 1, 1), (0.0, 0.0), (0.0, 0.0))

        model.check_inputs(SMALL, [0, 1, 2], [2, 1], 0, mode(MAX_DECODER_FRAMES))
        with pytest.raises(TooLargeError, match=f"sum to {MAX_DECODER_FRAMES + 1} frames"):
            model.check_inputs(SMALL, [0, 1, 2], [2, 1], 0, mode(MAX_DECODER_FRAMES + 1))

    @pytest.mark.parametrize("mode", [Inference(), TeacherForced((1,), (0.0,), (0.0,))])
    def test_encoder_rows_capped_before_weights(self, mode):
        model.check_inputs(SMALL, [0] * MAX_DECODER_FRAMES, [MAX_DECODER_FRAMES], 0, mode)
        too_many = MAX_DECODER_FRAMES + 1
        with pytest.raises(TooLargeError, match=f"^{too_many} IPA symbols, above the "
                                                f"encoder's cap of {MAX_DECODER_FRAMES}"):
            model.check_inputs(SMALL, [0] * too_many, [too_many], 0, mode)

    def test_negative_teacher_forced_duration_before_weights(self):
        mode = TeacherForced((4, -1), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(LengthMismatchError, match="^teacher-forced durations must all "
                                                      "be >= 0$"):
            model.check_inputs(SMALL, [0, 1, 2], [2, 1], 0, mode)

    @pytest.mark.parametrize("pitch, energy, name", [
        ((0.0, np.nan), (0.0, 0.0), "pitch"), ((0.0, 0.0), (np.inf, 0.0), "energy"),
    ])
    def test_non_finite_teacher_forced_values_before_weights(self, pitch, energy, name):
        mode = TeacherForced((2, 1), pitch, energy)
        with pytest.raises(ConfigMismatchError,
                           match=f"^teacher-forced {name} has non-finite values$"):
            model.check_inputs(SMALL, [0, 1, 2], [2, 1], 0, mode)

    @pytest.mark.parametrize("value", [np.nextafter(MAX_PITCH_HZ, np.inf), -1e155, 1e200])
    def test_huge_teacher_forced_pitch_before_weights(self, value):
        mode = TeacherForced((2, 1), (100.0, value), (0.0, 0.0))
        with pytest.raises(ConfigMismatchError, match="^teacher-forced pitch has values "
                                                      "above 2147483648 Hz in magnitude$"):
            model.check_inputs(SMALL, [0, 1, 2], [2, 1], 0, mode)

    def test_pitch_at_the_cap_is_finite_through_the_decoder(self, small_weights):
        mode = TeacherForced((2, 1), (MAX_PITCH_HZ, -MAX_PITCH_HZ), (0.0, 0.0))
        assert np.isfinite(forward(small_weights, [0, 1, 2], [2, 1], 0, mode).mel_pred).all()

    def test_inferred_frames_capped(self, small_weights):
        n = MAX_DECODER_FRAMES // MAX_FRAMES_PER_PHONEME + 1
        weights = self._with_duration_bias(small_weights, 800.0)
        with pytest.raises(TooLargeError, match=f"inferred durations sum to "
                                                f"{n * MAX_FRAMES_PER_PHONEME} frames"):
            forward(weights, [0] * n, [1] * n, 0, Inference())

    @pytest.mark.parametrize("bias", [np.nan, np.inf])
    def test_inference_non_finite_durations_rejected(self, small_weights, bias):
        weights = self._with_duration_bias(small_weights, bias)
        with pytest.raises(ShapeMismatchError, match="non-finite"):
            forward(weights, [0, 1, 2], [2, 1], 0, Inference())

    def test_speakers_change_values_not_shapes(self, small_weights):
        rng = np.random.default_rng(3)
        ids, lengths = random_input(rng, SMALL, 5)
        mode = TeacherForced((1,) * 5, (0.0,) * 5, (0.0,) * 5)
        a = forward(small_weights, ids, lengths, 0, mode)
        b = forward(small_weights, ids, lengths, 1, mode)
        assert a.mel_pred.shape == b.mel_pred.shape
        assert not np.array_equal(a.mel_pred, b.mel_pred)

    def test_regulator_is_shared(self, small_weights, monkeypatch):
        captured = {}
        original = regulator.aggregate

        def spy(X, lengths):
            result = original(X, lengths)
            captured["result"] = result
            return result

        import xling.model as model_module

        monkeypatch.setattr(model_module.regulator, "aggregate", spy)
        ids, lengths = [0, 1, 2, 3], [1, 3]
        out = forward(small_weights, ids, lengths, 0, Inference())
        assert captured["result"].shape == dict(out.trace)["aggregate"]

    def test_empty_sequence(self, small_weights):
        out = forward(small_weights, [], [], 0, Inference())
        assert out.mel_pred.shape == (0, SMALL.n_mels)
        assert out.durations_used == ()

    def test_id_out_of_range(self, small_weights):
        with pytest.raises(ShapeMismatchError):
            forward(small_weights, [SMALL.n_ipa_symbols], [1], 0, Inference())

    def test_unknown_speaker(self, small_weights):
        with pytest.raises(UnknownSpeakerError):
            forward(small_weights, [0], [1], 17, Inference())

    @pytest.mark.parametrize("speaker", [0.5, np.float64(1.0), True],
                             ids=["fraction", "float64", "bool"])
    def test_speaker_must_be_an_integer(self, small_weights, speaker):
        with pytest.raises(UnknownSpeakerError, match=" is not an integer$"):
            forward(small_weights, [0, 1], [1, 1], speaker, Inference())

    def test_numpy_integer_speaker(self, small_weights):
        one = forward(small_weights, [0, 1], [1, 1], 1, Inference())
        other = forward(small_weights, [0, 1], [1, 1], np.int64(1), Inference())
        assert one.mel_pred.tobytes() == other.mel_pred.tobytes()

    def test_fractional_ids_refused(self, small_weights):
        with pytest.raises(ShapeMismatchError, match="^IPA ids must be whole numbers$"):
            forward(small_weights, [0.7, 1.9], [1, 1], 0, Inference())

    def test_length_id_disagreement(self, small_weights):
        with pytest.raises(ShapeMismatchError):
            forward(small_weights, [0, 1], [3], 0, Inference())

    def test_teacher_forced_length_check(self, small_weights):
        mode = TeacherForced((1, 1), (0.0, 0.0), (0.0, 0.0))
        with pytest.raises(ShapeMismatchError):
            forward(small_weights, [0, 1, 2], [1, 1, 1], 0, mode)


def teacher_forced(**fields):
    """A valid teacher-forced mode for two phonemes, with ``fields`` replaced."""
    return TeacherForced(**{"durations": (1, 1), "pitch": (100.0, 100.0),
                            "energy": (0.1, 0.1), **fields})


# anything a caller may pass: numbers, strings, None, nested lists of them
# (even or ragged), and arrays of rank 0-2
ANY_VALUE = st.one_of(
    st.recursive(st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
                 | st.text(max_size=2), lambda inner: st.lists(inner, max_size=3),
                 max_leaves=8),
    hnp.arrays(st.sampled_from(["f8", "i8", "?", "U2"]),
               hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3)),
)


class TestCheckInputsIsTheGate:
    """check_inputs refuses every bad input with one XlingError, so a caller
    that checks before it makes weights makes none for a bad call."""

    @pytest.fixture(autouse=True)
    def no_weights(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("weights made before the inputs were refused")

        monkeypatch.setattr(model, "init_weights", fail)

    @pytest.mark.parametrize("ids, mode, error, message", [
        ([0, 1, 2], teacher_forced(pitch=np.float64(100.0)), ShapeMismatchError,
         "teacher-forced pitch has shape (), expected one axis"),
        ([0, 1, 2], teacher_forced(pitch=np.ones((1, 2))), ShapeMismatchError,
         "teacher-forced pitch has shape (1, 2), expected one axis"),
        ([0, 1, 2], teacher_forced(energy=np.ones((2, 1))), ShapeMismatchError,
         "teacher-forced energy has shape (2, 1), expected one axis"),
        ([0, 1, 2], teacher_forced(durations=((1, 1), (1, 1))), LengthMismatchError,
         "teacher-forced durations must have one axis, got shape (2, 2)"),
        ([0, 1, 2], teacher_forced(pitch=("a", "b")), ConfigMismatchError,
         "teacher-forced pitch must hold numbers"),
        (None, Inference(), ShapeMismatchError, "IPA ids must be whole numbers"),
        (["a", "b", "c"], Inference(), ShapeMismatchError, "IPA ids must be whole numbers"),
        ([[0, 1], [2]], Inference(), ShapeMismatchError, "IPA ids must be whole numbers"),
        (np.int64(3), Inference(), ShapeMismatchError,
         "IPA ids have shape (), expected one axis"),
        ([[0, 1], [2, 3]], Inference(), ShapeMismatchError,
         "IPA ids have shape (2, 2), expected one axis"),
    ], ids=["pitch-0d", "pitch-row", "energy-column", "durations-2d", "pitch-strings",
            "ids-none", "ids-strings", "ids-ragged", "ids-0d", "ids-2d"])
    def test_refused_before_weights(self, ids, mode, error, message):
        with pytest.raises(error) as info:
            model.check_inputs(SMALL, ids, [2, 1], 0, mode)
            forward(model.init_weights(SMALL, 0), ids, [2, 1], 0, mode)
        assert str(info.value) == message

    @given(arg=st.sampled_from(["ids", "lengths", "speaker", "durations", "pitch", "energy"]),
           value=ANY_VALUE)
    def test_any_value_is_read_or_refused(self, arg, value):
        call = {"ids": [0, 1, 2], "lengths": [2, 1], "speaker": 0, **{arg: value}}
        mode = teacher_forced(**{key: value for key in ("durations", "pitch", "energy")
                                 if key == arg})
        try:
            model.check_inputs(SMALL, call["ids"], call["lengths"], call["speaker"], mode)
        except XlingError:
            pass


def einsum_attention(x, p, prefix):
    """The attention as first written with einsum: the equivalence reference."""
    T, H = x.shape
    head = H // ATTN_HEADS
    q = (x @ p[f"{prefix}.wq"] + p[f"{prefix}.bq"]).reshape(T, ATTN_HEADS, head)
    k = (x @ p[f"{prefix}.wk"] + p[f"{prefix}.bk"]).reshape(T, ATTN_HEADS, head)
    v = (x @ p[f"{prefix}.wv"] + p[f"{prefix}.bv"]).reshape(T, ATTN_HEADS, head)
    scores = np.einsum("thd,shd->hts", q, k) / np.sqrt(head)
    scores -= scores.max(axis=-1, keepdims=True)
    weights = np.exp(scores)
    weights /= weights.sum(axis=-1, keepdims=True)
    mixed = np.einsum("hts,shd->thd", weights, v).reshape(T, H)
    return mixed @ p[f"{prefix}.wo"] + p[f"{prefix}.bo"]


def single_product_conv(x, p, name):
    """The convolution as one product over all ``T`` rows: the blocks' reference."""
    weight = p[f"{name}.weight"]
    k = weight.shape[2]
    padded = np.pad(x, ((k // 2, k // 2), (0, 0)))
    flat = np.lib.stride_tricks.sliding_window_view(padded, k, axis=0).reshape(len(x), -1)
    return flat @ weight.reshape(weight.shape[0], -1).T + p[f"{name}.bias"]


def paper_conv(c_in, c_out, k=9, seed=0):
    rng = np.random.default_rng(seed)
    return {"conv.weight": rng.uniform(-0.1, 0.1, (c_out, c_in, k)),
            "conv.bias": rng.uniform(-0.1, 0.1, c_out)}


def conv_rows(c_in, k=9):
    return model.CONV_SCRATCH_BYTES // (8 * c_in * k)


# decoder conv1 (256 -> 1024) and conv2 (1024 -> 256) at the paper's kernel of 9
PAPER_CONVS = pytest.mark.parametrize("c_in, c_out", [(256, 1024), (1024, 256)],
                                      ids=["conv1", "conv2"])


class TestConvBlocks:
    def test_row_blocks_cover_the_rows_with_none_of_one_row(self):
        for rows in (3, 4, 170):
            for n in range(1, 3 * rows + 3):
                blocks = model._row_blocks(n, rows)
                assert blocks[0][0] == 0 and blocks[-1][1] == n
                assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
                sizes = [stop - start for start, stop in blocks]
                assert len(blocks) == -(-n // rows) and max(sizes) <= rows
                assert max(sizes) - min(sizes) <= 1 and (n == 1 or min(sizes) > 1)

    @PAPER_CONVS
    def test_equals_the_single_product_for_every_length(self, monkeypatch, c_in, c_out):
        # eight-row blocks, so that every T up to three blocks + 2 stays cheap
        monkeypatch.setattr(model, "CONV_SCRATCH_BYTES", 8 * 8 * c_in * 9)
        p = paper_conv(c_in, c_out)
        x = np.random.default_rng(1).standard_normal((3 * 8 + 2, c_in))
        for T in range(1, 3 * 8 + 3):
            got = model._conv(x[:T], p, "conv")
            assert got.tobytes() == single_product_conv(x[:T], p, "conv").tobytes(), T

    @PAPER_CONVS
    def test_equals_the_single_product_where_the_budget_splits(self, c_in, c_out):
        rows = conv_rows(c_in)
        p = paper_conv(c_in, c_out)
        x = np.random.default_rng(2).standard_normal((3 * rows + 2, c_in))
        for T in (rows, rows + 1, 2 * rows + 1, 3 * rows + 2):
            got = model._conv(x[:T], p, "conv")
            assert got.tobytes() == single_product_conv(x[:T], p, "conv").tobytes(), T

    def test_conv1_stays_one_product_at_pipeline_lengths(self):
        # the d2 pipeline's decoder runs at up to about 500 frames, and every
        # extra block packs the whole weight matrix again
        assert conv_rows(256) >= 600

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_equal_in_fresh_interpreters_at_each_blas_thread_count(self, threads):
        import subprocess
        import sys
        from pathlib import Path

        import xling

        script = (
            "import numpy as np, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from xling import model\n"
            "from test_model import conv_rows, paper_conv, single_product_conv\n"
            "budget = model.CONV_SCRATCH_BYTES\n"
            "for c_in, c_out in ((256, 1024), (1024, 256)):\n"
            "    p, rows = paper_conv(c_in, c_out), conv_rows(c_in)\n"
            "    x = np.random.default_rng(3).standard_normal((3 * rows + 2, c_in))\n"
            "    for scratch, lengths in ((8 * 8 * c_in * 9, range(1, 27)),\n"
            "                             (budget, (rows + 1, 3 * rows + 2))):\n"
            "        model.CONV_SCRATCH_BYTES = scratch\n"
            "        for T in lengths:\n"
            "            got = model._conv(x[:T], p, 'conv').tobytes()\n"
            "            assert got == single_product_conv(x[:T], p, 'conv').tobytes(), T\n"
            "print('ok')\n"
        )
        src = str(Path(xling.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads)
        done = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.stdout == "ok\n", done.stderr

    def test_scratch_does_not_grow_with_length(self):
        import tracemalloc

        c_in, c_out, k = 1024, 256, 9
        p = paper_conv(c_in, c_out, k)
        x = np.random.default_rng(4).standard_normal((2000, c_in))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = model._conv(x, p, "conv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # one block's windows, plus the padded rows they are cut from
        scratch = model.CONV_SCRATCH_BYTES * (k + 1) // k + 8 * c_in * (k - 1)
        assert peak - out.nbytes <= scratch
        assert scratch < 2000 * c_in * k * 8 // 10  # a tenth of the single product's


class TestAttention:
    @pytest.mark.parametrize("T", [1, 7, 300])
    def test_matches_einsum_reference(self, small_weights, T):
        x = np.random.default_rng(T).standard_normal((T, SMALL.hidden))
        got = _attention(x, small_weights.tensors, "encoder.0.attn")
        expected = einsum_attention(x, small_weights.tensors, "encoder.0.attn")
        assert got.shape == (T, SMALL.hidden)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_empty_sequence_skips_block(self, small_weights):
        x = np.zeros((0, SMALL.hidden))
        out = _fft_block(x, small_weights.tensors, "decoder.0")
        assert out.shape == (0, SMALL.hidden)


class TestLosses:
    def _output(self, weights):
        rng = np.random.default_rng(5)
        ids, lengths = random_input(rng, SMALL, 4)
        mode = TeacherForced((2,) * 4, (1.0,) * 4, (1.0,) * 4)
        return forward(weights, ids, lengths, 0, mode)

    def test_zero_when_targets_match(self, small_weights):
        out = self._output(small_weights)
        targets = {
            "mel": out.mel_pred,
            "log_durations": out.dur_pred,
            "pitch": out.pitch_pred,
            "energy": out.energy_pred,
        }
        assert all(v == 0.0 for v in mse_losses(out, targets).values())

    def test_unit_difference(self, small_weights):
        out = self._output(small_weights)
        targets = {
            "mel": out.mel_pred + 1.0,
            "log_durations": out.dur_pred,
            "pitch": out.pitch_pred,
            "energy": out.energy_pred,
        }
        assert mse_losses(out, targets)["mel_loss"] == pytest.approx(1.0)

    def test_matches_two_loop_oracle(self, small_weights):
        out = self._output(small_weights)
        rng = np.random.default_rng(6)
        target = rng.standard_normal(out.mel_pred.shape)
        targets = {
            "mel": target,
            "log_durations": out.dur_pred,
            "pitch": out.pitch_pred,
            "energy": out.energy_pred,
        }
        got = mse_losses(out, targets)["mel_loss"]
        acc, count = 0.0, 0
        for i in range(out.mel_pred.shape[0]):
            for j in range(out.mel_pred.shape[1]):
                diff = out.mel_pred[i, j] - target[i, j]
                acc += diff * diff
                count += 1
        assert abs(got - acc / count) < 1e-12

    def test_shape_mismatch(self, small_weights):
        out = self._output(small_weights)
        targets = {
            "mel": np.zeros((1, 1)),
            "log_durations": out.dur_pred,
            "pitch": out.pitch_pred,
            "energy": out.energy_pred,
        }
        with pytest.raises(ShapeMismatchError):
            mse_losses(out, targets)
