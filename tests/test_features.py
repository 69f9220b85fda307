import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xling.audio import AudioBuffer
from xling.errors import (
    BadConfigError,
    ConfigMismatchError,
    EmptyAudioError,
    LengthMismatchError,
    TooLargeError,
)
from xling.features import (
    FRAME_BLOCK,
    LINEAR,
    LOG,
    MAX_FFT_SIZE,
    MAX_QUANTIZER_BINS,
    NCCF_FLOOR,
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

SR = 16000


def tone(f0, seconds=1.0, amp=0.4, sr=SR):
    t = np.arange(int(seconds * sr)) / sr
    return AudioBuffer(amp * np.sin(2 * np.pi * f0 * t), sr)


@pytest.fixture(scope="module")
def cfg():
    return FeatureConfig()


class TestConfig:
    def test_defaults_match_frontend_setup(self, cfg):
        assert cfg.win_length == 640 and cfg.hop_length == 160
        assert cfg.n_mels == 80 and cfg.sample_rate == 16000

    def test_fractional_window_rejected(self):
        # 25 ms at 22050 Hz is 551.25 samples
        with pytest.raises(BadConfigError):
            FeatureConfig(sample_rate=22050, win_ms=25)

    def test_fft_must_cover_window(self):
        with pytest.raises(BadConfigError):
            FeatureConfig(fft_size=512)

    def test_band_limits(self):
        with pytest.raises(BadConfigError):
            FeatureConfig(fmin=9000.0)
        with pytest.raises(BadConfigError):
            FeatureConfig(fmax=9000.0)

    @pytest.mark.parametrize("n_mels", [0, -1])
    def test_at_least_one_mel_band(self, n_mels):
        with pytest.raises(BadConfigError, match="n_mels"):
            FeatureConfig(n_mels=n_mels)

    def test_fft_size_capped(self):
        assert FeatureConfig(fft_size=MAX_FFT_SIZE).fft_size == 8192
        with pytest.raises(TooLargeError, match="fft_size must be at most 8192"):
            FeatureConfig(fft_size=2 * MAX_FFT_SIZE)

    def test_n_mels_at_most_the_bins(self):
        assert FeatureConfig(n_mels=513).n_mels == 513
        with pytest.raises(TooLargeError, match="n_mels must be at most"):
            FeatureConfig(n_mels=514)

    @pytest.mark.parametrize("value", [-0.01, 1.0, 5.0])
    def test_voicing_threshold_below_one(self, value):
        with pytest.raises(BadConfigError, match="voicing_threshold"):
            FeatureConfig(voicing_threshold=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["fmin", "fmax", "log_floor", "f0_min", "f0_max",
                                       "voicing_threshold"])
    def test_float_fields_must_be_finite(self, field, value):
        with pytest.raises(BadConfigError, match=field):
            FeatureConfig(**{field: value})


class TestMelSpectrogram:
    def test_one_second_yields_101_frames(self, cfg):
        mel = mel_spectrogram(tone(220), cfg)
        assert mel.shape == (101, 80)

    def test_frame_count_formula(self, cfg):
        rng = np.random.default_rng(0)
        for n in [1, 159, 160, 161, 4242, 16000]:
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, n), SR)
            mel = mel_spectrogram(audio, cfg)
            assert mel.shape == (n // cfg.hop_length + 1, 80)

    def test_all_zero_audio_hits_log_floor(self, cfg):
        mel = mel_spectrogram(AudioBuffer(np.zeros(SR), SR), cfg)
        assert np.all(mel == np.log(cfg.log_floor))

    def test_entries_bounded_below(self, cfg):
        mel = mel_spectrogram(tone(330), cfg)
        assert np.all(mel >= np.log(cfg.log_floor))

    def test_rate_mismatch(self, cfg):
        with pytest.raises(ConfigMismatchError):
            mel_spectrogram(AudioBuffer(np.zeros(100), 22050), cfg)

    def test_empty_audio(self, cfg):
        with pytest.raises(EmptyAudioError):
            mel_spectrogram(AudioBuffer(np.zeros(0), SR), cfg)


class TestEnergy:
    def test_zero_audio_zero_energy(self, cfg):
        e = energy_per_frame(AudioBuffer(np.zeros(SR), SR), cfg)
        assert isinstance(e, np.ndarray) and e.dtype == np.float64 and e.ndim == 1
        assert np.all(e == 0.0)

    def test_matches_direct_summation_oracle(self, cfg):
        rng = np.random.default_rng(17)
        audio = AudioBuffer(rng.uniform(-0.8, 0.8, 12345), SR)
        magnitude = stft_magnitude(audio, cfg)
        got = energy_per_frame(audio, cfg)
        for t in range(magnitude.shape[0]):
            acc = 0.0
            for b in range(magnitude.shape[1]):
                acc += magnitude[t, b] * magnitude[t, b]
            expected = acc**0.5
            assert abs(got[t] - expected) <= 1e-9 * max(expected, 1e-30)

    def test_single_bin_l2_is_that_magnitude(self):
        mag = np.zeros(513)
        mag[37] = 2.5
        assert np.sqrt(np.sum(mag**2)) == 2.5

    def test_frame_grid_agreement(self, cfg):
        audio = tone(150, seconds=0.73)
        n_mel = mel_spectrogram(audio, cfg).shape[0]
        n_energy = energy_per_frame(audio, cfg).size
        n_pitch = pitch_per_frame(audio, cfg).size
        assert n_mel == n_energy == n_pitch


class TestPitch:
    def test_pure_tone_220(self, cfg):
        p = pitch_per_frame(tone(220), cfg)
        assert isinstance(p, np.ndarray) and p.dtype == np.float64 and p.ndim == 1
        voiced = p[p > 0]
        assert voiced.size >= 0.95 * p.size
        assert np.mean(np.abs(voiced - 220) <= 2.0) >= 0.95

    def test_silence_all_unvoiced(self, cfg):
        p = pitch_per_frame(AudioBuffer(np.zeros(SR), SR), cfg)
        assert np.all(p == 0.0)

    def test_half_padded_edge_frames_read_the_tone(self, cfg):
        # frame 0 is half zero padding; at its longest lags the leading
        # sub-frame is silent and its NCCF denominator is rounding noise
        p = pitch_per_frame(tone(200, seconds=0.1, amp=0.3), cfg)
        assert p.size == 11
        assert np.all(np.abs(p - 200.0) <= 0.1)

    def test_chirp_monotone_within_jitter(self, cfg):
        t = np.arange(SR) / SR
        phase = 2 * np.pi * (100 * t + 50 * t * t)  # 100 -> 200 Hz
        p = pitch_per_frame(AudioBuffer(0.4 * np.sin(phase), SR), cfg)
        voiced = p[p > 0]
        assert voiced.size > 50
        assert np.all(np.diff(voiced) >= -3.0)

    def test_voiced_range_contract(self, cfg):
        rng = np.random.default_rng(3)
        audio = AudioBuffer(rng.uniform(-0.9, 0.9, SR), SR)
        values = pitch_per_frame(audio, cfg)
        voiced = values[values > 0]
        assert np.all((voiced >= cfg.f0_min) & (voiced <= cfg.f0_max))

    @given(config=st.sampled_from([(40, 10), (10, 20)]),
           kind=st.sampled_from(["sine", "noise", "silence"]),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=60)
    def test_audio_up_to_a_window_long(self, config, kind, seed, data):
        """Pitch is defined on any non-empty audio, shorter than one window
        too: one value per frame of the shared grid, each unvoiced or in
        the f0 range, with no RuntimeWarning on the way."""
        cfg = FeatureConfig(win_ms=config[0], hop_ms=config[1])
        n = data.draw(st.integers(1, cfg.win_length + 1), label="n")
        rng = np.random.default_rng(seed)
        x = (0.4 * np.sin(2 * np.pi * 180 * np.arange(n) / SR) if kind == "sine"
             else rng.uniform(-0.9, 0.9, n) if kind == "noise" else np.zeros(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            p = pitch_per_frame(AudioBuffer(x, SR), cfg)
        assert p.shape == (n // cfg.hop_length + 1,)
        assert np.all((p == 0.0) | ((p >= cfg.f0_min) & (p <= cfg.f0_max)))


class TestAverageByPhoneme:
    def test_constant_series(self):
        out = average_by_phoneme(np.full(10, 3.25), [4, 5, 1])
        assert np.array_equal(out, [3.25, 3.25, 3.25])

    def test_pitch_excludes_unvoiced(self):
        pitch = [100.0, 110.0, 0.0, 120.0]
        assert average_by_phoneme(pitch, [2, 2], voiced_only=True).tolist() == [105.0, 120.0]

    def test_all_unvoiced_segment_is_zero(self):
        assert average_by_phoneme([0.0, 0.0, 0.0], [3], voiced_only=True).tolist() == [0.0]

    def test_zero_duration_segment_is_zero(self):
        assert average_by_phoneme([1.0, 2.0], [1, 0, 1]).tolist() == [1.0, 0.0, 2.0]

    def test_all_ones_is_identity_on_energy(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 10, 20)
        assert np.array_equal(average_by_phoneme(values, [1] * 20), values)

    def test_energy_keeps_zero_frames(self):
        assert average_by_phoneme([0.0, 2.0], [2]).tolist() == [1.0]
        assert average_by_phoneme([0.0, 2.0], [2], voiced_only=True).tolist() == [2.0]

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            average_by_phoneme([1.0, 2.0], [3])

    @pytest.mark.parametrize("values", [np.ones((3, 2)), np.float64(1.0)], ids=["2d", "0d"])
    def test_values_not_on_one_axis(self, values):
        with pytest.raises(LengthMismatchError, match=re.escape(
                f"values must have one axis, got shape {values.shape}")):
            average_by_phoneme(values, [values.size])

    @given(st.lists(st.integers(0, 12), max_size=10).flatmap(lambda durations: st.tuples(
        st.just(durations),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                 min_size=sum(durations), max_size=sum(durations)))),
        st.booleans())
    @example(([2, 0, 3], [0.0, 0.0, 0.0, 0.0, 5.0]), True)
    @example(([2, 0, 3], [0.0, 0.0, 0.0, 0.0, 5.0]), False)
    @settings(max_examples=200, deadline=None)
    def test_matches_a_frame_by_frame_loop(self, case, voiced_only):
        durations, values = case
        segments = [[] for _ in durations]
        owner = [i for i, n in enumerate(durations) for _ in range(n)]
        for i, value in zip(owner, values):
            if value > 0.0 or not voiced_only:
                segments[i].append(value)
        expected = [np.mean(seg) if seg else 0.0 for seg in segments]
        got = average_by_phoneme(values, durations, voiced_only=voiced_only)
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(expected, dtype=np.float64).tobytes()


class TestQuantizer:
    def test_bins_capped_where_float64_is_exact(self):
        q = QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=MAX_QUANTIZER_BINS)
        assert quantize([1.0], q)[0] == 2**53 - 1
        with pytest.raises(TooLargeError, match="n_bins must be at most"):
            QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=MAX_QUANTIZER_BINS + 1)

    def test_boundaries(self):
        q = QuantizerConfig(v_min=0.0, v_max=4.0, n_bins=4)
        assert quantize([0.0], q)[0] == 0
        assert quantize([4.0], q)[0] == 3
        assert quantize([-7.0], q)[0] == 0
        assert quantize([99.0], q)[0] == 3
        assert quantize([-np.inf, np.inf], q).tolist() == [0, 3]

    @pytest.mark.parametrize("scale", [LINEAR, LOG])
    def test_nan_is_refused(self, scale):
        q = QuantizerConfig(v_min=1.0, v_max=4.0, n_bins=4, scale=scale)
        with pytest.raises(ConfigMismatchError, match="^cannot quantize NaN values$"):
            quantize([2.0, np.nan], q)

    def test_even_linear_spacing(self):
        q = QuantizerConfig(v_min=0.0, v_max=4.0, n_bins=4)
        assert quantize([1.0], q)[0] == 1
        assert quantize([2.5], q)[0] == 2

    def test_monotone(self):
        for scale, lo in ((LINEAR, -5.0), (LOG, 0.01)):
            q = QuantizerConfig(v_min=lo, v_max=100.0, n_bins=17, scale=scale)
            rng = np.random.default_rng(5)
            values = np.sort(rng.uniform(lo - 1 if scale == LINEAR else lo, 120, 500))
            idx = quantize(values, q)
            assert np.all(np.diff(idx) >= 0)

    @pytest.mark.parametrize("scale,lo,hi", [(LINEAR, -3.0, 7.0), (LOG, 0.05, 900.0)])
    def test_round_trip_within_one_bin(self, scale, lo, hi):
        q = QuantizerConfig(v_min=lo, v_max=hi, n_bins=256, scale=scale)
        rng = np.random.default_rng(6)
        values = rng.uniform(lo, hi, 1000)
        idx = quantize(values, q)
        recovered = dequantize(idx, q)
        if scale == LINEAR:
            widths = np.full_like(values, (hi - lo) / q.n_bins)
        else:
            edges = np.exp(np.linspace(np.log(lo), np.log(hi), q.n_bins + 1))
            widths = (edges[1:] - edges[:-1])[idx]
        clamped = np.clip(values, lo, hi)
        assert np.all(np.abs(recovered - clamped) <= widths)

    def test_index_range(self):
        q = QuantizerConfig(v_min=1.0, v_max=2.0, n_bins=256, scale=LOG)
        rng = np.random.default_rng(7)
        idx = quantize(rng.uniform(0, 3, 1000), q)
        assert idx.min() >= 0 and idx.max() <= 255

    def test_bad_configs(self):
        with pytest.raises(BadConfigError):
            QuantizerConfig(v_min=2.0, v_max=1.0)
        with pytest.raises(BadConfigError):
            QuantizerConfig(v_min=0.0, v_max=1.0, scale=LOG)
        with pytest.raises(BadConfigError):
            QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=0)
        with pytest.raises(BadConfigError):
            dequantize([5], QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=4))

    @pytest.mark.parametrize("index, message", [
        (-0.5, "indices outside [0, 3]"), (0.5, "indices must be whole numbers"),
        (np.nan, "indices outside [0, 3]"),
    ])
    def test_dequantize_refuses_a_non_whole_index(self, index, message):
        with pytest.raises(BadConfigError) as info:
            dequantize([1, index], QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=4))
        assert str(info.value) == message

    def test_dequantize_reads_whole_floats(self):
        q = QuantizerConfig(v_min=0.0, v_max=1.0, n_bins=4)
        assert dequantize([[1.0, 3.0]], q).tobytes() == dequantize([[1, 3]], q).tobytes()

    @pytest.mark.parametrize("v_min, v_max", [
        (0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0), (0.0, float("nan")),
    ])
    def test_range_must_be_finite(self, v_min, v_max):
        with pytest.raises(BadConfigError):
            QuantizerConfig(v_min=v_min, v_max=v_max)


class TestWindow:
    @pytest.mark.parametrize("n", [1, 2, 3, 640, 641, 1024])
    def test_hann_matches_scipy_bit_for_bit(self, n):
        from scipy.signal import get_window

        from xling.features import _hann

        assert _hann(n).tobytes() == get_window("hann", n, fftbins=True).tobytes()

    def test_zero_length_window_rejected(self):
        with pytest.raises(BadConfigError):
            FeatureConfig(win_ms=0)
        with pytest.raises(BadConfigError):
            FeatureConfig(hop_ms=0)


# ---------------------------------------------------------------- references
# The implementations the strided framing and the vectorised pitch picker
# replaced, kept as oracles: outputs must match them bit for bit.

def fancy_index_frames(samples, cfg, mode="reflect"):
    win, hop = cfg.win_length, cfg.hop_length
    pad = win // 2
    n = samples.size
    if mode == "reflect" and n <= pad:
        mode = "constant"
    padded = np.pad(samples, pad, mode=mode)
    n_frames = n // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(n_frames)[:, None]
    return padded[idx]


def loop_pick(nccf, total, lags, cfg):
    """Per-frame NCCF peak rule: first peak within 15% of the best, refined."""
    values = np.zeros(nccf.shape[0])
    interior = nccf[:, 1:-1]
    is_peak = (interior >= nccf[:, :-2]) & (interior >= nccf[:, 2:])
    for t in range(nccf.shape[0]):
        if total[t] <= 0.0:
            continue
        peaks = np.flatnonzero(is_peak[t])
        if peaks.size == 0:
            continue
        best = interior[t, peaks].max()
        if best < cfg.voicing_threshold:
            continue
        j = peaks[interior[t, peaks] >= 0.85 * best][0] + 1
        left, mid, right = nccf[t, j - 1], nccf[t, j], nccf[t, j + 1]
        curvature = left - 2.0 * mid + right
        offset = 0.0 if curvature >= 0 else 0.5 * (left - right) / curvature
        lag = lags[j] + np.clip(offset, -0.5, 0.5)
        values[t] = float(np.clip(cfg.sample_rate / lag, cfg.f0_min, cfg.f0_max))
    return values


def reference_pitch(samples, cfg):
    frames = fancy_index_frames(samples, cfg, mode="constant")
    frames = frames - frames.mean(axis=1, keepdims=True)
    win = cfg.win_length
    lag_min = max(1, int(np.ceil(cfg.sample_rate / cfg.f0_max)))
    lag_max = min(win - 1, int(np.floor(cfg.sample_rate / cfg.f0_min)))
    fft_len = 1 << (win + lag_max).bit_length()
    spectrum = np.fft.rfft(frames, n=fft_len, axis=1)
    autocorr = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=fft_len, axis=1)
    csum = np.concatenate(
        [np.zeros((frames.shape[0], 1)), np.cumsum(frames**2, axis=1)], axis=1
    )
    total = csum[:, -1]
    lags = np.arange(lag_min - 1, lag_max + 2)
    denom = np.sqrt(csum[:, win - lags] * (total[:, None] - csum[:, lags]))
    with np.errstate(invalid="ignore", divide="ignore"):
        nccf = np.where(denom > NCCF_FLOOR * total[:, None],
                        autocorr[:, lags] / denom, 0.0)
    return loop_pick(nccf, total, lags, cfg)


class TestFraming:
    @pytest.mark.parametrize("mode", ["reflect", "constant"])
    @pytest.mark.parametrize("n", [1, 320, 321, 159, 160, 16000, 16001])
    def test_strided_view_matches_fancy_index(self, cfg, mode, n):
        # n covers 1, pad, pad + 1, hop - 1, hop and a whole/odd second
        from xling.features import _frame_signal

        samples = np.random.default_rng(n).uniform(-1, 1, n)
        got = _frame_signal(samples, cfg, mode)
        want = fancy_index_frames(samples, cfg, mode)
        assert got.shape == want.shape == (n // cfg.hop_length + 1, cfg.win_length)
        assert got.tobytes() == want.tobytes()

    def test_odd_window_keeps_the_frame_count(self):
        # 441-sample window and hop: the last frame of a whole number of hops
        # starts at len(samples) and needs one sample past the center pad
        odd = FeatureConfig(sample_rate=11025, win_ms=40, hop_ms=40, fmax=5000.0)
        assert odd.win_length == odd.hop_length == 441
        rng = np.random.default_rng(8)
        for n in (441, 3 * 441, 3 * 441 + 5):
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, n), 11025)
            assert mel_spectrogram(audio, odd).shape == (n // 441 + 1, 80)
            assert pitch_per_frame(audio, odd).size == n // 441 + 1


class TestMelBands:
    def test_matches_direct_per_filter_summation_oracle(self, cfg):
        from xling.features import mel_filterbank

        rng = np.random.default_rng(29)
        audio = AudioBuffer(rng.uniform(-0.8, 0.8, 12345), SR)
        magnitude = stft_magnitude(audio, cfg)
        fb = mel_filterbank(cfg)
        got = mel_spectrogram(audio, cfg)
        for m in range(cfg.n_mels):
            bins = np.flatnonzero(fb[m])
            for t in range(magnitude.shape[0]):
                acc = 0.0
                for b in bins:
                    acc += magnitude[t, b] * fb[m, b]
                expected = max(acc, cfg.log_floor)
                # |log a - log b| bounds the relative difference of a and b
                assert abs(got[t, m] - np.log(expected)) <= 1e-12

    def test_bands_are_cached_and_read_only(self, cfg):
        from xling.features import _mel_bands

        bands = _mel_bands(cfg)
        assert _mel_bands(FeatureConfig()) is bands
        assert len(bands) == cfg.n_mels
        for lo, hi, weights in bands:
            assert 0 <= lo < hi <= cfg.fft_size // 2 + 1
            assert weights.size == hi - lo and not weights.flags.writeable
            with pytest.raises(ValueError):
                weights[0] = 1.0

    def test_bands_built_once_by_racing_threads(self, monkeypatch):
        import threading
        import time

        from xling import features

        calls = []
        build = features.mel_filterbank

        def slow_filterbank(cfg):
            calls.append(cfg)
            time.sleep(0.05)  # every thread misses the cache while this one builds
            return build(cfg)

        monkeypatch.setattr(features, "mel_filterbank", slow_filterbank)
        cfg = FeatureConfig(n_mels=37, fmin=31.0)  # bands no other test builds
        audio = tone(200.0, seconds=0.1)
        start = threading.Barrier(4)
        mels = []

        def worker():
            start.wait()
            mels.append(mel_spectrogram(audio, cfg))

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert calls == [cfg]
        assert len(mels) == 4 and all(np.array_equal(m, mels[0]) for m in mels)

    def test_bytes_do_not_depend_on_blas_threads(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        import xling

        script = (
            "import hashlib, numpy as np\n"
            "from xling.audio import AudioBuffer\n"
            "from xling.features import FeatureConfig, mel_spectrogram\n"
            "rng = np.random.default_rng(11)\n"
            "t = np.arange(6 * 16000) / 16000\n"
            "x = 0.4 * np.sin(2 * np.pi * 140 * t) + 0.1 * rng.standard_normal(t.size)\n"
            "mel = mel_spectrogram(AudioBuffer(x, 16000), FeatureConfig())\n"
            "print(hashlib.sha256(mel.tobytes()).hexdigest())\n"
        )
        src = str(Path(xling.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                                 capture_output=True, text=True, timeout=120)
            digests.append(out.stdout.strip())
        assert digests[0] == digests[1] and len(digests[0]) == 64


class TestPitchPicker:
    @given(
        f0=st.floats(60.0, 500.0),
        amp=st.floats(0.0, 0.9),
        noise=st.floats(0.0, 0.5),
        n=st.integers(640, 12000),
        silent=st.tuples(st.integers(0, 12000), st.integers(0, 4000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    def test_signals_match_per_frame_loop_bitwise(self, cfg, f0, amp, noise, n, silent, seed):
        t = np.arange(n) / SR
        rng = np.random.default_rng(seed)
        x = amp * np.sin(2 * np.pi * f0 * t) + noise * rng.standard_normal(n)
        x[silent[0] : silent[0] + silent[1]] = 0.0
        got = pitch_per_frame(AudioBuffer(x, SR), cfg)
        assert got.tobytes() == reference_pitch(x, cfg).tobytes()

    def test_fixed_cases_match_per_frame_loop(self, cfg):
        from xling.features import _pick_pitch

        below = np.nextafter(0.85, 0.0)
        rows = {
            "all zero, no energy": ([0.0] * 6, 0.0, False),
            "all zero, energy": ([0.0] * 6, 1.0, False),  # every lag a 0.0 peak
            "voiced but no energy": ([0.0, 0.9, 0.0, 0.0, 0.0, 0.0], 0.0, False),
            "no local peak": ([0.4, 0.5, 0.6, 0.7, 0.8, 0.9], 1.0, False),
            "plateau tie": ([0.1, 0.5, 0.9, 0.9, 0.9, 0.2], 1.0, True),
            "peak at exactly 0.85 best": ([0.0, 0.85, 0.0, 1.0, 0.0, 0.0], 1.0, True),
            "peak just below 0.85 best": ([0.0, below, 0.0, 1.0, 0.0, 0.0], 1.0, True),
            "best equals threshold": ([0.0, 0.1, 0.3, 0.2, 0.0, 0.0], 1.0, True),
            "best just below threshold": (
                [0.0, 0.1, np.nextafter(0.3, 0.0), 0.2, 0.0, 0.0], 1.0, False),
            "flat peak, zero curvature": ([0.6, 0.6, 0.6, 0.1, 0.0, 0.0], 1.0, True),
            "asymmetric peak": ([0.0, 0.3, 0.95, 0.7, 0.1, 0.0], 1.0, True),
        }
        nccf = np.array([r[0] for r in rows.values()])
        total = np.array([r[1] for r in rows.values()])
        lags = np.arange(26, 32)
        got = _pick_pitch(nccf, total, lags, cfg)
        assert got.tobytes() == loop_pick(nccf, total, lags, cfg).tobytes()
        assert [v > 0 for v in got] == [r[2] for r in rows.values()]
        at = dict(zip(rows, got))
        assert at["peak at exactly 0.85 best"] == SR / 27  # the first peak wins
        assert at["peak just below 0.85 best"] == SR / 29
        assert at["flat peak, zero curvature"] == SR / 27

    @pytest.mark.parametrize("n_lags", [0, 1, 2, 3])
    def test_lag_ranges_without_interior(self, cfg, n_lags):
        from xling.features import _pick_pitch

        nccf = np.full((4, n_lags), 0.9)
        total = np.ones(4)
        lags = np.arange(1, 1 + n_lags)
        got = _pick_pitch(nccf, total, lags, cfg)
        assert got.tobytes() == loop_pick(nccf, total, lags, cfg).tobytes()

    @given(
        values=st.lists(
            st.lists(st.sampled_from([-0.2, 0.0, 0.255, 0.3, 0.5, 0.85, 0.9, 1.0]),
                     min_size=8, max_size=8),
            min_size=1, max_size=10,
        ),
        energy=st.lists(st.sampled_from([0.0, 1.0]), min_size=10, max_size=10),
        first_lag=st.integers(1, 300),
    )
    @settings(max_examples=300)
    def test_random_nccf_matches_per_frame_loop(self, cfg, values, energy, first_lag):
        from xling.features import _pick_pitch

        nccf = np.array(values)
        total = np.array(energy[: nccf.shape[0]])
        lags = np.arange(first_lag, first_lag + nccf.shape[1])
        got = _pick_pitch(nccf, total, lags, cfg)
        assert got.tobytes() == loop_pick(nccf, total, lags, cfg).tobytes()


# ------------------------------------------------------- pitch FFT and blocks

def old_length_pitch(samples, cfg, pick=loop_pick):
    """``reference_pitch`` at the FFT length the pitch kernel used before it
    moved to the alias-free one: two windows, rounded up to a power of two."""
    frames = fancy_index_frames(samples, cfg, mode="constant")
    frames = frames - frames.mean(axis=1, keepdims=True)
    win = cfg.win_length
    lag_min = max(1, int(np.ceil(cfg.sample_rate / cfg.f0_max)))
    lag_max = min(win - 1, int(np.floor(cfg.sample_rate / cfg.f0_min)))
    fft_len = 1 << int(np.ceil(np.log2(2 * win)))
    spectrum = np.fft.rfft(frames, n=fft_len, axis=1)
    autocorr = np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=fft_len, axis=1)
    csum = np.concatenate(
        [np.zeros((frames.shape[0], 1)), np.cumsum(frames**2, axis=1)], axis=1
    )
    total = csum[:, -1]
    lags = np.arange(lag_min - 1, lag_max + 2)
    denom = np.sqrt(csum[:, win - lags] * (total[:, None] - csum[:, lags]))
    with np.errstate(invalid="ignore", divide="ignore"):
        nccf = np.where(denom > NCCF_FLOOR * total[:, None],
                        autocorr[:, lags] / denom, 0.0)
    return pick(nccf, total, lags, cfg)


class TestAliasFreePitchFFT:
    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 8),
        scale=st.sampled_from([1e-6, 1e-3, 0.5, 1.0]),
        dc=st.floats(-1.0, 1.0),
        silent=st.integers(0, 640),
    )
    @settings(max_examples=60)
    def test_autocorrelation_matches_the_double_length_fft(self, cfg, seed, rows, scale,
                                                          dc, silent):
        win = cfg.win_length
        lag_min = int(np.ceil(cfg.sample_rate / cfg.f0_max))
        lag_max = min(win - 1, int(np.floor(cfg.sample_rate / cfg.f0_min)))
        lags = np.arange(lag_min - 1, lag_max + 2)
        fft_len = 1 << (win + lag_max).bit_length()
        assert fft_len == 1024 and fft_len >= win + lags[-1]
        frames = dc + scale * np.random.default_rng(seed).standard_normal((rows, win))
        frames[:, :silent] = 0.0

        def autocorr(n):
            spectrum = np.fft.rfft(frames, n=n, axis=1)
            return np.fft.irfft(spectrum.real**2 + spectrum.imag**2, n=n, axis=1)[:, lags]

        energy = np.sum(frames**2, axis=1, keepdims=True)
        assert np.all(np.abs(autocorr(fft_len) - autocorr(2048)) <= 1e-12 * energy)

    def test_minicorpus_pitch_moves_only_at_rounding_level(self, cfg, minicorpus):
        from xling.audio import read_wav
        from xling.features import _pick_pitch

        frames = voiced = 0
        worst = 0.0
        for wav in sorted(minicorpus.rglob("*.wav")):
            samples = read_wav(wav).samples
            got = pitch_per_frame(AudioBuffer(samples, SR), cfg)
            # the vectorised picker: bitwise equal to loop_pick (TestPitchPicker)
            old = old_length_pitch(samples, cfg, pick=_pick_pitch)
            assert np.array_equal(got > 0, old > 0), wav  # no voicing flips
            on = old > 0
            worst = max(worst, float(np.max(np.abs(got[on] - old[on]) / old[on],
                                            initial=0.0)))
            frames += old.size
            voiced += int(on.sum())
        assert voiced > 0.5 * frames
        assert worst <= 1e-12

    @given(
        f0=st.floats(60.0, 500.0),
        amp=st.floats(0.0, 0.9),
        noise=st.floats(0.0, 0.5),
        n=st.integers(640, 12000),
        silent=st.tuples(st.integers(0, 12000), st.integers(0, 4000)),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40)
    # a whole-period sine: frame 0's silent edge once read 50 Hz in the oracle
    @example(f0=250.0, amp=0.5, noise=0.0, n=640, silent=(0, 0), seed=0)
    def test_noisy_signals_keep_their_voicing(self, cfg, f0, amp, noise, n, silent, seed):
        # unlike the all-tonal minicorpus, these have unvoiced frames to flip
        from xling.features import _pick_pitch

        t = np.arange(n) / SR
        rng = np.random.default_rng(seed)
        x = amp * np.sin(2 * np.pi * f0 * t) + noise * rng.standard_normal(n)
        x[silent[0] : silent[0] + silent[1]] = 0.0
        got = pitch_per_frame(AudioBuffer(x, SR), cfg)
        old = old_length_pitch(x, cfg, pick=_pick_pitch)
        assert np.array_equal(got > 0, old > 0)
        assert np.all(np.abs(got - old) <= 1e-12 * old)


class TestFrameBlocks:
    @pytest.mark.parametrize("win_ms, hop_ms", [(40, 10), (10, 20)])
    @pytest.mark.parametrize("n_frames",
                             [1, FRAME_BLOCK - 1, FRAME_BLOCK, FRAME_BLOCK + 1, 500])
    def test_blocked_equals_one_unblocked_call(self, monkeypatch, win_ms, hop_ms, n_frames):
        from xling import features

        # one frame is shorter than the window at 40/10 ms and longer at 10/20 ms
        cfg = FeatureConfig(win_ms=win_ms, hop_ms=hop_ms)
        n = n_frames * cfg.hop_length - 1  # n // hop + 1 == n_frames
        rng = np.random.default_rng(n_frames)
        t = np.arange(n) / SR
        audio = AudioBuffer(0.4 * np.sin(2 * np.pi * 180 * t) + 0.1 * rng.standard_normal(n),
                            SR)
        blocked = [stft_magnitude(audio, cfg), pitch_per_frame(audio, cfg)]
        monkeypatch.setattr(features, "FRAME_BLOCK", 1 << 30)
        whole = [stft_magnitude(audio, cfg), pitch_per_frame(audio, cfg)]
        assert blocked[0].shape == (n_frames, cfg.fft_size // 2 + 1)
        assert blocked[1].shape == (n_frames,)
        for got, want in zip(blocked, whole):
            assert got.tobytes() == want.tobytes()
