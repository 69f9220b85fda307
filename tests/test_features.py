import numpy as np
import pytest

from xling.audio import AudioBuffer
from xling.errors import (
    BadConfigError,
    ConfigMismatchError,
    EmptyAudioError,
    LengthMismatchError,
)
from xling.features import (
    ENERGY,
    LINEAR,
    LOG,
    PITCH_HZ,
    FeatureConfig,
    FrameSeries,
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


class TestMelSpectrogram:
    def test_one_second_yields_101_frames(self, cfg):
        mel = mel_spectrogram(tone(220), cfg)
        assert mel.frames.shape == (101, 80)

    def test_frame_count_formula(self, cfg):
        rng = np.random.default_rng(0)
        for n in [1, 159, 160, 161, 4242, 16000]:
            audio = AudioBuffer(rng.uniform(-0.5, 0.5, n), SR)
            mel = mel_spectrogram(audio, cfg)
            assert mel.frames.shape == (n // cfg.hop_length + 1, 80)

    def test_all_zero_audio_hits_log_floor(self, cfg):
        mel = mel_spectrogram(AudioBuffer(np.zeros(SR), SR), cfg)
        assert np.all(mel.frames == np.log(cfg.log_floor))

    def test_entries_bounded_below(self, cfg):
        mel = mel_spectrogram(tone(330), cfg)
        assert np.all(mel.frames >= np.log(cfg.log_floor))

    def test_rate_mismatch(self, cfg):
        with pytest.raises(ConfigMismatchError):
            mel_spectrogram(AudioBuffer(np.zeros(100), 22050), cfg)

    def test_empty_audio(self, cfg):
        with pytest.raises(EmptyAudioError):
            mel_spectrogram(AudioBuffer(np.zeros(0), SR), cfg)


class TestEnergy:
    def test_zero_audio_zero_energy(self, cfg):
        e = energy_per_frame(AudioBuffer(np.zeros(SR), SR), cfg)
        assert e.kind == ENERGY
        assert np.all(e.values == 0.0)

    def test_matches_direct_summation_oracle(self, cfg):
        rng = np.random.default_rng(17)
        audio = AudioBuffer(rng.uniform(-0.8, 0.8, 12345), SR)
        magnitude = stft_magnitude(audio, cfg)
        got = energy_per_frame(audio, cfg).values
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
        n_mel = mel_spectrogram(audio, cfg).frames.shape[0]
        n_energy = energy_per_frame(audio, cfg).values.size
        n_pitch = pitch_per_frame(audio, cfg).values.size
        assert n_mel == n_energy == n_pitch


class TestPitch:
    def test_pure_tone_220(self, cfg):
        p = pitch_per_frame(tone(220), cfg)
        assert p.kind == PITCH_HZ
        voiced = p.values[p.values > 0]
        assert voiced.size >= 0.95 * p.values.size
        assert np.mean(np.abs(voiced - 220) <= 2.0) >= 0.95

    def test_silence_all_unvoiced(self, cfg):
        p = pitch_per_frame(AudioBuffer(np.zeros(SR), SR), cfg)
        assert np.all(p.values == 0.0)

    def test_chirp_monotone_within_jitter(self, cfg):
        t = np.arange(SR) / SR
        phase = 2 * np.pi * (100 * t + 50 * t * t)  # 100 -> 200 Hz
        p = pitch_per_frame(AudioBuffer(0.4 * np.sin(phase), SR), cfg)
        voiced = p.values[p.values > 0]
        assert voiced.size > 50
        assert np.all(np.diff(voiced) >= -3.0)

    def test_voiced_range_contract(self, cfg):
        rng = np.random.default_rng(3)
        audio = AudioBuffer(rng.uniform(-0.9, 0.9, SR), SR)
        values = pitch_per_frame(audio, cfg).values
        voiced = values[values > 0]
        assert np.all((voiced >= cfg.f0_min) & (voiced <= cfg.f0_max))

    def test_too_short_audio(self, cfg):
        with pytest.raises(EmptyAudioError):
            pitch_per_frame(AudioBuffer(np.zeros(100), SR), cfg)


class TestAverageByPhoneme:
    def test_constant_series(self):
        series = FrameSeries(np.full(10, 3.25), ENERGY)
        out = average_by_phoneme(series, [4, 5, 1])
        assert np.array_equal(out, [3.25, 3.25, 3.25])

    def test_pitch_excludes_unvoiced(self):
        series = FrameSeries([100.0, 110.0, 0.0, 120.0], PITCH_HZ)
        assert average_by_phoneme(series, [2, 2]).tolist() == [105.0, 120.0]

    def test_all_unvoiced_segment_is_zero(self):
        series = FrameSeries([0.0, 0.0, 0.0], PITCH_HZ)
        assert average_by_phoneme(series, [3]).tolist() == [0.0]

    def test_zero_duration_segment_is_zero(self):
        series = FrameSeries([1.0, 2.0], ENERGY)
        assert average_by_phoneme(series, [1, 0, 1]).tolist() == [1.0, 0.0, 2.0]

    def test_all_ones_is_identity_on_energy(self):
        rng = np.random.default_rng(4)
        values = rng.uniform(0, 10, 20)
        series = FrameSeries(values, ENERGY)
        assert np.array_equal(average_by_phoneme(series, [1] * 20), values)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            average_by_phoneme(FrameSeries([1.0, 2.0], ENERGY), [3])


class TestQuantizer:
    def test_boundaries(self):
        q = QuantizerConfig(v_min=0.0, v_max=4.0, n_bins=4)
        assert quantize([0.0], q)[0] == 0
        assert quantize([4.0], q)[0] == 3
        assert quantize([-7.0], q)[0] == 0
        assert quantize([99.0], q)[0] == 3

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
