import re
import wave

import numpy as np
import pytest

from xling.audio import AudioBuffer, read_wav, wav_duration_sec, write_wav
from xling.errors import ConfigMismatchError, EmptyAudioError, ParseError


class TestWavIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.uniform(-0.9, 0.9, 4000)
        path = tmp_path / "a.wav"
        write_wav(path, samples, 16000)
        audio = read_wav(path)
        assert audio.sample_rate == 16000
        assert audio.samples.size == 4000
        np.testing.assert_allclose(audio.samples, samples, atol=0.5 / 32768)

    def test_any_rate_is_read(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.zeros(100), 22050)
        assert read_wav(path).sample_rate == 22050

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(16000)
            w.writeframes(b"\x00\x00" * 200)
        with pytest.raises(ConfigMismatchError):
            read_wav(path)

    def test_8bit_rejected(self, tmp_path):
        path = tmp_path / "8bit.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(1)
            w.setsampwidth(1)
            w.setframerate(16000)
            w.writeframes(b"\x00" * 100)
        with pytest.raises(ConfigMismatchError):
            read_wav(path)

    def test_duration_from_header(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.zeros(8000), 16000)
        assert wav_duration_sec(path) == pytest.approx(0.5)

    def test_empty_write_rejected(self, tmp_path):
        with pytest.raises(EmptyAudioError):
            write_wav(tmp_path / "e.wav", np.zeros(0), 16000)

    @pytest.mark.parametrize("samples, rate, detail", [
        (np.zeros((4, 2)), 16000, "audio samples must have one axis, got shape (4, 2)"),
        (np.array([0.0, np.nan]), 16000, "audio contains non-finite samples"),
        (np.zeros(4), 0, "sample rate must be positive, got 0"),
    ], ids=["stereo", "nan", "rate-0"])
    def test_write_checks_samples_as_an_audio_buffer(self, tmp_path, samples, rate, detail):
        path = tmp_path / "a.wav"
        with pytest.raises(ConfigMismatchError, match=re.escape(detail)):
            write_wav(path, samples, rate)
        assert not path.exists()

    def test_clipping_is_bounded(self, tmp_path):
        path = tmp_path / "loud.wav"
        write_wav(path, np.array([2.0, -2.0, 0.0]), 16000)
        audio = read_wav(path)
        assert np.all(np.abs(audio.samples) <= 1.0)


class TestAudioBuffer:
    def test_duration(self):
        assert AudioBuffer(np.zeros(8000), 16000).duration_sec == 0.5

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigMismatchError):
            AudioBuffer(np.array([0.0, np.nan]), 16000)

    @pytest.mark.parametrize("samples", [np.zeros((4, 2)), np.float64(0.5)],
                             ids=["stereo", "0d"])
    def test_samples_not_on_one_axis_rejected(self, samples):
        with pytest.raises(ConfigMismatchError, match="audio samples must have one axis"):
            AudioBuffer(samples, 16000)

    def test_bad_rate(self):
        with pytest.raises(ConfigMismatchError):
            AudioBuffer(np.zeros(10), 0)

    def test_no_samples_rejected(self, tmp_path):
        with pytest.raises(EmptyAudioError, match="^audio holds no samples$"):
            AudioBuffer(np.zeros(0), 16000)
        path = tmp_path / "e.wav"
        with pytest.raises(EmptyAudioError, match="^audio holds no samples$"):
            write_wav(path, [], 16000)
        assert not path.exists()


class TestUnreadableWav:
    @pytest.mark.parametrize("cut", [0, 4, 12, 20, 30], ids=lambda c: f"first {c} bytes")
    def test_cut_header_is_one_parse_error(self, tmp_path, cut):
        whole = tmp_path / "a.wav"
        write_wav(whole, np.full(100, 0.1), 16000)
        path = tmp_path / "cut.wav"
        path.write_bytes(whole.read_bytes()[:cut])
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: "):
                read(path)

    def test_riff_wave_without_chunks(self, tmp_path):
        path = tmp_path / "bare.wav"
        path.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(ParseError, match="fmt chunk and/or data chunk missing"):
                read(path)

    def test_chunk_running_past_the_end(self, tmp_path):
        whole = tmp_path / "a.wav"
        write_wav(whole, np.full(100, 0.1), 16000)
        data = whole.read_bytes()
        path = tmp_path / "shifted.wav"
        path.write_bytes(data[:12] + b"\x00" + data[12:])  # chunk id "\0fmt", size " \x10\0\0"
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not a readable WAV"):
                read(path)

    def test_data_chunk_running_past_the_riff_chunk(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.full(100, 0.1), 16000)
        data = bytearray(path.read_bytes())
        data[4:8] = (len(data) - 8 - 100).to_bytes(4, "little")  # the RIFF chunk's size
        path.write_bytes(bytes(data))
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: not a readable WAV"):
                read(path)

    def test_cut_data_chunk(self, tmp_path):
        whole = tmp_path / "a.wav"
        write_wav(whole, np.full(100, 0.1), 16000)
        path = tmp_path / "cut.wav"
        path.write_bytes(whole.read_bytes()[:-51])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: data chunk truncated: "
                           "fewer than the 100 frames its header promises$"):
            read_wav(path)

    @pytest.mark.parametrize("data", ["whole", "cut", "empty"])
    @pytest.mark.parametrize("width", [1, 2, 3], ids=lambda w: f"{8 * w}-bit")
    @pytest.mark.parametrize("channels", [1, 2], ids=["mono", "stereo"])
    def test_both_readers_apply_one_rule(self, tmp_path, channels, width, data):
        """``read_wav`` and ``wav_duration_sec`` admit the same WAVs, mono
        16-bit ones that hold every frame and at least one, and refuse the
        rest alike."""
        path = tmp_path / "a.wav"
        with wave.open(str(path), "wb") as w:
            w.setnchannels(channels)
            w.setsampwidth(width)
            w.setframerate(16000)
            w.writeframes(b"" if data == "empty" else bytes(range(1, 101)) * channels * width)
        if data == "cut":
            path.write_bytes(path.read_bytes()[:-1])
        if (channels, width, data) == (1, 2, "whole"):
            assert read_wav(path).samples.size == 100
            assert wav_duration_sec(path) == 100 / 16000
            return
        refusal = (ConfigMismatchError if (channels, width) != (1, 2)
                   else ParseError if data == "cut" else EmptyAudioError)
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(refusal, match=f"^{re.escape(str(path))}: "):
                read(path)

    @pytest.mark.parametrize("cut", [1, 2, 51, 100, 199])
    def test_duration_rejects_cut_data_chunk(self, tmp_path, cut):
        whole = tmp_path / "a.wav"
        write_wav(whole, np.full(100, 0.1), 16000)
        assert wav_duration_sec(whole) == 100 / 16000
        path = tmp_path / "cut.wav"
        path.write_bytes(whole.read_bytes()[:-cut])
        with pytest.raises(ParseError, match=rf"^{re.escape(str(path))}: data chunk truncated"):
            wav_duration_sec(path)

    def test_zero_frame_rate(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.full(100, 0.1), 16000)
        data = bytearray(path.read_bytes())
        data[24:28] = bytes(4)  # the fmt chunk's sample rate
        path.write_bytes(bytes(data))
        for read in (read_wav, wav_duration_sec):
            with pytest.raises(ParseError, match="bad frame rate 0"):
                read(path)
