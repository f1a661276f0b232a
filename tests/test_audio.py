import numpy as np
import pytest
from scipy.io import wavfile

from clarity_bench.audio import (
    SampleBuffer,
    convolve,
    mono,
    read_wav,
    rms,
    stereo,
    write_wav,
)
from clarity_bench.errors import FormatError, RateMismatchError


def test_float32_wav_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = SampleBuffer(rng.uniform(-1, 1, (2, 1000)).astype(np.float32), 16000)
    path = tmp_path / "x.wav"
    write_wav(path, original)
    loaded = read_wav(path)
    assert loaded.rate == 16000
    assert np.array_equal(loaded.data, original.data)


def test_pcm16_max_positive_sample_scaling(tmp_path):
    path = tmp_path / "pcm.wav"
    wavfile.write(path, 16000, np.array([32767, -32768, 0], dtype=np.int16))
    loaded = read_wav(path)
    assert loaded.data[0, 0] == pytest.approx(32767 / 32768)
    assert loaded.data[0, 1] == pytest.approx(-1.0)
    assert loaded.data[0, 2] == 0.0


def test_header_echo_channels_frames_rate(tmp_path):
    path = tmp_path / "tri.wav"
    write_wav(path, SampleBuffer(np.zeros((3, 480)), 16000))
    loaded = read_wav(path)
    assert (loaded.channels, loaded.frames, loaded.rate) == (3, 480, 16000)


def test_unsupported_bit_depth_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.zeros(10, dtype=np.int32))
    with pytest.raises(FormatError):
        read_wav(path)


def test_non_finite_sample_raises_format_error_naming_the_file(tmp_path):
    path = tmp_path / "nan.wav"
    wavfile.write(path, 16000, np.array([[0.1, 0.0], [0.2, np.nan]], dtype=np.float32))
    with pytest.raises(FormatError, match="nan.wav"):
        read_wav(path)


def test_rate_mismatch(tmp_path):
    path = tmp_path / "x.wav"
    write_wav(path, mono(np.zeros(10), rate=44100))
    with pytest.raises(RateMismatchError):
        read_wav(path, expected_rate=16000)
    assert read_wav(path, expected_rate=44100).rate == 44100


def test_buffer_invariants():
    with pytest.raises(ValueError):
        SampleBuffer(np.zeros((2, 5)), 0)
    buf = mono(np.zeros(5))
    with pytest.raises(ValueError):
        buf.data[0, 0] = 1.0  # immutable


def test_convolve_identity_kernel():
    x = mono(np.arange(32, dtype=float))
    y = convolve(x, [1.0])
    assert np.allclose(y.channel(0), x.channel(0))


def test_convolve_shift_kernel():
    x = mono(np.arange(16, dtype=float))
    kernel = np.zeros(5)
    kernel[3] = 1.0
    y = convolve(x, kernel)
    assert y.frames == 16 + 5 - 1
    assert np.allclose(y.channel(0)[3:19], x.channel(0))
    assert np.allclose(y.channel(0)[:3], 0.0)


def test_convolve_matches_direct_summation():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 512)
    h = rng.uniform(-1, 1, 64)
    direct = np.zeros(512 + 64 - 1)
    for i, xi in enumerate(x):
        direct[i : i + 64] += xi * h
    fast = convolve(mono(x), h).channel(0)
    assert np.max(np.abs(fast - direct)) < 1e-9


def test_convolve_is_linear():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 256)
    y = rng.uniform(-1, 1, 256)
    h = rng.uniform(-1, 1, 32)
    lhs = convolve(mono(2.5 * x - 1.25 * y), h).channel(0)
    rhs = 2.5 * convolve(mono(x), h).channel(0) - 1.25 * convolve(mono(y), h).channel(0)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_convolve_rejects_empty_and_multichannel():
    with pytest.raises(ValueError):
        convolve(mono(np.zeros(4)), [])
    with pytest.raises(ValueError):
        convolve(stereo(np.zeros(4), np.zeros(4)), [1.0])


def test_rms_constant():
    assert rms(mono(np.full(100, 0.5)))[0] == pytest.approx(0.5)


def test_rms_sine_whole_periods():
    t = np.arange(1600) / 16000
    x = 0.4 * np.sin(2 * np.pi * 100 * t)  # 10 whole periods
    assert rms(mono(x))[0] == pytest.approx(0.4 / np.sqrt(2), abs=1e-6)


def test_rms_zeros_and_range():
    assert rms(mono(np.zeros(10)))[0] == 0.0
    buf = mono(np.concatenate([np.zeros(50), np.ones(50)]))
    assert rms(buf, (0, 50))[0] == 0.0
    assert rms(buf, (50, 100))[0] == 1.0
    with pytest.raises(ValueError):
        rms(buf, (60, 60))
    with pytest.raises(ValueError):
        rms(buf, (0, 101))


def test_rms_scale_equivariance():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 300)
    for c in (-2.0, 0.25, 7.5):
        assert abs(rms(mono(c * x))[0] - abs(c) * rms(mono(x))[0]) < 1e-12
