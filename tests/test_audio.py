import ast
import pathlib

import numpy as np
import pytest
from scipy.io import wavfile
from scipy.signal import fftconvolve

from clarity_bench.audio import (
    SampleBuffer,
    convolve_channels,
    convolve_sum,
    mono,
    read_wav,
    rms_array,
    scale_to_rms,
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
    x = np.arange(32, dtype=float)
    y = convolve_channels(x, [1.0])
    assert np.allclose(y, x)


def test_convolve_shift_kernel():
    x = np.arange(16, dtype=float)
    kernel = np.zeros(5)
    kernel[3] = 1.0
    y = convolve_channels(x, kernel)
    assert y.shape == (16 + 5 - 1,)
    assert np.allclose(y[3:19], x)
    assert np.allclose(y[:3], 0.0)


def test_convolve_matches_direct_summation():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, 512)
    h = rng.uniform(-1, 1, 64)
    direct = np.zeros(512 + 64 - 1)
    for i, xi in enumerate(x):
        direct[i : i + 64] += xi * h
    fast = convolve_channels(x, h)
    assert np.max(np.abs(fast - direct)) < 1e-9


def test_convolve_is_linear():
    rng = np.random.default_rng(9)
    x = rng.uniform(-1, 1, 256)
    y = rng.uniform(-1, 1, 256)
    h = rng.uniform(-1, 1, 32)
    lhs = convolve_channels(2.5 * x - 1.25 * y, h)
    rhs = 2.5 * convolve_channels(x, h) - 1.25 * convolve_channels(y, h)
    assert np.max(np.abs(lhs - rhs)) < 1e-9


def test_convolve_rejects_empty_and_multichannel():
    with pytest.raises(ValueError):
        convolve_channels(np.zeros(4), [])
    with pytest.raises(ValueError):
        convolve_channels(np.zeros((2, 0)), [1.0])
    # Leading axes broadcast: channel counts that do not broadcast are rejected.
    with pytest.raises(ValueError):
        convolve_channels(np.zeros((2, 4)), np.zeros((3, 2)))


@pytest.mark.parametrize("site", ["render", "amplify", "gammatone", "xcorr"])
def test_convolve_channels_equals_fftconvolve_at_each_call_site(site):
    # The shapes and operand order each caller uses; the outputs must be
    # the same bits as the scipy.signal routine the callers used to call.
    rng = np.random.default_rng(12)
    if site == "render":      # (K, RIR taps) * dry signal, the wet field before convolve_sum
        data, kernels = rng.standard_normal((49, 5600)), rng.standard_normal(28800)
        expected = fftconvolve(data, kernels[None, :], mode="full", axes=1)
    elif site == "amplify":   # both ears' signals * both ears' FIRs
        data, kernels = rng.standard_normal((2, 51000)), rng.standard_normal((2, 127))
        expected = np.stack([
            fftconvolve(data[i : i + 1], kernels[i][None, :], mode="full", axes=1)[0]
            for i in range(2)
        ])
    elif site == "gammatone":  # (bands, taps) * mono signal
        data, kernels = rng.standard_normal((32, 2048)), rng.standard_normal(28800)
        expected = fftconvolve(data, kernels[None, :], mode="full", axes=1)
    else:                      # processed * reversed reference
        data = rng.standard_normal(51000)
        kernels = rng.standard_normal(28800)[::-1]
        expected = fftconvolve(data, kernels)
    assert np.array_equal(convolve_channels(data, kernels), expected)


def summed_fftconvolve(data, kernels):
    return np.stack([sum(fftconvolve(x, h) for x, h in zip(data, row)) for row in kernels])


@pytest.mark.parametrize("outputs, inputs, taps, frames", [
    (49, 2, 5600, 51200),   # wet field passes: K outputs, one input per source
    (49, 3, 5600, 51200),
    (49, 4, 5600, 51200),
    (2, 49, 64, 56799),     # binaural decode: K channels into two ears
])
def test_convolve_sum_equals_summed_fftconvolve(outputs, inputs, taps, frames):
    rng = np.random.default_rng(outputs * 100 + inputs)
    data = rng.standard_normal((inputs, frames))
    kernels = rng.standard_normal((outputs, inputs, taps))
    want = summed_fftconvolve(data, kernels)
    got = convolve_sum(data, kernels)
    assert got.shape == (outputs, frames + taps - 1)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("taps, frames", [
    (64, 100),      # shorter than one block
    (64, 1859),     # frames + taps - 1 is exactly two blocks of 961 frames
    (1, 3000),      # a 1-tap kernel
    (700, 5),       # a kernel much longer than the signal
])
def test_convolve_sum_block_edges(taps, frames):
    rng = np.random.default_rng(taps + frames)
    data = rng.standard_normal((3, frames))
    kernels = rng.standard_normal((2, 3, taps))
    want = summed_fftconvolve(data, kernels)
    got = convolve_sum(data, kernels)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_convolve_sum_rejects_empty_and_mismatched_inputs():
    with pytest.raises(ValueError):
        convolve_sum(np.zeros((2, 0)), np.ones((1, 2, 4)))
    with pytest.raises(ValueError):
        convolve_sum(np.ones((2, 8)), np.zeros((1, 2, 0)))
    with pytest.raises(ValueError):
        convolve_sum(np.ones((3, 8)), np.ones((1, 2, 4)))
    with pytest.raises(ValueError):
        convolve_sum(np.ones(8), np.ones((1, 1, 4)))


def test_rms_constant():
    assert rms_array(np.full(100, 0.5)) == pytest.approx(0.5)


def test_rms_sine_whole_periods():
    t = np.arange(1600) / 16000
    x = 0.4 * np.sin(2 * np.pi * 100 * t)  # 10 whole periods
    assert rms_array(x) == pytest.approx(0.4 / np.sqrt(2), abs=1e-6)


def test_rms_zeros_and_range():
    assert rms_array(np.zeros(10)) == 0.0
    x = np.concatenate([np.zeros(50), np.ones(50)])
    assert rms_array(x[0:50]) == 0.0
    assert rms_array(x[50:100]) == 1.0
    assert rms_array(x[60:60]) == 0.0


def test_rms_scale_equivariance():
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, 300)
    for c in (-2.0, 0.25, 7.5):
        assert abs(rms_array(c * x) - abs(c) * rms_array(x)) < 1e-12


def test_scale_to_rms_hits_target_and_leaves_silence_unchanged():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 400)
    assert rms_array(scale_to_rms(x, 0.05)) == pytest.approx(0.05, rel=1e-12)
    assert np.array_equal(scale_to_rms(x, 0.05), x * (0.05 / np.sqrt(np.mean(x * x))))
    silent = np.zeros(10)
    assert scale_to_rms(silent, 0.05) is silent
    empty = np.zeros(0)
    assert scale_to_rms(empty, 0.05) is empty


def test_one_fft_convolution_in_the_package():
    # Every convolution goes through audio.convolve_channels or
    # audio.convolve_sum; no other module takes FFTs itself.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "clarity_bench"
    fft_users = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
                modules.append(node.module or "")
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                assert getattr(node, "attr", getattr(node, "id", None)) != "fftconvolve", path.name
                continue
            assert not any(m.endswith(".fftconvolve") for m in modules), path.name
            if any(m == "scipy.fft" or m.startswith("scipy.fft.") for m in modules):
                fft_users.add(path.stem)
    assert fft_users == {"audio"}
