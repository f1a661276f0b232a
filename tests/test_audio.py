import ast
import pathlib
import struct
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len as scipy_next_fast_len
from scipy.io import wavfile
from scipy.signal import fftconvolve

from clarity_bench import audio
from clarity_bench.audio import (
    KernelBank,
    SampleBuffer,
    convolve_channels,
    convolve_sum,
    is_finite_number,
    next_fast_len,
    read_wav,
    rms_array,
    scale_to_rms,
    to_frames,
    write_wav,
)


def test_float32_wav_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    original = SampleBuffer(rng.uniform(-1, 1, (2, 1000)).astype(np.float32))
    path = tmp_path / "x.wav"
    write_wav(path, original)
    loaded = read_wav(path)
    assert wavfile.read(path)[0] == 16000
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
    write_wav(path, SampleBuffer(np.zeros((3, 480))))
    loaded = read_wav(path)
    assert (loaded.channels, loaded.frames, wavfile.read(path)[0]) == (3, 480, 16000)


def test_unsupported_bit_depth_raises_format_error(tmp_path):
    path = tmp_path / "bad.wav"
    wavfile.write(path, 16000, np.zeros(10, dtype=np.int32))
    with pytest.raises(ValueError, match=r"bad\.wav: unsupported sample format \(tag 1, 32 bits\)"):
        read_wav(path)


def test_non_finite_sample_raises_format_error_naming_the_file(tmp_path):
    path = tmp_path / "nan.wav"
    wavfile.write(path, 16000, np.array([[0.1, 0.0], [0.2, np.nan]], dtype=np.float32))
    with pytest.raises(ValueError, match=r"nan\.wav: holds a NaN or infinite sample"):
        read_wav(path)


def riff(*chunks):
    """RIFF/WAVE bytes holding (id, body) chunks, each odd-sized body padded."""
    body = b"".join(
        name + struct.pack("<I", len(data)) + data + b"\0" * (len(data) % 2)
        for name, data in chunks
    )
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


def fmt_chunk(tag, channels, bits, extra=b""):
    block = channels * bits // 8
    return b"fmt ", struct.pack("<HHIIHH", tag, channels, 16000, 16000 * block, block, bits) + extra


FLOAT_FRAMES = np.array([[0.5, -0.25], [0.125, 1.0], [-1.0, 0.0]], dtype=np.float32)
FLOAT_DATA = (b"data", FLOAT_FRAMES.tobytes())


@pytest.mark.parametrize("channels", [1, 2, 3])
@pytest.mark.parametrize("frames", [1, 7, 1001])
def test_write_wav_bytes_equal_scipy(tmp_path, channels, frames):
    data = np.random.default_rng(frames).uniform(-1, 1, (channels, frames))
    write_wav(tmp_path / "ours.wav", SampleBuffer(data))
    wavfile.write(tmp_path / "scipy.wav", 16000, data.T.astype(np.float32))
    ours = (tmp_path / "ours.wav").read_bytes()
    assert ours == (tmp_path / "scipy.wav").read_bytes()
    assert len(ours) == 58 + 4 * channels * frames


def test_write_wav_refuses_to_overflow_the_riff_size(tmp_path):
    # A read-only broadcast view stands in for 4 GiB of samples; the size
    # check comes before any conversion, so nothing that large is made.
    huge = SimpleNamespace(data=np.broadcast_to(0.0, (2, 1 << 29)))
    with pytest.raises(ValueError, match="overflow"):
        write_wav(tmp_path / "huge.wav", huge)
    assert not (tmp_path / "huge.wav").exists()


@pytest.mark.parametrize("dtype", [np.int16, np.float32])
@pytest.mark.parametrize("shape", [(9,), (9, 2)])
def test_read_wav_reads_what_scipy_wrote(tmp_path, dtype, shape):
    rng = np.random.default_rng(3)
    if dtype == np.int16:
        data = rng.integers(-32768, 32768, shape).astype(np.int16)
        expected = data / 32768.0
    else:
        data = rng.uniform(-1, 1, shape).astype(np.float32)
        expected = data.astype(np.float64)
    wavfile.write(tmp_path / "x.wav", 16000, data)
    loaded = read_wav(tmp_path / "x.wav")
    assert np.array_equal(loaded.data, np.atleast_2d(expected.T))


def test_read_wav_reads_wave_format_extensible_float32(tmp_path):
    # cbSize 22, 32 valid bits, channel mask FL|FR, then the
    # KSDATAFORMAT_SUBTYPE_IEEE_FLOAT GUID, whose first two bytes are tag 3.
    guid = struct.pack("<H", 3) + bytes.fromhex("000000001000800000aa00389b71")
    extra = struct.pack("<HHI", 22, 32, 0b11) + guid
    path = tmp_path / "ext.wav"
    path.write_bytes(riff(fmt_chunk(0xFFFE, 2, 32, extra), FLOAT_DATA))
    assert np.array_equal(read_wav(path).data, FLOAT_FRAMES.T)


def test_read_wav_skips_an_odd_sized_chunk_and_its_pad_byte(tmp_path):
    path = tmp_path / "list.wav"
    path.write_bytes(riff(fmt_chunk(3, 2, 32), (b"LIST", b"INFOabc"), FLOAT_DATA))
    assert len(path.read_bytes()) % 2 == 0
    assert np.array_equal(read_wav(path).data, FLOAT_FRAMES.T)


def scipy_wav(dtype):
    def write(path):
        wavfile.write(path, 16000, np.zeros((4, 2), dtype=dtype))
    return write


@pytest.mark.parametrize("make, words", [
    pytest.param(lambda p: p.write_bytes(b"not a wave file at all"), ["RIFF"], id="not-riff"),
    pytest.param(lambda p: p.write_bytes(riff(FLOAT_DATA)), ["fmt"], id="no-fmt"),
    pytest.param(lambda p: p.write_bytes(riff(fmt_chunk(3, 2, 32))), ["data"], id="no-data"),
    pytest.param(lambda p: p.write_bytes(riff(fmt_chunk(3, 0, 32), FLOAT_DATA)), ["channels"],
                 id="no-channels"),
    pytest.param(lambda p: p.write_bytes(riff(fmt_chunk(3, 2, 32), FLOAT_DATA)[:-5]),
                 ["truncated"], id="truncated-data"),
    pytest.param(lambda p: p.write_bytes(riff(fmt_chunk(3, 2, 32), (b"data", b"\0" * 12))),
                 ["whole number of frames"], id="partial-frame"),
    pytest.param(scipy_wav(np.int32), ["unsupported", "32 bits"], id="int32"),
    pytest.param(scipy_wav(np.uint8), ["unsupported", "8 bits"], id="uint8"),
    pytest.param(scipy_wav(np.float64), ["unsupported", "64 bits"], id="float64"),
])
def test_read_wav_rejects_malformed_or_unsupported_files(tmp_path, make, words):
    path = tmp_path / "bad.wav"
    make(path)
    with pytest.raises(ValueError) as info:
        read_wav(path)
    for word in [str(path), *words]:
        assert word in str(info.value)


def test_read_wav_lets_a_missing_file_raise_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_wav(tmp_path / "absent.wav")


def test_next_fast_len_matches_scipy():
    for n in [*range(1, (1 << 17) + 1), 10**6 + 1, 1_048_577, 3 * 10**6 + 7, 123_456_789]:
        assert next_fast_len(n) == scipy_next_fast_len(n, real=True), n


def test_to_frames_rounds_half_to_even_to_an_int_or_an_int_array():
    assert [to_frames(k / 16000) for k in (0.5, 1.5, 2.5, 3.5)] == [0, 2, 2, 4]
    assert type(to_frames(0.35)) is int and type(to_frames(np.float64(0.35))) is int
    assert to_frames(0.35) == 5600 and to_frames(3) == 48000
    frames = to_frames(np.array([0.5, 1.5, 2.5, 3.5]) / 16000)
    assert frames.dtype == np.int64 and frames.tolist() == [0, 2, 2, 4]


def test_is_finite_number_takes_finite_reals_but_not_booleans():
    assert all(map(is_finite_number, (0, -3, 1.5, np.float64(2.0), np.int64(7), 10**300)))
    assert not any(map(is_finite_number, (True, False, float("nan"), float("inf"), 10**400, "1", None, 1j)))


def test_one_frame_clock_in_the_package():
    # Every time in seconds becomes frames through audio.to_frames: no
    # other module rounds an expression that holds DEFAULT_RATE.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "clarity_bench"

    def rounds(func):
        if isinstance(func, ast.Name):
            return func.id == "round"
        return (isinstance(func, ast.Attribute) and func.attr in ("round", "rint", "around")
                and isinstance(func.value, ast.Name) and func.value.id in ("np", "numpy"))

    def names_the_rate(node):
        return any(getattr(n, "id", getattr(n, "attr", None)) == "DEFAULT_RATE" for n in ast.walk(node))

    rounding = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and rounds(node.func) and any(map(names_the_rate, node.args)):
                rounding.add(path.stem)
    assert rounding == {"audio"}


def test_rate_mismatch(tmp_path):
    path = tmp_path / "x.wav"
    wavfile.write(path, 44100, np.zeros(10, dtype=np.float32))
    with pytest.raises(ValueError, match="rate 44100 Hz but pipeline demands 16000 Hz"):
        read_wav(path)


def test_buffer_invariants():
    buf = SampleBuffer(np.zeros(5))
    assert buf.data.shape == (1, 5)   # 1-D data is one channel
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
    with pytest.raises(ValueError):
        KernelBank(np.zeros((2, 0)))
    with pytest.raises(ValueError):   # at the first row the generator yields
        next(KernelBank(np.ones((2, 3))).convolve_rows([], 1, {}))


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


# A 1,000-frame signal through 30 taps: 1,029 output frames. The windows
# take the first and last frames, one short run in the middle (whose FFT
# length, 640, is shorter than the signal, so the signal is wrapped), and
# the whole output less a frame at each end.
WINDOWS = [(0, 5), (400, 420), (1000, 1029), (1, 1028), (0, 1029)]


@pytest.mark.parametrize("start, stop", WINDOWS)
def test_convolve_channels_window_is_the_slice_of_the_whole_output(monkeypatch, start, stop):
    rng = np.random.default_rng(14)
    data, kernels = rng.standard_normal((3, 1000)), rng.standard_normal((3, 30))
    whole = convolve_channels(data, kernels)
    lengths = []

    def rfft(x, n):
        lengths.append(n)
        return np.fft.rfft(x, n)

    monkeypatch.setattr(audio, "rfft", rfft)
    window = convolve_channels(data, kernels, start, stop)
    assert window.shape == (3, stop - start)
    # Its own FFT length rounds differently from the whole output's.
    assert np.max(np.abs(window - whole[:, start:stop])) <= 1e-12 * np.max(np.abs(whole))
    assert lengths == [next_fast_len(max(stop, 1029 - start))] * 2


def test_convolve_channels_default_window_keeps_the_bits_of_one_fft_product():
    rng = np.random.default_rng(15)
    a, b = rng.standard_normal((2, 5000)), rng.standard_normal(127)
    length = 5000 + 127 - 1
    m = next_fast_len(length)
    expected = np.fft.irfft(np.multiply(np.fft.rfft(a, m), np.fft.rfft(b, m)), m)[..., :length]
    assert np.array_equal(convolve_channels(a, b), expected)
    assert np.array_equal(convolve_channels(a, b, 0, length), expected)


@pytest.mark.parametrize("start, stop", [(-1, 5), (5, 5), (6, 5), (0, 1030), (1029, 1030)])
def test_convolve_channels_rejects_a_window_outside_the_output(start, stop):
    with pytest.raises(ValueError, match="not within the 1029 output frames"):
        convolve_channels(np.ones(1000), np.ones(30), start, stop)


def test_kernel_bank_shared_by_threads_never_uses_a_stale_spectrum():
    # Threads alternate between two FFT lengths on one bank, each with its
    # own scratch, while the interpreter switches threads as often as it
    # can; every output's stacked rows must still be the bits of a fresh
    # convolve_channels.
    rng = np.random.default_rng(13)
    kernels = rng.standard_normal((8, 64))
    signals = [rng.standard_normal(500), rng.standard_normal(1500)]
    expected = [convolve_channels(kernels, x) for x in signals]
    bank = KernelBank(kernels)
    mismatches = []

    def work():
        scratch = {}
        for k in range(200):
            i = k % 2
            try:
                rows = np.concatenate([chunk.copy() for chunk in bank.convolve_rows(signals[i], 3, scratch)])
                if not np.array_equal(rows, expected[i]):
                    mismatches.append(i)
            except ValueError as exc:   # spectra of two lengths do not broadcast
                mismatches.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


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


def overlap_save_step(taps):
    """The block length of convolve_sum's grid for `taps`-tap kernels."""
    return max(1024, 1 << (2 * taps - 1).bit_length()) - taps + 1


@settings(max_examples=80, deadline=None)
@given(draw=st.data(), outputs=st.integers(1, 4), inputs=st.integers(1, 3),
       taps=st.integers(1, 700), frames=st.integers(1, 4000))
def test_convolve_sum_window_is_the_slice_of_the_full_output(draw, outputs, inputs, taps, frames):
    # Windows anywhere, at block edges, one frame long and in the tail
    # past the data keep the bits of the whole output's frames.
    rng = np.random.default_rng([outputs, inputs, taps, frames])
    data = rng.standard_normal((inputs, frames))
    kernels = rng.standard_normal((outputs, inputs, taps))
    length = frames + taps - 1
    step = overlap_save_step(taps)
    edges = [b * step + d for b in range(length // step + 2) for d in (-1, 0, 1)]
    bound = st.one_of(st.integers(0, length), st.sampled_from(edges),
                      st.sampled_from([frames - 1, frames, frames + 1, length - 1, length]))
    start = draw.draw(bound.filter(lambda v: 0 <= v < length), label="start")
    stop = draw.draw(st.one_of(st.just(start + 1), bound.filter(lambda v: start < v <= length)),
                     label="stop")
    full = convolve_sum(data, kernels)
    assert np.array_equal(convolve_sum(data, kernels, start, stop), full[:, start:stop])
    assert np.array_equal(convolve_sum(data, kernels, start), full[:, start:])


@pytest.mark.parametrize("start, stop", [(-1, 5), (5, 5), (6, 5), (0, 108), (107, 108), (-5, None)])
def test_convolve_sum_rejects_a_window_outside_its_output(start, stop):
    data, kernels = np.ones((2, 100)), np.ones((3, 2, 8))   # 107 output frames
    assert convolve_sum(data, kernels, 106, 107).shape == (3, 1)
    with pytest.raises(ValueError, match="window"):
        convolve_sum(data, kernels, start, stop)


@pytest.mark.parametrize("outputs, inputs, taps, frames, window", [
    (49, 4, 5600, 30000, (9000, 14300)),   # the head turn: outputs chunked
    (49, 3, 5600, 30000, None),
    (4, 49, 64, 22652, None),              # the binaural-RIR decode: blocks chunked
    (2, 4, 5663, 30000, (25000, 35662)),   # a held yaw's tail
])
def test_convolve_sum_streams_without_changing_a_bit(monkeypatch, outputs, inputs, taps, frames, window):
    rng = np.random.default_rng(outputs + inputs + taps)
    data = rng.standard_normal((inputs, frames))
    kernels = rng.standard_normal((outputs, inputs, taps))
    window = window or (0, frames + taps - 1)
    want = convolve_sum(data, kernels, *window)
    monkeypatch.setattr(audio, "WORK_BUDGET", 1)   # one output or one block per chunk
    assert np.array_equal(convolve_sum(data, kernels, *window), want)


@pytest.mark.parametrize("outputs, inputs, frames, window", [
    (49, 4, 30000, (9000, 14300)),   # the head turn: more outputs than blocks
    (2, 4, 30000, None),             # more blocks than outputs
])
def test_convolve_sum_reads_strided_views_as_their_copies(outputs, inputs, frames, window):
    # The render's kernels are spaced[..., :taps], each RIR row followed by
    # the binaural decode's 63 frames of history.
    rng = np.random.default_rng(outputs)
    data = rng.standard_normal((inputs, frames + 7))[:, :frames]
    kernels = rng.standard_normal((outputs, inputs, 5600 + 63))[..., :5600]
    assert not (data.flags.c_contiguous or kernels.flags.c_contiguous)
    window = window or (0, frames + 5600 - 1)
    want = convolve_sum(np.ascontiguousarray(data), np.ascontiguousarray(kernels), *window)
    assert np.array_equal(convolve_sum(data, kernels, *window), want)


def test_convolve_sum_holds_a_chunk_of_spectra_not_all_of_them():
    # The head turn's call: 49 outputs of 4 inputs through 5,600 taps over
    # 5,300 frames. Holding every kernel spectrum and block product at
    # once traced 38.6 MiB; a chunk's work arrays are WORK_BUDGET.
    rng = np.random.default_rng(0)
    data = rng.standard_normal((4, 48000))
    kernels = rng.standard_normal((49, 4, 5600))
    tracemalloc.start()
    try:
        field = convolve_sum(data, kernels, 20000, 25300)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert field.shape == (49, 5300)
    assert peak < 16 * 2**20


# (outputs, inputs, taps, frames, window) of the render's convolve_sum
# calls: the head turn, the binaural-RIR decode and a held yaw's tail.
RENDER_CALLS = [
    (49, 4, 5600, 48000, (20000, 25300)),
    (4, 49, 64, 22652, None),
    (2, 4, 5663, 30000, (25000, 35662)),
]


def render_call(outputs, inputs, taps, frames, window):
    rng = np.random.default_rng(outputs + inputs + taps)
    data = rng.standard_normal((inputs, frames))
    kernels = rng.standard_normal((outputs, inputs, taps))
    return data, kernels, *(window or (0, frames + taps - 1))


@pytest.mark.parametrize("call", RENDER_CALLS[:2], ids=["outputs chunked", "blocks chunked"])
def test_convolve_sum_reuses_its_work_buffer(call):
    # After a call of the same shapes, a call's work arrays are views of a
    # kept buffer: it allocates its output and little else. Fresh work
    # arrays traced several MiB per call.
    args = render_call(*call)
    convolve_sum(*args)
    tracemalloc.start()
    try:
        out = convolve_sum(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + 256 * 1024


def test_convolve_sum_threads_never_share_a_work_buffer():
    # Eight calls of mixed shapes on four threads, while the interpreter
    # switches threads as often as it can, keep the bits of the same calls
    # made one after another.
    calls = [render_call(*RENDER_CALLS[i % 3]) for i in range(8)]
    expected = [convolve_sum(*args) for args in calls]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(convolve_sum, *args) for args in calls]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(np.array_equal(got, want) for got, want in zip(results, expected))


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
    # audio.convolve_sum; no other module imports an FFT module for it,
    # and only two reach np.fft by attribute, for transforms that are not
    # convolutions.
    package = pathlib.Path(__file__).resolve().parents[1] / "src" / "clarity_bench"
    fft_users, fft_attribute_users = set(), set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "fft"
                    and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
                fft_attribute_users.add(path.stem)
            if isinstance(node, ast.ImportFrom):
                modules = [f"{node.module}.{alias.name}" for alias in node.names]
                modules.append(node.module or "")
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                assert getattr(node, "attr", getattr(node, "id", None)) != "fftconvolve", path.name
                continue
            assert not any(m.endswith(".fftconvolve") for m in modules), path.name
            if any(m == "numpy.fft" or m.startswith("numpy.fft.") for m in modules):
                fft_users.add(path.stem)
    assert fft_users == {"audio"}
    # signals shapes noise by a gain on its spectrum (zero-phase, no
    # kernel); hearing_aid designs its FIR by frequency sampling, an
    # inverse FFT of the target response. A new FFT user belongs in audio.
    assert fft_attribute_users == {"signals", "hearing_aid"}
