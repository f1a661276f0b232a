"""Signal containers, WAV I/O and the convolution and level primitives.

All internal DSP runs in float64; float32 appears only at file boundaries.
The program runs at one sample rate, DEFAULT_RATE (16 kHz). Buffers do
not carry it; read_wav checks it where audio files enter, and write_wav
writes it into every header. The module holds the two rules that the
renderer and the scorer share: to_frames, the one frame clock, rounds
every time in seconds to a frame count or frame index, and
is_finite_number is the one number rule of every checked input.

This module needs NumPy and the standard library only. Its FFTs are
numpy.fft's (the pocketfft of NumPy 2), the package's one FFT library.
The WAV codec is struct code: write_wav writes IEEE float32 behind a
58-byte header (RIFF/WAVE; an 18-byte fmt chunk with format tag 3,
32 bits and cbSize 0; a fact chunk holding the frame count; then data),
and read_wav reads that and PCM16.

There are two convolutions. convolve_sum filters many inputs into many
outputs block by block (overlap-save); the renderer's multichannel
stages use it: the W pass, the wet field and the binaural decodes. It
computes only the blocks of the frames a stage asks for, a window on the
block grid of the whole convolution, and streams its work a chunk of
outputs or blocks at a time, so no stage holds every spectrum of a
49-channel field at once. WORK_BUDGET bounds a call's work arrays (its
padded input blocks, spectra, summed products and inverse blocks). They
are views of one float64 buffer, taken from a module-level list of spare
buffers and put back when the call returns, so the render's many calls
fault no fresh pages for them; a buffer stays mapped between calls,
sized by the largest need of the calls it served. convolve_channels is
one FFT convolution with broadcasting that keeps no state; the scoring
path uses it (the hearing aid and the alignment), because the scores are
pinned to its output bits and overlap-save rounds differently. It also
computes a window of frames, but at the window's own FFT length, the
shortest fast length at which no frame of the window wraps around, so
only the default window, the whole output, keeps the bits of the whole
convolution: the hearing aid takes all of it, the alignment only the
lags it searches.

A KernelBank holds the gammatone bank, the one kernel set that never
changes, and memoizes its spectrum at the last FFT length used, so the
signals of one scene, which share a length, transform it once.
convolve_rows streams a signal through the bank a chunk of rows at a
time, so the full (rows, length) output need never exist; the same two
spectra are multiplied in the same order and each row is inverted alone,
so the rows keep the bits of convolve_channels(kernels, x).
"""

import json
import math
import struct
from dataclasses import dataclass
from numbers import Real

import numpy as np
from numpy.fft import irfft, rfft
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_RATE = 16000
# RMS of -26 dBFS: the level of the scoring reference, and the level at
# which metrics.ear_scores reads both signals for the quality score (a
# gain applied after filtering).
REFERENCE_RMS = 10.0 ** (-26.0 / 20.0)
# The most bytes of work arrays that a convolve_sum call holds, unless a
# chunk of one output or block needs more.
WORK_BUDGET = 4 << 20
# convolve_sum's work buffers that no call holds. A call pops one and
# appends it back when it returns; list.pop and list.append are atomic,
# so no two threads share a buffer.
_SPARE_WORK = []


def to_frames(seconds):
    """The frame count, or frame index, of a time in seconds at DEFAULT_RATE:
    seconds * DEFAULT_RATE rounded half to even, a Python int for a number
    and an int array for an array."""
    if isinstance(seconds, np.ndarray):
        return np.round(seconds * DEFAULT_RATE).astype(int)
    return int(round(seconds * DEFAULT_RATE))


def is_finite_number(value):
    """True for a finite real number that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


@dataclass(frozen=True)
class SampleBuffer:
    """Multichannel sampled audio at DEFAULT_RATE.

    Parameters
    ----------
    data : ndarray, shape (channels, frames), or (frames,) for one channel
        Amplitude values, nominally within [-1, 1]. Stored as float64 and
        marked read-only; buffers are immutable once constructed.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D sample data, got ndim={arr.ndim}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def frames(self):
        return self.data.shape[1]

    def channel(self, index):
        """Return one channel as a read-only 1-D array."""
        return self.data[index]


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_SAMPLE_TYPES = {(_PCM, 16): "<i2", (_IEEE_FLOAT, 32): "<f4"}   # (format tag, bits) -> dtype
# RIFF size, WAVE, fmt chunk (18 bytes), fact chunk, data chunk header
_FLOAT32_HEADER = struct.Struct("<4sI4s4sIHHIIHHH4sII4sI")


def _parse_wav(blob):
    """(rate, channels, format tag, bits per sample, data bytes) of a
    RIFF/WAVE file's bytes; raises ValueError when they are malformed."""
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("no RIFF/WAVE header")
    chunks = {}
    pos = 12
    while pos + 8 <= len(blob):
        name, size = struct.unpack_from("<4sI", blob, pos)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise ValueError(f"{name.decode('latin-1')!r} chunk truncated: "
                             f"{len(body)} of its {size} bytes")
        chunks.setdefault(name, body)
        pos += 8 + size + (size & 1)   # an odd-sized chunk is followed by a pad byte
    for name in (b"fmt ", b"data"):
        if name not in chunks:
            raise ValueError(f"no {name.decode()!r} chunk")
    fmt = chunks[b"fmt "]
    tag, channels, rate, _, _, bits = struct.unpack_from("<HHIIHH", fmt)
    if tag == _EXTENSIBLE:
        tag, = struct.unpack_from("<H", fmt, 24)   # the sub-format GUID starts with the tag
    if channels == 0:
        raise ValueError("the fmt chunk declares no channels")
    return rate, channels, tag, bits, chunks[b"data"]


def read_json(path):
    """The JSON document in a UTF-8 file, the one reader of the JSON inputs
    (manifests, scenes, audiograms); ValueError naming the path when the
    file is not UTF-8, not JSON or nested too deeply to parse."""
    with open(path, encoding="utf-8") as fp:
        try:
            return json.load(fp)
        except (ValueError, RecursionError) as exc:   # JSONDecodeError, UnicodeDecodeError, nesting
            raise ValueError(f"{path}: {exc}") from exc


def read_wav(path):
    """Read a RIFF/WAVE file into a SampleBuffer.

    Supports little-endian PCM 16-bit integer and IEEE float32, also as
    WAVE_FORMAT_EXTENSIBLE. 16-bit samples are scaled by 1/32768 into
    [-1, 1). A truncated file, a NaN or infinite sample, any other format
    or a file at any rate but DEFAULT_RATE (there is deliberately no
    resampler in this pipeline) raises ValueError naming the file; a
    missing file raises FileNotFoundError.
    """
    try:
        with open(path, "rb") as fp:
            rate, channels, tag, bits, data = _parse_wav(memoryview(fp.read()))
    except FileNotFoundError:
        raise
    except (OSError, ValueError, struct.error) as exc:
        raise ValueError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if (tag, bits) not in _SAMPLE_TYPES:
        raise ValueError(
            f"{path}: unsupported sample format (tag {tag}, {bits} bits); "
            "only PCM16 and float32 are handled"
        )
    frames, partial = divmod(len(data), channels * bits // 8)
    if partial:
        raise ValueError(f"{path}: data chunk does not hold a whole number of frames")
    scaled = np.frombuffer(data, _SAMPLE_TYPES[tag, bits]).astype(np.float64)
    if tag == _PCM:
        scaled /= 32768.0
    if not np.isfinite(scaled).all():
        raise ValueError(f"{path}: holds a NaN or infinite sample")
    if rate != DEFAULT_RATE:
        raise ValueError(
            f"{path}: rate {rate} Hz but pipeline demands {DEFAULT_RATE} Hz"
        )
    return SampleBuffer(scaled.reshape(frames, channels).T)


def write_wav(path, buffer):
    """Write a SampleBuffer as IEEE float32 WAV (interleaved, little-endian)
    at DEFAULT_RATE.

    Float32 round-trips bit-exactly through read_wav. Data that would
    overflow the 32-bit RIFF size raises ValueError.
    """
    channels, frames = buffer.data.shape
    size = 4 * channels * frames
    riff_size = _FLOAT32_HEADER.size - 8 + size
    if riff_size > 0xFFFFFFFF:
        raise ValueError(f"{path}: {size} bytes of audio overflow a RIFF/WAVE file")
    header = _FLOAT32_HEADER.pack(
        b"RIFF", riff_size, b"WAVE",
        b"fmt ", 18, _IEEE_FLOAT, channels, DEFAULT_RATE, DEFAULT_RATE * 4 * channels,
        4 * channels, 32, 0,
        b"fact", 4, frames,
        b"data", size,
    )
    with open(path, "wb") as fp:
        fp.write(header)
        fp.write(buffer.data.T.astype("<f4").tobytes())


def next_fast_len(n):
    """Smallest 2^a 3^b 5^c >= n: the fast real-FFT length that
    scipy.fft.next_fast_len(n, real=True) returns."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:   # odd runs over 3^b 5^c
        factor = odd
        while factor < best:
            best = min(best, factor << (-(-n // factor) - 1).bit_length())
            factor *= 3
        odd *= 5
    return best


def convolve_channels(data, kernels, start=0, stop=None):
    """Frames [start, stop) of the full linear convolution along the last
    axis; leading axes broadcast.

    The full convolution has length = data.shape[-1] + kernels.shape[-1] - 1
    frames, all of them when no window is given; a window outside
    0 <= start < stop <= length raises ValueError, and so does an empty
    operand. The frames come from one real FFT of each operand at
    nfft = next_fast_len(max(stop, length - start)), their product and one
    inverse FFT: the circular convolution at nfft, in which the frames of
    the window wrap onto no other frame. An operand longer than nfft is
    first wrapped onto nfft frames (its frames summed modulo nfft), which
    changes no frame of the window. These are the transforms of
    scipy.signal's FFT convolution, and with the default window, at
    next_fast_len(length), the package's call sites agree with it bit for
    bit. Any other window runs at its own FFT length, so its frames equal
    those of the whole output only up to rounding. Swapping the operands
    changes the rounding of the complex product, so each caller keeps a
    fixed order.
    """
    data = np.asarray(data, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if data.size == 0 or kernels.size == 0:
        raise ValueError("convolve requires non-empty signal and kernel")
    length = data.shape[-1] + kernels.shape[-1] - 1
    stop = length if stop is None else stop
    if not 0 <= start < stop <= length:
        raise ValueError(f"window [{start}, {stop}) is not within the {length} output frames")
    nfft = next_fast_len(max(stop, length - start))
    # np.multiply, not `*`: NumPy may compute `a * temporary` in the
    # temporary's buffer as temporary * a, and with fused multiply-adds
    # the swapped complex product rounds differently.
    product = np.multiply(rfft(_wrapped(data, nfft), nfft), rfft(_wrapped(kernels, nfft), nfft))
    return irfft(product, nfft)[..., start:stop]


def _wrapped(x, nfft):
    """x, or x with its frames summed modulo nfft when it has more."""
    frames = x.shape[-1]
    if frames <= nfft:
        return x
    padded = np.zeros((*x.shape[:-1], -(-frames // nfft) * nfft))
    padded[..., :frames] = x
    return padded.reshape(*x.shape[:-1], -1, nfft).sum(axis=-2)


class KernelBank:
    """A fixed FIR kernel set (rows, taps) whose spectrum is memoized at
    the FFT length last used. The length and its spectrum are stored and
    read as one tuple, so threads sharing a bank can at worst transform
    the kernels twice, never use a spectrum of the wrong length.
    """

    def __init__(self, kernels):
        kernels = np.array(kernels, dtype=np.float64)
        if kernels.size == 0:
            raise ValueError("convolve requires non-empty signal and kernel")
        kernels.flags.writeable = False
        self.kernels = kernels
        self._memo = (0, None)   # (FFT length, rfft of the kernels at it)

    def convolve_rows(self, x, chunk, scratch):
        """The rows of convolve_channels(kernels, x), `chunk` rows at a
        time: yields (rows, length) arrays in row order; an empty x raises
        ValueError at the first. x is transformed once, and each row is
        the product and inverse FFT of convolve_channels, so the rows keep
        its bits. One chunk's product and inverse are held, in arrays kept
        in the dict scratch: each yielded array is overwritten by the
        next, and a caller that passes one dict to several calls reuses
        the arrays while the FFT length stays the same.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            raise ValueError("convolve requires non-empty signal and kernel")
        length = self.kernels.shape[-1] + x.shape[-1] - 1
        nfft = next_fast_len(length)
        memo_nfft, spectrum = self._memo
        if memo_nfft != nfft:
            spectrum = rfft(self.kernels, nfft)
            self._memo = (nfft, spectrum)
        signal = rfft(x, nfft)
        if scratch.get("shape") != (chunk, nfft):
            scratch.update(shape=(chunk, nfft), product=np.empty((chunk, nfft // 2 + 1), complex),
                           inverse=np.empty((chunk, nfft)))
        for row in range(0, len(spectrum), chunk):
            kernels = spectrum[row : row + chunk]
            product = np.multiply(kernels, signal, out=scratch["product"][: len(kernels)])
            yield irfft(product, nfft, out=scratch["inverse"][: len(kernels)])[:, :length]


def _take_work(size):
    """A float64 work buffer of at least `size` entries: a spare one, or a
    new one in place of a spare that is too small."""
    try:
        work = _SPARE_WORK.pop()
    except IndexError:
        return np.empty(size)
    return work if work.size >= size else np.empty(size)


def _view(region, shape, dtype=np.float64):
    """The leading entries of the float64 array `region` as a C-ordered
    array of that shape and dtype."""
    count = math.prod(shape) * np.dtype(dtype).itemsize // 8
    return region[:count].view(dtype).reshape(shape)


def _block_spectra(data, taps, nfft, step, first, count, padded, spectra):
    """The rfft (inputs, count, nfft // 2 + 1) of overlap-save blocks
    first .. first + count - 1, written into the leading entries of the
    float64 array spectra: block b holds the nfft frames of data from
    frame b * step - (taps - 1), zeros where data has none. Those frames
    are laid out in the leading entries of the float64 array padded."""
    inputs, frames = data.shape
    padded = _view(padded, (inputs, (count - 1) * step + nfft))
    lo = first * step - (taps - 1)
    begin, end = max(lo, 0), min(lo + padded.shape[1], frames)
    padded[:, : begin - lo] = 0
    padded[:, begin - lo : end - lo] = data[:, begin:end]
    padded[:, end - lo :] = 0
    return rfft(sliding_window_view(padded, nfft, axis=1)[:, ::step], axis=2,
                out=_view(spectra, (inputs, count, nfft // 2 + 1), complex))


def convolve_sum(data, kernels, start=0, stop=None):
    """Frames [start, stop) of multi-input, multi-output FIR filtering by
    overlap-save.

    out[o] = sum over i of kernels[o, i] convolved with data[i], each a
    full linear convolution: data (inputs, frames) and kernels (outputs,
    inputs, taps) give frames + taps - 1 output frames, all of them when
    no window is given. A window outside 0 <= start < stop <=
    frames + taps - 1 raises ValueError.

    The FFT length is the smallest power of two that is at least 2 * taps
    and at least 1024. The full output is cut into blocks of
    step = nfft - taps + 1 frames on a grid from frame 0, and block b is
    computed from the nfft input frames that end at its last frame: one
    real FFT of each input, the products with the kernel spectra summed
    over the inputs in the frequency domain, and one inverse FFT per
    output, whose first taps - 1 frames (the circular wrap) are dropped.
    Only the blocks that overlap the window are computed, on the grid of
    the full output, so a window's frames keep the bits of the same frames
    of the whole output.

    The work is streamed. When the kernel spectra are the larger side
    (more outputs than blocks), every block's spectrum is held and the
    outputs are taken a chunk at a time; otherwise every kernel spectrum
    is held and the blocks are taken a chunk at a time. The held spectra
    and one chunk's work arrays (its padded input frames, block or kernel
    spectra, summed products and inverse blocks) stay within WORK_BUDGET
    bytes, or take one output or block per chunk where they cannot. Each
    output and block is the same arithmetic in any chunk, so chunking
    changes no bit. Each block's kept frames are copied straight into
    the result.

    Every work array is a view of one float64 buffer, taken from a list of
    spare buffers (a new one, if none is spare or the spare is too small)
    and put back when the call returns, so repeated calls fault no fresh
    pages. The transforms and the summed products write into those views;
    the result is the only large array a call allocates. A buffer stays
    mapped after its call, sized by the largest need of the calls that
    used it; concurrent calls each take their own.
    """
    data = np.asarray(data, dtype=np.float64)
    kernels = np.asarray(kernels, dtype=np.float64)
    if data.ndim != 2 or kernels.ndim != 3:
        raise ValueError(
            f"expected data (inputs, frames) and kernels (outputs, inputs, taps), "
            f"got ndim {data.ndim} and {kernels.ndim}"
        )
    if data.size == 0 or kernels.size == 0:
        raise ValueError("convolve requires non-empty signal and kernel")
    inputs, frames = data.shape
    outputs, kernel_inputs, taps = kernels.shape
    if kernel_inputs != inputs:
        raise ValueError(f"kernels take {kernel_inputs} inputs, data has {inputs}")
    length = frames + taps - 1
    stop = length if stop is None else stop
    if not 0 <= start < stop <= length:
        raise ValueError(f"window [{start}, {stop}) is not within the {length} output frames")
    nfft = max(1024, 1 << (2 * taps - 1).bit_length())
    step = nfft - taps + 1
    bins = nfft // 2 + 1
    first, last = start // step, -(-stop // step)
    blocks = last - first

    def floats(rows, cols):
        # The work arrays of a chunk of rows outputs and cols blocks, in
        # floats: padded frames, block spectra, kernel spectra, summed
        # products and inverse blocks.
        return [inputs * ((cols - 1) * step + nfft), 2 * inputs * cols * bins,
                2 * rows * inputs * bins, 2 * rows * cols * bins, rows * cols * nfft]

    if outputs > blocks:   # every block spectrum held, the outputs in chunks
        count, sizes = outputs, lambda n: floats(n, blocks)
    else:                  # every kernel spectrum held, the blocks in chunks
        count, sizes = blocks, lambda n: floats(outputs, n)
    held = sum(sizes(0))
    chunk = max(1, min(count, (WORK_BUDGET // 8 - held) // (sum(sizes(1)) - held)))
    sizes = sizes(chunk)
    # Each region starts at an even float offset, as aligned for complex
    # views as an allocation.
    offsets = np.cumsum([0] + [size + size % 2 for size in sizes]).tolist()
    out = np.empty((outputs, stop - start))

    work = _take_work(offsets[-1])
    try:
        padded, block_spectra, kernel_spectra, summed, inverse = (
            work[at : at + size] for at, size in zip(offsets, sizes))

        def kernel_rfft(row, count):
            return rfft(kernels[row : row + count], nfft, axis=2,
                        out=_view(kernel_spectra, (count, inputs, bins), complex))

        def place(row, kernel_chunk, spectra, begin):
            # Outputs row, row + 1, ... of blocks begin, begin + 1, ...,
            # cut to the window.
            shape = (len(kernel_chunk), spectra.shape[1])
            product = np.einsum("oif,ibf->obf", kernel_chunk, spectra,
                                out=_view(summed, (*shape, bins), complex))
            blocks_out = irfft(product, nfft, axis=2, out=_view(inverse, (*shape, nfft)))
            for b in range(begin, begin + shape[1]):
                lo, hi = max(start, b * step), min(stop, (b + 1) * step)
                at = taps - 1 - b * step
                out[row : row + shape[0], lo - start : hi - start] = blocks_out[:, b - begin, lo + at : hi + at]

        if outputs > blocks:
            spectra = _block_spectra(data, taps, nfft, step, first, blocks, padded, block_spectra)
            for row in range(0, outputs, chunk):
                place(row, kernel_rfft(row, min(chunk, outputs - row)), spectra, first)
        else:
            kernel_chunk = kernel_rfft(0, outputs)
            for begin in range(first, last, chunk):
                n = min(chunk, last - begin)
                spectra = _block_spectra(data, taps, nfft, step, begin, n, padded, block_spectra)
                place(0, kernel_chunk, spectra, begin)
    finally:
        _SPARE_WORK.append(work)
    return out


def rms_array(x):
    """RMS of a plain 1-D array (0 for empty input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))


def scale_to_rms(x, target):
    """x scaled to RMS `target`; silent or empty input comes back unchanged."""
    level = rms_array(x)
    return x * (target / level) if level > 0 else x
