"""Signal containers, WAV I/O and the convolution and level primitives.

All internal DSP runs in float64; float32 appears only at file boundaries.
The pipeline sample rate defaults to 16 kHz and is carried explicitly on
every buffer, so modules never have to guess.

There are two convolutions. convolve_sum filters many inputs into many
outputs block by block (overlap-save); the renderer's multichannel
stages use it: the wet field and the binaural decode. convolve_channels
is one whole-signal FFT convolution with broadcasting; the scoring path
uses it (the hearing aid and the alignment), because the scores are
pinned to its output bits and overlap-save rounds differently.

convolve_channels is a KernelBank used once. A bank kept for a kernel set
that never changes, the gammatone bank, memoizes the kernels' spectrum at
the last FFT length it was asked for, one length at a time, so the
signals of one scene, which share a length, pay for that transform once.
Memoized or not, the same two spectra are multiplied in the same order,
so the bank's output keeps the bits of convolve_channels(kernels, x) and
the scores do not move.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import irfft, next_fast_len, rfft
from scipy.io import wavfile

from .errors import FormatError, RateMismatchError

DEFAULT_RATE = 16000
# RMS of -26 dBFS: the level of the scoring reference, and the level at
# which quality_score scores both signals (a gain applied after filtering).
REFERENCE_RMS = 10.0 ** (-26.0 / 20.0)


@dataclass(frozen=True)
class SampleBuffer:
    """Multichannel sampled audio.

    Parameters
    ----------
    data : ndarray, shape (channels, frames)
        Amplitude values, nominally within [-1, 1]. Stored as float64 and
        marked read-only; buffers are immutable once constructed.
    rate : int
        Sample rate in Hz, > 0.
    """

    data: np.ndarray
    rate: int

    def __post_init__(self):
        arr = np.atleast_2d(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError(f"expected 1-D or 2-D sample data, got ndim={arr.ndim}")
        if self.rate <= 0:
            raise ValueError(f"sample rate must be > 0, got {self.rate}")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def frames(self):
        return self.data.shape[1]

    @property
    def duration(self):
        """Length in seconds."""
        return self.frames / self.rate

    def channel(self, index):
        """Return one channel as a read-only 1-D array."""
        return self.data[index]


def mono(samples, rate=DEFAULT_RATE):
    """Wrap a 1-D array as a single-channel SampleBuffer."""
    return SampleBuffer(np.asarray(samples, dtype=np.float64)[None, :], rate)


def read_wav(path, expected_rate=None):
    """Read a RIFF/WAVE file into a SampleBuffer.

    Supports little-endian PCM 16-bit integer and IEEE float32. 16-bit
    samples are scaled by 1/32768 into [-1, 1). A NaN or infinite sample
    raises FormatError.

    Parameters
    ----------
    path : str or Path
    expected_rate : int, optional
        When given, a file at any other rate raises RateMismatchError
        (there is deliberately no resampler in this pipeline).
    """
    try:
        rate, data = wavfile.read(str(path))
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise FormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    if data.dtype == np.int16:
        scaled = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        scaled = data.astype(np.float64)
    else:
        raise FormatError(
            f"{path}: unsupported sample format {data.dtype}; "
            "only PCM16 and float32 are handled"
        )
    if not np.isfinite(scaled).all():
        raise FormatError(f"{path}: holds a NaN or infinite sample")
    if expected_rate is not None and rate != expected_rate:
        raise RateMismatchError(
            f"{path}: rate {rate} Hz but pipeline demands {expected_rate} Hz"
        )
    if scaled.ndim == 1:
        scaled = scaled[:, None]
    return SampleBuffer(scaled.T, rate)


def write_wav(path, buffer):
    """Write a SampleBuffer as IEEE float32 WAV (interleaved, little-endian).

    Float32 round-trips bit-exactly through read_wav.
    """
    wavfile.write(str(path), buffer.rate, buffer.data.T.astype(np.float32))


def convolve_channels(data, kernels):
    """Full linear convolution along the last axis; leading axes broadcast.

    The result has data.shape[-1] + kernels.shape[-1] - 1 frames: one real
    FFT of each operand at a fast length, their product, one inverse FFT.
    These are the transforms of scipy.signal's FFT convolution, and at the
    package's call sites the outputs agree bit for bit. Swapping the
    operands changes the rounding of the complex product, so each caller
    keeps a fixed order. This is KernelBank(data).convolve(kernels) with a
    bank that is used once.
    """
    return KernelBank(data).convolve(kernels)


class KernelBank:
    """A fixed FIR kernel set (..., taps) whose spectrum is memoized.

    convolve(x) takes the real FFT of the kernels and of x at a fast
    length, multiplies them in that order and inverts the product. The
    memo holds the kernels' FFT at one FFT length, the last one used; a
    signal that needs another length replaces it. The length and its
    spectrum are stored and read as one tuple, so threads sharing a bank
    can at worst transform the kernels twice, never use a spectrum of the
    wrong length.
    """

    def __init__(self, kernels):
        kernels = np.array(kernels, dtype=np.float64)
        if kernels.size == 0:
            raise ValueError("convolve requires non-empty signal and kernel")
        kernels.flags.writeable = False
        self.kernels = kernels
        self._memo = (0, None)   # (FFT length, rfft of the kernels at it)

    def convolve(self, x):
        """Full linear convolution of every kernel with x along the last axis."""
        x = np.asarray(x, dtype=np.float64)
        if x.size == 0:
            raise ValueError("convolve requires non-empty signal and kernel")
        length = self.kernels.shape[-1] + x.shape[-1] - 1
        nfft = next_fast_len(length, real=True)
        memo_nfft, spectrum = self._memo
        if memo_nfft != nfft:
            spectrum = rfft(self.kernels, nfft)
            self._memo = (nfft, spectrum)
        # np.multiply, not `*`: NumPy may compute `a * temporary` in the
        # temporary's buffer as temporary * a, and with fused multiply-adds
        # the swapped complex product rounds differently.
        return irfft(np.multiply(spectrum, rfft(x, nfft)), nfft)[..., :length]


def convolve_sum(data, kernels):
    """Multi-input, multi-output FIR filtering by overlap-save.

    out[o] = sum over i of kernels[o, i] convolved with data[i], each a
    full linear convolution: data (inputs, frames) and kernels (outputs,
    inputs, taps) give (outputs, frames + taps - 1). The FFT length is the
    smallest power of two that is at least 2 * taps and at least 1024.
    The inputs are cut into blocks of that length overlapping by
    taps - 1 frames; each block of each input takes one real FFT, the
    products with the kernel spectra are summed over the inputs in the
    frequency domain, and each output takes one inverse FFT per block,
    whose first taps - 1 frames (the circular wrap) are dropped.
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
    nfft = max(1024, 1 << (2 * taps - 1).bit_length())
    step = nfft - taps + 1
    length = frames + taps - 1
    blocks = -(-length // step)
    padded = np.zeros((inputs, (blocks - 1) * step + nfft))
    padded[:, taps - 1 : taps - 1 + frames] = data
    spectra = rfft(sliding_window_view(padded, nfft, axis=1)[:, ::step], axis=2)
    summed = np.einsum("oif,ibf->obf", rfft(kernels, nfft, axis=2), spectra)
    out = irfft(summed, nfft, axis=2)[:, :, taps - 1 :]
    return out.reshape(outputs, blocks * step)[:, :length]


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
