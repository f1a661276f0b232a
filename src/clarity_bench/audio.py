"""Signal containers, WAV I/O and convolution/level primitives.

All internal DSP runs in float64; float32 appears only at file boundaries.
The pipeline sample rate defaults to 16 kHz and is carried explicitly on
every buffer, so modules never have to guess.
"""

from dataclasses import dataclass

import numpy as np
from scipy.io import wavfile
from scipy.signal import fftconvolve

from .errors import FormatError, RateMismatchError

DEFAULT_RATE = 16000


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


def stereo(left, right, rate=DEFAULT_RATE):
    """Wrap two equal-length arrays as a 2-channel SampleBuffer."""
    left = np.asarray(left, dtype=np.float64)
    right = np.asarray(right, dtype=np.float64)
    if left.shape != right.shape:
        raise ValueError("left/right lengths differ")
    return SampleBuffer(np.stack([left, right]), rate)


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


def write_wav(path, buffer, encoding="float32"):
    """Write a SampleBuffer as WAV (interleaved, little-endian).

    encoding 'float32' round-trips bit-exactly through read_wav; 'pcm16'
    quantizes with clipping to the int16 range.
    """
    if encoding == "float32":
        out = buffer.data.T.astype(np.float32)
    elif encoding == "pcm16":
        clipped = np.clip(buffer.data.T, -1.0, 32767.0 / 32768.0)
        out = np.round(clipped * 32768.0).astype(np.int16)
    else:
        raise ValueError(f"unknown encoding {encoding!r}")
    wavfile.write(str(path), buffer.rate, out)


def convolve(signal, kernel):
    """Full linear convolution of a mono buffer with an impulse response.

    Output length is n + m - 1. Uses an FFT method; agrees with direct
    summation to better than 1e-9 for unit-scale signals.
    """
    if signal.channels != 1:
        raise ValueError(f"convolve expects a mono buffer, got {signal.channels} channels")
    kernel = np.asarray(kernel, dtype=np.float64).ravel()
    if signal.frames == 0 or kernel.size == 0:
        raise ValueError("convolve requires non-empty signal and kernel")
    out = fftconvolve(signal.channel(0), kernel, mode="full")
    return SampleBuffer(out[None, :], signal.rate)


def convolve_channels(data, kernel):
    """Convolve every row of a (channels, frames) array with one kernel."""
    kernel = np.asarray(kernel, dtype=np.float64).ravel()
    if data.size == 0 or kernel.size == 0:
        raise ValueError("convolve requires non-empty signal and kernel")
    return fftconvolve(data, kernel[None, :], mode="full", axes=1)


def rms(signal, frame_range=None):
    """Per-channel root-mean-square level.

    Parameters
    ----------
    signal : SampleBuffer
    frame_range : (start, stop), optional
        Half-open frame range; defaults to the whole signal.

    Returns
    -------
    ndarray, shape (channels,)
    """
    if frame_range is None:
        start, stop = 0, signal.frames
    else:
        start, stop = frame_range
    if not (0 <= start < stop <= signal.frames):
        raise ValueError(f"empty or out-of-bounds frame range ({start}, {stop})")
    seg = signal.data[:, start:stop]
    return np.sqrt(np.mean(seg * seg, axis=1))


def rms_array(x):
    """RMS of a plain 1-D array (0 for empty input)."""
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(x * x)))
