"""Real spherical-harmonic sound fields: encoding, yaw rotation, truncation
and binaural decoding.

Conventions are fixed to ACN channel ordering with SN3D normalization.
Azimuth is measured counter-clockwise from the +x axis seen from above
(+y is left), elevation upward from the horizontal plane. With these
conventions the first four channels of a plane-wave encoding are
W = 1, Y = sin(az) cos(el), Z = sin(el), X = cos(az) cos(el).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import fftconvolve
from scipy.special import lpmv

from .audio import SampleBuffer

MAX_ORDER = 8


def acn_index(l, m):
    """Ambisonic Channel Number of degree l, index m."""
    return l * l + l + m


def num_channels(order):
    return (order + 1) ** 2


def sh_eval(order, azimuth, elevation):
    """Real spherical harmonics up to `order` at one or many directions.

    Parameters
    ----------
    order : int, 0..MAX_ORDER
    azimuth, elevation : float or 1-D array (radians)
        Elevation must lie within [-pi/2, pi/2].

    Returns
    -------
    ndarray
        Shape ((order+1)**2,) for scalar input, else ((order+1)**2, P).
        ACN order, SN3D normalization; the order-0 term is identically 1.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    scalar = np.isscalar(azimuth) and np.isscalar(elevation)
    az = np.atleast_1d(np.asarray(azimuth, dtype=np.float64))
    el = np.atleast_1d(np.asarray(elevation, dtype=np.float64))
    az, el = np.broadcast_arrays(az, el)
    if np.any(np.abs(el) > np.pi / 2 + 1e-12):
        raise ValueError("elevation outside [-pi/2, pi/2]")

    x = np.sin(el)
    out = np.empty((num_channels(order), az.size), dtype=np.float64)
    for l in range(order + 1):
        for mm in range(0, l + 1):
            # lpmv carries the Condon-Shortley phase; remove it.
            leg = (-1.0) ** mm * lpmv(mm, l, x)
            norm = math.sqrt(math.factorial(l - mm) / math.factorial(l + mm))
            base = norm * leg
            if mm == 0:
                out[acn_index(l, 0)] = base
            else:
                out[acn_index(l, mm)] = math.sqrt(2.0) * base * np.cos(mm * az)
                out[acn_index(l, -mm)] = math.sqrt(2.0) * base * np.sin(mm * az)
    return out[:, 0] if scalar else out


@dataclass(frozen=True)
class AmbiSignal:
    """Order-N Ambisonic signal: (N+1)^2 channels in ACN order, SN3D.

    data has shape ((order+1)**2, frames); all channels share one length.
    """

    data: np.ndarray
    order: int
    rate: int

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError("AmbiSignal data must be 2-D (channels, frames)")
        if arr.shape[0] != num_channels(self.order):
            raise ValueError(
                f"order {self.order} needs {num_channels(self.order)} channels, "
                f"got {arr.shape[0]}"
            )
        if self.rate <= 0:
            raise ValueError("rate must be > 0")
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def frames(self):
        return self.data.shape[1]

    @property
    def w(self):
        """The omnidirectional (ACN 0) channel."""
        return self.data[0]


def encode(source, azimuth, elevation, order):
    """Encode a mono buffer as a plane wave from (azimuth, elevation).

    Channel c of the result is the c-th spherical-harmonic coefficient of
    the direction times the input signal; the W channel equals the input.
    """
    if source.channels != 1:
        raise ValueError(f"encode expects a mono buffer, got {source.channels} channels")
    coeffs = sh_eval(order, azimuth, elevation)
    return AmbiSignal(coeffs[:, None] * source.channel(0)[None, :], order, source.rate)


@dataclass(frozen=True)
class YawRotation:
    """Rotation of a sound field about the vertical axis.

    The matrix is block-diagonal by spherical-harmonic degree and
    orthogonal; positive angles rotate the field counter-clockwise seen
    from above (encode(x, az) maps to encode(x, az + angle)).
    """

    angle: float
    order: int
    matrix: np.ndarray


def yaw_rotation(order, angle):
    """Build the exact yaw rotation matrix for a given order.

    For a rotation about z the real spherical harmonics of equal degree
    and |m| mix pairwise: the (cos, sin) pair of azimuthal index m turns
    by m*angle. Degrees never couple, so the matrix is block-diagonal.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    k = num_channels(order)
    mat = np.eye(k)
    for l in range(1, order + 1):
        for mm in range(1, l + 1):
            c = math.cos(mm * angle)
            s = math.sin(mm * angle)
            ip = acn_index(l, mm)
            im = acn_index(l, -mm)
            mat[ip, ip] = c
            mat[ip, im] = -s
            mat[im, ip] = s
            mat[im, im] = c
    mat.flags.writeable = False
    return YawRotation(angle=float(angle), order=order, matrix=mat)


def apply_rotation(signal, rotation):
    """Apply a YawRotation to every frame of an AmbiSignal."""
    if signal.order != rotation.order:
        raise ValueError(
            f"signal order {signal.order} != rotation order {rotation.order}"
        )
    return AmbiSignal(rotation.matrix @ signal.data, signal.order, signal.rate)


def truncate(signal, new_order):
    """Keep only the channels up to new_order (drop higher degrees)."""
    if new_order > signal.order:
        raise ValueError(
            f"cannot truncate order {signal.order} signal to higher order {new_order}"
        )
    return AmbiSignal(signal.data[: num_channels(new_order)], new_order, signal.rate)


def fibonacci_directions(count):
    """Deterministic spherical Fibonacci point set.

    Returns (azimuths, elevations) arrays of the given size, quasi-uniform
    over the sphere. Used as the default virtual-loudspeaker layout.
    """
    i = np.arange(count)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - (2.0 * i + 1.0) / count
    azimuths = np.mod(i * golden, 2.0 * np.pi)
    elevations = np.arcsin(np.clip(z, -1.0, 1.0))
    return azimuths, elevations

DEFAULT_GRID_SIZE = 64


def binaural_decode(signal, hrtfs, grid=None):
    """Render an AmbiSignal to two ears through virtual loudspeakers.

    The decode matrix is the Moore-Penrose pseudo-inverse of the
    L x (order+1)^2 matrix of spherical-harmonic rows at the grid
    directions; each virtual-speaker feed is convolved with its HRTF pair
    and summed per ear.

    Parameters
    ----------
    signal : AmbiSignal
    hrtfs : HrtfSet
        Must supply a filter pair for every grid direction (nearest
        lookup is used).
    grid : (azimuths, elevations), optional
        Defaults to a 64-point spherical Fibonacci set.

    Returns
    -------
    SampleBuffer, 2 channels (left, right); length frames + taps - 1.
    """
    if grid is None:
        grid = fibonacci_directions(DEFAULT_GRID_SIZE)
    az, el = np.asarray(grid[0], dtype=np.float64), np.asarray(grid[1], dtype=np.float64)
    k = signal.channels
    if az.size < k:
        raise ValueError(
            f"grid of {az.size} directions cannot decode {k} channels "
            f"(need at least {k})"
        )
    basis = sh_eval(signal.order, az, el).T          # L x K
    decode = np.linalg.pinv(basis)                   # K x L
    feeds = decode.T @ signal.data                   # L x frames

    left_firs = np.stack([hrtfs.nearest(a, e)[0] for a, e in zip(az, el)])
    right_firs = np.stack([hrtfs.nearest(a, e)[1] for a, e in zip(az, el)])
    left = fftconvolve(feeds, left_firs, mode="full", axes=1).sum(axis=0)
    right = fftconvolve(feeds, right_firs, mode="full", axes=1).sum(axis=0)
    return SampleBuffer(np.stack([left, right]), signal.rate)
