"""Real spherical harmonics, Ambisonic signals and Fibonacci directions.

Conventions are fixed to ACN channel ordering with SN3D normalization.
Every direction is a unit vector (x, y, z): +x forward, +y left, +z up.
The first four channels of a plane-wave encoding are W = 1, Y = y,
Z = z, X = x, for sh_rows works by a Cartesian recurrence and forms no
angle. sh_rows yields the harmonics one row at a time, into a row array
the caller owns, so a caller that consumes each row as it comes (the
image-source RIR) never holds them all; sh_eval collects its rows into
one array. fibonacci_directions is the one place where angles (the
spiral's) turn into vectors.

Fields reach the ears through hrtf.binaural_decode, which owns the one
HRTF set and its virtual-loudspeaker layout.
"""

import math

import numpy as np

from .audio import SampleBuffer

MAX_ORDER = 8


def acn_index(l, m):
    """Ambisonic Channel Number of degree l, index m."""
    return l * l + l + m


def num_channels(order):
    return (order + 1) ** 2


def sh_rows(order, x, y, z, row):
    """Real spherical harmonics up to `order` at unit vectors, one row at
    a time: writes each into `row` and yields its ACN index.

    Each term is a polynomial in x, y, z (Sloan, JCGT 2(2), 2013), so no
    angle is formed. cos^m(el) cos(m az) and cos^m(el) sin(m az) are the
    real and imaginary parts of (x + iy)^m, one complex product per m. The
    quotient Q_l^m = P_l^m(z) / cos^m(el) of the associated Legendre
    function, without the Condon-Shortley phase, follows the standard
    recurrence from Q_m^m = (2m-1)!!: Q_{m+1}^m = (2m+1) z Q_m^m and
    (l-m) Q_l^m = (2l-1) z Q_{l-1}^m - (l+m-1) Q_{l-2}^m. The rows come
    by m, then by l, cos before sin (ACN 0, 2, 6, 3, 1, 7, 5, 8, 4 at
    order 2); each overwrites the last. The checks run before the first.

    Parameters
    ----------
    order : int, 0..MAX_ORDER
    x, y, z : 1-D arrays of P unit-vector components
        x^2 + y^2 + z^2 must lie within 1e-9 of 1.
    row : float64 array of shape (P,)
        Receives each row: SN3D normalization, the order-0 term
        identically 1.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}, got {order}")
    if not np.all(np.abs(x * x + y * y + z * z - 1.0) <= 1e-9):   # NaN and inf fail too
        raise ValueError("points must be finite unit vectors: x^2 + y^2 + z^2 within 1e-9 of 1")

    re, im = x, y   # (x + iy)^1
    for mm in range(order + 1):
        if mm > 1:
            re, im = re * x - im * y, im * x + re * y
        q_lo, q_l = 0.0, math.prod(range(1, 2 * mm, 2))   # Q_{m-1}^m = 0, Q_m^m = (2m-1)!!
        for l in range(mm, order + 1):
            if l > mm:
                q_lo, q_l = q_l, ((2 * l - 1) * z * q_l - (l + mm - 1) * q_lo) / (l - mm)
            norm = math.sqrt(math.factorial(l - mm) / math.factorial(l + mm))
            if mm == 0:
                np.multiply(norm, q_l, out=row)
                yield acn_index(l, 0)
            else:
                scaled = math.sqrt(2.0) * norm * q_l
                np.multiply(scaled, re, out=row)
                yield acn_index(l, mm)
                np.multiply(scaled, im, out=row)
                yield acn_index(l, -mm)


def sh_eval(order, x, y, z):
    """The rows of sh_rows at one or many unit vectors (x, y, z floats or
    1-D arrays), collected in ACN order: shape ((order+1)**2,) for scalar
    input, else ((order+1)**2, P)."""
    scalar = all(np.isscalar(v) for v in (x, y, z))
    x, y, z = np.broadcast_arrays(*(np.atleast_1d(np.asarray(v, float)) for v in (x, y, z)))
    row = np.empty(x.size)
    out = np.empty((num_channels(order), x.size))
    for index in sh_rows(order, x, y, z, row):
        out[index] = row
    return out[:, 0] if scalar else out


class AmbiSignal(SampleBuffer):
    """Ambisonic signal at audio.DEFAULT_RATE: (N+1)^2 channels in ACN
    order, SN3D, for an order N >= 0 read off the channel count.

    data has shape ((order+1)**2, frames); all channels share one length.
    A frozen SampleBuffer that takes no 1-D data.
    """

    def __post_init__(self):
        if np.ndim(self.data) != 2:
            raise ValueError("AmbiSignal data must be 2-D (channels, frames)")
        super().__post_init__()
        if self.channels < 1 or math.isqrt(self.channels) ** 2 != self.channels:
            raise ValueError(
                f"an Ambisonic signal has (order+1)^2 channels, got {self.channels}"
            )

    @property
    def order(self):
        return math.isqrt(self.channels) - 1


def fibonacci_directions(count):
    """Deterministic spherical Fibonacci point set.

    Returns the (x, y, z) unit-vector components, arrays of the given
    size, quasi-uniform over the sphere in a descending z sweep. The
    default HRTF set lies on 64 of these points.
    """
    i = np.arange(count)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    azimuths = np.mod(i * golden, 2.0 * np.pi)
    elevations = np.arcsin(np.clip(1.0 - (2.0 * i + 1.0) / count, -1.0, 1.0))
    cos_el = np.cos(elevations)
    return cos_el * np.cos(azimuths), cos_el * np.sin(azimuths), np.sin(elevations)
