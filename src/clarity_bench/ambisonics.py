"""Real spherical-harmonic sound fields: evaluation and truncation.

Conventions are fixed to ACN channel ordering with SN3D normalization.
Azimuth is measured counter-clockwise from the +x axis seen from above
(+y is left), elevation upward from the horizontal plane. With these
conventions the first four channels of a plane-wave encoding are
W = 1, Y = sin(az) cos(el), Z = sin(el), X = cos(az) cos(el).

Fields reach the ears through hrtf.binaural_decode, which owns the one
HRTF set and its virtual-loudspeaker layout.
"""

import math
from dataclasses import dataclass

import numpy as np

MAX_ORDER = 8


def acn_index(l, m):
    """Ambisonic Channel Number of degree l, index m."""
    return l * l + l + m


def num_channels(order):
    return (order + 1) ** 2


def sh_eval(order, azimuth, elevation):
    """Real spherical harmonics up to `order` at one or many directions.

    The associated Legendre functions P_l^m(sin el), without the
    Condon-Shortley phase, come from the standard recurrence:
    P_m^m = (2m-1)!! cos^m(el), P_{m+1}^m = (2m+1) sin(el) P_m^m, and
    (l-m) P_l^m = (2l-1) sin(el) P_{l-1}^m - (l+m-1) P_{l-2}^m.
    cos(m az) and sin(m az) come from the angle-addition formulas.

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

    x, cos_el = np.sin(el), np.cos(el)
    cos_1, sin_1 = np.cos(az), np.sin(az)
    cos_m, sin_m = np.ones_like(az), np.zeros_like(az)
    p_mm = np.ones_like(el)
    out = np.empty((num_channels(order), az.size), dtype=np.float64)
    for mm in range(order + 1):
        if mm > 0:
            p_mm = (2 * mm - 1) * cos_el * p_mm
            cos_m, sin_m = cos_m * cos_1 - sin_m * sin_1, sin_m * cos_1 + cos_m * sin_1
        p_lo, p_l = np.zeros_like(el), p_mm  # P_{m-1}^m = 0 starts the recurrence
        for l in range(mm, order + 1):
            if l > mm:
                p_lo, p_l = p_l, ((2 * l - 1) * x * p_l - (l + mm - 1) * p_lo) / (l - mm)
            norm = math.sqrt(math.factorial(l - mm) / math.factorial(l + mm))
            if mm == 0:
                out[acn_index(l, 0)] = norm * p_l
            else:
                out[acn_index(l, mm)] = math.sqrt(2.0) * norm * p_l * cos_m
                out[acn_index(l, -mm)] = math.sqrt(2.0) * norm * p_l * sin_m
    return out[:, 0] if scalar else out


@dataclass(frozen=True)
class AmbiSignal:
    """Ambisonic signal at audio.DEFAULT_RATE: (N+1)^2 channels in ACN
    order, SN3D, for an order N >= 0 read off the channel count.

    data has shape ((order+1)**2, frames); all channels share one length.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.data, dtype=np.float64))
        if arr.ndim != 2:
            raise ValueError("AmbiSignal data must be 2-D (channels, frames)")
        if arr.shape[0] < 1 or math.isqrt(arr.shape[0]) ** 2 != arr.shape[0]:
            raise ValueError(
                f"an Ambisonic signal has (order+1)^2 channels, got {arr.shape[0]}"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "data", arr)

    @property
    def order(self):
        return math.isqrt(self.channels) - 1

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


def fibonacci_directions(count):
    """Deterministic spherical Fibonacci point set.

    Returns (azimuths, elevations) arrays of the given size, quasi-uniform
    over the sphere. The default HRTF set lies on 64 of these points.
    """
    i = np.arange(count)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - (2.0 * i + 1.0) / count
    azimuths = np.mod(i * golden, 2.0 * np.pi)
    elevations = np.arcsin(np.clip(z, -1.0, 1.0))
    return azimuths, elevations

