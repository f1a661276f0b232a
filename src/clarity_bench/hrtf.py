"""Synthetic head-related transfer functions from a rigid-sphere model.

Each direction yields a pair of short FIR filters built from two pieces:
a Woodworth interaural time difference realized as a +-ITD/2 fractional
delay (so overall latency is direction-independent), and a first-order
head-shadow shelf H(s) = (alpha(theta) s + beta) / (s + beta) with
beta = 2c/a and alpha = 1 + cos(theta_inc), discretized by the bilinear
transform. theta_inc is the angle between the arrival direction and the
ear's axis (+y for the left ear, -y for the right).

The stage is fixed: a head of radius HEAD_RADIUS = 8.75 cm, sound at
room.SPEED_OF_SOUND, FIRs of DEFAULT_TAPS = 64 taps at audio.DEFAULT_RATE.
64 taps (4 ms) hold twice the largest ITD (0.66 ms) plus the 8-tap
delay kernel. The shelf runs as the plain first-order recursion

    y[n] = b0 x[n] + z,    z = b1 x[n] - a1 y[n],

the transposed direct form II that scipy.signal.lfilter evaluates, with
the same operations in the same order, so the FIRs are bit-identical to
lfilter's. default_hrtf_set is built once per process and shared.
"""

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .ambisonics import fibonacci_directions
from .audio import DEFAULT_RATE
from .room import SPEED_OF_SOUND

HEAD_RADIUS = 0.0875
DEFAULT_TAPS = 64


def woodworth_itd(lateral_angle):
    """ITD in seconds for a lateral angle in [0, pi/2]."""
    theta = float(lateral_angle)
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError("lateral angle must lie in [0, pi/2]")
    return HEAD_RADIUS / SPEED_OF_SOUND * (theta + math.sin(theta))


def direction_vector(azimuth, elevation):
    """Unit vector for (azimuth, elevation); +x forward, +y left, +z up."""
    return np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )


def _fractional_delay(delay):
    """8-tap Hann-windowed sinc centred on `delay` samples, in DEFAULT_TAPS taps."""
    x = np.arange(DEFAULT_TAPS, dtype=np.float64) - delay
    h = np.zeros(DEFAULT_TAPS)
    inside = np.abs(x) < 4.0
    h[inside] = np.sinc(x[inside]) * (0.5 + 0.5 * np.cos(np.pi * x[inside] / 4.0))
    return h


def _head_shadow(fir, cos_inc):
    """Apply the bilinear-discretized first-order shadow shelf to an FIR."""
    beta = 2.0 * SPEED_OF_SOUND / HEAD_RADIUS
    alpha = 1.0 + cos_inc
    k = 2.0 * DEFAULT_RATE
    b0 = (alpha * k + beta) / (k + beta)
    b1 = (beta - alpha * k) / (k + beta)
    a1 = (beta - k) / (k + beta)
    out = np.empty(len(fir))
    z = 0.0
    for n, x in enumerate(fir.tolist()):
        out[n] = y = b0 * x + z
        z = b1 * x - a1 * y
    return out


def synth_hrtf(azimuth, elevation):
    """Synthesize one (left FIR, right FIR) pair."""
    d = direction_vector(azimuth, elevation)
    lateral = math.asin(max(-1.0, min(1.0, d[1])))
    itd = woodworth_itd(abs(lateral))
    half = 0.5 * itd * DEFAULT_RATE * math.copysign(1.0, d[1]) if d[1] != 0.0 else 0.0

    base = DEFAULT_TAPS // 2
    left = _fractional_delay(base - half)
    right = _fractional_delay(base + half)
    left = _head_shadow(left, d[1])
    right = _head_shadow(right, -d[1])
    return left, right


@dataclass(frozen=True)
class HrtfSet:
    """Directions with one FIR pair each; all FIRs share a length and rate.

    binaural_decode uses the directions as its virtual loudspeakers and
    keeps the SH-domain filter banks it builds from the set in
    `_decoders`, keyed by Ambisonic order.
    """

    azimuths: np.ndarray
    elevations: np.ndarray
    left: np.ndarray   # (count, taps)
    right: np.ndarray  # (count, taps)
    rate: int
    _decoders: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        az = np.asarray(self.azimuths, dtype=np.float64)
        el = np.asarray(self.elevations, dtype=np.float64)
        left = np.asarray(self.left, dtype=np.float64)
        right = np.asarray(self.right, dtype=np.float64)
        if az.size == 0:
            raise ValueError("HrtfSet needs at least one direction")
        if left.shape != right.shape or left.shape[0] != az.size:
            raise ValueError("every direction needs equal-length left/right FIRs")
        for name, val in (
            ("azimuths", az), ("elevations", el), ("left", left), ("right", right),
        ):
            val = np.ascontiguousarray(val)
            val.flags.writeable = False
            object.__setattr__(self, name, val)
        object.__setattr__(self, "_decoders", {})

    @property
    def taps(self):
        return self.left.shape[1]


def build_hrtf_set(azimuths, elevations):
    """Synthesize an HrtfSet at the given directions."""
    pairs = [
        synth_hrtf(a, e)
        for a, e in zip(np.atleast_1d(azimuths), np.atleast_1d(elevations))
    ]
    return HrtfSet(
        azimuths=np.atleast_1d(azimuths),
        elevations=np.atleast_1d(elevations),
        left=np.stack([p[0] for p in pairs]),
        right=np.stack([p[1] for p in pairs]),
        rate=DEFAULT_RATE,
    )


@cache
def default_hrtf_set():
    """Spherical-head set on 64 spherical Fibonacci directions, which are
    the virtual loudspeakers of the decode (enough for order 6's 49
    channels). Built once per process; every caller shares the set and
    the decoders it keeps."""
    az, el = fibonacci_directions(64)
    return build_hrtf_set(az, el)
