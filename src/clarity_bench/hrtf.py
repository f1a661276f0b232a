"""Synthetic head-related transfer functions from a rigid-sphere model.

Each direction yields a pair of short FIR filters built from two pieces:
a Woodworth interaural time difference realized as a +-ITD/2 fractional
delay (so overall latency is direction-independent), and a first-order
head-shadow shelf H(s) = (alpha(theta) s + beta) / (s + beta) with
beta = 2c/a and alpha = 1 + cos(theta_inc), discretized by the bilinear
transform. theta_inc is the angle between the arrival direction and the
ear's axis (+y for the left ear, -y for the right).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.signal import lfilter

from .ambisonics import fibonacci_directions
from .audio import DEFAULT_RATE
from .room import SPEED_OF_SOUND

DEFAULT_HEAD_RADIUS = 0.0875
DEFAULT_TAPS = 64


@dataclass(frozen=True)
class HeadModel:
    """Rigid spherical head; ears on the +-y axis."""

    radius: float = DEFAULT_HEAD_RADIUS
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("head radius must be > 0")

    def max_itd(self):
        """Largest Woodworth ITD (fully lateral source), seconds."""
        return self.radius / self.speed_of_sound * (math.pi / 2 + 1.0)


def woodworth_itd(model, lateral_angle):
    """ITD in seconds for a lateral angle in [0, pi/2]."""
    theta = float(lateral_angle)
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError("lateral angle must lie in [0, pi/2]")
    return model.radius / model.speed_of_sound * (theta + math.sin(theta))


def direction_vector(azimuth, elevation):
    """Unit vector for (azimuth, elevation); +x forward, +y left, +z up."""
    return np.array(
        [
            math.cos(elevation) * math.cos(azimuth),
            math.cos(elevation) * math.sin(azimuth),
            math.sin(elevation),
        ]
    )


def _fractional_delay(taps, delay):
    """8-tap Hann-windowed sinc centred on `delay` samples."""
    x = np.arange(taps, dtype=np.float64) - delay
    h = np.zeros(taps)
    inside = np.abs(x) < 4.0
    h[inside] = np.sinc(x[inside]) * (0.5 + 0.5 * np.cos(np.pi * x[inside] / 4.0))
    return h

def _head_shadow(fir, cos_inc, model, rate):
    """Apply the bilinear-discretized first-order shadow shelf to an FIR."""
    beta = 2.0 * model.speed_of_sound / model.radius
    alpha = 1.0 + cos_inc
    k = 2.0 * rate
    b = np.array([(alpha * k + beta), (beta - alpha * k)]) / (k + beta)
    a = np.array([1.0, (beta - k) / (k + beta)])
    return lfilter(b, a, fir)


def synth_hrtf(azimuth, elevation, model=None, rate=DEFAULT_RATE, taps=DEFAULT_TAPS):
    """Synthesize one (left FIR, right FIR) pair.

    Raises ValueError when `taps` cannot hold the maximum ITD plus the
    fractional-delay kernel.
    """
    model = model or HeadModel()
    if taps / rate <= 2.0 * model.max_itd():
        raise ValueError(
            f"{taps} taps at {rate} Hz cannot hold twice the maximum ITD "
            f"({model.max_itd() * 1e6:.0f} us)"
        )
    d = direction_vector(azimuth, elevation)
    lateral = math.asin(max(-1.0, min(1.0, d[1])))
    itd = woodworth_itd(model, abs(lateral))
    half = 0.5 * itd * rate * math.copysign(1.0, d[1]) if d[1] != 0.0 else 0.0

    base = taps // 2
    left = _fractional_delay(taps, base - half)
    right = _fractional_delay(taps, base + half)
    left = _head_shadow(left, d[1], model, rate)
    right = _head_shadow(right, -d[1], model, rate)
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


def build_hrtf_set(azimuths, elevations, model=None, rate=DEFAULT_RATE, taps=DEFAULT_TAPS):
    """Synthesize an HrtfSet at the given directions."""
    pairs = [
        synth_hrtf(a, e, model=model, rate=rate, taps=taps)
        for a, e in zip(np.atleast_1d(azimuths), np.atleast_1d(elevations))
    ]
    return HrtfSet(
        azimuths=np.atleast_1d(azimuths),
        elevations=np.atleast_1d(elevations),
        left=np.stack([p[0] for p in pairs]),
        right=np.stack([p[1] for p in pairs]),
        rate=rate,
    )


def default_hrtf_set(model=None, rate=DEFAULT_RATE, taps=DEFAULT_TAPS):
    """Spherical-head set on 64 spherical Fibonacci directions, which are
    the virtual loudspeakers of the decode (enough for order 6's 49
    channels)."""
    az, el = fibonacci_directions(64)
    return build_hrtf_set(az, el, model=model, rate=rate, taps=taps)
