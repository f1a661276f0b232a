"""Synthetic head-related transfer functions from a rigid-sphere model,
and the fixed Ambisonic-to-binaural decode through them.

Each direction yields a pair of short FIR filters built from two pieces:
a Woodworth interaural time difference realized as a +-ITD/2 fractional
delay (so overall latency is direction-independent), and a first-order
head-shadow shelf H(s) = (alpha(theta) s + beta) / (s + beta) with
beta = 2c/a and alpha = 1 + cos(theta_inc), discretized by the bilinear
transform. theta_inc is the angle between the arrival direction and the
ear's axis (+y for the left ear, -y for the right). A direction is a unit
vector (x, y, z), +x forward and +z up; without pinnae it acts by y alone.

The stage is fixed: a head of radius HEAD_RADIUS = 8.75 cm, sound at
room.SPEED_OF_SOUND, FIRs of DEFAULT_TAPS = 64 taps at audio.DEFAULT_RATE.
64 taps (4 ms) hold twice the largest ITD (0.66 ms) plus the 8-tap
delay kernel. The shelf runs as the plain first-order recursion

    y[n] = b0 x[n] + z,    z = b1 x[n] - a1 y[n],

the transposed direct form II that scipy.signal.lfilter evaluates, with
the same operations in the same order, so the FIRs are bit-identical to
lfilter's.

There is one set, default_hrtf_set: 64 spherical Fibonacci directions,
built once per process and shared. binaural_decode renders an order-N
field through them as virtual loudspeakers. It feeds each loudspeaker
through the Moore-Penrose pseudo-inverse of the 64 x K matrix of its
spherical-harmonic rows (K = (N+1)^2), convolves each feed with that
direction's HRTF pair and sums per ear. The map is linear, so
decoder_bank folds it into one K x DEFAULT_TAPS SH-domain filter bank
per ear, pinv(basis) @ firs, built once per order: each ear is the sum
over the K channels of the channel convolved with its filter, one
audio.convolve_sum, and no speaker feed is formed. Orders above 7 have
more channels than the set has directions and are rejected.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .ambisonics import fibonacci_directions, num_channels, sh_eval
from .audio import DEFAULT_RATE, SampleBuffer, convolve_sum
from .room import SPEED_OF_SOUND

HEAD_RADIUS = 0.0875
DEFAULT_TAPS = 64


def woodworth_itd(lateral_angle):
    """ITD in seconds for a lateral angle in [0, pi/2]."""
    theta = float(lateral_angle)
    if not 0.0 <= theta <= math.pi / 2 + 1e-12:
        raise ValueError("lateral angle must lie in [0, pi/2]")
    return HEAD_RADIUS / SPEED_OF_SOUND * (theta + math.sin(theta))


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


def synth_hrtf(direction):
    """Synthesize the (left FIR, right FIR) pair of a unit vector (x, y, z)."""
    y = direction[1]
    itd = woodworth_itd(abs(math.asin(max(-1.0, min(1.0, y)))))
    half = 0.5 * itd * DEFAULT_RATE * math.copysign(1.0, y) if y != 0.0 else 0.0

    base = DEFAULT_TAPS // 2
    left = _fractional_delay(base - half)
    right = _fractional_delay(base + half)
    return _head_shadow(left, y), _head_shadow(right, -y)


@dataclass(frozen=True)
class HrtfSet:
    """Unit-vector directions with one FIR pair each, DEFAULT_TAPS taps at
    DEFAULT_RATE. The arrays are read-only; directions holds x, y, z rows
    and left and right one row per direction.
    """

    directions: np.ndarray   # (3, count)
    left: np.ndarray   # (count, DEFAULT_TAPS)
    right: np.ndarray  # (count, DEFAULT_TAPS)


@cache
def default_hrtf_set():
    """Spherical-head set on 64 spherical Fibonacci directions, which are
    the virtual loudspeakers of the decode (enough for order 6's 49
    channels). Built once per process and shared by every caller."""
    directions = np.stack(fibonacci_directions(64))
    left, right = (np.stack(firs) for firs in zip(*map(synth_hrtf, directions.T)))
    for array in (directions, left, right):
        array.flags.writeable = False
    return HrtfSet(directions, left, right)


@cache
def decoder_bank(order):
    """The read-only (2, K, DEFAULT_TAPS) SH-domain filter bank of the
    order-`order` decode, K = (order+1)^2; built once per order.

    Raises ValueError when K exceeds the 64 directions of the set.
    """
    hrtfs = default_hrtf_set()
    count, k = hrtfs.directions.shape[1], num_channels(order)
    if count < k:
        raise ValueError(
            f"HRTF set of {count} directions cannot decode {k} channels (order {order})"
        )
    basis = sh_eval(order, *hrtfs.directions).T   # L x K
    bank = np.linalg.pinv(basis) @ np.stack([hrtfs.left, hrtfs.right])
    bank.flags.writeable = False
    return bank


def binaural_decode(field):
    """Render an AmbiSignal to two ears through the default set's virtual
    loudspeakers (module docstring).

    Returns a 2-channel SampleBuffer (left, right), frames + DEFAULT_TAPS - 1
    long. Raises ValueError for an order above 7.
    """
    return SampleBuffer(convolve_sum(field.data, decoder_bank(field.order)))
