"""Plane-wave encoding and the yaw rotation matrix, kept as test oracles.

The renderer builds its fields from image-source RIRs and rotates them
with per-degree gain tracks (`scenes.apply_trajectory`); these are the
textbook forms the tests check those paths against.
"""

import math
from dataclasses import dataclass

import numpy as np

from clarity_bench.ambisonics import MAX_ORDER, AmbiSignal, acn_index, num_channels, sh_eval


def encode(source, azimuth, elevation, order):
    """Encode a mono buffer as a plane wave from (azimuth, elevation).

    Channel c of the result is the c-th spherical-harmonic coefficient of
    the direction times the input signal; the W channel equals the input.
    """
    if source.channels != 1:
        raise ValueError(f"encode expects a mono buffer, got {source.channels} channels")
    coeffs = sh_eval(order, azimuth, elevation)
    return AmbiSignal(coeffs[:, None] * source.channel(0)[None, :])


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
