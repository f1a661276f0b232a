"""Plane-wave encoding, the yaw rotation matrix and the angle form of the
spherical harmonics, kept as test oracles.

The renderer builds its fields from image-source RIRs, rotates them with
per-degree gain tracks (`scenes.apply_trajectory`) and evaluates the
harmonics from unit vectors; these are the textbook forms the tests check
those paths against.
"""

import math
from dataclasses import dataclass

import numpy as np

from clarity_bench.ambisonics import MAX_ORDER, AmbiSignal, acn_index, num_channels, sh_eval


def unit_vector(azimuth, elevation):
    """(x, y, z) of the direction (azimuth, elevation): +x forward, +y left, +z up."""
    return np.cos(elevation) * np.cos(azimuth), np.cos(elevation) * np.sin(azimuth), np.sin(elevation)


def angle_sh_eval(order, azimuth, elevation):
    """Real SN3D spherical harmonics in ACN order, shape ((order+1)**2, P),
    from azimuth and elevation: the associated Legendre recurrence in
    sin(el) with P_m^m = (2m-1)!! cos^m(el), and cos(m az), sin(m az) by
    the angle-addition formulas. This is how sh_eval evaluated them before
    it took unit vectors."""
    az = np.atleast_1d(np.asarray(azimuth, dtype=np.float64))
    el = np.atleast_1d(np.asarray(elevation, dtype=np.float64))
    az, el = np.broadcast_arrays(az, el)
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
    return out


def encode(source, azimuth, elevation, order):
    """Encode a mono buffer as a plane wave from (azimuth, elevation).

    Channel c of the result is the c-th spherical-harmonic coefficient of
    the direction times the input signal; the W channel equals the input.
    """
    if source.channels != 1:
        raise ValueError(f"encode expects a mono buffer, got {source.channels} channels")
    coeffs = sh_eval(order, *unit_vector(azimuth, elevation))
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
