"""Shoebox image-source simulation in the spherical-harmonic domain.

Every mirror image of the source contributes a single spike:

    amplitude = (-sqrt(1 - absorption)) ** reflections / distance

placed at the nearest sample to distance / SPEED_OF_SOUND, weighted,
for a source with an aim, by the cardioid gain 0.5 (1 + cos psi) of the
emission cosine cos psi (the image's mirrored aim dotted with its unit
vector toward the listener), and panned into the Ambisonic channels by
the spherical harmonics of its arrival direction, the unit vector
offset / distance from the listener; no angle is formed. The reflection
coefficient keeps the energy convention |r|^2 = 1 - absorption; the
alternating sign is the pressure-reflection form, which stops co-binned
late arrivals from summing coherently and skewing decay measurements.

The images of one parity class (px, py, pz) sit on a lattice n = (nx, ny,
nz). Their offset from the listener splits per axis,
((1 - 2p) src + 2 n d) - listener, and their reflection count is
|2nx - px| + |2ny - py| + |2nz - pz|, so both are computed once per axis
value and gathered for each image. Every amplitude reads
beta ** reflections from a table of beta's powers built once per call,
the same pow per entry that an element-wise power would make; the RIR is
bit-identical to forming one (x, y, z) row and one pow per image.
"""

import itertools
import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .ambisonics import AmbiSignal, num_channels, sh_eval
from .audio import DEFAULT_RATE

SPEED_OF_SOUND = 343.0


def is_finite_number(value):
    """True for a finite real number that is not a boolean."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:   # an int beyond the float range
        return False


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with uniform, frequency-independent absorption.

    Its rules, on finite non-boolean numbers (`is_finite_number`): three
    dimensions > 0 and absorption in (0, 1]. Sound travels at SPEED_OF_SOUND."""

    dimensions: tuple
    absorption: float

    def __post_init__(self):
        """Raise one ValueError that names every broken rule."""
        try:
            dims = tuple(self.dimensions)
        except TypeError:
            dims = ()
        problems = []
        if len(dims) != 3 or not all(is_finite_number(d) and d > 0 for d in dims):
            problems.append(f"dimensions must be three positive lengths, got {self.dimensions}")
        if not (is_finite_number(self.absorption) and 0.0 < self.absorption <= 1.0):
            problems.append(f"absorption must lie in (0, 1], got {self.absorption}")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "dimensions", tuple(float(d) for d in dims))


@dataclass(frozen=True)
class SourceSpec:
    """Point source: omni without an aim, else a cardioid pointed along
    its aim, which is stored normalised and must be non-zero."""

    position: tuple
    aim: tuple = None

    def __post_init__(self):
        if self.aim is not None:
            aim = np.asarray(self.aim, dtype=np.float64)
            norm = np.linalg.norm(aim)
            if norm == 0 and np.any(aim):   # the squares underflow: rescale first
                aim = aim / np.max(np.abs(aim))
                norm = np.linalg.norm(aim)
            if norm == 0:
                raise ValueError("aim vector must be non-zero")
            object.__setattr__(self, "aim", tuple(aim / norm))
        object.__setattr__(self, "position", tuple(float(p) for p in self.position))


@dataclass(frozen=True)
class AmbiRir:
    """Ambisonic-domain room impulse response plus simulation bookkeeping."""

    signal: AmbiSignal
    image_count: int


def direct_path_problem(source, listener, time_limit):
    """Why no RIR of time_limit seconds joins the two positions, or None:
    they coincide, or the direct sound arrives after its last frame."""
    if np.allclose(source, listener):
        return "source and listener positions coincide"
    delay = float(np.linalg.norm(np.subtract(source, listener, dtype=np.float64))) / SPEED_OF_SOUND
    if round(delay * DEFAULT_RATE) >= round(time_limit * DEFAULT_RATE):
        return f"time limit {time_limit} s ends before the direct path arrives ({delay:.4f} s)"
    return None


def image_source_rir(room, source, listener, order, time_limit):
    """Simulate the Ambisonic RIR between a source and a listener.

    Parameters
    ----------
    room : RoomSpec
    source : SourceSpec
    listener : (x, y, z) position in metres
    order : int
        Ambisonic order of the result.
    time_limit : float
        RIR length in seconds; only images arriving earlier contribute.

    Returns
    -------
    AmbiRir
        At DEFAULT_RATE.
    """
    dims = np.asarray(room.dimensions)
    src = np.asarray(source.position, dtype=np.float64)
    lis = np.asarray(listener, dtype=np.float64)
    if problem := direct_path_problem(src, lis, time_limit):
        raise ValueError(problem)
    frames = int(round(time_limit * DEFAULT_RATE))

    beta = -np.sqrt(1.0 - room.absorption)
    reach = SPEED_OF_SOUND * time_limit
    spans = np.ceil(reach / (2.0 * dims)).astype(int) + 1
    axes = [np.arange(-n, n + 1) for n in spans]
    # |2n - p| <= 2 span + 1 on each axis, so the table covers every image.
    powers = beta ** np.arange(2 * int(spans.sum()) + 4)
    # Images a sample beyond the last bin cannot round into it; the exact
    # bins < frames test below decides on the rest.
    cutoff = ((frames + 1) * SPEED_OF_SOUND / DEFAULT_RATE) ** 2

    aim = None if source.aim is None else np.asarray(source.aim, dtype=np.float64)

    k = num_channels(order)
    rir = np.zeros((k, frames))
    image_count = 0
    for parity in itertools.product((0, 1), repeat=3):
        offsets = [(1 - 2 * p) * s + 2.0 * n * d - l
                   for p, s, n, d, l in zip(parity, src, axes, dims, lis)]
        hops = [np.abs(2 * n - p) for n, p in zip(axes, parity)]
        sq = [o * o for o in offsets]
        near = np.nonzero(sq[0][:, None, None] + sq[1][:, None] + sq[2] < cutoff)
        dist = np.sqrt(sq[0][near[0]] + sq[1][near[1]] + sq[2][near[2]])
        if np.any(dist < 1e-9):
            raise ValueError("degenerate geometry: zero-distance image")
        bins = np.round(dist / SPEED_OF_SOUND * DEFAULT_RATE).astype(int)
        keep = bins < frames
        if not np.any(keep):
            continue
        dist = dist[keep]
        bins = bins[keep]
        ix, iy, iz = (i[keep] for i in near)
        ux, uy, uz = offsets[0][ix] / dist, offsets[1][iy] / dist, offsets[2][iz] / dist
        amp = powers[hops[0][ix] + hops[1][iy] + hops[2][iz]] / dist
        if aim is not None:
            mx, my, mz = np.where(np.array(parity) == 1, -aim, aim)
            cos_psi = np.clip(-(ux * mx + uy * my + uz * mz), -1.0, 1.0)
            amp *= 0.5 * (1.0 + cos_psi)
        coeffs = sh_eval(order, ux, uy, uz)
        coeffs *= amp
        for ch in range(k):
            rir[ch] += np.bincount(bins, weights=coeffs[ch], minlength=frames)
        image_count += int(keep.sum())

    return AmbiRir(
        signal=AmbiSignal(rir),
        image_count=image_count,
    )

