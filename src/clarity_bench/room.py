"""Shoebox image-source simulation in the spherical-harmonic domain.

Every mirror image of the source contributes a single spike:

    amplitude = (-sqrt(1 - absorption)) ** reflections / distance

placed at the frame audio.to_frames(distance / SPEED_OF_SOUND), weighted,
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
the same pow per entry that an element-wise power would make. The
harmonics of a parity class's images come one channel's row at a time
from ambisonics.sh_rows, and each row is scaled by the amplitudes and
binned into its channel as it comes, so no (channels, images) matrix is
built. The RIR is bit-identical to forming one (x, y, z) row, one pow
and every harmonic per image before any binning.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ambisonics import AmbiSignal, num_channels, sh_rows
# Not called here: perfbench/tracing.py wraps sh_eval at this module, and
# its traced run fails without the name.
from .ambisonics import sh_eval  # noqa: F401
from .audio import DEFAULT_RATE, is_finite_number, to_frames

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with uniform, frequency-independent absorption.

    Its rules, on finite non-boolean numbers (`audio.is_finite_number`):
    three dimensions > 0 and absorption in (0, 1]. Sound travels at
    SPEED_OF_SOUND."""

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


def direct_delay(source, listener):
    """The seconds the direct sound takes from source to listener, in the
    arithmetic of image_source_rir: its direct spike lands on frame
    to_frames(direct_delay(source, listener))."""
    return math.sqrt(sum((s - l) * (s - l) for s, l in zip(source, listener))) / SPEED_OF_SOUND


def direct_path_problem(source, listener, time_limit):
    """Why no RIR of time_limit seconds joins the two positions, or None:
    they coincide, or the direct sound arrives after its last frame."""
    if np.allclose(source, listener):
        return "source and listener positions coincide"
    delay = direct_delay(source, listener)
    if to_frames(delay) >= to_frames(time_limit):
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
    frames = to_frames(time_limit)

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
        bins = to_frames(dist / SPEED_OF_SOUND)
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
        row = np.empty(dist.size)
        for ch in sh_rows(order, ux, uy, uz, row):
            row *= amp
            rir[ch] += np.bincount(bins, weights=row, minlength=frames)
        image_count += int(keep.sum())

    return AmbiRir(
        signal=AmbiSignal(rir),
        image_count=image_count,
    )

