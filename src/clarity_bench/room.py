"""Shoebox image-source simulation in the spherical-harmonic domain.

Every mirror image of the source contributes a single spike:

    amplitude = (-sqrt(1 - absorption)) ** reflections / distance

placed at the nearest sample to distance/c, weighted by the source
directivity at the emission angle, and panned into the Ambisonic channels
by the spherical harmonics of its arrival direction. The reflection
coefficient keeps the energy convention |r|^2 = 1 - absorption; the
alternating sign is the pressure-reflection form, which stops co-binned
late arrivals from summing coherently and skewing decay measurements.
"""

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .ambisonics import AmbiSignal, num_channels, sh_eval
from .audio import DEFAULT_RATE
from .errors import InsufficientDecayError

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class RoomSpec:
    """Rectangular room with uniform, frequency-independent absorption."""

    dimensions: tuple
    absorption: float
    speed_of_sound: float = SPEED_OF_SOUND

    def __post_init__(self):
        """Raise one ValueError that names every broken rule."""
        try:
            dims = tuple(self.dimensions)
        except TypeError:
            dims = ()
        problems = []
        if len(dims) != 3 or not all(isinstance(d, Real) and d > 0 for d in dims):
            problems.append(f"dimensions must be three positive lengths, got {self.dimensions}")
        if not (isinstance(self.absorption, Real) and 0.0 < self.absorption <= 1.0):
            problems.append(f"absorption must lie in (0, 1], got {self.absorption}")
        if problems:
            raise ValueError("; ".join(problems))
        object.__setattr__(self, "dimensions", tuple(float(d) for d in dims))


@dataclass(frozen=True)
class SourceSpec:
    """Point source with an optional cardioid directivity."""

    position: tuple
    directivity: str = "omni"
    aim: tuple = None

    def __post_init__(self):
        if self.directivity not in ("omni", "cardioid"):
            raise ValueError(f"unknown directivity {self.directivity!r}")
        if self.directivity == "cardioid":
            if self.aim is None:
                raise ValueError("cardioid sources need an aim vector")
            aim = np.asarray(self.aim, dtype=np.float64)
            norm = np.linalg.norm(aim)
            if norm == 0:
                raise ValueError("aim vector must be non-zero")
            object.__setattr__(self, "aim", tuple(aim / norm))
        object.__setattr__(self, "position", tuple(float(p) for p in self.position))


@dataclass(frozen=True)
class AmbiRir:
    """Ambisonic-domain room impulse response plus simulation bookkeeping."""

    signal: AmbiSignal
    time_limit: float
    image_count: int


def directivity_gain(pattern, angle):
    """Gain of a source pattern at an emission angle from its aim."""
    if pattern == "omni":
        return np.ones_like(np.asarray(angle, dtype=np.float64))
    if pattern == "cardioid":
        return 0.5 * (1.0 + np.cos(angle))
    raise ValueError(f"unknown directivity {pattern!r}")


def image_source_rir(room, source, listener, order, time_limit, rate=DEFAULT_RATE):
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
    rate : int

    Returns
    -------
    AmbiRir
    """
    dims = np.asarray(room.dimensions)
    src = np.asarray(source.position, dtype=np.float64)
    lis = np.asarray(listener, dtype=np.float64)
    c = room.speed_of_sound
    if np.allclose(src, lis):
        raise ValueError("source and listener positions coincide")
    direct = float(np.linalg.norm(src - lis))
    frames = int(round(time_limit * rate))
    if int(round(direct / c * rate)) >= frames:
        raise ValueError(
            f"time limit {time_limit} s ends before the direct path arrives "
            f"({direct / c:.4f} s)"
        )

    beta = -np.sqrt(1.0 - room.absorption)
    reach = c * time_limit
    spans = np.ceil(reach / (2.0 * dims)).astype(int) + 1
    axes = [np.arange(-n, n + 1) for n in spans]
    # Images a sample beyond the last bin cannot round into it; the exact
    # bins < frames test below decides on the rest.
    cutoff = ((frames + 1) * c / rate) ** 2

    aim = np.asarray(source.aim, dtype=np.float64) if source.directivity == "cardioid" else None

    k = num_channels(order)
    rir = np.zeros((k, frames))
    image_count = 0
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                parity = np.array([px, py, pz])
                base = (1 - 2 * parity) * src - lis
                sq = [(b + 2.0 * n * d) ** 2 for b, n, d in zip(base, axes, dims)]
                near = np.nonzero(sq[0][:, None, None] + sq[1][:, None] + sq[2] < cutoff)
                lattice = np.stack([a[i] for a, i in zip(axes, near)], axis=1)
                positions = (1 - 2 * parity) * src + 2.0 * lattice * dims
                offsets = positions - lis
                dist = np.linalg.norm(offsets, axis=1)
                if np.any(dist < 1e-9):
                    raise ValueError("degenerate geometry: zero-distance image")
                bins = np.round(dist / c * rate).astype(int)
                keep = bins < frames
                if not np.any(keep):
                    continue
                dist = dist[keep]
                bins = bins[keep]
                offsets = offsets[keep]
                reflections = np.abs(2 * lattice[keep] - parity).sum(axis=1)
                amp = beta ** reflections / dist
                if aim is not None:
                    mirrored = np.where(parity == 1, -aim, aim)
                    emission = -offsets / dist[:, None]
                    cos_psi = np.clip(emission @ mirrored, -1.0, 1.0)
                    amp = amp * directivity_gain("cardioid", np.arccos(cos_psi))
                azimuth = np.arctan2(offsets[:, 1], offsets[:, 0])
                elevation = np.arcsin(np.clip(offsets[:, 2] / dist, -1.0, 1.0))
                coeffs = sh_eval(order, azimuth, elevation)
                for ch in range(k):
                    rir[ch] += np.bincount(bins, weights=coeffs[ch] * amp, minlength=frames)
                image_count += int(keep.sum())

    return AmbiRir(
        signal=AmbiSignal(rir, order, rate),
        time_limit=float(time_limit),
        image_count=image_count,
    )


def schroeder_rt60(rir, rate):
    """RT60 from the backward-integrated energy decay curve (T30 fit).

    The decay curve is fitted by least squares between its -5 dB and
    -35 dB points and the slope extrapolated to 60 dB. Raises
    InsufficientDecayError when the curve never reaches -35 dB.
    """
    h = np.asarray(rir, dtype=np.float64).ravel()
    if h.size == 0 or not np.any(h != 0.0):
        raise ValueError("impulse response is silent")
    energy = np.cumsum((h * h)[::-1])[::-1]
    edc = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-300))
    above = np.nonzero(edc <= -5.0)[0]
    below = np.nonzero(edc <= -35.0)[0]
    if above.size == 0 or below.size == 0:
        raise InsufficientDecayError("decay curve never spans -5 dB .. -35 dB")
    start, stop = int(above[0]), int(below[0])
    if stop <= start:
        raise InsufficientDecayError("degenerate -5 dB .. -35 dB segment")
    t = np.arange(start, stop + 1) / rate
    seg = edc[start : stop + 1]
    design = np.vstack([t, np.ones_like(t)]).T
    slope, _ = np.linalg.lstsq(design, seg, rcond=None)[0]
    if slope >= 0:
        raise InsufficientDecayError("decay curve is not decaying")
    return -60.0 / float(slope)
