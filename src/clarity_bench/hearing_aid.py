"""Fixed amplification stage: NAL-R style insertion gains realized as a
linear-phase FIR per ear.

The prescription is linear (no compression): an audiogram maps to one
insertion-gain curve per ear, the curve to a symmetric FIR, and the ear
signals are convolved with it. Output is hard-clamped to [-1, 1] and the
number of clamped samples reported, so level-planning mistakes surface
instead of silently distorting.
"""

import json
from dataclasses import dataclass

import numpy as np

from .audio import DEFAULT_RATE, SampleBuffer, convolve_channels

AUDIOGRAM_FREQUENCIES = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0)

# Frequency-specific prescription constants, dB.
_NALR_K = {250.0: -17.0, 500.0: -8.0, 1000.0: 1.0, 2000.0: -1.0, 4000.0: -2.0, 6000.0: -2.0}

DEFAULT_TAPS = 127


@dataclass(frozen=True)
class Audiogram:
    """Hearing levels in dB HL at the six standard frequencies, per ear."""

    left: tuple
    right: tuple

    def __post_init__(self):
        for name, levels in (("left", self.left), ("right", self.right)):
            arr = tuple(float(v) for v in levels)
            if len(arr) != len(AUDIOGRAM_FREQUENCIES):
                raise ValueError(
                    f"{name} ear needs {len(AUDIOGRAM_FREQUENCIES)} levels "
                    f"at {AUDIOGRAM_FREQUENCIES}, got {len(arr)}"
                )
            if any(not 0.0 <= v <= 120.0 for v in arr):
                raise ValueError(f"{name} ear levels must lie in [0, 120] dB HL")
            object.__setattr__(self, name, arr)

    def ear(self, which):
        if which not in ("left", "right"):
            raise ValueError(f"ear must be 'left' or 'right', got {which!r}")
        return np.array(getattr(self, which))


def flat_audiogram(level_db):
    """Same hearing level at every frequency in both ears."""
    levels = (float(level_db),) * len(AUDIOGRAM_FREQUENCIES)
    return Audiogram(left=levels, right=levels)


def load_audiogram(path):
    """Read {left: {"250": dB, ...}, right: {...}} JSON."""
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: audiogram must be a JSON object with 'left' and 'right'")
    ears = []
    for name in ("left", "right"):
        if name not in payload:
            raise ValueError(f"{path}: missing '{name}' ear")
        table = payload[name]
        if not isinstance(table, dict):
            raise ValueError(f"{path}: {name} ear must map frequencies to levels")
        levels = []
        for key in (str(int(f)) for f in AUDIOGRAM_FREQUENCIES):
            if key not in table:
                raise ValueError(f"{path}: {name} ear lacks frequency '{key}'")
            level = table[key]
            if isinstance(level, bool) or not isinstance(level, (int, float)):
                raise ValueError(f"{path}: {name} ear level at {key} Hz is not a number: {level!r}")
            levels.append(float(level))
        ears.append(tuple(levels))
    return Audiogram(left=ears[0], right=ears[1])


def save_audiogram(audiogram, path):
    payload = {
        name: {
            str(int(f)): level
            for f, level in zip(AUDIOGRAM_FREQUENCIES, getattr(audiogram, name))
        }
        for name in ("left", "right")
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)


@dataclass(frozen=True)
class GainCurve:
    """Insertion gain in dB at the audiogram frequencies, clamped >= 0."""

    frequencies: tuple
    gains_db: tuple

    def __post_init__(self):
        if len(self.frequencies) != len(self.gains_db):
            raise ValueError("frequency/gain lengths differ")
        if any(g < 0 for g in self.gains_db):
            raise ValueError("insertion gains must be >= 0 dB")
        object.__setattr__(self, "frequencies", tuple(float(f) for f in self.frequencies))
        object.__setattr__(self, "gains_db", tuple(float(g) for g in self.gains_db))


def nalr_gains(audiogram, ear):
    """Prescribed insertion-gain curve for one ear.

    With H_f the hearing level at frequency f:

        X = 0.05 * (H500 + H1000 + H2000)
        IG(f) = max(0, X + 0.31 * H_f + k_f)

    where k is {-17, -8, +1, -1, -2, -2} dB at {250, 500, 1000, 2000,
    4000, 6000} Hz.
    """
    levels = audiogram.ear(ear)
    x = 0.05 * (levels[1] + levels[2] + levels[3])
    gains = tuple(
        max(0.0, x + 0.31 * levels[i] + _NALR_K[f])
        for i, f in enumerate(AUDIOGRAM_FREQUENCIES)
    )
    return GainCurve(frequencies=AUDIOGRAM_FREQUENCIES, gains_db=gains)


def _target_db(curve, freqs):
    """Curve interpolated linearly in (log f, dB), flat outside its range."""
    f = np.clip(np.maximum(np.asarray(freqs, dtype=np.float64), 1.0),
                curve.frequencies[0], curve.frequencies[-1])
    return np.interp(np.log(f), np.log(curve.frequencies), curve.gains_db)


def design_fir(curve, taps=DEFAULT_TAPS, rate=DEFAULT_RATE):
    """Linear-phase FIR matching a gain curve, by frequency sampling.

    The target magnitude is sampled on the taps-point DFT grid, inverted
    as a zero-phase response and delayed by (taps-1)/2. Coefficients are
    exactly symmetric; the realized magnitude sits within +-1 dB of the
    curve at the prescription frequencies for taps >= 63.
    """
    if taps % 2 == 0:
        raise ValueError(f"taps must be odd, got {taps}")
    if taps < 63:
        raise ValueError(f"taps must be >= 63 to resolve 250 Hz, got {taps}")
    half = (taps - 1) // 2
    bin_freqs = np.arange(taps // 2 + 1) * rate / taps
    magnitude = 10.0 ** (_target_db(curve, bin_freqs) / 20.0)
    spectrum = np.concatenate([magnitude, magnitude[-1:0:-1]])
    zero_phase = np.fft.ifft(spectrum).real
    fir = np.empty(taps)
    fir[half:] = zero_phase[: half + 1]
    fir[:half] = zero_phase[1 : half + 1][::-1]
    return fir


@dataclass(frozen=True)
class AmplifyResult:
    """Amplified ear signals plus the count of hard-clamped samples."""

    ears: SampleBuffer
    clipped: int


def amplify(ears, audiogram, taps=DEFAULT_TAPS):
    """Apply each ear's prescription FIR to a stereo buffer.

    Both ears use the same tap count, so group delay ((taps-1)/2 samples)
    is identical left and right. Samples outside [-1, 1] are clamped and
    counted.
    """
    if ears.channels != 2:
        raise ValueError(f"amplify expects a stereo buffer, got {ears.channels} channels")
    firs = np.stack([
        design_fir(nalr_gains(audiogram, ear), taps=taps, rate=ears.rate)
        for ear in ("left", "right")
    ])
    out = convolve_channels(ears.data, firs)
    clipped = int(np.count_nonzero(np.abs(out) > 1.0))
    return AmplifyResult(
        ears=SampleBuffer(np.clip(out, -1.0, 1.0), ears.rate),
        clipped=clipped,
    )
