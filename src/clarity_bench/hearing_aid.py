"""Fixed amplification stage: NAL-R style insertion gains realized as a
linear-phase FIR per ear.

The prescription is linear (no compression): an audiogram maps to one
insertion-gain curve per ear, the curve to a symmetric FIR, and the ear
signals are convolved with it. Output is hard-clamped to [-1, 1] and the
number of clamped samples reported, so level-planning mistakes surface
instead of silently distorting.
"""

from dataclasses import dataclass

import numpy as np

from .audio import DEFAULT_RATE, SampleBuffer, convolve_channels, read_json
from .room import is_finite_number

AUDIOGRAM_FREQUENCIES = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0)
EARS = ("left", "right")   # the rows of a stereo ear buffer, in order

# Frequency-specific prescription constants, dB.
_NALR_K = {250.0: -17.0, 500.0: -8.0, 1000.0: 1.0, 2000.0: -1.0, 4000.0: -2.0, 6000.0: -2.0}

DEFAULT_TAPS = 127   # odd, for a whole-sample group delay; >= 63 resolves 250 Hz


@dataclass(frozen=True)
class Audiogram:
    """Hearing levels in dB HL at the six standard frequencies, per ear:
    finite numbers that are not booleans (`is_finite_number`), in [0, 120]."""

    left: tuple
    right: tuple

    def __post_init__(self):
        for name, levels in (("left", self.left), ("right", self.right)):
            levels = tuple(levels)
            if len(levels) != len(AUDIOGRAM_FREQUENCIES):
                raise ValueError(
                    f"{name} ear needs {len(AUDIOGRAM_FREQUENCIES)} levels "
                    f"at {AUDIOGRAM_FREQUENCIES}, got {len(levels)}"
                )
            for freq, level in zip(AUDIOGRAM_FREQUENCIES, levels):
                if not is_finite_number(level):
                    raise ValueError(f"{name} ear level at {freq:g} Hz is not a finite number: {level!r}")
                if not 0.0 <= level <= 120.0:
                    raise ValueError(f"{name} ear levels must lie in [0, 120] dB HL: {level} at {freq:g} Hz")
            object.__setattr__(self, name, tuple(float(v) for v in levels))

    def ear(self, which):
        if which not in ("left", "right"):
            raise ValueError(f"ear must be 'left' or 'right', got {which!r}")
        return np.array(getattr(self, which))


def flat_audiogram(level_db):
    """Same hearing level at every frequency in both ears."""
    levels = (float(level_db),) * len(AUDIOGRAM_FREQUENCIES)
    return Audiogram(left=levels, right=levels)


def load_audiogram(path):
    """Read {left: {"250": dB, ...}, right: {...}} JSON; every problem
    raises ValueError naming the file."""
    payload = read_json(path)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: audiogram must be a JSON object with 'left' and 'right'")
    ears = []
    for name in ("left", "right"):
        if name not in payload:
            raise ValueError(f"{path}: missing '{name}' ear")
        table = payload[name]
        if not isinstance(table, dict):
            raise ValueError(f"{path}: {name} ear must map frequencies to levels")
        keys = [str(int(f)) for f in AUDIOGRAM_FREQUENCIES]
        if missing := [key for key in keys if key not in table]:
            raise ValueError(f"{path}: {name} ear lacks frequency '{missing[0]}'")
        ears.append([table[key] for key in keys])
    try:
        return Audiogram(left=ears[0], right=ears[1])
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def nalr_gains(audiogram, ear):
    """Prescribed insertion gains in dB for one ear, one per
    AUDIOGRAM_FREQUENCIES.

    With H_f the hearing level at frequency f:

        X = 0.05 * (H500 + H1000 + H2000)
        IG(f) = max(0, X + 0.31 * H_f + k_f)

    where k is {-17, -8, +1, -1, -2, -2} dB at {250, 500, 1000, 2000,
    4000, 6000} Hz.
    """
    levels = audiogram.ear(ear)
    x = 0.05 * (levels[1] + levels[2] + levels[3])
    return tuple(
        max(0.0, x + 0.31 * levels[i] + _NALR_K[f])
        for i, f in enumerate(AUDIOGRAM_FREQUENCIES)
    )


def interpolate_audiogram(values, freqs):
    """dB values at AUDIOGRAM_FREQUENCIES (gains or hearing levels)
    interpolated linearly in (log f, dB) to freqs, flat outside their range."""
    f = np.clip(freqs, AUDIOGRAM_FREQUENCIES[0], AUDIOGRAM_FREQUENCIES[-1])
    return np.interp(np.log(f), np.log(AUDIOGRAM_FREQUENCIES), values)


def design_fir(gains_db):
    """Linear-phase FIR of DEFAULT_TAPS taps at DEFAULT_RATE matching
    insertion gains in dB at AUDIOGRAM_FREQUENCIES, by frequency sampling.

    The target magnitude is sampled on the DEFAULT_TAPS-point DFT grid,
    inverted as a zero-phase response and delayed by (DEFAULT_TAPS-1)/2.
    Coefficients are exactly symmetric; the realized magnitude sits within
    +-1 dB of the gains at the prescription frequencies.
    """
    taps = DEFAULT_TAPS
    half = (taps - 1) // 2
    bin_freqs = np.arange(taps // 2 + 1) * DEFAULT_RATE / taps
    magnitude = 10.0 ** (interpolate_audiogram(gains_db, bin_freqs) / 20.0)
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


def amplify(ears, audiogram):
    """Apply each ear's prescription FIR to a stereo buffer.

    Both ears use DEFAULT_TAPS taps, so group delay ((DEFAULT_TAPS-1)/2
    samples) is identical left and right. Samples outside [-1, 1] are
    clamped and counted.
    """
    if ears.channels != 2:
        raise ValueError(f"amplify expects a stereo buffer, got {ears.channels} channels")
    firs = np.stack([design_fir(nalr_gains(audiogram, ear)) for ear in EARS])
    out = convolve_channels(ears.data, firs)
    clipped = int(np.count_nonzero(np.abs(out) > 1.0))
    return AmplifyResult(ears=SampleBuffer(np.clip(out, -1.0, 1.0)), clipped=clipped)
