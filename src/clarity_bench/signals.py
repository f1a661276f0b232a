"""Seeded synthetic source material.

The corpus recordings behind the original challenge are not shipped;
these generators stand in for them. Each is deterministic in its seed:
a speech-like modulated harmonic complex for talkers, pink-ish filtered
noise for domestic noise, and a decaying tonal arpeggio for music.

The talker's 58 harmonics sum_k cos(k phase + phi_k) / k are the real part
of the polynomial sum_k c_k z^k in z = exp(i phase), c_k = exp(i phi_k) / k,
evaluated by Horner's rule: one complex multiply-add per harmonic in place
of a full-length cosine. It rounds in another order than the cosine sum, and
stays within 1e-11 absolute (2e-10 of TARGET_RMS) of it; the cosine sum is
no more exact, since its arguments reach about 1.3e5 rad, where rounding
the argument alone is about 1e-11 rad.

Every spectral shaping (the two syllabic envelopes, the frication high-pass
and the pink-noise tilt) goes through _shaped_noise: the n-sample Gaussian
draw, zero-padded to m = next_fast_len(n), is filtered circularly at m by a
zero-phase gain and cut back to its first n samples. The draws are still n
samples, so the random stream does not depend on m. Where n is 5-smooth
(every 1.8 s target: 28,800 = 2^7 3^2 5^2 samples), m = n and the output is
bit for bit the circular filter at n that this rule replaced. At other n
(interferer lengths are 16 x a millisecond count, such as 42,544 = 16 x 2,659)
no transform runs at a length with a large prime factor, where numpy.fft is
many times slower; the output then differs from the circular form at n,
mostly near the ends, where the wrap-around meets the zero padding.
"""

import numpy as np

from .audio import DEFAULT_RATE, next_fast_len, scale_to_rms, to_frames

TARGET_RMS = 0.05  # about -26 dBFS
TALKER_F0 = 120.0  # Hz, the talker's mean fundamental


def _shaped_noise(noise, gain):
    """noise filtered by the zero-phase response gain(freqs in Hz).

    The filter is circular at m = next_fast_len(noise.size) on the draw
    zero-padded to m; the first noise.size samples are returned."""
    n = noise.size
    m = next_fast_len(n)
    spectrum = np.fft.rfft(noise, m)
    spectrum *= gain(np.fft.rfftfreq(m, 1.0 / DEFAULT_RATE))
    return np.fft.irfft(spectrum, m)[:n]


def _pink_gain(freqs):
    """f^-0.5 tilt with the DC bin removed."""
    gain = np.zeros_like(freqs)
    gain[1:] = freqs[1:] ** -0.5
    return gain


def _syllabic_envelope(n, rng, rate_hz=3.0, gate=0.12):
    """Slow positive envelope with speech-like pauses."""
    slow = np.abs(_shaped_noise(rng.standard_normal(n), lambda f: np.exp(-((f / rate_hz) ** 2))))
    slow /= slow.max() + 1e-12
    return np.maximum(slow - gate, 0.0)


def speech_like(duration_s, seed):
    """Modulated harmonic complex with vibrato, pauses and frication."""
    rng = np.random.default_rng(seed)
    n = to_frames(duration_s)
    t = np.arange(n) / DEFAULT_RATE

    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
    phase = 2.0 * np.pi * np.cumsum(TALKER_F0 * vibrato) / DEFAULT_RATE
    # Re sum_k c_k z^k by Horner's rule (module docstring).
    k_max = int(7000.0 // TALKER_F0)
    coeffs = np.exp(1j * rng.uniform(0, 2 * np.pi, size=k_max)) / np.arange(1, k_max + 1)
    z = np.exp(1j * phase)
    acc = np.full(n, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= z
        acc += c
    harmonics = (acc * z).real
    voiced = harmonics * _syllabic_envelope(n, rng)

    frication = _shaped_noise(rng.standard_normal(n),
                              lambda f: 1.0 / (1.0 + np.exp(-(f - 3000.0) / 400.0)))
    frication *= _syllabic_envelope(n, rng, rate_hz=4.0)

    mix = voiced + 0.15 * frication * (np.abs(harmonics).mean() + 1e-12)
    return scale_to_rms(mix, TARGET_RMS)


def noise_like(duration_s, seed):
    """Pink-ish stationary noise (spectrum ~ f^-0.5)."""
    rng = np.random.default_rng(seed)
    n = to_frames(duration_s)
    return scale_to_rms(_shaped_noise(rng.standard_normal(n), _pink_gain), TARGET_RMS)


def music_like(duration_s, seed):
    """Tonal arpeggio: plucked notes from a minor chord."""
    rng = np.random.default_rng(seed)
    n = to_frames(duration_s)
    chord = np.array([220.0, 261.63, 329.63, 440.0])
    note_len = to_frames(0.18)
    out = np.zeros(n)
    start = 0
    while start < n:
        f = float(rng.choice(chord)) * float(rng.choice([0.5, 1.0, 1.0, 2.0]))
        length = min(note_len, n - start)
        t = np.arange(length) / DEFAULT_RATE
        env = np.exp(-t / 0.12)
        note = np.zeros(length)
        for k in range(1, 6):
            note += (1.0 / k**2) * np.sin(2.0 * np.pi * k * f * t)
        out[start : start + length] += env * note
        start += note_len
    return scale_to_rms(out, TARGET_RMS)


_GENERATORS = {"speech": speech_like, "noise": noise_like, "music": music_like}
# Part of the dataset format: scenes draw interferer kinds by index in this order.
SOURCE_KINDS = tuple(_GENERATORS)


def source_signal(kind, duration_s, seed):
    """Dispatch on the interferer/talker kind.

    Raises ValueError for an unknown kind or a duration that rounds to no
    sample at DEFAULT_RATE."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown source kind {kind!r}; expected one of {SOURCE_KINDS}")
    if not (duration_s > 0 and to_frames(duration_s) > 0):   # NaN fails too
        raise ValueError(f"duration_s {duration_s!r} is shorter than one sample at {DEFAULT_RATE} Hz")
    return gen(duration_s, seed)
