"""Seeded synthetic source material.

The corpus recordings behind the original challenge are not shipped;
these generators stand in for them. Each is deterministic in its seed:
a speech-like modulated harmonic complex for talkers, pink-ish filtered
noise for domestic noise, and a decaying tonal arpeggio for music.
"""

import numpy as np

from .audio import DEFAULT_RATE, scale_to_rms

TARGET_RMS = 0.05  # about -26 dBFS


def _syllabic_envelope(n, rate, rng, rate_hz=3.0, gate=0.12):
    """Slow positive envelope with speech-like pauses."""
    noise = rng.standard_normal(n)
    spectrum = np.fft.rfft(noise)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum *= np.exp(-((freqs / rate_hz) ** 2))
    slow = np.fft.irfft(spectrum, n)
    slow = np.abs(slow)
    slow /= slow.max() + 1e-12
    return np.maximum(slow - gate, 0.0)


def speech_like(duration_s, seed, rate=DEFAULT_RATE, f0=120.0):
    """Modulated harmonic complex with vibrato, pauses and frication."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate))
    t = np.arange(n) / rate

    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
    phase = 2.0 * np.pi * np.cumsum(f0 * vibrato) / rate
    harmonics = np.zeros(n)
    k_max = int(7000.0 // f0)
    for k in range(1, k_max + 1):
        harmonics += (1.0 / k) * np.cos(k * phase + rng.uniform(0, 2 * np.pi))
    voiced = harmonics * _syllabic_envelope(n, rate, rng)

    frication = rng.standard_normal(n)
    spectrum = np.fft.rfft(frication)
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    spectrum *= 1.0 / (1.0 + np.exp(-(freqs - 3000.0) / 400.0))
    frication = np.fft.irfft(spectrum, n) * _syllabic_envelope(n, rate, rng, rate_hz=4.0)

    mix = voiced + 0.15 * frication * (np.abs(harmonics).mean() + 1e-12)
    return scale_to_rms(mix, TARGET_RMS)


def noise_like(duration_s, seed, rate=DEFAULT_RATE):
    """Pink-ish stationary noise (spectrum ~ f^-0.5)."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate))
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / rate)
    shaping = np.ones_like(freqs)
    shaping[1:] = freqs[1:] ** -0.5
    shaping[0] = 0.0
    return scale_to_rms(np.fft.irfft(spectrum * shaping, n), TARGET_RMS)


def music_like(duration_s, seed, rate=DEFAULT_RATE):
    """Tonal arpeggio: plucked notes from a minor chord."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * rate))
    chord = np.array([220.0, 261.63, 329.63, 440.0])
    note_len = int(0.18 * rate)
    out = np.zeros(n)
    start = 0
    while start < n:
        f = float(rng.choice(chord)) * float(rng.choice([0.5, 1.0, 1.0, 2.0]))
        length = min(note_len, n - start)
        t = np.arange(length) / rate
        env = np.exp(-t / 0.12)
        note = np.zeros(length)
        for k in range(1, 6):
            note += (1.0 / k**2) * np.sin(2.0 * np.pi * k * f * t)
        out[start : start + length] += env * note
        start += note_len
    return scale_to_rms(out, TARGET_RMS)


_GENERATORS = {"speech": speech_like, "noise": noise_like, "music": music_like}


def source_signal(kind, duration_s, seed, rate=DEFAULT_RATE):
    """Dispatch on the interferer/talker kind."""
    try:
        gen = _GENERATORS[kind]
    except KeyError:
        raise ValueError(f"unknown source kind {kind!r}; expected one of {sorted(_GENERATORS)}")
    return gen(duration_s, seed, rate=rate)
