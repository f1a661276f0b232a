from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clarity_bench import signals
from clarity_bench.audio import DEFAULT_RATE, next_fast_len, scale_to_rms
from clarity_bench.scenes import draw_scenes
from clarity_bench.signals import (
    TALKER_F0,
    TARGET_RMS,
    _syllabic_envelope,
    music_like,
    noise_like,
    source_signal,
    speech_like,
)

MAX_LENGTH = 3 * DEFAULT_RATE
SMOOTH_LENGTHS = sorted(
    2**a * 3**b * 5**c
    for a in range(16) for b in range(10) for c in range(7)
    if 2**a * 3**b * 5**c <= MAX_LENGTH
)


def circular_shaped_noise(noise, gain):
    """noise filtered by the zero-phase gain circularly at its own length:
    how every generator shaped its draws before the transforms moved to
    5-smooth lengths."""
    n = noise.size
    spectrum = np.fft.rfft(noise)
    spectrum *= gain(np.fft.rfftfreq(n, 1.0 / DEFAULT_RATE))
    return np.fft.irfft(spectrum, n)


def padded_shaped_noise(noise, gain):
    """The circular form at next_fast_len(n) applied to the zero-padded
    draw, cut back to its first n samples."""
    n = noise.size
    return circular_shaped_noise(np.pad(noise, (0, next_fast_len(n) - n)), gain)[:n]


def shaped_with(shaping, gen):
    """gen() with every spectral shaping in signals done by shaping."""
    with mock.patch.object(signals, "_shaped_noise", shaping):
        return gen()


def generators_at(n):
    """Each shaped output of n samples, by name, as a call with no arguments."""
    return {
        "speech_like": lambda: speech_like(n / DEFAULT_RATE, 7),
        "noise_like": lambda: noise_like(n / DEFAULT_RATE, 7),
        "_syllabic_envelope": lambda: _syllabic_envelope(n, np.random.default_rng(7)),
    }


def per_harmonic_speech_like(duration_s, seed):
    """speech_like with one full-length cosine per harmonic, each phase drawn
    as its own scalar: the form the harmonic recurrence replaced. Its
    frication is shaped by the padded circular filter."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * DEFAULT_RATE))
    t = np.arange(n) / DEFAULT_RATE
    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
    phase = 2.0 * np.pi * np.cumsum(TALKER_F0 * vibrato) / DEFAULT_RATE
    harmonics = np.zeros(n)
    for k in range(1, int(7000.0 // TALKER_F0) + 1):
        harmonics += (1.0 / k) * np.cos(k * phase + rng.uniform(0, 2 * np.pi))
    voiced = harmonics * _syllabic_envelope(n, rng)
    frication = padded_shaped_noise(rng.standard_normal(n),
                                    lambda f: 1.0 / (1.0 + np.exp(-(f - 3000.0) / 400.0)))
    frication *= _syllabic_envelope(n, rng, rate_hz=4.0)
    mix = voiced + 0.15 * frication * (np.abs(harmonics).mean() + 1e-12)
    return scale_to_rms(mix, TARGET_RMS)


def test_generators_are_seed_deterministic():
    for gen in (speech_like, noise_like, music_like):
        a = gen(1.0, seed=42)
        b = gen(1.0, seed=42)
        c = gen(1.0, seed=43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_generators_duration_and_level():
    for gen in (speech_like, noise_like, music_like):
        x = gen(1.5, seed=1)
        assert x.size == 24000
        assert np.sqrt(np.mean(x**2)) == pytest.approx(TARGET_RMS, rel=1e-6)


def test_speech_has_pauses_and_modulation():
    x = speech_like(3.0, seed=2)
    frame = 800  # 50 ms
    frames = x[: x.size // frame * frame].reshape(-1, frame)
    frame_rms = np.sqrt(np.mean(frames**2, axis=1))
    assert frame_rms.min() < 0.1 * frame_rms.max()  # silent stretches exist


def test_dispatch():
    assert np.array_equal(source_signal("speech", 0.5, 7), speech_like(0.5, 7))
    assert np.array_equal(source_signal("noise", 0.5, 7), noise_like(0.5, 7))
    assert np.array_equal(source_signal("music", 0.5, 7), music_like(0.5, 7))
    with pytest.raises(ValueError):
        source_signal("birdsong", 0.5, 7)


# The recurrence rounds in another order than the cosine loop, which is no
# more exact: its cosine arguments reach about 1.3e5 rad, where rounding the
# argument alone moves it by about 1e-11 rad. The bound is 1e-11 absolute,
# 2e-10 relative to TARGET_RMS.
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), duration_s=st.floats(0.05, 3.0))
def test_speech_like_matches_per_harmonic_oracle(seed, duration_s):
    got = speech_like(duration_s, seed)
    want = per_harmonic_speech_like(duration_s, seed)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-11


# A draw of 5-smooth length is filtered at its own length, so the shaping
# keeps the bits of the circular filter it replaced (every target: 28,800).
@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from(SMOOTH_LENGTHS))
@example(n=28_800)
def test_shaping_at_5_smooth_lengths_equals_the_circular_filter(n):
    for name, gen in generators_at(n).items():
        want = shaped_with(circular_shaped_noise, gen)
        got = gen()
        assert got.size == n
        assert np.array_equal(got, want), name


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, MAX_LENGTH).filter(lambda n: next_fast_len(n) != n))
@example(n=42_544)
def test_shaping_at_other_lengths_is_the_padded_circular_filter(n):
    for name, gen in generators_at(n).items():
        want = shaped_with(padded_shaped_noise, gen)
        got = gen()
        assert got.size == n
        assert np.array_equal(got, want), name
    for gen in (speech_like, noise_like):
        x = gen(n / DEFAULT_RATE, 7)
        assert np.array_equal(x, gen(n / DEFAULT_RATE, 7))
        assert np.sqrt(np.mean(x**2)) == pytest.approx(TARGET_RMS, rel=1e-6)


def test_every_source_transform_runs_at_a_5_smooth_length(monkeypatch):
    lengths = []

    def record(name, length_of):
        transform = getattr(np.fft, name)

        def recorded(*args, **kwargs):
            lengths.append(length_of(*args, **kwargs))
            return transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, recorded)

    record("rfft", lambda a, n=None, *_, **__: a.shape[-1] if n is None else n)
    record("irfft", lambda a, n=None, *_, **__: 2 * (a.shape[-1] - 1) if n is None else n)
    record("rfftfreq", lambda n, *_, **__: n)
    sizes = []
    for seed in (5, 7, 11):
        for scene in draw_scenes(8, seed):
            for placed in (scene.target, *scene.interferers):
                sizes.append(placed.source.resolve().size)
    assert any(next_fast_len(n) != n for n in sizes)   # the guard has work to do
    assert lengths
    assert [n for n in lengths if next_fast_len(n) != n] == []


def test_vector_phase_draw_equals_scalar_draws():
    scalar, vector = np.random.default_rng(11), np.random.default_rng(11)
    k_max = int(7000.0 // 120.0)
    assert k_max == 58
    drawn = np.array([scalar.uniform(0, 2 * np.pi) for _ in range(k_max)])
    assert np.array_equal(vector.uniform(0, 2 * np.pi, size=k_max), drawn)
    assert np.array_equal(vector.standard_normal(8), scalar.standard_normal(8))


@pytest.mark.parametrize("kind", ["speech", "noise", "music"])
@pytest.mark.parametrize("duration_s", [0.0, 1e-5, 0.5 / DEFAULT_RATE, float("nan")])
def test_source_signal_rejects_durations_under_one_sample(kind, duration_s):
    with pytest.raises(ValueError, match="duration_s"):
        source_signal(kind, duration_s, 3)
    assert source_signal(kind, 1.0 / DEFAULT_RATE, 3).size == 1
