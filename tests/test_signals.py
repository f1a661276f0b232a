import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarity_bench.audio import DEFAULT_RATE, scale_to_rms
from clarity_bench.signals import (
    TALKER_F0,
    TARGET_RMS,
    _syllabic_envelope,
    music_like,
    noise_like,
    source_signal,
    speech_like,
)


def per_harmonic_speech_like(duration_s, seed):
    """speech_like with one full-length cosine per harmonic, each phase drawn
    as its own scalar: the form the harmonic recurrence replaced."""
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * DEFAULT_RATE))
    t = np.arange(n) / DEFAULT_RATE
    vibrato = 1.0 + 0.03 * np.sin(2.0 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi))
    phase = 2.0 * np.pi * np.cumsum(TALKER_F0 * vibrato) / DEFAULT_RATE
    harmonics = np.zeros(n)
    for k in range(1, int(7000.0 // TALKER_F0) + 1):
        harmonics += (1.0 / k) * np.cos(k * phase + rng.uniform(0, 2 * np.pi))
    voiced = harmonics * _syllabic_envelope(n, rng)
    frication = rng.standard_normal(n)
    spectrum = np.fft.rfft(frication)
    freqs = np.fft.rfftfreq(n, 1.0 / DEFAULT_RATE)
    spectrum *= 1.0 / (1.0 + np.exp(-(freqs - 3000.0) / 400.0))
    frication = np.fft.irfft(spectrum, n) * _syllabic_envelope(n, rng, rate_hz=4.0)
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
