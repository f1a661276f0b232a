import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.signal import lfilter

from clarity_bench.hrtf import (
    DEFAULT_TAPS,
    HEAD_RADIUS,
    _fractional_delay,
    _head_shadow,
    default_hrtf_set,
    synth_hrtf,
    woodworth_itd,
)
from clarity_bench.room import SPEED_OF_SOUND

from ambisonic_oracles import unit_vector


def fir_delay(fir):
    """Centre of mass of the squared FIR, in samples."""
    idx = np.arange(fir.size)
    w = fir**2
    return float(np.sum(idx * w) / np.sum(w))


def test_median_plane_symmetry():
    for el in (0.0, 0.4, -0.7):
        left, right = synth_hrtf(unit_vector(0.0, el))
        assert np.array_equal(left, right)


def test_woodworth_itd_value():
    itd = woodworth_itd(np.pi / 2)
    assert itd == pytest.approx(0.0875 / 343 * (np.pi / 2 + 1), rel=1e-12)
    assert itd == pytest.approx(656e-6, abs=4e-6)


def test_full_lateral_itd_in_samples():
    left, right = synth_hrtf((0.0, 1.0, 0.0))
    measured = fir_delay(right) - fir_delay(left)
    expected = woodworth_itd(np.pi / 2) * 16000  # about 10.5
    # the shadow filter adds about one sample of group delay on the far ear
    assert measured == pytest.approx(expected, abs=1.6)


def test_contralateral_shadow_attenuates_high_frequencies():
    _, right = synth_hrtf((0.0, 1.0, 0.0))  # right ear fully shadowed
    freqs = np.fft.rfftfreq(4096, 1 / 16000)
    mag = np.abs(np.fft.rfft(right, 4096))
    at = lambda f: 20 * np.log10(mag[np.argmin(np.abs(freqs - f))])
    assert at(6000) <= at(200) - 6.0


def test_left_right_mirror_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        x, y, z = unit_vector(az, el)
        left_a, right_a = synth_hrtf((x, y, z))
        left_b, right_b = synth_hrtf((x, -y, z))
        assert np.max(np.abs(left_a - right_b)) < 1e-12
        assert np.max(np.abs(right_a - left_b)) < 1e-12


def test_mirror_images_front_back_and_up_down_share_a_pair():
    # The spherical head has no pinnae: (x, y, z) and (-x, y, -z) have the
    # same lateral component, so they get the same pair bit for bit, with
    # no front-back or up-down cue.
    rng = np.random.default_rng(3)
    for direction in [*rng.normal(size=(20, 3)), np.array([1.0, 0.0, 0.0])]:
        x, y, z = direction / np.linalg.norm(direction)
        left_a, right_a = synth_hrtf((x, y, z))
        left_b, right_b = synth_hrtf((-x, y, -z))
        assert np.array_equal(left_a, left_b) and np.array_equal(right_a, right_b)


def test_itd_monotone_in_lateral_angle():
    angles = np.linspace(0, np.pi / 2, 50)
    itds = [woodworth_itd(a) for a in angles]
    assert all(b >= a for a, b in zip(itds, itds[1:]))


def test_head_shadow_dc_gain_unity():
    impulse = np.zeros(8192)
    impulse[0] = 1.0
    for cos_inc in (-1.0, -0.3, 0.0, 0.6, 1.0):
        out = _head_shadow(impulse, cos_inc)
        assert abs(np.sum(out) - 1.0) < 1e-9


def test_default_set_covers_decode_grid():
    hs = default_hrtf_set()
    assert hs.directions.shape == (3, 64)
    assert np.allclose(np.sum(hs.directions**2, axis=0), 1.0, rtol=0, atol=1e-12)
    assert hs.left.shape == hs.right.shape == (64, DEFAULT_TAPS) == (64, 64)
    assert not any(a.flags.writeable for a in (hs.directions, hs.left, hs.right))


def lfilter_shadow(fir, cos_inc):
    """The head-shadow shelf through scipy.signal.lfilter, its oracle."""
    beta = 2.0 * SPEED_OF_SOUND / HEAD_RADIUS
    alpha = 1.0 + cos_inc
    k = 2.0 * 16000
    b = np.array([(alpha * k + beta), (beta - alpha * k)]) / (k + beta)
    a = np.array([1.0, (beta - k) / (k + beta)])
    return lfilter(b, a, fir)


def test_head_shadow_equals_lfilter_on_the_default_set():
    hs = default_hrtf_set()
    assert hs.directions.shape[1] == 64
    for index, y in enumerate(hs.directions[1]):
        half = math.copysign(0.5 * woodworth_itd(abs(math.asin(y))) * 16000, y) if y != 0.0 else 0.0
        for fir, shift, cos_inc in ((hs.left, -half, y), (hs.right, half, -y)):
            delay = _fractional_delay(DEFAULT_TAPS // 2 + shift)
            assert np.array_equal(_head_shadow(delay, cos_inc), lfilter_shadow(delay, cos_inc))
            assert np.array_equal(fir[index], lfilter_shadow(delay, cos_inc))


@settings(max_examples=200, deadline=None)
@given(
    fir=arrays(np.float64, DEFAULT_TAPS, elements=st.floats(-4.0, 4.0)),
    cos_inc=st.floats(-1.0, 1.0),
)
def test_head_shadow_equals_lfilter_on_drawn_firs(fir, cos_inc):
    assert np.array_equal(_head_shadow(fir, cos_inc), lfilter_shadow(fir, cos_inc))
