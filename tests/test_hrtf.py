import numpy as np
import pytest

from clarity_bench.hrtf import (
    HeadModel,
    HrtfSet,
    _head_shadow,
    build_hrtf_set,
    default_hrtf_set,
    synth_hrtf,
    woodworth_itd,
)


def fir_delay(fir):
    """Centre of mass of the squared FIR, in samples."""
    idx = np.arange(fir.size)
    w = fir**2
    return float(np.sum(idx * w) / np.sum(w))


def test_median_plane_symmetry():
    for el in (0.0, 0.4, -0.7):
        left, right = synth_hrtf(0.0, el)
        assert np.array_equal(left, right)


def test_woodworth_itd_value():
    model = HeadModel()
    itd = woodworth_itd(model, np.pi / 2)
    assert itd == pytest.approx(0.0875 / 343 * (np.pi / 2 + 1), rel=1e-12)
    assert itd == pytest.approx(656e-6, abs=4e-6)


def test_full_lateral_itd_in_samples():
    left, right = synth_hrtf(np.pi / 2, 0.0)
    measured = fir_delay(right) - fir_delay(left)
    expected = woodworth_itd(HeadModel(), np.pi / 2) * 16000  # about 10.5
    # the shadow filter adds about one sample of group delay on the far ear
    assert measured == pytest.approx(expected, abs=1.6)


def test_contralateral_shadow_attenuates_high_frequencies():
    _, right = synth_hrtf(np.pi / 2, 0.0)  # right ear fully shadowed
    freqs = np.fft.rfftfreq(4096, 1 / 16000)
    mag = np.abs(np.fft.rfft(right, 4096))
    at = lambda f: 20 * np.log10(mag[np.argmin(np.abs(freqs - f))])
    assert at(6000) <= at(200) - 6.0


def test_left_right_mirror_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        az = rng.uniform(-np.pi, np.pi)
        el = rng.uniform(-np.pi / 2, np.pi / 2)
        left_a, right_a = synth_hrtf(az, el)
        left_b, right_b = synth_hrtf(-az, el)
        assert np.max(np.abs(left_a - right_b)) < 1e-12
        assert np.max(np.abs(right_a - left_b)) < 1e-12


def test_itd_monotone_in_lateral_angle():
    model = HeadModel()
    angles = np.linspace(0, np.pi / 2, 50)
    itds = [woodworth_itd(model, a) for a in angles]
    assert all(b >= a for a, b in zip(itds, itds[1:]))


def test_head_shadow_dc_gain_unity():
    impulse = np.zeros(8192)
    impulse[0] = 1.0
    model = HeadModel()
    for cos_inc in (-1.0, -0.3, 0.0, 0.6, 1.0):
        out = _head_shadow(impulse, cos_inc, model, 16000)
        assert abs(np.sum(out) - 1.0) < 1e-9


def test_insufficient_taps_rejected():
    with pytest.raises(ValueError):
        synth_hrtf(0.3, 0.0, taps=16)


def test_empty_set_rejected():
    with pytest.raises(ValueError):
        HrtfSet(
            azimuths=np.array([]), elevations=np.array([]),
            left=np.zeros((0, 8)), right=np.zeros((0, 8)), rate=16000,
        )


def test_default_set_covers_decode_grid():
    hs = default_hrtf_set()
    assert hs.azimuths.size == 64
    assert hs.taps == 64
