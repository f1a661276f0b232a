import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve
from scipy.special import lpmv

from clarity_bench.ambisonics import (
    MAX_ORDER,
    AmbiSignal,
    acn_index,
    binaural_decode,
    encode,
    fibonacci_directions,
    num_channels,
    sh_eval,
    truncate,
    yaw_rotation,
)
from clarity_bench.audio import SampleBuffer, mono
from clarity_bench.errors import RateMismatchError
from clarity_bench.hrtf import HrtfSet, default_hrtf_set


def delta_hrtfs(count=64, taps=8):
    """Identical unit-impulse filters both ears for every grid direction."""
    az, el = fibonacci_directions(count)
    firs = np.zeros((count, taps))
    firs[:, 0] = 1.0
    return HrtfSet(azimuths=az, elevations=el, left=firs, right=firs.copy(), rate=16000)


def test_sh_order0_is_one():
    for az, el in [(0.0, 0.0), (1.3, -0.4), (5.0, 1.2)]:
        assert sh_eval(0, az, el) == pytest.approx([1.0])


def test_sh_order1_frontal():
    assert sh_eval(1, 0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-15)


def test_sh_order1_left():
    assert sh_eval(1, np.pi / 2, 0.0) == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-15)


def test_sh_degree1_closed_forms_random_directions():
    rng = np.random.default_rng(42)
    az = rng.uniform(0, 2 * np.pi, 1000)
    el = rng.uniform(-np.pi / 2, np.pi / 2, 1000)
    y = sh_eval(1, az, el)
    assert np.max(np.abs(y[0] - 1.0)) < 1e-12
    assert np.max(np.abs(y[1] - np.sin(az) * np.cos(el))) < 1e-12
    assert np.max(np.abs(y[2] - np.sin(el))) < 1e-12
    assert np.max(np.abs(y[3] - np.cos(az) * np.cos(el))) < 1e-12


def test_sh_elevation_domain():
    with pytest.raises(ValueError):
        sh_eval(2, 0.0, 2.0)
    with pytest.raises(ValueError):
        sh_eval(9, 0.0, 0.0)


def test_encode_zero_signal():
    out = encode(mono(np.zeros(64)), 0.7, 0.1, 3)
    assert out.channels == 16
    assert not np.any(out.data)


def test_encode_impulse_scales_coefficients():
    impulse = np.zeros(8)
    impulse[0] = 1.0
    out = encode(mono(impulse), 0.0, 0.0, 1)
    assert out.data[:, 0] == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-15)
    assert not np.any(out.data[:, 1:])


def test_encode_w_channel_equals_input():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 200)
    out = encode(mono(x), 2.1, -0.6, 6)
    assert np.array_equal(out.w, x)


def test_encode_rejects_multichannel():
    with pytest.raises(ValueError):
        encode(SampleBuffer(np.zeros((2, 4)), 16000), 0.0, 0.0, 1)


def test_yaw_rotation_zero_angle_is_identity():
    for order in range(7):
        rot = yaw_rotation(order, 0.0)
        assert np.array_equal(rot.matrix, np.eye(num_channels(order)))


def test_yaw_rotation_inverse_and_orthogonality():
    rng = np.random.default_rng(5)
    for order in range(1, 7):
        for theta in rng.uniform(-np.pi, np.pi, 100):
            fwd = yaw_rotation(order, theta).matrix
            bwd = yaw_rotation(order, -theta).matrix
            eye = np.eye(num_channels(order))
            assert np.max(np.abs(fwd @ bwd - eye)) < 1e-9
            assert np.max(np.abs(fwd @ fwd.T - eye)) < 1e-9


def test_yaw_rotation_blocks_couple_equal_degree_only():
    rot = yaw_rotation(6, 0.83).matrix
    for l in range(7):
        lo, hi = acn_index(l, -l), acn_index(l, l) + 1
        outside = rot[lo:hi].copy()
        outside[:, lo:hi] = 0.0
        assert not np.any(outside)


def test_plane_wave_consistency_rotation_equals_shifted_encode():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 64)
    for order in range(1, 7):
        for _ in range(20):
            az = rng.uniform(0, 2 * np.pi)
            el = rng.uniform(-np.pi / 2, np.pi / 2)
            theta = rng.uniform(-np.pi, np.pi)
            rotated = yaw_rotation(order, theta).matrix @ encode(mono(x), az, el, order).data
            direct = encode(mono(x), az + theta, el, order)
            assert np.max(np.abs(rotated - direct.data)) < 1e-9


def test_plane_wave_consistency_specific_order6():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 128)
    rotated = yaw_rotation(6, 0.5).matrix @ encode(mono(x), 0.3, 0.1, 6).data
    direct = encode(mono(x), 0.8, 0.1, 6)
    assert np.max(np.abs(rotated - direct.data)) < 1e-9


def test_apply_rotation_identity_and_norm_preservation():
    rng = np.random.default_rng(8)
    sig = AmbiSignal(rng.uniform(-1, 1, (16, 50)), 3, 16000)
    same = yaw_rotation(3, 0.0).matrix @ sig.data
    assert np.array_equal(same, sig.data)
    rotated = yaw_rotation(3, 1.9).matrix @ sig.data
    norms_in = np.linalg.norm(sig.data, axis=0)
    norms_out = np.linalg.norm(rotated, axis=0)
    assert np.max(np.abs(norms_in - norms_out)) < 1e-9


def test_apply_rotation_order_mismatch():
    # A rotation of another order does not fit the field's channels.
    sig = AmbiSignal(np.zeros((4, 10)), 1, 16000)
    with pytest.raises(ValueError):
        yaw_rotation(2, 0.1).matrix @ sig.data
    with pytest.raises(ValueError):
        AmbiSignal(yaw_rotation(1, 0.1).matrix @ sig.data, 2, 16000)


def test_truncate_channel_counts():
    rng = np.random.default_rng(3)
    sig = AmbiSignal(rng.uniform(-1, 1, (49, 20)), 6, 16000)
    low = truncate(sig, 1)
    assert low.channels == 4
    assert np.array_equal(low.data, sig.data[:4])
    same = truncate(sig, 6)
    assert np.array_equal(same.data, sig.data)
    assert np.array_equal(truncate(sig, 0).w, sig.w)
    with pytest.raises(ValueError):
        truncate(low, 2)


def test_truncate_commutes_with_zeroing_high_degrees():
    rng = np.random.default_rng(4)
    sig = AmbiSignal(rng.uniform(-1, 1, (49, 30)), 6, 16000)
    zeroed = sig.data.copy()
    zeroed[4:] = 0.0
    zeroed_sig = AmbiSignal(zeroed, 6, 16000)
    hrtfs = delta_hrtfs()
    a = binaural_decode(truncate(sig, 1), hrtfs)
    b = binaural_decode(truncate(zeroed_sig, 1), hrtfs)
    assert np.array_equal(a.data, b.data)
    # Decoding the zeroed field at its original order uses the order-6
    # pseudo-inverse; on a finite quasi-uniform grid that differs from the
    # order-1 decode by a small cross-degree leakage term.
    c = binaural_decode(zeroed_sig, hrtfs)
    peak = np.max(np.abs(c.data))
    assert np.max(np.abs(a.data - c.data)) < 0.05 * peak


def test_decode_all_delta_hrtfs_keeps_energy():
    rng = np.random.default_rng(6)
    x = rng.uniform(-1, 1, 2000)
    field = encode(mono(x), 0.0, 0.0, 6)
    ears = binaural_decode(field, delta_hrtfs())
    mono_energy = np.sum(x**2)
    for ch in range(2):
        energy = np.sum(ears.channel(ch) ** 2)
        assert abs(10 * np.log10(energy / mono_energy)) < 1.0


def test_decode_zero_field():
    field = AmbiSignal(np.zeros((49, 100)), 6, 16000)
    ears = binaural_decode(field, delta_hrtfs())
    assert not np.any(ears.data)


def test_decode_linearity():
    rng = np.random.default_rng(12)
    a = AmbiSignal(rng.uniform(-1, 1, (16, 80)), 3, 16000)
    b = AmbiSignal(rng.uniform(-1, 1, (16, 80)), 3, 16000)
    hrtfs = delta_hrtfs()
    lhs = binaural_decode(AmbiSignal(a.data + b.data, 3, 16000), hrtfs)
    rhs = binaural_decode(a, hrtfs).data + binaural_decode(b, hrtfs).data
    assert np.max(np.abs(lhs.data - rhs)) < 1e-9


def test_decode_under_determined_grid():
    field = AmbiSignal(np.zeros((16, 10)), 3, 16000)
    small = fibonacci_directions(9)
    with pytest.raises(ValueError):
        binaural_decode(field, delta_hrtfs(), grid=small)


def test_fibonacci_grid_is_deterministic_and_unit():
    az1, el1 = fibonacci_directions(64)
    az2, el2 = fibonacci_directions(64)
    assert np.array_equal(az1, az2) and np.array_equal(el1, el2)
    assert az1.size == 64
    z = np.sin(el1)
    assert np.all(np.abs(z) <= 1.0)
    assert np.all(np.diff(z) < 0)  # descending z sweep


# --- the SH-domain render equals the formulas it replaced -----------------------


def legendre_sh_eval(order, azimuth, elevation):
    """Real SN3D spherical harmonics from lpmv and factorials, one call per (l, m)."""
    az, el = np.broadcast_arrays(np.atleast_1d(azimuth), np.atleast_1d(elevation))
    x = np.sin(el)
    out = np.empty((num_channels(order), az.size))
    for l in range(order + 1):
        for mm in range(l + 1):
            # lpmv carries the Condon-Shortley phase; remove it.
            base = math.sqrt(math.factorial(l - mm) / math.factorial(l + mm)) * (
                (-1.0) ** mm * lpmv(mm, l, x)
            )
            if mm == 0:
                out[acn_index(l, 0)] = base
            else:
                out[acn_index(l, mm)] = math.sqrt(2.0) * base * np.cos(mm * az)
                out[acn_index(l, -mm)] = math.sqrt(2.0) * base * np.sin(mm * az)
    return out


def speaker_feed_decode(signal, hrtfs):
    """Pseudo-inverse feeds on the 64-point grid, each convolved with its
    nearest HRTF pair and summed per ear."""
    az, el = fibonacci_directions(64)
    feeds = np.linalg.pinv(legendre_sh_eval(signal.order, az, el).T).T @ signal.data
    left = np.stack([hrtfs.nearest(a, e)[0] for a, e in zip(az, el)])
    right = np.stack([hrtfs.nearest(a, e)[1] for a, e in zip(az, el)])
    return np.stack([
        fftconvolve(feeds, left, mode="full", axes=1).sum(axis=0),
        fftconvolve(feeds, right, mode="full", axes=1).sum(axis=0),
    ])


# lpmv rebuilds cos(el) as sqrt(1 - sin(el)**2), which loses digits within a
# milliradian of the poles (2e-12 at 1e-5 rad, 2e-10 at 1e-7 rad); the poles
# themselves are exact, and the recurrence's accuracy there is checked below.
directions = st.lists(
    st.tuples(
        st.floats(-4 * np.pi, 4 * np.pi),
        st.floats(-np.pi / 2 + 1e-3, np.pi / 2 - 1e-3),
    ),
    min_size=1,
    max_size=16,
)


@settings(max_examples=60, deadline=None)
@given(directions)
@example([(0.0, np.pi / 2), (1.0, -np.pi / 2), (2.5, 0.0), (-3.0, np.pi / 2)])
def test_sh_eval_equals_legendre_formula(points):
    az, el = np.array(points).T
    for order in range(MAX_ORDER + 1):
        assert np.max(np.abs(sh_eval(order, az, el) - legendre_sh_eval(order, az, el))) < 1e-12


def test_sh_eval_sectoral_terms_stay_accurate_near_the_poles():
    # Y_m^m = sqrt(2 / (2m)!) (2m-1)!! cos(el)^m cos(m az) in SN3D, evaluated
    # with cos(el) directly, so the comparison holds in relative terms.
    az = 0.4
    for delta in np.logspace(-9, -3, 13):
        for el in (np.pi / 2 - delta, -np.pi / 2 + delta):
            y = sh_eval(MAX_ORDER, az, el)
            for mm in range(1, MAX_ORDER + 1):
                exact = (
                    math.sqrt(2.0 / math.factorial(2 * mm))
                    * math.prod(range(1, 2 * mm, 2))
                    * math.cos(el) ** mm
                )
                assert abs(y[acn_index(mm, mm)] - exact * math.cos(mm * az)) <= 1e-13 * exact
                assert abs(y[acn_index(mm, -mm)] - exact * math.sin(mm * az)) <= 1e-13 * exact


@pytest.mark.parametrize("order", range(1, 7))
def test_binaural_decode_equals_speaker_feed_decode(order):
    rng = np.random.default_rng(order)
    hrtfs = default_hrtf_set()
    field = AmbiSignal(rng.uniform(-1, 1, (num_channels(order), 500)), order, 16000)
    ears = binaural_decode(field, hrtfs)
    expected = speaker_feed_decode(field, hrtfs)
    assert ears.data.shape == expected.shape == (2, 500 + hrtfs.taps - 1)
    assert np.max(np.abs(ears.data - expected)) < 1e-12


def test_binaural_decode_rejects_hrtfs_at_another_rate():
    field = AmbiSignal(np.zeros((4, 100)), 1, 16000)
    with pytest.raises(RateMismatchError, match="48000"):
        binaural_decode(field, default_hrtf_set(rate=48000))


def test_binaural_decode_builds_filters_once_per_order_and_grid(monkeypatch):
    hrtfs = default_hrtf_set()
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a.shape) or pinv(a))
    for order in (1, 1, 2, 1):
        binaural_decode(AmbiSignal(np.ones((num_channels(order), 50)), order, 16000), hrtfs)
    binaural_decode(AmbiSignal(np.ones((4, 50)), 1, 16000), hrtfs, grid=fibonacci_directions(10))
    assert calls == [(64, 4), (64, 9), (10, 4)]
    binaural_decode(AmbiSignal(np.ones((4, 50)), 1, 16000), default_hrtf_set())
    assert len(calls) == 4   # a new HrtfSet builds its own


def test_binaural_decode_shares_one_filter_bank_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(9)
    hrtfs = default_hrtf_set()
    field = AmbiSignal(rng.uniform(-1, 1, (16, 2500)), 3, 16000)   # several decode blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(binaural_decode, field, hrtfs) for _ in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(hrtfs._decoders) == 1
    assert all(np.array_equal(r.data, results[0].data) for r in results)
    assert np.max(np.abs(results[0].data - speaker_feed_decode(field, hrtfs))) < 1e-12
