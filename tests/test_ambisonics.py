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
    fibonacci_directions,
    num_channels,
    sh_eval,
)
from clarity_bench.audio import SampleBuffer
from clarity_bench.hrtf import DEFAULT_TAPS, HrtfSet, binaural_decode, decoder_bank, default_hrtf_set

from ambisonic_oracles import encode, unit_vector, yaw_rotation


def test_sh_order0_is_one():
    for az, el in [(0.0, 0.0), (1.3, -0.4), (5.0, 1.2)]:
        assert sh_eval(0, *unit_vector(az, el)) == pytest.approx([1.0])


def test_sh_order1_frontal():
    assert sh_eval(1, *unit_vector(0.0, 0.0)) == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-15)


def test_sh_order1_left():
    assert sh_eval(1, *unit_vector(np.pi / 2, 0.0)) == pytest.approx([1.0, 1.0, 0.0, 0.0], abs=1e-15)


def test_sh_degree1_closed_forms_random_directions():
    rng = np.random.default_rng(42)
    az = rng.uniform(0, 2 * np.pi, 1000)
    el = rng.uniform(-np.pi / 2, np.pi / 2, 1000)
    y = sh_eval(1, *unit_vector(az, el))
    assert np.max(np.abs(y[0] - 1.0)) < 1e-12
    assert np.max(np.abs(y[1] - np.sin(az) * np.cos(el))) < 1e-12
    assert np.max(np.abs(y[2] - np.sin(el))) < 1e-12
    assert np.max(np.abs(y[3] - np.cos(az) * np.cos(el))) < 1e-12


def test_sh_unit_vector_domain():
    # Non-finite points and points off the unit sphere by more than 1e-9
    # in x^2 + y^2 + z^2 are rejected, alone or among good points.
    for point in [(0.0, 0.0, 0.0), (0.6, 0.6, 0.6), (1.0 + 6e-10, 0.0, 0.0),
                  (np.nan, 0.0, 1.0), (0.0, np.inf, 0.0), (-np.inf, np.nan, 0.0)]:
        with pytest.raises(ValueError, match="unit vectors"):
            sh_eval(2, *point)
        with pytest.raises(ValueError, match="unit vectors"):
            sh_eval(2, *np.array([(0.0, 0.0, 1.0), point]).T)
    assert sh_eval(2, 1.0 + 4e-10, 0.0, 0.0).shape == (9,)
    with pytest.raises(ValueError):
        sh_eval(9, 1.0, 0.0, 0.0)


def test_encode_zero_signal():
    out = encode(SampleBuffer(np.zeros(64)), 0.7, 0.1, 3)
    assert out.channels == 16
    assert not np.any(out.data)


def test_encode_impulse_scales_coefficients():
    impulse = np.zeros(8)
    impulse[0] = 1.0
    out = encode(SampleBuffer(impulse), 0.0, 0.0, 1)
    assert out.data[:, 0] == pytest.approx([1.0, 0.0, 0.0, 1.0], abs=1e-15)
    assert not np.any(out.data[:, 1:])


def test_encode_w_channel_equals_input():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1, 1, 200)
    out = encode(SampleBuffer(x), 2.1, -0.6, 6)
    assert np.array_equal(out.data[0], x)


def test_encode_rejects_multichannel():
    with pytest.raises(ValueError):
        encode(SampleBuffer(np.zeros((2, 4))), 0.0, 0.0, 1)


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
            rotated = yaw_rotation(order, theta).matrix @ encode(SampleBuffer(x), az, el, order).data
            direct = encode(SampleBuffer(x), az + theta, el, order)
            assert np.max(np.abs(rotated - direct.data)) < 1e-9


def test_plane_wave_consistency_specific_order6():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, 128)
    rotated = yaw_rotation(6, 0.5).matrix @ encode(SampleBuffer(x), 0.3, 0.1, 6).data
    direct = encode(SampleBuffer(x), 0.8, 0.1, 6)
    assert np.max(np.abs(rotated - direct.data)) < 1e-9


def test_apply_rotation_identity_and_norm_preservation():
    rng = np.random.default_rng(8)
    sig = AmbiSignal(rng.uniform(-1, 1, (16, 50)))
    same = yaw_rotation(3, 0.0).matrix @ sig.data
    assert np.array_equal(same, sig.data)
    rotated = yaw_rotation(3, 1.9).matrix @ sig.data
    norms_in = np.linalg.norm(sig.data, axis=0)
    norms_out = np.linalg.norm(rotated, axis=0)
    assert np.max(np.abs(norms_in - norms_out)) < 1e-9


def test_apply_rotation_order_mismatch():
    # A rotation of another order does not fit the field's channels.
    sig = AmbiSignal(np.zeros((4, 10)))
    with pytest.raises(ValueError):
        yaw_rotation(2, 0.1).matrix @ sig.data


def test_ambi_signal_order_comes_from_a_square_channel_count():
    assert [AmbiSignal(np.zeros(((n + 1) ** 2, 3))).order for n in range(7)] == list(range(7))
    for channels in (0, 2, 5, 8, 50):
        with pytest.raises(ValueError, match="channels"):
            AmbiSignal(np.zeros((channels, 3)))


def test_truncate_commutes_with_zeroing_high_degrees():
    rng = np.random.default_rng(4)
    sig = AmbiSignal(rng.uniform(-1, 1, (49, 30)))
    zeroed = sig.data.copy()
    zeroed[4:] = 0.0
    zeroed_sig = AmbiSignal(zeroed)
    # The order-1 field is the first 4 channels, which zeroing leaves alone.
    a = binaural_decode(AmbiSignal(sig.data[:4]))
    # Decoding the zeroed field at its original order uses the order-6
    # pseudo-inverse; on a finite quasi-uniform grid that differs from the
    # order-1 decode by a small cross-degree leakage term.
    c = binaural_decode(zeroed_sig)
    peak = np.max(np.abs(c.data))
    assert np.max(np.abs(a.data - c.data)) < 0.05 * peak


def test_decode_all_delta_hrtfs_keeps_energy():
    # Far below the head-shadow shelf and with ITDs of a few degrees of
    # phase, every HRTF of the set is a unit-gain delay: at 100 Hz the set
    # acts as delta HRTFs, and the pseudo-inverse decode keeps the level.
    x = np.sin(2 * np.pi * 100.0 * np.arange(4000) / 16000)
    mono_energy = np.sum(x**2)
    for order, az, el in ((6, 0.0, 0.0), (6, 1.0, 0.3), (1, np.pi / 2, 0.0), (3, 2.5, -0.7)):
        ears = binaural_decode(encode(SampleBuffer(x), az, el, order))
        for ch in range(2):
            energy = np.sum(ears.channel(ch) ** 2)
            assert abs(10 * np.log10(energy / mono_energy)) < 1.0


def test_decode_zero_field():
    field = AmbiSignal(np.zeros((49, 100)))
    ears = binaural_decode(field)
    assert not np.any(ears.data)


def test_decode_linearity():
    rng = np.random.default_rng(12)
    a = AmbiSignal(rng.uniform(-1, 1, (16, 80)))
    b = AmbiSignal(rng.uniform(-1, 1, (16, 80)))
    lhs = binaural_decode(AmbiSignal(a.data + b.data))
    rhs = binaural_decode(a).data + binaural_decode(b).data
    assert np.max(np.abs(lhs.data - rhs)) < 1e-9


def test_decode_under_determined_grid():
    # Order 7's 64 channels fill the 64 directions; order 8 needs 81.
    field = AmbiSignal(np.zeros((81, 10)))
    with pytest.raises(ValueError, match="64 directions cannot decode 81 channels"):
        binaural_decode(field)


def test_fibonacci_grid_is_deterministic_and_unit():
    first, second = np.stack(fibonacci_directions(64)), np.stack(fibonacci_directions(64))
    assert np.array_equal(first, second)
    assert first.shape == (3, 64)
    assert np.max(np.abs(np.sum(first**2, axis=0) - 1.0)) < 1e-12
    assert np.all(np.diff(first[2]) < 0)  # descending z sweep


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
    """Pseudo-inverse feeds on the set's own directions, each convolved
    with that direction's HRTF pair and summed per ear."""
    x, y, z = hrtfs.directions
    basis = legendre_sh_eval(signal.order, np.arctan2(y, x), np.arcsin(z)).T
    feeds = np.linalg.pinv(basis).T @ signal.data
    return np.stack([
        fftconvolve(feeds, hrtfs.left, mode="full", axes=1).sum(axis=0),
        fftconvolve(feeds, hrtfs.right, mode="full", axes=1).sum(axis=0),
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
        y = sh_eval(order, *unit_vector(az, el))
        assert np.max(np.abs(y - legendre_sh_eval(order, az, el))) < 1e-12


def test_sh_eval_low_orders_are_the_leading_rows_of_high_orders():
    # Truncating a field to a lower order keeps its leading channels, so the
    # order-N harmonics must be the first (N+1)^2 rows of any higher order's,
    # bit for bit.
    rng = np.random.default_rng(19)
    points = rng.normal(size=(3, 500))
    points /= np.linalg.norm(points, axis=0)
    full = sh_eval(MAX_ORDER, *points)
    for order in range(MAX_ORDER):
        assert np.array_equal(sh_eval(order, *points), full[: num_channels(order)])


def test_sh_eval_sectoral_terms_stay_accurate_near_the_poles():
    # Y_m^m = sqrt(2 / (2m)!) (2m-1)!! cos(el)^m cos(m az) in SN3D, evaluated
    # with cos(el) directly, so the comparison holds in relative terms.
    az = 0.4
    for delta in np.logspace(-9, -3, 13):
        for el in (np.pi / 2 - delta, -np.pi / 2 + delta):
            y = sh_eval(MAX_ORDER, *unit_vector(az, el))
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
    field = AmbiSignal(rng.uniform(-1, 1, (num_channels(order), 500)))
    ears = binaural_decode(field)
    expected = speaker_feed_decode(field, default_hrtf_set())
    assert ears.data.shape == expected.shape == (2, 500 + DEFAULT_TAPS - 1)
    assert np.max(np.abs(ears.data - expected)) < 1e-12


def test_binaural_decode_uses_the_sets_own_directions():
    # The virtual loudspeakers sit exactly on the set's directions: the
    # oracle with the same FIRs on a layout turned by 0.3 rad is far off.
    rng = np.random.default_rng(50)
    hrtfs = default_hrtf_set()
    x, y, z = hrtfs.directions
    turned = HrtfSet(np.stack(unit_vector(np.arctan2(y, x) + 0.3, np.arcsin(z))), hrtfs.left, hrtfs.right)
    field = AmbiSignal(rng.uniform(-1, 1, (49, 700)))
    ears = binaural_decode(field)
    assert np.max(np.abs(ears.data - speaker_feed_decode(field, hrtfs))) < 1e-12
    assert np.max(np.abs(ears.data - speaker_feed_decode(field, turned))) > 1e-3


def test_ambisonics_builds_no_decode_grid():
    # The virtual-loudspeaker layout is the HRTF set's; ambisonics neither
    # builds a direction set nor names a grid or its size.
    import ast
    import pathlib

    import clarity_bench.ambisonics as module

    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", getattr(node.func, "attr", None))
            assert called != "fibonacci_directions", node.lineno
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "arg", None)
        assert "grid" not in (name or "").lower(), node.lineno
        assert not (isinstance(node, ast.Constant) and node.value == 64), node.lineno


def test_binaural_decode_builds_filters_once_per_order_and_grid(monkeypatch):
    decoder_bank.cache_clear()   # the banks are shared per process
    calls = []
    pinv = np.linalg.pinv
    monkeypatch.setattr(np.linalg, "pinv", lambda a: calls.append(a.shape) or pinv(a))
    for order in (1, 1, 2, 1):
        binaural_decode(AmbiSignal(np.ones((num_channels(order), 50))))
    assert calls == [(64, 4), (64, 9)]
    assert decoder_bank(2).shape == (2, 9, DEFAULT_TAPS)
    assert not decoder_bank(1).flags.writeable


def test_binaural_decode_shares_one_filter_bank_across_threads():
    import sys
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(9)
    decoder_bank.cache_clear()   # the threads race to build the bank
    field = AmbiSignal(rng.uniform(-1, 1, (16, 2500)))   # several decode blocks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(8) as pool:
            futures = [pool.submit(binaural_decode, field) for _ in range(16)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert decoder_bank.cache_info().currsize == 1
    assert all(np.array_equal(r.data, results[0].data) for r in results)
    assert np.max(np.abs(results[0].data - speaker_feed_decode(field, default_hrtf_set()))) < 1e-12
