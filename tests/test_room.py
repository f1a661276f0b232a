import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from clarity_bench.ambisonics import AmbiSignal, num_channels, sh_eval, sh_rows
from clarity_bench.room import (
    AmbiRir,
    RoomSpec,
    SourceSpec,
    SPEED_OF_SOUND,
    image_source_rir,
)
from clarity_bench.scenes import PAPER_ROOM

from ambisonic_oracles import angle_sh_eval

PAPER_DIMS = (6.6, 5.8, 2.8)


def brute_force_image_count(room, source, listener, time_limit, rate=16000):
    """Independent lattice enumeration with plain scalar loops."""
    frames = int(round(time_limit * rate))
    c = SPEED_OF_SOUND
    count = 0
    spans = [int(np.ceil(c * time_limit / (2 * d))) + 1 for d in room.dimensions]
    for nx in range(-spans[0], spans[0] + 1):
        for ny in range(-spans[1], spans[1] + 1):
            for nz in range(-spans[2], spans[2] + 1):
                for px in (0, 1):
                    for py in (0, 1):
                        for pz in (0, 1):
                            pos = [
                                (1 - 2 * p) * s + 2 * n * d
                                for p, s, n, d in zip(
                                    (px, py, pz), source.position, (nx, ny, nz), room.dimensions
                                )
                            ]
                            dist = np.sqrt(sum((a - b) ** 2 for a, b in zip(pos, listener)))
                            if int(round(dist / c * rate)) < frames:
                                count += 1
    return count


def row_wise_image_source_rir(room, source, listener, order, time_limit, angles=False, rate=16000):
    """The image-source loop with one (x, y, z) row per image and one pow per
    image, as the renderer computed it before its per-axis form.

    Each image's arrival direction is the unit vector offset / distance, and
    a cardioid's gain comes from its emission cosine, with the renderer's
    arithmetic. With angles=True they take the route the renderer took
    before: azimuth and elevation into angle_sh_eval, and the gain through
    arccos and cos."""
    dims = np.asarray(room.dimensions)
    src = np.asarray(source.position, dtype=np.float64)
    lis = np.asarray(listener, dtype=np.float64)
    c = SPEED_OF_SOUND
    frames = int(round(time_limit * rate))
    beta = -np.sqrt(1.0 - room.absorption)
    spans = np.ceil(c * time_limit / (2.0 * dims)).astype(int) + 1
    axes = [np.arange(-n, n + 1) for n in spans]
    cutoff = ((frames + 1) * c / rate) ** 2
    aim = None if source.aim is None else np.asarray(source.aim, dtype=np.float64)
    k = num_channels(order)
    rir = np.zeros((k, frames))
    image_count = 0
    for px in (0, 1):
        for py in (0, 1):
            for pz in (0, 1):
                parity = np.array([px, py, pz])
                base = (1 - 2 * parity) * src - lis
                sq = [(b + 2.0 * n * d) ** 2 for b, n, d in zip(base, axes, dims)]
                near = np.nonzero(sq[0][:, None, None] + sq[1][:, None] + sq[2] < cutoff)
                lattice = np.stack([a[i] for a, i in zip(axes, near)], axis=1)
                positions = (1 - 2 * parity) * src + 2.0 * lattice * dims
                offsets = positions - lis
                dist = np.linalg.norm(offsets, axis=1)
                bins = np.round(dist / c * rate).astype(int)
                keep = bins < frames
                if not np.any(keep):
                    continue
                dist = dist[keep]
                bins = bins[keep]
                offsets = offsets[keep]
                reflections = np.abs(2 * lattice[keep] - parity).sum(axis=1)
                amp = beta ** reflections / dist
                if angles:
                    if aim is not None:
                        mirrored = np.where(parity == 1, -aim, aim)
                        emission = -offsets / dist[:, None]
                        cos_psi = np.clip(emission @ mirrored, -1.0, 1.0)
                        amp = amp * (0.5 * (1.0 + np.cos(np.arccos(cos_psi))))
                    azimuth = np.arctan2(offsets[:, 1], offsets[:, 0])
                    elevation = np.arcsin(np.clip(offsets[:, 2] / dist, -1.0, 1.0))
                    coeffs = angle_sh_eval(order, azimuth, elevation)
                else:
                    ux, uy, uz = (offsets / dist[:, None]).T
                    if aim is not None:
                        mx, my, mz = np.where(parity == 1, -aim, aim)
                        cos_psi = np.clip(-(ux * mx + uy * my + uz * mz), -1.0, 1.0)
                        amp = amp * (0.5 * (1.0 + cos_psi))
                    coeffs = sh_eval(order, ux, uy, uz)
                for ch in range(k):
                    rir[ch] += np.bincount(bins, weights=coeffs[ch] * amp, minlength=frames)
                image_count += int(keep.sum())
    return AmbiRir(AmbiSignal(rir), image_count)


def assert_same_rir(room, source, listener, order, time_limit):
    got = image_source_rir(room, source, listener, order, time_limit)
    want = row_wise_image_source_rir(room, source, listener, order, time_limit)
    assert got.image_count == want.image_count
    assert np.array_equal(got.signal.data, want.signal.data)


def assert_near_angle_route(room, source, listener, order, time_limit):
    # The unit-vector route rounds differently from the angle route; its
    # RIR stays within 1e-13 of the peak (about 1e-15 measured).
    got = image_source_rir(room, source, listener, order, time_limit)
    want = row_wise_image_source_rir(room, source, listener, order, time_limit, angles=True)
    assert got.image_count == want.image_count
    peak = np.max(np.abs(want.signal.data))
    assert np.max(np.abs(got.signal.data - want.signal.data)) <= 1e-13 * peak


def paper_room_cases(absorption_scale, directivity):
    room = RoomSpec(PAPER_ROOM.dimensions, PAPER_ROOM.absorption * absorption_scale)
    listener = (3.3, 2.9, 1.2)
    for position in ((1.0, 4.6, 1.6), (5.9, 0.7, 2.1)):
        aim = tuple(np.subtract(listener, position)) if directivity == "cardioid" else None
        yield room, SourceSpec(position, aim), listener


paper_room = pytest.mark.parametrize("absorption_scale", [1.0, 0.85])
directivities = pytest.mark.parametrize("directivity", ["omni", "cardioid"])


@pytest.mark.parametrize("order", [0, 1, 6])
@paper_room
@directivities
def test_image_source_rir_equals_row_wise_oracle_in_the_paper_room(order, absorption_scale, directivity):
    for room, source, listener in paper_room_cases(absorption_scale, directivity):
        assert_same_rir(room, source, listener, order, 0.35)


@pytest.mark.parametrize("order", [0, 1, 6])
@paper_room
@directivities
def test_image_source_rir_is_near_the_angle_route_in_the_paper_room(order, absorption_scale, directivity):
    for room, source, listener in paper_room_cases(absorption_scale, directivity):
        assert_near_angle_route(room, source, listener, order, 0.35)


@paper_room
@directivities
def test_order1_rir_is_the_first_four_channels_of_order6(absorption_scale, directivity):
    # Profiles that differ only in order share one geometry: truncating the
    # order-6 RIR must give the order-1 RIR exactly.
    for room, source, listener in paper_room_cases(absorption_scale, directivity):
        low = image_source_rir(room, source, listener, 1, 0.35)
        high = image_source_rir(room, source, listener, 6, 0.35)
        assert low.image_count == high.image_count
        assert np.array_equal(low.signal.data, high.signal.data[:4])


unit = st.floats(0.05, 0.95)


def hypothesis_room(test):
    """Run `test` over 40 random rooms and the case whose |aim|^2 underflows."""
    return settings(max_examples=40, deadline=None)(given(
        dims=st.tuples(*[st.floats(1.5, 5.0)] * 3),
        src=st.tuples(unit, unit, unit),
        lis=st.tuples(unit, unit, unit),
        absorption=st.floats(0.05, 1.0),
        order=st.integers(0, 3),
        aim=st.one_of(st.none(), st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(lambda a: any(a))),
        extra=st.floats(0.002, 0.04),
    )(example(dims=(2.0, 2.0, 2.0), src=(0.5, 0.5, 0.5), lis=(0.5, 0.5, 0.75), absorption=1.0,
              order=0, aim=(0.0, 0.0, 1.190608368674377e-212), extra=0.03125)(test)))


def room_case(dims, src, lis, absorption, aim, extra):
    """(room, source, listener, time_limit) of one Hypothesis room."""
    room = RoomSpec(dims, absorption=absorption)
    src = tuple(np.multiply(src, dims))
    lis = tuple(np.multiply(lis, dims))
    direct = float(np.linalg.norm(np.subtract(src, lis)))
    assume(direct > 0.05)
    source = SourceSpec(src, aim)
    return room, source, lis, direct / SPEED_OF_SOUND + extra


@hypothesis_room
def test_image_source_rir_equals_row_wise_oracle(dims, src, lis, absorption, order, aim, extra):
    room, source, lis, limit = room_case(dims, src, lis, absorption, aim, extra)
    assert_same_rir(room, source, lis, order, limit)


@hypothesis_room
def test_image_source_rir_is_near_the_angle_route(dims, src, lis, absorption, order, aim, extra):
    room, source, lis, limit = room_case(dims, src, lis, absorption, aim, extra)
    assert_near_angle_route(room, source, lis, order, limit)


def test_sh_eval_calls_carry_one_point_per_image(monkeypatch):
    # The render evaluates the harmonics through room.sh_rows; counted by
    # the size of each call's second argument, its points must be one
    # point per image.
    import clarity_bench.room as room_module

    calls = []
    monkeypatch.setattr(room_module, "sh_rows", lambda *args: calls.append(args) or sh_rows(*args))
    for room, source, listener in paper_room_cases(0.85, "cardioid"):
        calls.clear()
        rir = image_source_rir(room, source, listener, 6, 0.35)
        assert calls and all(np.ndim(args[1]) == 1 for args in calls)
        assert sum(args[1].size for args in calls) == rir.image_count


def test_image_source_rir_streams_its_harmonic_rows():
    # Each image's harmonics are scaled and binned a row at a time, so no
    # (49, images) coefficient matrix is built: holding two of them once
    # traced about 4.7 x the RIR's bytes.
    room, source, listener = next(paper_room_cases(1.0, "omni"))
    tracemalloc.start()
    try:
        rir = image_source_rir(room, source, listener, 6, 0.35)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * rir.signal.data.nbytes


@pytest.mark.parametrize("aim, gain", [
    pytest.param((1.0, 0.0, 0.0), 1.0, id="at-the-listener"),
    pytest.param((0.0, 1.0, 0.0), 0.5, id="across"),
    pytest.param((-1.0, 0.0, 0.0), 0.0, id="away"),
])
def test_cardioid_gain_on_the_direct_path(aim, gain):
    # With absorption 1 only the direct path is left, so the cardioid's
    # gain 0.5 (1 + cos psi) scales the one spike of every channel.
    room = RoomSpec(PAPER_DIMS, absorption=1.0)
    source, listener = (2.0, 3.0, 1.5), (4.0, 3.0, 1.5)
    omni = image_source_rir(room, SourceSpec(source), listener, 1, 0.1)
    card = image_source_rir(room, SourceSpec(source, aim), listener, 1, 0.1)
    assert np.array_equal(card.signal.data, gain * omni.signal.data)


def test_a_zero_aim_is_rejected():
    with pytest.raises(ValueError, match="non-zero"):
        SourceSpec((1.0, 1.0, 1.0), (0.0, 0.0, 0.0))


def test_fully_absorbing_room_keeps_only_direct_path():
    room = RoomSpec(PAPER_DIMS, absorption=1.0)
    rir = image_source_rir(room, SourceSpec((2.0, 3.0, 1.5)), (4.0, 3.0, 1.5), 1, 0.1)
    w = rir.signal.data[0]
    nonzero = np.nonzero(w)[0]
    assert nonzero.size == 1
    assert nonzero[0] == round(2.0 / 343.0 * 16000)
    assert w[nonzero[0]] == pytest.approx(0.5)
    # every channel is a single spike at the same sample
    for ch in range(1, 4):
        nz = np.nonzero(rir.signal.data[ch])[0]
        assert nz.size <= 1


def test_direct_path_two_metres_spec_numbers():
    room = RoomSpec(PAPER_DIMS, absorption=1.0)
    rir = image_source_rir(room, SourceSpec((2.0, 2.0, 1.5)), (4.0, 2.0, 1.5), 0, 0.05)
    w = rir.signal.data[0]
    assert np.argmax(np.abs(w)) == 93
    assert w[93] == pytest.approx(0.5)


def test_direct_amplitude_follows_inverse_distance():
    room = RoomSpec((10.0, 9.0, 4.0), absorption=1.0)
    one = image_source_rir(room, SourceSpec((3.0, 4.0, 2.0)), (4.0, 4.0, 2.0), 0, 0.06)
    two = image_source_rir(room, SourceSpec((3.0, 4.0, 2.0)), (5.0, 4.0, 2.0), 0, 0.06)
    assert np.max(np.abs(one.signal.data[0])) == pytest.approx(1.0)
    assert np.max(np.abs(two.signal.data[0])) == pytest.approx(0.5)
    assert np.max(np.abs(two.signal.data[0])) == pytest.approx(0.5 * np.max(np.abs(one.signal.data[0])))


def test_image_count_matches_lattice_enumeration():
    rng = np.random.default_rng(13)
    for _ in range(10):
        dims = tuple(rng.uniform(2.5, 5.0, 3))
        room = RoomSpec(dims, absorption=0.5)
        src = SourceSpec(tuple(rng.uniform(0.5, 1.5, 3)))
        lis = tuple(np.minimum(rng.uniform(1.0, 2.0, 3), np.array(dims) - 0.3))
        limit = rng.uniform(0.02, 0.05)
        rir = image_source_rir(room, src, lis, 0, limit)
        assert rir.image_count == brute_force_image_count(room, src, lis, limit)


def test_energy_monotone_in_absorption():
    tail_energies = []
    for alpha in (0.2, 0.35, 0.5, 0.65, 0.8):
        room = RoomSpec((4.0, 3.5, 2.9), absorption=alpha)
        rir = image_source_rir(room, SourceSpec((1.0, 1.2, 1.4)), (2.8, 2.2, 1.3), 0, 0.25)
        w = rir.signal.data[0]
        direct = np.argmax(w != 0.0)
        tail_energies.append(float(np.sum(w[direct + 1 :] ** 2)))
    assert all(b < a for a, b in zip(tail_energies, tail_energies[1:]))


def test_cardioid_energy_bounded_by_omni():
    room = RoomSpec((5.0, 4.0, 3.0), absorption=0.4)
    listener = (3.5, 2.0, 1.5)
    omni = image_source_rir(room, SourceSpec((1.5, 2.0, 1.5)), listener, 0, 0.2)
    card = image_source_rir(
        room,
        SourceSpec((1.5, 2.0, 1.5), aim=(1.0, 0.0, 0.0)),
        listener,
        0,
        0.2,
    )
    assert np.sum(card.signal.data[0]**2) <= np.sum(omni.signal.data[0]**2)
    # facing the listener: the direct spike is unattenuated
    direct = np.argmax(np.abs(omni.signal.data[0]) > 0)
    assert card.signal.data[0][direct] == pytest.approx(omni.signal.data[0][direct])


def test_geometry_errors():
    room = RoomSpec((4.0, 4.0, 3.0), absorption=0.5)
    with pytest.raises(ValueError):
        image_source_rir(room, SourceSpec((1.0, 1.0, 1.0)), (1.0, 1.0, 1.0), 0, 0.1)
    with pytest.raises(ValueError):
        # direct path (about 5.8 ms) arrives after a 2 ms limit
        image_source_rir(room, SourceSpec((1.0, 1.0, 1.0)), (3.0, 1.0, 1.0), 0, 0.002)


def test_room_spec_validation():
    with pytest.raises(ValueError):
        RoomSpec((0.0, 4.0, 3.0), absorption=0.5)
    with pytest.raises(ValueError):
        RoomSpec((4.0, 4.0, 3.0), absorption=0.0)
    with pytest.raises(ValueError):
        RoomSpec((4.0, 4.0, 3.0), absorption=1.2)
    room = RoomSpec(np.array([4.0, 4.0, 3.0]), absorption=np.float64(0.5))
    assert room.dimensions == (4.0, 4.0, 3.0)


def schroeder_rt60(rir, rate):
    """RT60 from the backward-integrated energy decay curve, by a least
    squares fit between its -5 dB and -35 dB points (T30)."""
    energy = np.cumsum((rir * rir)[::-1])[::-1]
    edc = 10.0 * np.log10(np.maximum(energy / energy[0], 1e-300))
    start, stop = int(np.argmax(edc <= -5.0)), int(np.argmax(edc <= -35.0))
    assert edc[stop] <= -35.0, "decay curve never reaches -35 dB"
    slope = np.polyfit(np.arange(start, stop + 1) / rate, edc[start : stop + 1], 1)[0]
    return -60.0 / slope


def test_paper_room_reverberation_time():
    """6.6 x 5.8 x 2.8 m at the Sabine-derived operating point."""
    room = RoomSpec(PAPER_DIMS, absorption=0.438)
    rir = image_source_rir(room, SourceSpec((2.0, 3.1, 1.5)), (4.4, 2.5, 1.6), 0, 0.45)
    rt = schroeder_rt60(rir.signal.data[0], 16000)
    assert 0.22 <= rt <= 0.32
