import json
import os
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clarity_bench.ambisonics import AmbiSignal
from clarity_bench.audio import REFERENCE_RMS, SampleBuffer, convolve_sum, read_wav, rms_array, scale_to_rms
from clarity_bench.hrtf import DEFAULT_TAPS, binaural_decode
from clarity_bench.room import RoomSpec
from clarity_bench.scenes import (
    EAR_CALIBRATION_GAIN,
    FidelityProfile,
    ListenerSpec,
    PlacedSource,
    SOURCE_KINDS,
    RotationTrajectory,
    SceneSpec,
    SourceSignal,
    add_transducer_noise,
    apply_trajectory,
    default_trajectory,
    draw_scenes,
    generate_dataset,
    load_scene,
    mix_at_snr,
    render_scene,
    save_scene,
    scene_from_dict,
    scene_to_dict,
)

from ambisonic_oracles import encode, yaw_rotation
from render_oracle import full_field_render

RATE = 16000


def simple_scene(**overrides):
    room = RoomSpec((6.6, 5.8, 2.8), absorption=0.438)
    base = dict(
        room=room,
        target=PlacedSource(
            position=(2.0, 3.0, 1.5),
            source=SourceSignal(kind="speech", duration_s=1.0, synth_seed=5),
            onset_s=0.3,
        ),
        interferers=(
            PlacedSource(
                position=(5.0, 2.0, 1.5),
                source=SourceSignal(kind="noise", duration_s=1.5, synth_seed=6),
                onset_s=0.0,
            ),
        ),
        listener=ListenerSpec(position=(4.0, 4.0, 1.6), trajectory=RotationTrajectory(((0.0, 0.0),))),
        snr_db=3.0,
        fidelity="simulated",
        seed=99,
    )
    base.update(overrides)
    return SceneSpec(**base)


# --- profiles -------------------------------------------------------------


def test_profile_defaults():
    sim = FidelityProfile.simulated()
    assert (sim.ambisonic_order, sim.interferer_directivity) == (6, "omni")
    assert sim.transducer_noise_db is None and sim.absorption_scale == 1.0
    meas = FidelityProfile.measured_like()
    assert meas.ambisonic_order == 1
    assert meas.interferer_directivity == "cardioid"
    assert meas.transducer_noise_db is not None
    assert meas.absorption_scale == pytest.approx(0.85)
    with pytest.raises(ValueError):
        FidelityProfile.from_name("bogus")
    with pytest.raises(ValueError):
        FidelityProfile(ambisonic_order=7)


def test_profile_single_knob_toggles():
    for knob, field in [
        ("order", "ambisonic_order"),
        ("directivity", "interferer_directivity"),
        ("transducer_noise", "transducer_noise_db"),
        ("absorption", "absorption_scale"),
    ]:
        prof = FidelityProfile.simulated().with_knob(knob)
        assert FidelityProfile.with_knob(knob) == prof
        assert FidelityProfile.measured_like().with_knob(knob) == prof
        assert getattr(prof, field) == getattr(FidelityProfile.measured_like(), field)
        for other_field in {"ambisonic_order", "interferer_directivity",
                            "transducer_noise_db", "absorption_scale"} - {field}:
            assert getattr(prof, other_field) == getattr(FidelityProfile.simulated(), other_field)
    with pytest.raises(ValueError):
        FidelityProfile.simulated().with_knob("reverb")


# --- scene files ----------------------------------------------------------


def test_scene_json_round_trip(tmp_path):
    scene = simple_scene()
    path = tmp_path / "scene.json"
    save_scene(scene, path)
    loaded = load_scene(path)
    assert loaded == scene


def test_code_built_scene_survives_save_and_load(tmp_path):
    # An interferer's kind lives in its source alone, so a kind changed in
    # code is the kind its file entry carries, and the file loads back.
    scene = draw_scenes(1, seed=5)[0]
    for kind in SOURCE_KINDS:
        changed = replace(scene, interferers=tuple(
            replace(i, source=replace(i.source, kind=kind)) for i in scene.interferers))
        path = tmp_path / f"{kind}.json"
        save_scene(changed, path)
        entries = json.loads(path.read_text())["interferers"]
        assert [(e["kind"], e["source"]["kind"]) for e in entries] == [(kind, kind)] * len(entries)
        assert load_scene(path) == changed


def test_scene_with_array_positions_saves_and_loads_back(tmp_path):
    scene = simple_scene(target=replace(simple_scene().target, position=(2.0, 3.0, 1.0)))
    arrays = replace(
        scene,
        target=replace(scene.target, position=np.array([2, 3, 1])),
        interferers=tuple(replace(i, position=np.array(i.position)) for i in scene.interferers),
        listener=replace(scene.listener, position=np.array(scene.listener.position)),
    )
    path = tmp_path / "scene.json"
    save_scene(arrays, path)
    assert load_scene(path) == scene


def test_scene_json_directivity_key_is_ignored():
    # Directivity comes from the fidelity profile; older scene files that
    # carry a per-interferer key still load, whatever it holds.
    payload = scene_to_dict(simple_scene())
    assert "directivity" not in payload["interferers"][0]
    for value in ("cardioid", "bogus"):
        payload["interferers"][0]["directivity"] = value
        assert scene_from_dict(payload) == simple_scene()


def test_scene_validation_interferer_count():
    payload = scene_to_dict(simple_scene())
    payload["interferers"] = payload["interferers"] * 4
    with pytest.raises(ValueError, match="between 1 and 3"):
        scene_from_dict(payload)


def test_scene_validation_position_out_of_room():
    payload = scene_to_dict(simple_scene())
    payload["target"]["position"] = [9.0, 3.0, 1.5]
    with pytest.raises(ValueError, match=r"target\.position"):
        scene_from_dict(payload)


def test_scene_validation_collects_all_problems():
    payload = scene_to_dict(simple_scene())
    payload["target"]["position"] = [9.0, 3.0, 1.5]
    payload["snr_db"] = "loud"
    payload["fidelity"] = "imagined"
    with pytest.raises(ValueError) as err:
        scene_from_dict(payload)
    text = str(err.value)
    assert "target.position" in text and "snr_db" in text and "fidelity" in text


def test_scene_validation_takes_room_and_trajectory_rules_from_their_classes():
    payload = scene_to_dict(simple_scene())
    payload["room"]["absorption"] = 2.0
    payload["listener"]["trajectory"] = [[0.5, 0.0]]
    payload["seed"] = "x"
    with pytest.raises(ValueError) as err:
        scene_from_dict(payload)
    text = str(err.value)
    assert "room: absorption must lie in (0, 1]" in text
    assert "listener.trajectory: first trajectory breakpoint must be at t=0" in text
    assert "seed" in text


def set_path(payload, path, value):
    *parents, leaf = path
    for key in parents:
        payload = payload[key]
    payload[leaf] = value


BAD_SOURCE_FIELDS = [
    (("target", "onset_s"), -0.5, "target.onset_s"),
    (("target", "onset_s"), "x", "target.onset_s"),
    (("target", "onset_s"), None, "target.onset_s"),
    (("target", "onset_s"), float("nan"), "target.onset_s"),
    (("target", "onset_s"), True, "target.onset_s"),
    (("target", "onset_s"), 1e9, "scene limit"),
    (("interferers", 0, "onset_s"), -0.5, "interferers[0].onset_s"),
    (("interferers", 0, "onset_s"), 10**400, "interferers[0].onset_s"),
    (("target", "source", "duration_s"), 0.0, "target.source.duration_s"),
    (("target", "source", "duration_s"), None, "target.source.duration_s"),
    (("target", "source", "duration_s"), float("inf"), "target.source.duration_s"),
    (("target", "source", "duration_s"), 1e-5, "target.source.duration_s"),
    (("interferers", 0, "source", "duration_s"), 0.5 / 16000, "interferers[0].source.duration_s"),
    (("interferers", 0, "source", "duration_s"), "2", "interferers[0].source.duration_s"),
    (("interferers", 0, "source", "duration_s"), 40.0, "scene limit"),
    (("target", "source", "synth_seed"), 1.5, "target.source.synth_seed"),
    (("target", "source", "synth_seed"), "5", "target.source.synth_seed"),
    (("interferers", 0, "source", "synth_seed"), -1, "interferers[0].source.synth_seed"),
    (("interferers", 0, "source"), None, "interferers[0].source"),
    (("target", "source", "kind"), "bogus", "target.source.kind"),
    (("interferers", 0, "source", "kind"), "bogus", "interferers[0].source.kind"),
    (("interferers", 0, "source", "kind"), "speech", "interferers[0].source.kind"),
    (("snr_db",), float("nan"), "snr_db"),
    (("snr_db",), float("inf"), "snr_db"),
    (("snr_db",), True, "snr_db"),
    (("seed",), True, "seed"),
    (("seed",), -1, "seed"),
    (("target", "position", 0), True, "target.position"),
    (("listener", "trajectory", 0, 1), float("nan"), "listener.trajectory"),
    (("listener", "trajectory", 0, 1), True, "listener.trajectory"),
    (("listener", "trajectory", 0, 1), "0.5", "listener.trajectory"),
    (("target", "source", "file"), 5, "target.source.file"),
    (("room", "dimensions", 0), 10**400, "room: dimensions"),
    (("room", "dimensions", 0), float("inf"), "room: dimensions"),
    (("room", "absorption"), True, "room: absorption"),
    (("room", "speed_of_sound"), 0, "room: speed_of_sound"),
    (("room", "speed_of_sound"), -343, "room: speed_of_sound"),
    (("room", "speed_of_sound"), "fast", "room: speed_of_sound"),
    (("room", "speed_of_sound"), float("nan"), "room: speed_of_sound"),
    (("room", "speed_of_sound"), None, "room: speed_of_sound"),
    (("room", "speed_of_sound"), True, "room: speed_of_sound"),
    (("snr_db",), -10000, "snr_db"),
    (("snr_db",), 10000, "snr_db"),
    (("snr_db",), -60.5, "snr_db"),
    (("snr_db",), 60.5, "snr_db"),
    (("target", "position"), [4.0, 4.0, 1.6], "target.position: source and listener positions coincide"),
    (("interferers", 0, "position"), (4.0, 4.0, 1.6),
     "interferers[0].position: source and listener positions coincide"),
]


@pytest.mark.parametrize("path, value, named", [
    pytest.param(*case, id=f"{'.'.join(map(str, case[0]))}={case[1]!r:.12}")
    for case in BAD_SOURCE_FIELDS
])
def test_scene_validation_rejects_bad_source_fields(path, value, named):
    payload = scene_to_dict(simple_scene())
    set_path(payload, path, value)
    with pytest.raises(ValueError) as err:
        scene_from_dict(payload)
    assert named in str(err.value)


def test_scene_validation_accepts_sources_up_to_the_scene_limit():
    from clarity_bench.scenes import MAX_SCENE_SECONDS

    payload = scene_to_dict(simple_scene())
    payload["interferers"][0]["onset_s"] = 1.0
    payload["interferers"][0]["source"]["duration_s"] = MAX_SCENE_SECONDS - 1.0
    del payload["target"]["onset_s"]
    del payload["target"]["source"]["synth_seed"]
    assert scene_from_dict(payload).target.onset_s == 0.0


@pytest.mark.parametrize("snr_db", [-60, -60.0, 60, 60.0])
def test_scene_validation_accepts_snr_up_to_the_bound(snr_db):
    payload = scene_to_dict(simple_scene())
    payload["snr_db"] = snr_db
    assert scene_from_dict(payload).snr_db == snr_db


def leaf_paths(node, path=()):
    """Key path of every leaf in nested dicts and lists."""
    if not isinstance(node, (dict, list)):
        yield path
        return
    for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
        yield from leaf_paths(child, path + (key,))


@pytest.mark.parametrize("path", [
    pytest.param(path, id=".".join(map(str, path)))
    for path in leaf_paths(scene_to_dict(simple_scene()))
])
def test_every_field_written_is_checked_on_read(path):
    payload = scene_to_dict(simple_scene())
    set_path(payload, path, "x")
    with pytest.raises(ValueError, match=rf"(^|; ){path[0]}"):
        scene_from_dict(payload)


def test_scene_from_dict_rejects_a_payload_that_is_not_an_object():
    with pytest.raises(ValueError, match="scene: must be an object"):
        scene_from_dict([scene_to_dict(simple_scene())])


def test_trajectory_validation():
    with pytest.raises(ValueError):
        RotationTrajectory(())
    with pytest.raises(ValueError):
        RotationTrajectory(((0.5, 0.0),))
    with pytest.raises(ValueError):
        RotationTrajectory(((0.0, 0.0), (0.0, 1.0)))
    for bad in (((0.0, float("nan")),), ((0.0, 0.0), (float("inf"), 1.0)),
                ((0.0, float("-inf")),), ((0.0, True),), ((False, 0.0),)):
        with pytest.raises(ValueError, match="finite"):
            RotationTrajectory(bad)
    traj = RotationTrajectory(((0.0, 0.1), (1.0, 0.5)))
    assert traj.yaw_at(0.0) == pytest.approx(0.1)
    assert traj.yaw_at(0.5) == pytest.approx(0.3)
    assert traj.yaw_at(5.0) == pytest.approx(0.5)  # held past the end


# --- mixing ---------------------------------------------------------------


def w_with_rms(target_rms, interferer_rms, frames=4000):
    rng = np.random.default_rng(0)
    t = rng.standard_normal(frames)
    i = rng.standard_normal(frames)
    return t * (target_rms / rms_array(t)), i * (interferer_rms / rms_array(i))


def test_mix_equal_rms_zero_snr_keeps_gain_one():
    target, interferer = w_with_rms(0.1, 0.1)
    assert mix_at_snr(target, interferer, 0.0, (0, 4000)) == pytest.approx(1.0, abs=1e-12)


def test_mix_plus_6db_gain():
    target, interferer = w_with_rms(0.1, 0.1)
    gain = mix_at_snr(target, interferer, 6.0, (0, 4000))
    assert gain == pytest.approx(10 ** (-6 / 20), abs=1e-9)


def test_mix_achieved_snr_within_tenth_db():
    rng = np.random.default_rng(123)
    for _ in range(100):
        target, interferer = w_with_rms(rng.uniform(0.02, 0.5), rng.uniform(0.02, 0.5))
        snr = rng.uniform(-12.0, 12.0)
        gain = mix_at_snr(target, interferer, snr, (0, 4000))
        achieved = 20 * np.log10(rms_array(target) / rms_array(gain * interferer))
        assert achieved == pytest.approx(snr, abs=0.1)
        assert gain == pytest.approx(rms_array(target) / rms_array(interferer) * 10 ** (-snr / 20.0),
                                     abs=1e-9)


def test_mix_rejects_silent_interferers():
    target, _ = w_with_rms(0.1, 0.1)
    with pytest.raises(ValueError, match="interferer sum is silent"):
        mix_at_snr(target, np.zeros(4000), 0.0, (0, 4000))
    with pytest.raises(ValueError, match="target is silent"):
        mix_at_snr(np.zeros(4000), target, 0.0, (0, 4000))
    with pytest.raises(ValueError, match="empty target-active range"):
        mix_at_snr(target, target, 0.0, (4000, 5000))


# --- trajectory application ------------------------------------------------


def block_matmul_trajectory(field, trajectory, block_s=0.01):
    """The dense form of apply_trajectory: one K x K rotation per block."""
    hop = int(round(block_s * RATE))
    frames = field.frames
    window = np.empty(2 * hop)
    ramp = (np.arange(hop) + 0.5) / hop
    window[:hop] = ramp
    window[hop:] = ramp[::-1]
    out = np.zeros_like(field.data)
    weight = np.zeros(frames)
    start = -hop
    while start < frames:
        stop = min(start + 2 * hop, frames)
        lo = max(start, 0)
        yaw = float(trajectory.yaw_at((start + hop) / RATE))
        seg = yaw_rotation(field.order, -yaw).matrix @ field.data[:, lo:stop]
        w = window[lo - start : stop - start]
        out[:, lo:stop] += seg * w
        weight[lo:stop] += w
        start += hop
    out /= np.maximum(weight, 1e-12)
    return out


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("trajectory", [
    RotationTrajectory(((0.0, 0.9),)),
    RotationTrajectory(((0.0, -0.4), (0.05, 0.9), (0.15, 0.2), (0.18, 3.5))),
], ids=["constant", "turning"])
def test_apply_trajectory_equals_block_matmul(order, trajectory):
    rng = np.random.default_rng(order)
    field = AmbiSignal(rng.uniform(-1, 1, ((order + 1) ** 2, 3333)))
    out = apply_trajectory(field, trajectory)
    assert out.data.shape == field.data.shape
    assert np.max(np.abs(out.data - block_matmul_trajectory(field, trajectory))) < 1e-12


@pytest.mark.parametrize("start, stop", [(0, 3333), (0, 100), (37, 3333), (160, 1600), (1001, 1002)])
def test_apply_trajectory_of_a_window_keeps_the_whole_fields_bits(start, stop):
    # A field that starts at frame `start` of the scene is rotated as
    # those frames of the whole field are.
    rng = np.random.default_rng(8)
    field = AmbiSignal(rng.uniform(-1, 1, (16, 3333)))
    trajectory = RotationTrajectory(((0.0, -0.4), (0.05, 0.9), (0.15, 0.2), (0.18, 3.5)))
    whole = apply_trajectory(field, trajectory).data[:, start:stop]
    window = apply_trajectory(AmbiSignal(field.data[:, start:stop]), trajectory, start=start)
    assert np.array_equal(window.data, whole)


def test_apply_trajectory_constant_zero_is_identity():
    rng = np.random.default_rng(3)
    field = AmbiSignal(rng.uniform(-1, 1, (16, 3200)))
    out = apply_trajectory(field, RotationTrajectory(((0.0, 0.0),)))
    assert np.array_equal(out.data, field.data)


def test_apply_trajectory_constant_yaw_matches_single_rotation():
    rng = np.random.default_rng(4)
    field = AmbiSignal(rng.uniform(-1, 1, (16, 3200)))
    theta = 0.7
    out = apply_trajectory(field, RotationTrajectory(((0.0, theta),)))
    direct = yaw_rotation(3, -theta).matrix @ field.data
    assert np.max(np.abs(out.data - direct)) < 1e-6


def test_apply_trajectory_preserves_energy_per_block():
    rng = np.random.default_rng(5)
    field = AmbiSignal(rng.uniform(-1, 1, (9, 4800)))
    traj = RotationTrajectory(((0.0, -0.4), (0.1, 0.9), (0.2, 0.2)))
    hop = 160
    for start in range(0, field.frames - hop, hop):
        center_t = (start + hop / 2) / RATE
        rot = yaw_rotation(2, -float(traj.yaw_at(center_t)))
        block = field.data[:, start : start + hop]
        before = np.sum(block**2)
        after = np.sum((rot.matrix @ block) ** 2)
        assert abs(after - before) < 1e-6 * before
    # a head-turn at realistic speed also conserves energy through the
    # crossfade to well under a tenth of a percent
    slow = RotationTrajectory(((0.0, -0.1), (0.3, 0.35)))
    out = apply_trajectory(field, slow)
    assert np.sum(out.data**2) == pytest.approx(np.sum(field.data**2), rel=1e-3)


def test_turning_listener_moves_interaural_delay():
    # plane wave from the front; the listener ends up turned 60 degrees left,
    # so the source should sit at -60 degrees in the head frame afterwards
    rng = np.random.default_rng(6)
    click_train = np.zeros(RATE)
    click_train[::400] = 1.0
    click_train += 0.01 * rng.standard_normal(RATE)
    field = encode(SampleBuffer(click_train), 0.0, 0.0, 4)
    theta = np.radians(60.0)

    def final_itd(trajectory):
        rotated = apply_trajectory(field, trajectory)
        ears = binaural_decode(rotated)
        left = ears.channel(0)[-6000:]
        right = ears.channel(1)[-6000:]
        corr = np.correlate(left, right, "full")
        return int(np.argmax(corr)) - (right.size - 1)

    static = final_itd(RotationTrajectory(((0.0, 0.0),)))
    turned = final_itd(RotationTrajectory(((0.0, 0.0), (0.2, theta))))
    ears_ref = binaural_decode(encode(SampleBuffer(click_train), -theta, 0.0, 4))
    left = ears_ref.channel(0)[-6000:]
    right = ears_ref.channel(1)[-6000:]
    corr = np.correlate(left, right, "full")
    oracle = int(np.argmax(corr)) - (right.size - 1)

    assert static == 0
    assert abs(turned - oracle) <= 1
    assert turned != 0


# --- transducer noise -------------------------------------------------------


def test_transducer_noise_off_is_identity():
    rng = np.random.default_rng(7)
    field = AmbiSignal(rng.uniform(-1, 1, (4, 2000)))
    out = add_transducer_noise(field, None, seed=1, reference_rms=0.1)
    assert np.array_equal(out.data, field.data)


def test_transducer_noise_level_on_silent_field():
    field = AmbiSignal(np.zeros((4, 160000)))
    out = add_transducer_noise(field, 0.0, seed=2, reference_rms=0.25)
    per_channel = np.sqrt(np.mean(out.data**2, axis=1))
    assert np.all(np.abs(per_channel - 0.25) < 0.005)


def test_transducer_noise_seed_determinism():
    rng = np.random.default_rng(8)
    field = AmbiSignal(rng.uniform(-1, 1, (4, 2000)))
    a = add_transducer_noise(field, -20.0, seed=3, reference_rms=0.1)
    b = add_transducer_noise(field, -20.0, seed=3, reference_rms=0.1)
    c = add_transducer_noise(field, -20.0, seed=4, reference_rms=0.1)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)


# --- default trajectory ------------------------------------------------------


def test_default_trajectory_determinism_and_bounds():
    target_az = 0.8
    a = default_trajectory(target_az, seed=11, onset_s=0.8)
    b = default_trajectory(target_az, seed=11, onset_s=0.8)
    assert a == b
    for seed in range(100):
        traj = default_trajectory(target_az, seed=seed, onset_s=0.8)
        initial = traj.breakpoints[0][1]
        final = traj.breakpoints[-1][1]
        offset = abs(np.degrees(initial - target_az))
        assert 15.0 <= offset <= 30.0
        assert abs(np.degrees(final - target_az)) <= 10.0
        turn_time = traj.breakpoints[-1][0] - traj.breakpoints[-2][0]
        assert 0.2 <= turn_time <= 0.4 + 1e-9


# --- rendering ---------------------------------------------------------------


def anechoic_scene(tmp_path):
    """Anechoic room, silent interferer (zero WAV), SNR mixing disabled,
    static listener."""
    from clarity_bench.audio import write_wav

    silent_path = tmp_path / "silence.wav"
    write_wav(silent_path, SampleBuffer(np.zeros(3200)))
    return simple_scene(
        room=RoomSpec((6.6, 5.8, 2.8), absorption=1.0),
        interferers=(PlacedSource((5.0, 2.0, 1.5), SourceSignal(kind="noise", file=str(silent_path))),),
        snr_db=None,
    )


def test_render_degenerate_scene_reduces_to_encode_decode(tmp_path):
    # in the anechoic scene the pipeline collapses to one delayed, scaled
    # plane-wave encode + binaural decode
    scene = anechoic_scene(tmp_path)
    result = render_scene(scene, profile=FidelityProfile.simulated())
    target_pos = np.asarray(scene.target.position)
    listener = np.asarray(scene.listener.position)
    offset = target_pos - listener
    dist = np.linalg.norm(offset)
    azimuth = np.arctan2(offset[1], offset[0])
    elevation = np.arcsin(offset[2] / dist)

    dry = scene.target.source.resolve()
    delay = int(round(dist / 343.0 * RATE))
    onset = int(round(scene.target.onset_s * RATE))
    placed = np.zeros(result.ears.frames - DEFAULT_TAPS + 1)
    start = onset + delay
    placed[start : start + dry.size] = dry / dist
    oracle = binaural_decode(encode(SampleBuffer(placed), azimuth, elevation, 6))

    want = oracle.data * EAR_CALIBRATION_GAIN
    assert result.ears.data.shape == want.shape
    assert np.max(np.abs(result.ears.data - want)) < 1e-6


def test_render_records_the_target_lag_where_each_ear_meets_the_target(tmp_path):
    # target_lag is the onset plus the direct path plus the HRTF centre
    # tap; in the anechoic scene of the test above each ear's
    # cross-correlation with the dry target peaks within the largest ITD
    # (11 samples) of it.
    scene = anechoic_scene(tmp_path)
    result = render_scene(scene, profile=FidelityProfile.simulated())
    dist = np.linalg.norm(np.subtract(scene.target.position, scene.listener.position))
    lag = result.record["target_lag"]
    assert lag == round(0.3 * RATE) + round(dist / 343.0 * RATE) + DEFAULT_TAPS // 2
    dry = scene.target.source.resolve()
    n = result.ears.frames + dry.size
    for ear in result.ears.data:
        xcorr = np.fft.irfft(np.fft.rfft(ear, n) * np.conj(np.fft.rfft(dry, n)), n)
        assert abs(int(np.argmax(xcorr[: ear.size])) - lag) <= 11


def test_load_scene_reads_a_relative_source_file_beside_the_scene(tmp_path, monkeypatch):
    from clarity_bench.audio import write_wav

    sub = tmp_path / "sub"
    sub.mkdir()
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    dry = SourceSignal(kind="speech", duration_s=1.0, synth_seed=5).resolve()
    write_wav(sub / "talk.wav", SampleBuffer(dry))
    payload = scene_to_dict(simple_scene())
    payload["target"]["source"] = {"kind": "speech", "file": "talk.wav"}
    (sub / "scene.json").write_text(json.dumps(payload))
    for cwd, path in ((tmp_path, "sub/scene.json"), (elsewhere, "../sub/scene.json")):
        monkeypatch.chdir(cwd)
        scene = load_scene(path)
        assert os.path.isabs(scene.target.source.file)
        assert os.path.samefile(scene.target.source.file, sub / "talk.wav")
    result = render_scene(scene, profile=FidelityProfile.measured_like())
    assert np.array_equal(result.reference.channel(0),
                          scale_to_rms(dry.astype(np.float32).astype(np.float64), REFERENCE_RMS))


@pytest.mark.parametrize("count", [4, 5])
def test_render_rejects_more_than_three_interferers_before_synthesis(monkeypatch, count):
    # Four unseeded interferers would give the fourth the noise's child
    # seed, five would run out of child seeds; the reader's check comes first.
    from clarity_bench import signals

    scene = draw_scenes(1, seed=5)[0]
    first = scene.interferers[0]
    unseeded = replace(first, source=replace(first.source, synth_seed=None))
    scene = replace(scene, interferers=(unseeded,) * count)

    def no_synthesis(*args, **kwargs):
        raise AssertionError("source synthesized before the interferer count check")

    monkeypatch.setattr(signals, "source_signal", no_synthesis)
    with pytest.raises(ValueError, match=f"^interferers: need between 1 and 3, got {count}$"):
        render_scene(scene)


def moved_first_interferer(scene, position):
    first = replace(scene.interferers[0], position=position)
    return replace(scene, interferers=(first, *scene.interferers[1:]))


def far_target(scene):
    # 248 m from the listener in a 300 m room: the direct sound takes
    # 0.723 s, past the 0.35 s RIR.
    x, y, z = scene.listener.position
    return replace(scene, room=replace(scene.room, dimensions=(300.0, 5.8, 2.8)),
                   target=replace(scene.target, position=(x + 248.0, y, z)))


def first_interferer_source(scene, source):
    first = replace(scene.interferers[0], source=source)
    return replace(scene, interferers=(first, *scene.interferers[1:]))


def measured(scene):
    return replace(scene, fidelity="measured_like")


@pytest.mark.parametrize("change, text", [
    (lambda s: replace(s, snr_db=float("nan")), "snr_db: must be null or a number within +-60, got nan"),
    (lambda s: replace(s, snr_db=500.0), "snr_db: must be null or a number within +-60, got 500.0"),
    (lambda s: moved_first_interferer(s, (100, 1, 1)),
     "interferers[0].position: position [100, 1, 1] outside room bounds [6.6, 5.8, 2.8]"),
    (lambda s: replace(s, target=replace(s.target, onset_s=-0.5)),
     "target.onset_s: must be a finite number >= 0, got -0.5"),
    (lambda s: moved_first_interferer(s, s.listener.position),
     "interferers[0].position: source and listener positions coincide"),
    (lambda s: measured(moved_first_interferer(s, s.listener.position)),
     "interferers[0].position: source and listener positions coincide"),
    (far_target, "target.position: time limit 0.35 s ends before the direct path arrives (0.7230 s)"),
    (lambda s: measured(far_target(s)),
     "target.position: time limit 0.35 s ends before the direct path arrives (0.7230 s)"),
    (lambda s: replace(s, target=None), "target: missing or not an object"),
    (lambda s: replace(s, listener=None), "listener: missing or not an object"),
    (lambda s: replace(s, listener=replace(s.listener, trajectory=None)),
     "listener.trajectory: trajectory needs at least one breakpoint"),
    (lambda s: replace(s, interferers=None), "interferers: need between 1 and 3, got none"),
    (lambda s: replace(s, interferers=(None, *s.interferers[1:])), "interferers[0]: not an object"),
    (lambda s: replace(s, target=replace(s.target, source=None)), "target.source: missing source description"),
    (lambda s: first_interferer_source(s, None),
     "interferers[0].kind: must be speech, noise or music; interferers[0].source: missing source description"),
    (lambda s: first_interferer_source(s, replace(s.interferers[0].source, kind="bogus")),
     "interferers[0].kind: must be speech, noise or music; "
     "interferers[0].source.kind: must be one of ('speech', 'noise', 'music'), got 'bogus'"),
], ids=["snr_db=nan", "snr_db=500", "interferer outside the room", "negative onset",
        "interferer at the listener", "interferer at the listener, measured_like",
        "target beyond the RIR", "target beyond the RIR, measured_like",
        "no target", "no listener", "no trajectory", "no interferer list", "no interferer",
        "no target source", "no interferer source", "unknown interferer kind"])
def test_render_rejects_a_scene_built_in_code_as_the_reader_does(monkeypatch, change, text):
    from clarity_bench import signals

    scene = change(draw_scenes(1, seed=5)[0])
    with pytest.raises(ValueError) as read:
        scene_from_dict(scene_to_dict(scene))
    assert str(read.value) == text

    def no_synthesis(*args, **kwargs):
        raise AssertionError("source synthesized before the scene was checked")

    monkeypatch.setattr(signals, "source_signal", no_synthesis)
    with pytest.raises(ValueError) as rendered:
        render_scene(scene)
    assert str(rendered.value) == text


def test_render_takes_array_positions_as_the_reader_does():
    scene = simple_scene()
    arrays = replace(
        scene,
        target=replace(scene.target, position=np.array(scene.target.position)),
        interferers=tuple(replace(i, position=np.array(i.position)) for i in scene.interferers),
        listener=replace(scene.listener, position=np.array(scene.listener.position)),
    )
    profile = FidelityProfile.measured_like()
    got, want = render_scene(arrays, profile), render_scene(scene, profile)
    assert np.array_equal(got.ears.data, want.ears.data)
    assert np.array_equal(got.reference.data, want.reference.data)
    assert got.record == want.record


@pytest.mark.parametrize("which", ["target", "interferers[0]"])
def test_render_rejects_a_file_source_past_the_scene_limit(tmp_path, monkeypatch, which):
    # 29 s of samples from a 1.5 s onset ends at 30.5 s; the check must
    # come before any room impulse response is computed.
    from clarity_bench import scenes
    from clarity_bench.audio import write_wav

    long_path = tmp_path / "long.wav"
    write_wav(long_path, SampleBuffer(np.full(29 * RATE, 0.01)))
    source = SourceSignal(kind="noise", file=str(long_path))
    scene = simple_scene()
    if which == "target":
        scene = simple_scene(target=PlacedSource(scene.target.position, source, onset_s=1.5))
    else:
        scene = simple_scene(interferers=(PlacedSource((5.0, 2.0, 1.5), source, 1.5),))

    def no_rir(*args, **kwargs):
        raise AssertionError("room impulse response computed before the length check")

    monkeypatch.setattr(scenes, "image_source_rir", no_rir)
    with pytest.raises(ValueError) as err:
        render_scene(scene)
    (problem,) = str(err.value).split("; ")
    assert problem.startswith(f"{which}.source.file {long_path}:")
    assert "30.5 s" in problem and "scene limit" in problem


def test_render_same_seed_is_bit_identical():
    scene = simple_scene()
    a = render_scene(scene)
    b = render_scene(scene)
    assert np.array_equal(a.ears.data, b.ears.data)
    assert np.array_equal(a.reference.data, b.reference.data)


def test_render_linearity_bookkeeping():
    scene = simple_scene(snr_db=2.0)
    result = render_scene(scene, profile=FidelityProfile.simulated(),
                          keep_components=True)
    total = (
        result.components["target_ears"].data
        + result.components["interferer_ears"].data
        + result.components["noise_ears"].data
    )
    peak = np.max(np.abs(result.ears.data))
    assert np.max(np.abs(total - result.ears.data)) < 1e-6 * max(peak, 1.0)


def test_render_reference_is_normalized_dry_target():
    scene = simple_scene()
    result = render_scene(scene)
    ref = result.reference.channel(0)
    assert rms_array(ref) == pytest.approx(10 ** (-26 / 20), rel=1e-6)
    dry = scene.target.source.resolve()
    corr = np.corrcoef(ref, dry)[0, 1]
    assert corr == pytest.approx(1.0, abs=1e-12)


def test_transducer_noise_strictly_lowers_component_snr():
    # component bookkeeping: with self-noise in "everything else", the
    # better-ear SNR drops on every scene. (Order truncation, by contrast,
    # moves raw ear SNR either way -- its damage shows up in the scores,
    # not in this energy ratio.)
    scenes = draw_scenes(6, seed=31)
    for scene in scenes:
        def ear_snr(profile):
            r = render_scene(scene, profile=profile, keep_components=True)
            sig = np.sum(r.components["target_ears"].data ** 2, axis=1)
            rest = (
                r.components["interferer_ears"].data
                + r.components["noise_ears"].data
            )
            rest_energy = np.sum(rest**2, axis=1)
            return float(np.max(10 * np.log10(sig / rest_energy)))

        noisy = ear_snr(FidelityProfile.simulated().with_knob("transducer_noise"))
        clean = ear_snr(FidelityProfile.simulated())
        assert noisy < clean


# --- dataset generation -------------------------------------------------------


def test_generate_dataset_deterministic_and_valid(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    manifest_a = generate_dataset(out_a, count=3, seed=7, fidelity="simulated")
    manifest_b = generate_dataset(out_b, count=3, seed=7, fidelity="simulated")
    with open(manifest_a, "rb") as fp_a, open(manifest_b, "rb") as fp_b:
        bytes_a, bytes_b = fp_a.read(), fp_b.read()
    assert bytes_a == bytes_b
    for wav in sorted(p.name for p in out_a.glob("*.wav")):
        assert (out_a / wav).read_bytes() == (out_b / wav).read_bytes()

    manifest = json.loads(bytes_a)
    assert manifest["count"] == 3 and len(manifest["scenes"]) == 3
    ids = [e["id"] for e in manifest["scenes"]]
    assert ids == sorted(ids)

    for entry in manifest["scenes"]:
        scene = load_scene(out_a / entry["scene"])
        positions = [np.asarray(scene.target.position)] + [
            np.asarray(i.position) for i in scene.interferers
        ]
        dims = np.asarray(scene.room.dimensions)
        for pos in positions + [np.asarray(scene.listener.position)]:
            assert np.all(pos >= 0.5 - 1e-9) and np.all(pos <= dims - 0.5 + 1e-9)
        for i, a in enumerate(positions):
            for b in positions[i + 1 :]:
                assert np.linalg.norm(a - b) >= 1.0 - 1e-9
        assert -6.0 <= scene.snr_db <= 6.0
        mix = read_wav(out_a / entry["mix"])
        assert mix.channels == 2


def test_generate_dataset_measured_like_records_profile(tmp_path):
    manifest_path = generate_dataset(tmp_path / "m", count=1, seed=9, fidelity="measured_like")
    with open(manifest_path, encoding="utf-8") as fp:
        manifest = json.load(fp)
    entry = manifest["scenes"][0]
    assert manifest["fidelity"] == "measured_like"
    assert entry["profile"] == {"ambisonic_order": 1, "interferer_directivity": "cardioid",
                                "transducer_noise_db": -25.0, "absorption_scale": 0.85}


def test_mix_returns_its_gain():
    target, interferer = w_with_rms(0.1, 0.2)
    gain = mix_at_snr(target, interferer, 6.0, (0, 4000))
    assert gain == pytest.approx(0.5 * 10 ** (-6 / 20), rel=1e-12)
    assert mix_at_snr(target, interferer, None, (0, 4000)) == 1.0


def test_mix_w_equals_mixed_field_w(monkeypatch):
    # The gain comes from a W-only pass; the mixed field comes from one
    # pass over every channel with the interferers pre-scaled by it. A
    # render forms the field only over the head turn, so the whole field
    # is the full-field oracle's.
    from clarity_bench import scenes

    seen = {}

    def mix(*args):
        seen["w"] = args[:2]
        seen["gain"] = mix_at_snr(*args)
        return seen["gain"]

    monkeypatch.setattr(scenes, "mix_at_snr", mix)
    scene = draw_scenes(1, seed=5)[0]
    assert len(scene.interferers) > 1
    render_scene(scene)
    target_w, interferer_w = seen["w"]
    gain = seen["gain"]
    assert gain != 1.0
    field = full_field_render(scene)[2]
    assert field.order == 6 and field.frames == target_w.size == interferer_w.size
    assert np.max(np.abs(field.data[0] - (target_w + gain * interferer_w))) < 1e-12


def test_render_components_leave_ears_unchanged():
    scene = simple_scene()
    profile = FidelityProfile.measured_like()
    plain = render_scene(scene, profile=profile)
    split = render_scene(scene, profile=profile, keep_components=True)
    assert np.array_equal(split.ears.data, plain.ears.data)
    assert split.record == plain.record


# The turn scene's field lasts its last source's end (0.6 s) plus the RIR.
TURN_SCENE_S = 0.6 + 0.35


def turn_scene(trajectory):
    """A two-interferer scene in a large room (few image sources), short
    enough that a trajectory can hold, turn and hold again within it."""
    return simple_scene(
        room=RoomSpec((16.0, 14.0, 6.0), absorption=0.438),
        target=PlacedSource((6.0, 7.0, 1.5), SourceSignal("speech", 0.4, 5), onset_s=0.2),
        interferers=(PlacedSource((9.0, 5.0, 1.5), SourceSignal("noise", 0.6, 6)),
                     PlacedSource((7.0, 10.0, 1.2), SourceSignal("music", 0.5, 7), onset_s=0.1)),
        listener=ListenerSpec((8.0, 8.0, 1.6), trajectory),
    )


@st.composite
def trajectories(draw, kind):
    yaw, gap = st.floats(-np.pi, np.pi), st.floats(0.005, 0.3)
    if kind == "one breakpoint":
        return RotationTrajectory(((0.0, draw(yaw)),))
    if kind == "moving throughout":
        yaws = draw(st.lists(yaw, min_size=12, max_size=12))
        return RotationTrajectory(tuple(zip(np.arange(12) * 0.1, yaws)))
    if kind == "turn from t = 0":
        return RotationTrajectory(((0.0, draw(yaw)), (draw(gap), draw(yaw))))
    first, start = draw(yaw), draw(st.floats(0.005, TURN_SCENE_S))
    if kind == "turn past the end":
        return RotationTrajectory(((0.0, first), (start, first), (TURN_SCENE_S + draw(gap), draw(yaw))))
    turned = draw(yaw)
    times = np.cumsum([start] + [draw(gap) for _ in range(3)])
    if kind == "return to start":
        return RotationTrajectory(((0.0, first), (times[0], first), (times[1], turned), (times[2], first)))
    assert kind == "two turns"
    return RotationTrajectory(((0.0, first), (times[0], first), (times[1], turned), (times[2], turned),
                               (times[3], draw(yaw))))


@pytest.mark.parametrize("kind", ["one breakpoint", "turn from t = 0", "turn past the end",
                                  "two turns", "return to start", "moving throughout"])
@settings(max_examples=6, deadline=None)
@given(data=st.data(), order=st.integers(1, 6), noise=st.booleans(), keep=st.booleans())
def test_render_equals_the_full_field_render(kind, data, order, noise, keep):
    # Still frames through binaural RIRs, the turn through the field: the
    # ears stay within 1e-12 of the full-field render's peak; with noise
    # the field spans the whole scene and the ears keep its bits.
    scene = turn_scene(data.draw(trajectories(kind)))
    profile = FidelityProfile(ambisonic_order=order, transducer_noise_db=-25.0 if noise else None)
    result = render_scene(scene, profile=profile, keep_components=keep)
    ears, components, _ = full_field_render(scene, profile, keep_components=keep)
    peak = np.max(np.abs(ears.data))
    if noise:
        assert np.array_equal(result.ears.data, ears.data)
    else:
        assert np.max(np.abs(result.ears.data - ears.data)) <= 1e-12 * peak
    if keep:
        for name, oracle in components.items():
            assert np.max(np.abs(result.components[name].data - oracle)) <= 1e-12 * peak


def test_render_forms_the_field_only_over_the_head_turn(monkeypatch):
    from clarity_bench import scenes

    frames = {"rotated": [], "field": []}

    def rotate(field, *args, **kwargs):
        frames["rotated"].append(field.frames)
        return apply_trajectory(field, *args, **kwargs)

    def convolve(data, kernels, start=0, stop=None):
        stop = data.shape[1] + kernels.shape[2] - 1 if stop is None else stop
        if kernels.shape[0] == 49:   # the order-6 field
            frames["field"].append(stop - start)
        return convolve_sum(data, kernels, start, stop)

    monkeypatch.setattr(scenes, "apply_trajectory", rotate)
    monkeypatch.setattr(scenes, "convolve_sum", convolve)
    render_scene(simple_scene(), keep_components=True)
    assert frames == {"rotated": [], "field": []}

    scene = draw_scenes(1, seed=5)[0]
    result = render_scene(scene)
    (t0, _), (t1, _) = scene.listener.trajectory.breakpoints[-2:]
    span = (t1 - t0) * RATE + 2 * (DEFAULT_TAPS - 1) + 2 * 160
    taps = int(round(0.35 * RATE))
    assert len(frames["rotated"]) == len(frames["field"]) == 1
    assert frames["rotated"][0] <= span < result.ears.frames / 4
    assert frames["field"][0] <= frames["rotated"][0] + taps - 1


def test_render_forms_the_turn_field_with_the_full_field_bits(monkeypatch):
    # The turn's field is asked of convolve_sum as a window of the whole
    # convolution, so it keeps the bits of the full-field render's field.
    from clarity_bench import scenes

    seen = []

    def rotate(field, trajectory, start=0):
        seen.append((field.data, start))
        return apply_trajectory(field, trajectory, start=start)

    monkeypatch.setattr(scenes, "apply_trajectory", rotate)
    scene = draw_scenes(1, seed=5)[0]
    render_scene(scene)
    (field, lo), = seen
    full = full_field_render(scene)[2].data
    hi = lo + field.shape[1]
    assert 0 < lo < hi < full.shape[1]
    assert np.array_equal(field, full[:, lo:hi])


def test_traced_layers_resolve():
    # The benchmark's traced run replaces these module attributes; each
    # must exist under the name its caller looks it up by.
    import ast
    import importlib
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    layers = next(
        ast.literal_eval(node.value)
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "LAYERS"
    )
    assert layers
    for _, module_name, attr in layers:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


def test_benchmark_imports_resolve():
    # The benchmark imports these names to set up its workloads and check
    # their outputs; each must still exist in the module it is taken from.
    import ast
    import importlib.util
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    names = [
        (node.module, alias.name)
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clarity_bench")
        for alias in node.names
    ]
    assert ("clarity_bench.hrtf", "DEFAULT_TAPS") in names
    assert ("clarity_bench.hearing_aid", "design_fir") in names
    for module_name, name in names:
        module = importlib.import_module(module_name)
        assert hasattr(module, name) or importlib.util.find_spec(f"{module_name}.{name}"), (
            module_name, name)


def test_benchmark_calls_bind_to_the_current_signatures():
    # Each call the benchmark makes of a name it imports from clarity_bench
    # (or of a function of a module it imports so, like cli.main) must
    # still fit that callable's signature: the same count of positional
    # arguments and the same keyword names.
    import ast
    import importlib
    import inspect
    import pathlib

    root = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
    bound = set()
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("clarity_bench"):
                for alias in node.names:
                    module = importlib.import_module(node.module)
                    target = getattr(module, alias.name, None)
                    if target is None:
                        target = importlib.import_module(f"{node.module}.{alias.name}")
                    imported[alias.asname or alias.name] = target
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in imported:
                name, fn = func.id, imported[func.id]
            elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                  and inspect.ismodule(imported.get(func.value.id))):
                name, fn = f"{func.value.id}.{func.attr}", getattr(imported[func.value.id], func.attr)
            else:
                continue
            positional = [a for a in node.args if not isinstance(a, ast.Starred)]
            keywords = {k.arg: None for k in node.keywords if k.arg is not None}
            exact = len(positional) == len(node.args) and len(keywords) == len(node.keywords)
            bind = inspect.signature(fn).bind if exact else inspect.signature(fn).bind_partial
            try:
                bind(*[None] * len(positional), **keywords)
            except TypeError as exc:
                pytest.fail(f"{path.name}:{node.lineno}: {name}(...) no longer binds: {exc}")
            bound.add((name, len(positional), tuple(sorted(keywords))))
    for call in [("intelligibility_score", 3, ()), ("quality_score", 3, ()), ("design_fir", 1, ()),
                 ("read_wav", 1, ()), ("write_wav", 2, ()),
                 ("render_scene", 1, ("keep_components",)),
                 ("generate_dataset", 1, ("count", "fidelity", "seed")), ("cli.main", 1, ())]:
        assert call in bound, call


def test_benchmark_round_seeds_resolve(monkeypatch):
    # The render workloads choose their dataset seeds by reading the drawn
    # scenes (each interferer's PlacedSource.kind among them), an attribute
    # read that the call and import checks above do not see.
    import importlib
    import pathlib

    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    child = importlib.import_module("child")
    assert child.RoundSeeds(7)[0] >= 0


def test_generate_dataset_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    for fidelity in ("measured_like", "simulated"):
        outputs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("CLARITY_BENCH_THREADS", workers)
            out = tmp_path / fidelity / workers
            generate_dataset(out, count=2, seed=3, fidelity=fidelity)
            outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert len(outputs["1"]) == 7
        assert outputs["1"] == outputs["2"]
