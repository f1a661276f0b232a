import json

import numpy as np
import pytest

from clarity_bench.ambisonics import AmbiSignal, binaural_decode, encode, yaw_rotation
from clarity_bench.audio import mono, read_wav, rms_array
from clarity_bench.errors import MixError, SceneValidationError
from clarity_bench.hrtf import default_hrtf_set
from clarity_bench.room import RoomSpec
from clarity_bench.scenes import (
    EAR_CALIBRATION_GAIN,
    FidelityProfile,
    InterfererSpec,
    ListenerSpec,
    RotationTrajectory,
    SceneSpec,
    SourceSignal,
    TargetSpec,
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

RATE = 16000
HRTFS = default_hrtf_set()


def simple_scene(**overrides):
    room = RoomSpec((6.6, 5.8, 2.8), absorption=0.438)
    base = dict(
        room=room,
        target=TargetSpec(
            position=(2.0, 3.0, 1.5),
            source=SourceSignal(kind="speech", duration_s=1.0, synth_seed=5),
            onset_s=0.3,
        ),
        interferers=(
            InterfererSpec(
                kind="noise",
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


def test_scene_validation_interferer_count():
    payload = scene_to_dict(simple_scene())
    payload["interferers"] = payload["interferers"] * 4
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(payload)
    assert any("between 1 and 3" in p for p in err.value.problems)


def test_scene_validation_position_out_of_room():
    payload = scene_to_dict(simple_scene())
    payload["target"]["position"] = [9.0, 3.0, 1.5]
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(payload)
    assert any("target.position" in p for p in err.value.problems)


def test_scene_validation_collects_all_problems():
    payload = scene_to_dict(simple_scene())
    payload["target"]["position"] = [9.0, 3.0, 1.5]
    payload["snr_db"] = "loud"
    payload["fidelity"] = "imagined"
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(payload)
    text = "; ".join(err.value.problems)
    assert "target.position" in text and "snr_db" in text and "fidelity" in text


def test_scene_validation_takes_room_and_trajectory_rules_from_their_classes():
    payload = scene_to_dict(simple_scene())
    payload["room"]["absorption"] = 2.0
    payload["listener"]["trajectory"] = [[0.5, 0.0]]
    payload["seed"] = "x"
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(payload)
    text = "; ".join(err.value.problems)
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
    (("interferers", 0, "source", "duration_s"), "2", "interferers[0].source.duration_s"),
    (("interferers", 0, "source", "duration_s"), 40.0, "scene limit"),
    (("target", "source", "synth_seed"), 1.5, "target.source.synth_seed"),
    (("target", "source", "synth_seed"), "5", "target.source.synth_seed"),
    (("interferers", 0, "source", "synth_seed"), -1, "interferers[0].source.synth_seed"),
    (("interferers", 0, "source"), None, "interferers[0].source"),
]


@pytest.mark.parametrize("path, value, named", [
    pytest.param(*case, id=f"{'.'.join(map(str, case[0]))}={case[1]!r:.12}")
    for case in BAD_SOURCE_FIELDS
])
def test_scene_validation_rejects_bad_source_fields(path, value, named):
    payload = scene_to_dict(simple_scene())
    set_path(payload, path, value)
    with pytest.raises(SceneValidationError) as err:
        scene_from_dict(payload)
    assert any(named in p for p in err.value.problems), err.value.problems


def test_scene_validation_accepts_sources_up_to_the_scene_limit():
    from clarity_bench.scenes import MAX_SCENE_SECONDS

    payload = scene_to_dict(simple_scene())
    payload["interferers"][0]["onset_s"] = 1.0
    payload["interferers"][0]["source"]["duration_s"] = MAX_SCENE_SECONDS - 1.0
    del payload["target"]["onset_s"]
    del payload["target"]["source"]["synth_seed"]
    assert scene_from_dict(payload).target.onset_s == 0.0


def test_load_scene_validates_once(tmp_path, monkeypatch):
    from clarity_bench import scenes

    path = tmp_path / "scene.json"
    save_scene(simple_scene(), path)
    calls = []
    original = scenes.validate_scene_dict

    def counted(payload):
        calls.append(1)
        return original(payload)

    monkeypatch.setattr(scenes, "validate_scene_dict", counted)
    load_scene(path)
    assert len(calls) == 1


def test_trajectory_validation():
    with pytest.raises(ValueError):
        RotationTrajectory(())
    with pytest.raises(ValueError):
        RotationTrajectory(((0.5, 0.0),))
    with pytest.raises(ValueError):
        RotationTrajectory(((0.0, 0.0), (0.0, 1.0)))
    traj = RotationTrajectory(((0.0, 0.1), (1.0, 0.5)))
    assert traj.yaw_at(0.0) == pytest.approx(0.1)
    assert traj.yaw_at(0.5) == pytest.approx(0.3)
    assert traj.yaw_at(5.0) == pytest.approx(0.5)  # held past the end


# --- mixing ---------------------------------------------------------------


def fields_with_w_rms(target_rms, interferer_rms, frames=4000, order=1):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((4, frames))
    i = rng.standard_normal((4, frames))
    t *= target_rms / rms_array(t[0])
    i *= interferer_rms / rms_array(i[0])
    return AmbiSignal(t, order, RATE), AmbiSignal(i, order, RATE)


def test_mix_equal_rms_zero_snr_keeps_gain_one():
    target, interferer = fields_with_w_rms(0.1, 0.1)
    mixed, _ = mix_at_snr(target, [interferer], 0.0, (0, 4000))
    assert np.allclose(mixed.data, target.data + interferer.data, atol=1e-12)


def test_mix_plus_6db_gain():
    target, interferer = fields_with_w_rms(0.1, 0.1)
    mixed, _ = mix_at_snr(target, [interferer], 6.0, (0, 4000))
    gain = (mixed.data - target.data) / interferer.data
    assert np.allclose(gain, 10 ** (-6 / 20), atol=1e-9)


def test_mix_achieved_snr_within_tenth_db():
    rng = np.random.default_rng(123)
    for _ in range(100):
        target, interferer = fields_with_w_rms(rng.uniform(0.02, 0.5), rng.uniform(0.02, 0.5))
        snr = rng.uniform(-12.0, 12.0)
        gain = (
            rms_array(target.w) / rms_array(interferer.w) * 10 ** (-snr / 20.0)
        )
        achieved = 20 * np.log10(rms_array(target.w) / rms_array(gain * interferer.w))
        assert achieved == pytest.approx(snr, abs=0.1)
        mixed, _ = mix_at_snr(target, [interferer], snr, (0, 4000))
        recovered = (mixed.data - target.data) / interferer.data
        assert np.allclose(recovered, gain, atol=1e-9)


def test_mix_rejects_silent_interferers():
    target, _ = fields_with_w_rms(0.1, 0.1)
    silent = AmbiSignal(np.zeros((4, 4000)), 1, RATE)
    with pytest.raises(MixError):
        mix_at_snr(target, [silent], 0.0, (0, 4000))


def test_mix_rejects_order_mismatch():
    target, _ = fields_with_w_rms(0.1, 0.1)
    other = AmbiSignal(np.zeros((9, 4000)), 2, RATE)
    with pytest.raises(ValueError):
        mix_at_snr(target, [other], 0.0, (0, 4000))


# --- trajectory application ------------------------------------------------


def block_matmul_trajectory(field, trajectory, block_s=0.01):
    """The dense form of apply_trajectory: one K x K rotation per block."""
    hop = int(round(block_s * field.rate))
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
        yaw = float(trajectory.yaw_at((start + hop) / field.rate))
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
    field = AmbiSignal(rng.uniform(-1, 1, ((order + 1) ** 2, 3333)), order, RATE)
    out = apply_trajectory(field, trajectory)
    assert out.data.shape == field.data.shape
    assert np.max(np.abs(out.data - block_matmul_trajectory(field, trajectory))) < 1e-12


def test_apply_trajectory_constant_zero_is_identity():
    rng = np.random.default_rng(3)
    field = AmbiSignal(rng.uniform(-1, 1, (16, 3200)), 3, RATE)
    out = apply_trajectory(field, RotationTrajectory(((0.0, 0.0),)))
    assert np.max(np.abs(out.data - field.data)) < 1e-9


def test_apply_trajectory_constant_yaw_matches_single_rotation():
    rng = np.random.default_rng(4)
    field = AmbiSignal(rng.uniform(-1, 1, (16, 3200)), 3, RATE)
    theta = 0.7
    out = apply_trajectory(field, RotationTrajectory(((0.0, theta),)))
    direct = yaw_rotation(3, -theta).matrix @ field.data
    assert np.max(np.abs(out.data - direct)) < 1e-6


def test_apply_trajectory_preserves_energy_per_block():
    rng = np.random.default_rng(5)
    field = AmbiSignal(rng.uniform(-1, 1, (9, 4800)), 2, RATE)
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
    field = encode(mono(click_train), 0.0, 0.0, 4)
    theta = np.radians(60.0)

    def final_itd(trajectory):
        rotated = apply_trajectory(field, trajectory)
        ears = binaural_decode(rotated, HRTFS)
        left = ears.channel(0)[-6000:]
        right = ears.channel(1)[-6000:]
        corr = np.correlate(left, right, "full")
        return int(np.argmax(corr)) - (right.size - 1)

    static = final_itd(RotationTrajectory(((0.0, 0.0),)))
    turned = final_itd(RotationTrajectory(((0.0, 0.0), (0.2, theta))))
    ears_ref = binaural_decode(encode(mono(click_train), -theta, 0.0, 4), HRTFS)
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
    field = AmbiSignal(rng.uniform(-1, 1, (4, 2000)), 1, RATE)
    out = add_transducer_noise(field, None, seed=1, reference_rms=0.1)
    assert np.array_equal(out.data, field.data)


def test_transducer_noise_level_on_silent_field():
    field = AmbiSignal(np.zeros((4, 160000)), 1, RATE)
    out = add_transducer_noise(field, 0.0, seed=2, reference_rms=0.25)
    per_channel = np.sqrt(np.mean(out.data**2, axis=1))
    assert np.all(np.abs(per_channel - 0.25) < 0.005)


def test_transducer_noise_seed_determinism():
    rng = np.random.default_rng(8)
    field = AmbiSignal(rng.uniform(-1, 1, (4, 2000)), 1, RATE)
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


def test_render_degenerate_scene_reduces_to_encode_decode(tmp_path):
    # anechoic room, silent interferer (zero WAV), SNR mixing disabled,
    # static listener: the pipeline collapses to one delayed, scaled
    # plane-wave encode + binaural decode
    from clarity_bench.audio import write_wav

    silent_path = tmp_path / "silence.wav"
    write_wav(silent_path, mono(np.zeros(3200), RATE))
    room = RoomSpec((6.6, 5.8, 2.8), absorption=1.0)
    scene = simple_scene(
        room=room,
        interferers=(
            InterfererSpec(
                kind="noise",
                position=(5.0, 2.0, 1.5),
                source=SourceSignal(kind="noise", file=str(silent_path)),
                onset_s=0.0,
            ),
        ),
        snr_db=None,
    )
    result = render_scene(scene, hrtfs=HRTFS, profile=FidelityProfile.simulated())
    target_pos = np.asarray(scene.target.position)
    listener = np.asarray(scene.listener.position)
    offset = target_pos - listener
    dist = np.linalg.norm(offset)
    azimuth = np.arctan2(offset[1], offset[0])
    elevation = np.arcsin(offset[2] / dist)

    dry = scene.target.source.resolve(RATE)
    delay = int(round(dist / 343.0 * RATE))
    onset = int(round(scene.target.onset_s * RATE))
    placed = np.zeros(result.ears.frames - HRTFS.taps + 1)
    start = onset + delay
    placed[start : start + dry.size] = dry / dist
    oracle = binaural_decode(encode(mono(placed), azimuth, elevation, 6), HRTFS)

    want = oracle.data * EAR_CALIBRATION_GAIN
    assert result.ears.data.shape == want.shape
    assert np.max(np.abs(result.ears.data - want)) < 1e-6


def test_render_same_seed_is_bit_identical():
    scene = simple_scene()
    a = render_scene(scene, hrtfs=HRTFS)
    b = render_scene(scene, hrtfs=HRTFS)
    assert np.array_equal(a.ears.data, b.ears.data)
    assert np.array_equal(a.reference.data, b.reference.data)


def test_render_linearity_bookkeeping():
    scene = simple_scene(snr_db=2.0)
    result = render_scene(scene, hrtfs=HRTFS, profile=FidelityProfile.simulated(),
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
    result = render_scene(scene, hrtfs=HRTFS)
    ref = result.reference.channel(0)
    assert rms_array(ref) == pytest.approx(10 ** (-26 / 20), rel=1e-6)
    dry = scene.target.source.resolve(RATE)
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
            r = render_scene(scene, hrtfs=HRTFS, profile=profile, keep_components=True)
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
        mix = read_wav(out_a / entry["mix"], expected_rate=manifest["rate"])
        assert mix.channels == 2


def test_generate_dataset_measured_like_records_profile(tmp_path):
    manifest_path = generate_dataset(tmp_path / "m", count=1, seed=9, fidelity="measured_like")
    with open(manifest_path, encoding="utf-8") as fp:
        manifest = json.load(fp)
    entry = manifest["scenes"][0]
    assert manifest["fidelity"] == "measured_like"
    assert entry["profile"]["ambisonic_order"] == 1
    assert entry["profile"]["transducer_noise_db"] is not None
    assert entry["profile"]["interferer_directivity"] == "cardioid"


def test_mix_returns_its_gain():
    target, interferer = fields_with_w_rms(0.1, 0.2)
    mixed, gain = mix_at_snr(target, [interferer], 6.0, (0, 4000))
    assert gain == pytest.approx(0.5 * 10 ** (-6 / 20), rel=1e-12)
    assert np.allclose(mixed.data, target.data + gain * interferer.data, atol=1e-12)
    _, unscaled = mix_at_snr(target, [interferer], None, (0, 4000))
    assert unscaled == 1.0


def test_mix_w_equals_mixed_field_w(monkeypatch):
    # The gain comes from a W-only pass; the mixed field comes from one
    # pass over every channel with the interferers pre-scaled by it.
    from clarity_bench import scenes

    seen = {}

    def mix(*args):
        seen["mix"] = mix_at_snr(*args)
        return seen["mix"]

    def noise(field, *args):
        seen["field"] = field
        return add_transducer_noise(field, *args)

    monkeypatch.setattr(scenes, "mix_at_snr", mix)
    monkeypatch.setattr(scenes, "add_transducer_noise", noise)
    scene = draw_scenes(1, seed=5)[0]
    assert len(scene.interferers) > 1
    render_scene(scene, hrtfs=HRTFS)
    w_mix, gain = seen["mix"]
    assert w_mix.order == 0 and gain != 1.0
    field = seen["field"]
    assert field.order == 6 and field.frames == w_mix.frames
    assert np.max(np.abs(field.w - w_mix.w)) < 1e-12


def test_render_components_leave_ears_unchanged():
    scene = simple_scene()
    profile = FidelityProfile.measured_like()
    plain = render_scene(scene, hrtfs=HRTFS, profile=profile)
    split = render_scene(scene, hrtfs=HRTFS, profile=profile, keep_components=True)
    assert np.array_equal(split.ears.data, plain.ears.data)
    assert split.record == plain.record


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
