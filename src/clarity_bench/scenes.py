"""Scene description, rendering pipeline, and fidelity profiles.

A scene is a declarative JSON-serializable description: a room, one
target talker, one to three interferers, a listener with a yaw
trajectory, a desired SNR and a seed. Rendering turns it into hearing
aid ear signals:

    room impulse responses  ->  W pass  ->  SNR gain  ->  field pass
    ->  transducer noise    ->  head rotation  ->  binaural decode

The W pass convolves the dry sources, each at its onset, with only the
omnidirectional (W) channel of their impulse responses, giving the
target and interferer-sum W fields that fix the interferer gain. The
field pass then convolves the target and the gain-scaled interferers with
every Ambisonic channel at once, so the mixed field is rendered in one
pass and no per-source field is formed.

The fidelity profile bundles the four knobs that separate the idealized
simulation from a measurement-like capture: Ambisonic order, interferer
directivity, microphone self-noise, and a perturbation of the room
absorption. Each knob can be toggled alone (`FidelityProfile.with_knob`).
"""

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import signals
from .ambisonics import AmbiSignal, acn_index, binaural_decode
from .audio import (  # noqa: F401  (convolve_channels: perfbench/tracing.py wraps it by this name)
    DEFAULT_RATE, SampleBuffer, convolve_channels, convolve_sum, mono, read_wav, rms_array,
    scale_to_rms, write_wav,
)
from .errors import MixError, SceneValidationError
from .hrtf import default_hrtf_set
from .room import RoomSpec, SourceSpec, image_source_rir
from .workers import ordered_map

PAPER_ROOM = RoomSpec(dimensions=(6.6, 5.8, 2.8), absorption=0.438)

DEFAULT_RIR_SECONDS = 0.35
# Every source must end (onset plus duration) by this time. An order-6
# field of this length is 188 MiB, and a render holds a few at once.
MAX_SCENE_SECONDS = 30.0
ROTATION_BLOCK_SECONDS = 0.01

# Fixed microphone calibration applied to the decoded ear signals. It
# compensates the free-field spreading loss at desk-scale distances so the
# hearing-aid input sits near the reference level: quiet enough to leave
# amplification headroom, loud enough that a 40 dB loss does not push the
# band envelopes into the metric floor. Constant across scenes, so every
# rendering stage stays linear.
EAR_CALIBRATION_GAIN = 2.0

FIDELITY_NAMES = ("simulated", "measured_like")


@dataclass(frozen=True)
class FidelityProfile:
    """The four independently toggleable sim-vs-measurement knobs."""

    ambisonic_order: int = 6
    interferer_directivity: str = "omni"
    transducer_noise_db: float = None   # dB relative to target RMS; None = off
    absorption_scale: float = 1.0

    def __post_init__(self):
        if not 1 <= self.ambisonic_order <= 6:
            raise ValueError(f"ambisonic order must be 1..6, got {self.ambisonic_order}")
        if self.interferer_directivity not in ("omni", "cardioid"):
            raise ValueError(f"unknown directivity {self.interferer_directivity!r}")

    @classmethod
    def simulated(cls):
        return cls()

    @classmethod
    def measured_like(cls):
        # -25 dB is the quietest self-noise the surrogate metrics register
        # reliably; fainter levels vanish below the envelope floor.
        return cls(
            ambisonic_order=1,
            interferer_directivity="cardioid",
            transducer_noise_db=-25.0,
            absorption_scale=0.85,
        )

    @classmethod
    def from_name(cls, name):
        if name == "simulated":
            return cls.simulated()
        if name == "measured_like":
            return cls.measured_like()
        raise ValueError(f"unknown fidelity {name!r}; expected one of {FIDELITY_NAMES}")

    def with_knob(self, knob):
        """The simulated profile with a single measured-like knob enabled."""
        base = FidelityProfile.simulated()
        measured = FidelityProfile.measured_like()
        if knob not in _KNOB_FIELDS:
            raise ValueError(f"unknown knob {knob!r}; expected one of {sorted(_KNOB_FIELDS)}")
        field_name = _KNOB_FIELDS[knob]
        return replace(base, **{field_name: getattr(measured, field_name)})


_KNOB_FIELDS = {
    "order": "ambisonic_order",
    "directivity": "interferer_directivity",
    "transducer_noise": "transducer_noise_db",
    "absorption": "absorption_scale",
}


@dataclass(frozen=True)
class RotationTrajectory:
    """Piecewise-linear listener yaw over time; held flat past the end."""

    breakpoints: tuple  # ((time_s, yaw_rad), ...)

    def __post_init__(self):
        try:
            pts = tuple((float(t), float(y)) for t, y in self.breakpoints)
        except (TypeError, ValueError):
            raise ValueError("trajectory breakpoints must be (time, yaw) number pairs") from None
        if not pts:
            raise ValueError("trajectory needs at least one breakpoint")
        if pts[0][0] != 0.0:
            raise ValueError("first trajectory breakpoint must be at t=0")
        times = [t for t, _ in pts]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    def yaw_at(self, times):
        t = np.asarray(times, dtype=np.float64)
        knots = np.array([p[0] for p in self.breakpoints])
        yaws = np.array([p[1] for p in self.breakpoints])
        return np.interp(t, knots, yaws)


@dataclass(frozen=True)
class SourceSignal:
    """Dry signal for a talker/interferer: a WAV file or a seeded synth."""

    kind: str            # speech | noise | music
    duration_s: float = None
    synth_seed: int = None
    file: str = None

    def resolve(self, rate):
        if self.file is not None:
            return read_wav(self.file, expected_rate=rate).channel(0)
        if self.duration_s is None or self.synth_seed is None:
            raise ValueError("synthetic sources need duration_s and synth_seed")
        return signals.source_signal(self.kind, self.duration_s, self.synth_seed, rate=rate)


@dataclass(frozen=True)
class TargetSpec:
    position: tuple
    source: SourceSignal
    onset_s: float = 0.0


@dataclass(frozen=True)
class InterfererSpec:
    kind: str
    position: tuple
    source: SourceSignal
    onset_s: float = 0.0
    directivity: str = "omni"


@dataclass(frozen=True)
class ListenerSpec:
    position: tuple
    trajectory: RotationTrajectory


@dataclass(frozen=True)
class SceneSpec:
    room: RoomSpec
    target: TargetSpec
    interferers: tuple
    listener: ListenerSpec
    snr_db: float = None
    fidelity: str = "simulated"
    seed: int = 0


def validate_scene_dict(payload):
    """Collect every schema violation in a scene dictionary.

    The room and the listener trajectory are checked by building a
    RoomSpec and a RotationTrajectory, so their rules live in one place.
    Every source needs a finite onset_s >= 0 (absent means 0); a
    synthetic source (no file) needs a finite duration_s > 0; a given
    synth_seed must be a non-negative integer; and onset plus duration
    must not pass MAX_SCENE_SECONDS.
    """
    problems = []

    def is_number(value):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return False
        try:
            return math.isfinite(value)
        except OverflowError:   # an int beyond the float range
            return False

    def check_source(path, spec):
        onset = spec.get("onset_s", 0.0)
        if not (is_number(onset) and onset >= 0):
            problems.append(f"{path}.onset_s: must be a finite number >= 0, got {onset!r}")
            onset = 0.0
        source = spec.get("source")
        if not isinstance(source, dict):
            problems.append(f"{path}.source: missing source description")
            return
        seed = source.get("synth_seed")
        if seed is not None and not (isinstance(seed, int) and not isinstance(seed, bool)
                                     and seed >= 0):
            problems.append(f"{path}.source.synth_seed: must be a non-negative integer, "
                            f"got {seed!r}")
        duration = 0.0
        if source.get("file") is None:
            duration = source.get("duration_s")
            if not (is_number(duration) and duration > 0):
                problems.append(f"{path}.source.duration_s: a synthetic source needs a "
                                f"finite duration > 0, got {duration!r}")
                duration = 0.0
        if onset + duration > MAX_SCENE_SECONDS:
            problems.append(f"{path}: ends at {onset + duration:g} s, after the "
                            f"{MAX_SCENE_SECONDS:g} s scene limit")

    room = payload.get("room")
    dims = None
    if not isinstance(room, dict):
        problems.append("room: missing or not an object")
    else:
        try:
            dims = RoomSpec(room.get("dimensions"), room.get("absorption")).dimensions
        except ValueError as exc:
            problems.append(f"room: {exc}")

    def check_position(path, pos):
        if not (isinstance(pos, (list, tuple)) and len(pos) == 3 and all(
                isinstance(v, (int, float)) for v in pos)):
            problems.append(f"{path}: need three coordinates")
            return
        if dims is not None and not all(0 < p < d for p, d in zip(pos, dims)):
            problems.append(f"{path}: position {list(pos)} outside room bounds {list(dims)}")

    target = payload.get("target")
    if not isinstance(target, dict):
        problems.append("target: missing or not an object")
    else:
        check_position("target.position", target.get("position"))
        check_source("target", target)

    interferers = payload.get("interferers")
    if not isinstance(interferers, list) or not 1 <= len(interferers) <= 3:
        problems.append(
            "interferers: need between 1 and 3, got "
            f"{len(interferers) if isinstance(interferers, list) else 'none'}"
        )
        interferers = interferers if isinstance(interferers, list) else []
    for i, interferer in enumerate(interferers):
        if not isinstance(interferer, dict):
            problems.append(f"interferers[{i}]: not an object")
            continue
        if interferer.get("kind") not in ("speech", "noise", "music"):
            problems.append(f"interferers[{i}].kind: must be speech, noise or music")
        check_position(f"interferers[{i}].position", interferer.get("position"))
        check_source(f"interferers[{i}]", interferer)

    listener = payload.get("listener")
    if not isinstance(listener, dict):
        problems.append("listener: missing or not an object")
    else:
        check_position("listener.position", listener.get("position"))
        try:
            RotationTrajectory(tuple(listener.get("trajectory") or ()))
        except (TypeError, ValueError) as exc:
            problems.append(f"listener.trajectory: {exc}")

    snr = payload.get("snr_db")
    if snr is not None and not isinstance(snr, (int, float)):
        problems.append("snr_db: must be a number or null")
    if payload.get("fidelity") not in FIDELITY_NAMES:
        problems.append(f"fidelity: must be one of {FIDELITY_NAMES}")
    if not isinstance(payload.get("seed"), int):
        problems.append("seed: must be an integer")
    return problems


def _source_signal_to_dict(src):
    return {key: value for key, value in asdict(src).items() if value is not None}


def _source_signal_from_dict(kind, payload):
    return SourceSignal(
        kind=payload.get("kind", kind),
        duration_s=payload.get("duration_s"),
        synth_seed=payload.get("synth_seed"),
        file=payload.get("file"),
    )


def scene_to_dict(scene):
    return {
        "room": {
            "dimensions": list(scene.room.dimensions),
            "absorption": scene.room.absorption,
            "speed_of_sound": scene.room.speed_of_sound,
        },
        "target": {
            "position": list(scene.target.position),
            "source": _source_signal_to_dict(scene.target.source),
            "onset_s": scene.target.onset_s,
        },
        "interferers": [
            {
                "kind": i.kind,
                "position": list(i.position),
                "source": _source_signal_to_dict(i.source),
                "onset_s": i.onset_s,
                "directivity": i.directivity,
            }
            for i in scene.interferers
        ],
        "listener": {
            "position": list(scene.listener.position),
            "trajectory": [[t, y] for t, y in scene.listener.trajectory.breakpoints],
        },
        "snr_db": scene.snr_db,
        "fidelity": scene.fidelity,
        "seed": scene.seed,
    }


def scene_from_dict(payload):
    problems = validate_scene_dict(payload)
    if problems:
        raise SceneValidationError(problems)
    room = RoomSpec(
        dimensions=tuple(payload["room"]["dimensions"]),
        absorption=payload["room"]["absorption"],
        speed_of_sound=payload["room"].get("speed_of_sound", 343.0),
    )
    target = TargetSpec(
        position=tuple(payload["target"]["position"]),
        source=_source_signal_from_dict("speech", payload["target"]["source"]),
        onset_s=payload["target"].get("onset_s", 0.0),
    )
    interferers = tuple(
        InterfererSpec(
            kind=i["kind"],
            position=tuple(i["position"]),
            source=_source_signal_from_dict(i["kind"], i.get("source", {})),
            onset_s=i.get("onset_s", 0.0),
            directivity=i.get("directivity", "omni"),
        )
        for i in payload["interferers"]
    )
    listener = ListenerSpec(
        position=tuple(payload["listener"]["position"]),
        trajectory=RotationTrajectory(tuple((t, y) for t, y in payload["listener"]["trajectory"])),
    )
    return SceneSpec(
        room=room,
        target=target,
        interferers=interferers,
        listener=listener,
        snr_db=payload["snr_db"],
        fidelity=payload["fidelity"],
        seed=payload["seed"],
    )


def load_scene(path):
    """Parse and validate a scene JSON file."""
    with open(path, encoding="utf-8") as fp:
        payload = json.load(fp)
    return scene_from_dict(payload)


def save_scene(scene, path):
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(scene_to_dict(scene), fp, indent=2, sort_keys=True)


def mix_at_snr(target, interferers, snr_db, active_range):
    """Scale the summed interferer field to hit an SNR against the target.

    The SNR is defined on the omnidirectional (W) channel over the
    target-active frame range, before any decoding. One scalar gain is
    applied to the interferer sum; snr_db None leaves it at 1. Returns
    (target + gain*sum, gain).
    """
    if not interferers:
        raise MixError("no interferer fields to mix")
    for f in interferers:
        if f.order != target.order or f.rate != target.rate:
            raise ValueError("interferer fields must match the target order and rate")
    frames = max(target.frames, max(f.frames for f in interferers))
    mixed = np.zeros((target.channels, frames))
    for f in interferers:
        mixed[:, : f.frames] += f.data
    gain = 1.0
    if snr_db is not None:
        start, stop = active_range
        start = max(0, int(start))
        stop = min(frames, int(stop))
        if stop <= start:
            raise ValueError("empty target-active range")
        target_rms = rms_array(target.w[start : min(stop, target.frames)])
        interferer_rms = rms_array(mixed[0, start:stop])
        if interferer_rms == 0.0:
            raise MixError("interferer sum is silent over the target-active range")
        if target_rms == 0.0:
            raise MixError("target is silent over the target-active range")
        gain = target_rms / interferer_rms * 10.0 ** (-snr_db / 20.0)
    mixed *= gain
    mixed[:, : target.frames] += target.data
    return AmbiSignal(mixed, target.order, target.rate), gain


def apply_trajectory(field, trajectory, block_s=ROTATION_BLOCK_SECONDS):
    """Rotate a field through a time-varying listener yaw.

    The yaw is held per block: 50%-overlapped blocks of 2*block_s, each
    rotated by the negated yaw at its centre time (a listener turning by
    +theta sees the field rotate by -theta), crossfaded with triangular
    windows and divided by the summed window weight. A yaw rotation only
    turns each (l, +m), (l, -m) channel pair by the angle m*yaw, so the
    crossfade of the block rotations is one cos and one sin gain track
    per m = 1..order, applied pairwise; m = 0 channels pass unchanged.
    """
    hop = int(round(block_s * field.rate))
    if hop < 1:
        raise ValueError("block too short for this sample rate")
    frames = field.frames
    ramp = (np.arange(hop) + 0.5) / hop
    fade_in, fade_out = ramp, ramp[::-1]
    # Sample t = k*hop + j lies in the second half of block k (started at
    # (k-1)*hop) and in the first half of block k + 1.
    hops = -(-frames // hop)
    centers = np.arange(hops + 1) * hop / field.rate
    angles = -np.outer(np.arange(1, field.order + 1), trajectory.yaw_at(centers))
    weight = fade_out + fade_in

    def track(per_block):
        faded = fade_out * per_block[:, :-1, None] + fade_in * per_block[:, 1:, None]
        return (faded / weight).reshape(field.order, hops * hop)[:, :frames]

    cos_m, sin_m = track(np.cos(angles)), track(np.sin(angles))
    x = field.data
    out = np.empty_like(x)
    for l in range(field.order + 1):
        out[acn_index(l, 0)] = x[acn_index(l, 0)]
        for mm in range(1, l + 1):
            pos, neg = acn_index(l, mm), acn_index(l, -mm)
            c, s = cos_m[mm - 1], sin_m[mm - 1]
            out[pos] = c * x[pos] - s * x[neg]
            out[neg] = s * x[pos] + c * x[neg]
    return AmbiSignal(out, field.order, field.rate)


def add_transducer_noise(field, level_db, seed, reference_rms):
    """Add independent microphone self-noise to every channel.

    The noise starts at sample 0 regardless of source onsets. Its
    per-channel RMS sits level_db below (or above) reference_rms, which
    callers take from the target's W channel. level_db None disables.
    """
    if level_db is None:
        return field
    rng = np.random.default_rng(seed)
    sigma = float(reference_rms) * 10.0 ** (level_db / 20.0)
    noise = rng.standard_normal(field.data.shape) * sigma
    return AmbiSignal(field.data + noise, field.order, field.rate)


def default_trajectory(target_azimuth, seed, onset_s=0.0):
    """Seeded head turn toward the talker.

    Starts offset by 15..30 degrees to either side, begins turning up to
    0.6 s before the target onset, and settles within 10 degrees of the
    target azimuth after 0.2..0.4 s.
    """
    rng = np.random.default_rng(seed)
    offset = np.radians(rng.uniform(15.0, 30.0)) * rng.choice([-1.0, 1.0])
    initial = target_azimuth + offset
    start = onset_s - rng.uniform(0.0, 0.6)
    duration = rng.uniform(0.2, 0.4)
    final = target_azimuth + np.radians(rng.uniform(-10.0, 10.0))
    if start <= 1e-9:
        return RotationTrajectory(((0.0, initial), (max(duration, 1e-3), final)))
    return RotationTrajectory(
        ((0.0, initial), (start, initial), (start + duration, final))
    )


@dataclass(frozen=True)
class RenderResult:
    ears: SampleBuffer
    reference: SampleBuffer
    record: dict
    components: dict = None


def _scene_child_seeds(scene_seed):
    """Deterministic per-purpose seeds: target, 3 interferers, noise."""
    seq = np.random.SeedSequence(scene_seed)
    children = seq.spawn(5)
    return [int(c.generate_state(1)[0]) for c in children]


def render_scene(scene, hrtfs=None, profile=None, keep_components=False):
    """Render a scene to hearing-aid ear signals plus the scoring reference.

    Deterministic in (scene, profile). The stages are: dry sources and
    their room impulse responses -> W pass and interferer gain -> one
    pass for the mixed field -> transducer noise -> head rotation ->
    binaural decode. The reference is the dry target utterance
    RMS-normalized to -26 dBFS. keep_components adds the target,
    interferer and noise ear signals, which sum to the ears; it alone
    pays for separate target and interferer field passes.
    """
    profile = profile or FidelityProfile.from_name(scene.fidelity)
    hrtfs = hrtfs or default_hrtf_set()
    rate = DEFAULT_RATE
    order = profile.ambisonic_order
    listener = np.asarray(scene.listener.position)
    absorption = min(1.0, scene.room.absorption * profile.absorption_scale)
    room = RoomSpec(scene.room.dimensions, absorption, scene.room.speed_of_sound)
    child_seeds = _scene_child_seeds(scene.seed)

    onsets, drys, rirs = [], [], []   # per source, target first
    for index, spec in enumerate((scene.target, *scene.interferers)):
        source = spec.source
        if source.synth_seed is None and source.file is None:
            source = replace(source, synth_seed=child_seeds[index])
        drys.append(source.resolve(rate))
        directivity, aim = "omni", None
        if index > 0 and profile.interferer_directivity == "cardioid":
            directivity, aim = "cardioid", listener - np.asarray(spec.position)
        src = SourceSpec(tuple(spec.position), directivity, aim)
        rir = image_source_rir(room, src, listener, order, DEFAULT_RIR_SECONDS, rate=rate)
        onsets.append(int(round(spec.onset_s * rate)))
        rirs.append(rir.signal.data)

    # Every dry signal sits at its onset in one row of `placed`; the RIRs
    # stack to K x sources x taps, so one convolve_sum renders a field.
    placed = np.zeros((len(drys), max(o + d.size for o, d in zip(onsets, drys))))
    for row, onset, dry in zip(placed, onsets, drys):
        row[onset : onset + dry.size] = dry
    rirs = np.stack(rirs, axis=1)
    taps = rirs.shape[2]
    frames = placed.shape[1] + taps - 1
    active = (onsets[0], onsets[0] + drys[0].size + taps - 1)

    # The W pass gives the order-0 target and interferer-sum fields, which
    # fix the interferer gain; scaling the interferer inputs by it makes
    # the one K-channel pass render the mixed field.
    w_kernels = np.zeros((2, *rirs.shape[1:]))
    w_kernels[0, 0] = rirs[0, 0]
    w_kernels[1, 1:] = rirs[0, 1:]
    target_w, interferer_w = convolve_sum(placed, w_kernels)
    _, interferer_gain = mix_at_snr(AmbiSignal(target_w[None], 0, rate),
                                    [AmbiSignal(interferer_w[None], 0, rate)],
                                    scene.snr_db, active)
    placed[1:] *= interferer_gain
    mixed = AmbiSignal(convolve_sum(placed, rirs), order, rate)
    target_w_rms = rms_array(target_w[active[0] : active[1]])
    noisy = add_transducer_noise(mixed, profile.transducer_noise_db,
                                 child_seeds[4], target_w_rms)

    def to_ears(field):
        decoded = binaural_decode(apply_trajectory(field, scene.listener.trajectory), hrtfs)
        return SampleBuffer(decoded.data * EAR_CALIBRATION_GAIN, rate)

    ears = to_ears(noisy)

    reference = mono(scale_to_rms(drys[0], 10.0 ** (-26.0 / 20.0)), rate)

    record = {
        "seed": scene.seed,
        "fidelity": scene.fidelity,
        "snr_db": scene.snr_db,
        "profile": {
            "ambisonic_order": profile.ambisonic_order,
            "interferer_directivity": profile.interferer_directivity,
            "transducer_noise_db": profile.transducer_noise_db,
            "absorption_scale": profile.absorption_scale,
        },
        "duration_s": frames / rate,
        "interferer_gain": float(interferer_gain),
        "ear_gain": float(EAR_CALIBRATION_GAIN),
        "target_onset_s": scene.target.onset_s,
    }

    components = None
    if keep_components:
        # Rotation and decode are linear, so the noise share is what the
        # target and interferer decodes leave of the ears.
        target_ears = to_ears(AmbiSignal(convolve_sum(placed[:1], rirs[:, :1]), order, rate))
        interferer_ears = to_ears(AmbiSignal(convolve_sum(placed[1:], rirs[:, 1:]), order, rate))
        components = {
            "target_ears": target_ears,
            "interferer_ears": interferer_ears,
            "noise_ears": SampleBuffer(ears.data - target_ears.data - interferer_ears.data, rate),
        }
    return RenderResult(ears=ears, reference=reference, record=record, components=components)


def _draw_positions(rng, room, count, margin=0.5, spacing=1.0):
    """Rejection-sample positions >= margin from walls, >= spacing apart."""
    dims = np.asarray(room.dimensions)
    placed = []
    attempts = 0
    while len(placed) < count:
        attempts += 1
        if attempts > 10000:
            raise RuntimeError("could not place sources with the spacing constraints")
        candidate = rng.uniform([margin, margin, 1.2], [dims[0] - margin, dims[1] - margin, min(1.8, dims[2] - margin)])
        if all(np.linalg.norm(candidate - p) >= spacing for p in placed):
            placed.append(candidate)
    return placed


def _build_scene(rng_seed, room, fidelity):
    """Draw one randomized scene; deterministic in rng_seed."""
    rng = np.random.default_rng(rng_seed)
    n_interferers = int(rng.integers(1, 4))
    positions = _draw_positions(rng, room, 2 + n_interferers)
    listener_pos, target_pos = positions[0], positions[1]

    target_onset = float(rng.uniform(0.6, 1.0))
    target_duration = 1.8
    scene_end = target_onset + target_duration + 0.2

    target_azimuth = float(np.arctan2(
        target_pos[1] - listener_pos[1], target_pos[0] - listener_pos[0]
    ))
    trajectory = default_trajectory(
        target_azimuth, int(rng.integers(0, 2**31)), onset_s=target_onset
    )

    kinds = ["speech", "noise", "music"]
    interferers = []
    for j in range(n_interferers):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        onset = float(rng.uniform(0.0, 0.3))
        interferers.append(
            InterfererSpec(
                kind=kind,
                position=tuple(positions[2 + j]),
                source=SourceSignal(
                    kind=kind,
                    duration_s=round(scene_end - onset, 3),
                    synth_seed=int(rng.integers(0, 2**31)),
                ),
                onset_s=onset,
                directivity="omni",
            )
        )

    return SceneSpec(
        room=room,
        target=TargetSpec(
            position=tuple(target_pos),
            source=SourceSignal(kind="speech", duration_s=target_duration,
                                synth_seed=int(rng.integers(0, 2**31))),
            onset_s=target_onset,
        ),
        interferers=tuple(interferers),
        listener=ListenerSpec(position=tuple(listener_pos), trajectory=trajectory),
        snr_db=float(np.round(rng.uniform(-6.0, 6.0), 3)),
        fidelity=fidelity,
        seed=int(rng.integers(0, 2**31)),
    )


def draw_scenes(count, seed, fidelity="simulated"):
    """Draw a seeded batch of randomized scenes in PAPER_ROOM (no rendering)."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [
        _build_scene(int(c.generate_state(1)[0]), PAPER_ROOM, fidelity)
        for c in children
    ]


def generate_dataset(out_dir, count, seed, fidelity="simulated"):
    """Render a seeded batch of scenes to WAV/JSON files plus a manifest.

    Returns the manifest path. Re-running with identical arguments
    reproduces every byte, regardless of the worker count.
    """
    from . import __version__

    if count < 1:
        raise ValueError(f"scene count must be at least 1, got {count}")
    os.makedirs(out_dir, exist_ok=True)
    scenes = draw_scenes(count, seed, fidelity=fidelity)
    profile = FidelityProfile.from_name(fidelity)
    hrtfs = default_hrtf_set()

    def render_one(index):
        scene_id = f"S{index:04d}"
        result = render_scene(scenes[index], hrtfs=hrtfs, profile=profile)
        write_wav(os.path.join(out_dir, f"{scene_id}_mix.wav"), result.ears)
        write_wav(os.path.join(out_dir, f"{scene_id}_ref.wav"), result.reference)
        save_scene(scenes[index], os.path.join(out_dir, f"{scene_id}_scene.json"))
        entry = {
            "id": scene_id,
            "mix": f"{scene_id}_mix.wav",
            "reference": f"{scene_id}_ref.wav",
            "scene": f"{scene_id}_scene.json",
        }
        entry.update(result.record)
        return entry

    manifest = {
        "version": __version__,
        "seed": seed,
        "count": count,
        "fidelity": fidelity,
        "rate": DEFAULT_RATE,
        "scenes": ordered_map(render_one, range(count)),
    }
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as fp:
        json.dump(manifest, fp, indent=2, sort_keys=True)
    return manifest_path
