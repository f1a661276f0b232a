"""Scene description, rendering pipeline, and fidelity profiles.

A scene is a declarative JSON-serializable description: a room, one
target talker, one to three interferers, a listener with a yaw
trajectory, a desired SNR and a seed. Rendering turns it into hearing
aid ear signals:

    room impulse responses  ->  W pass  ->  SNR gain  ->  per frame span:
        still head and tail:  binaural RIRs at the held yaw
        head turn:            field pass  ->  transducer noise
                              ->  head rotation  ->  binaural decode
    ->  ears, stitched by frame

The W pass convolves the dry sources, each at its onset, with only the
omnidirectional (W) channel of their impulse responses over the
target-active frames (the target's onset to the end of its tail),
giving two signals: the target's W and the interferer sum's W. From
them mix_at_snr takes one scalar, the interferer gain, which scales the
interferers' inputs. The reader refuses an snr_db when the interferers
are synthetic and each is silent over those frames: it ends, its RIR's
tail included, by the target's onset, or its direct sound arrives after
their last frame. Rotation and decode are linear and, while the yaw
is held, time-invariant; so before the listener turns and after the
turn the ears are the sources convolved with their binaural RIRs (each
RIR decoded at the held yaw through hrtf.decoder_bank). Over the turn, the
field pass convolves the target and the gain-scaled interferers with
every Ambisonic channel at once, so the mixed field is rendered in one
pass and no per-source field is formed; apply_trajectory rotates it and
hrtf.binaural_decode takes it to the ears through the one fixed HRTF
set. Transducer noise enters the field at every frame, so with it the
turn's field spans the whole scene.

The fidelity profile bundles the four knobs that separate the idealized
simulation from a measurement-like capture: Ambisonic order, interferer
directivity, microphone self-noise, and a perturbation of the room
absorption. Each knob can be toggled alone (`FidelityProfile.with_knob`).
Directivity comes from the profile alone: under a cardioid profile every
interferer is aimed at the listener. A scene carries no directivity, and
scene files that still hold a "directivity" key load with it ignored.

A scene dictionary is read in one walk, `scene_from_dict`: each field is
checked where it is read, and every problem is reported at once.
render_scene reads a scene built in code back through it, from
`scene_to_dict`, so it refuses exactly what the reader refuses.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import signals
from .ambisonics import AmbiSignal, acn_index, num_channels
from .audio import (  # noqa: F401  (convolve_channels: perfbench/tracing.py wraps it by this name)
    DEFAULT_RATE, REFERENCE_RMS, SampleBuffer, convolve_channels, convolve_sum, is_finite_number,
    read_json, read_wav, rms_array, scale_to_rms, to_frames, write_wav,
)
from .hrtf import DEFAULT_TAPS, binaural_decode, decoder_bank
from .room import SPEED_OF_SOUND, RoomSpec, SourceSpec, direct_delay, direct_path_problem, image_source_rir
from .workers import ordered_map

PAPER_ROOM = RoomSpec(dimensions=(6.6, 5.8, 2.8), absorption=0.438)

DEFAULT_RIR_SECONDS = 0.35
# Every source must end (onset plus duration) by this time. An order-6
# field of this length is 188 MiB, and a render holds a few at once.
MAX_SCENE_SECONDS = 30.0
ROTATION_BLOCK_SECONDS = 0.01
MAX_SCENES = 9999   # the most that the four-digit scene ids S%04d hold

# Fixed microphone calibration applied to the decoded ear signals. It
# compensates the free-field spreading loss at desk-scale distances so the
# hearing-aid input sits near the reference level: quiet enough to leave
# amplification headroom, loud enough that a 40 dB loss does not push the
# band envelopes into the metric floor. Constant across scenes, so every
# rendering stage stays linear.
EAR_CALIBRATION_GAIN = 2.0

# Largest |snr_db| a scene file may ask for. The generator draws from
# +-6 dB; past 60 dB one side is over 1000 times weaker in amplitude, so
# the scene is no longer a speech-in-noise mixture, and far past it the
# interferer gain overflows (-10000 dB) or rounds to 0 (+10000 dB).
MAX_ABS_SNR_DB = 60.0
# An interferer W whose RMS over the target-active frames is at most this
# share of the target W's (-180 dB) counts as silent: it is the rounding
# noise (about 1e-18) that overlap-save leaks into the window from sound
# outside it, and it would set an interferer gain near 1e15.
SILENT_INTERFERER_SHARE = 1e-9

FIDELITY_NAMES = ("simulated", "measured_like")
SOURCE_KINDS = signals.SOURCE_KINDS   # _build_scene draws kinds by index in this order


@dataclass(frozen=True)
class FidelityProfile:
    """The four independently toggleable sim-vs-measurement knobs."""

    ambisonic_order: int = 6
    interferer_directivity: str = "omni"
    transducer_noise_db: float = None   # dB relative to target RMS; None = off
    absorption_scale: float = 1.0

    def __post_init__(self):
        order, noise, scale = self.ambisonic_order, self.transducer_noise_db, self.absorption_scale
        if not (isinstance(order, int) and not isinstance(order, bool) and 1 <= order <= 6):
            raise ValueError(f"ambisonic order must be an integer 1..6, got {order!r}")
        if self.interferer_directivity not in ("omni", "cardioid"):
            raise ValueError(f"unknown directivity {self.interferer_directivity!r}")
        if noise is not None and not is_finite_number(noise):
            raise ValueError(f"transducer noise level must be None or a finite number, got {noise!r}")
        if not (is_finite_number(scale) and scale > 0):
            raise ValueError(f"absorption scale must be a finite number > 0, got {scale!r}")

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

    @classmethod
    def with_knob(cls, knob):
        """The simulated profile with a single measured-like knob enabled."""
        if knob not in _KNOB_FIELDS:
            raise ValueError(f"unknown knob {knob!r}; expected one of {sorted(_KNOB_FIELDS)}")
        field_name = _KNOB_FIELDS[knob]
        return replace(cls.simulated(), **{field_name: getattr(cls.measured_like(), field_name)})


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
            pts = tuple((t, y) for t, y in self.breakpoints)
        except (TypeError, ValueError):
            raise ValueError("trajectory breakpoints must be (time, yaw) number pairs") from None
        if not all(is_finite_number(v) for pair in pts for v in pair):
            raise ValueError("trajectory times and yaws must be finite numbers")
        pts = tuple((float(t), float(y)) for t, y in pts)
        if not pts:
            raise ValueError("trajectory needs at least one breakpoint")
        if pts[0][0] != 0.0:
            raise ValueError("first trajectory breakpoint must be at t=0")
        times = [t for t, _ in pts]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("trajectory times must be strictly increasing")
        object.__setattr__(self, "breakpoints", pts)

    def yaw_at(self, times):
        knots, yaws = np.array(self.breakpoints).T
        return np.interp(times, knots, yaws)


@dataclass(frozen=True)
class SourceSignal:
    """Dry signal for a talker/interferer: a WAV file or a seeded synth."""

    kind: str            # speech | noise | music
    duration_s: float = None
    synth_seed: int = None
    file: str = None

    def resolve(self):
        """The dry samples at DEFAULT_RATE."""
        if self.file is not None:
            return read_wav(self.file).channel(0)
        if self.duration_s is None or self.synth_seed is None:
            raise ValueError("synthetic sources need duration_s and synth_seed")
        return signals.source_signal(self.kind, self.duration_s, self.synth_seed)


@dataclass(frozen=True)
class PlacedSource:
    """A source signal at a position in the room, starting at onset_s: the
    target and every interferer."""

    position: tuple
    source: SourceSignal
    onset_s: float = 0.0

    @property
    def kind(self):
        """The kind is stored once, in the source."""
        return self.source.kind


@dataclass(frozen=True)
class ListenerSpec:
    position: tuple
    trajectory: RotationTrajectory


@dataclass(frozen=True)
class SceneSpec:
    room: RoomSpec
    target: PlacedSource
    interferers: tuple   # of PlacedSource
    listener: ListenerSpec
    snr_db: float = None
    fidelity: str = "simulated"
    seed: int = 0


def _as_lists(value):
    """value with every tuple and array in it a list, every NumPy number a Python one."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_lists(item) for item in value]
    return value


def scene_to_dict(scene):
    """The scene dictionary that scene_from_dict reads back: the
    dataclass fields as lists and numbers, less the source fields that
    are None, with each interferer's kind beside its source and the
    trajectory as its [time, yaw] pairs. A part that is None is written
    as null, for the reader to name."""
    payload = _as_lists(asdict(scene))
    if (listener := payload["listener"]) is not None:
        listener["trajectory"] = (listener["trajectory"] or {}).get("breakpoints")
    for index, placed in enumerate((payload["target"], *(payload["interferers"] or ()))):
        if placed is not None and placed["source"] is not None:
            placed["source"] = {key: value for key, value in placed["source"].items() if value is not None}
            if index:
                placed["kind"] = placed["source"]["kind"]
    return payload


def is_seed(value):
    """True for a non-negative integer that is not a boolean."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _heard(onset_s, frames):
    """The frames [start, stop) of a source `frames` long at onset_s
    through an RIR of DEFAULT_RIR_SECONDS, its tail included; for the
    target, the target-active frames, the W pass's window."""
    start = to_frames(onset_s)
    return start, start + frames + to_frames(DEFAULT_RIR_SECONDS) - 1


def scene_from_dict(payload, directory=None):
    """Build a SceneSpec from a scene dictionary and check it.

    This is the one checker of a scene. It walks the dictionary once and
    collects every problem, prefixed by its path, in field order into one
    ValueError that joins them by "; ". Numbers must be finite and not
    booleans (`audio.is_finite_number`). RoomSpec and RotationTrajectory keep
    the room's and the trajectory's rules; a room's speed_of_sound, which
    scene_to_dict does not write, must be SPEED_OF_SOUND when given.
    Positions are three numbers inside the room, and the direct sound of
    every source must reach the listener within DEFAULT_RIR_SECONDS
    (`direct_path_problem`). There are 1 to 3 interferers. Every source
    needs an onset_s >= 0 (absent means 0). A synthetic source (no file)
    needs a duration_s > 0 of at least one sample at DEFAULT_RATE, and
    onset plus duration must not pass MAX_SCENE_SECONDS; a file source
    takes its length from the file and gives no duration_s. A given file
    is a string, joined to `directory` when one is given and the file is
    relative; a given synth_seed is a non-negative integer. Every
    source.kind is one of SOURCE_KINDS (absent means speech for the
    target); an interferer's "kind" is too, and its source.kind, when
    given, must equal it. snr_db is None or within MAX_ABS_SNR_DB, the
    fidelity is one of FIDELITY_NAMES and the seed is a non-negative
    integer. When snr_db is given and every interferer is synthetic, one
    of them must sound over the target-active frames, where the SNR is
    set (`_heard`): end, its RIR's tail included, after the target's first
    frame, and, when the target is synthetic too, have its direct sound
    arrive by their last frame. A file's length is known only to the
    render, and a source may start in a pause, so the render refuses
    those scenes (mix_at_snr).
    """
    if not isinstance(payload, dict):
        raise ValueError("scene: must be an object")
    problems = []

    def section(key):
        value = payload.get(key)
        if not isinstance(value, dict):
            problems.append(f"{key}: missing or not an object")
            return None
        return value

    room = None
    if (spec := section("room")) is not None:
        if (speed := spec.get("speed_of_sound", SPEED_OF_SOUND)) != SPEED_OF_SOUND:
            problems.append(f"room: speed_of_sound must be {SPEED_OF_SOUND:g} when given, got {speed!r}")
        try:
            room = RoomSpec(spec.get("dimensions"), spec.get("absorption"))
        except ValueError as exc:
            problems.append(f"room: {exc}")

    def misplaced(pos, listener=None):
        """Why pos is not a position inside the room whose direct sound
        reaches `listener`, when one is given; None if it is."""
        if not (isinstance(pos, (list, tuple)) and len(pos) == 3 and all(map(is_finite_number, pos))):
            return "need three finite coordinates"
        if room is not None and not all(0 < p < d for p, d in zip(pos, room.dimensions)):
            return f"position {list(pos)} outside room bounds {list(room.dimensions)}"
        return None if listener is None else direct_path_problem(pos, listener, DEFAULT_RIR_SECONDS)

    # The sources are checked against the listener's position when it is one.
    spec = payload.get("listener")
    hearer = spec.get("position") if isinstance(spec, dict) and not misplaced(spec.get("position")) else None

    def placed(path, spec, kind=None):
        """The PlacedSource of a target or interferer entry; a given
        source.kind must equal `kind` when there is one."""
        position = spec.get("position")
        if why := misplaced(position, hearer):
            problems.append(f"{path}.position: {why}")
        onset = spec.get("onset_s", 0.0)
        if not (is_finite_number(onset) and onset >= 0):
            problems.append(f"{path}.onset_s: must be a finite number >= 0, got {onset!r}")
            onset = 0.0
        src = spec.get("source")
        if not isinstance(src, dict):
            problems.append(f"{path}.source: missing source description")
            return None
        given = src.get("kind", kind or SOURCE_KINDS[0])
        if given not in SOURCE_KINDS:
            problems.append(f"{path}.source.kind: must be one of {SOURCE_KINDS}, got {given!r}")
        elif kind is not None and given != kind:
            problems.append(f"{path}.source.kind: must be the interferer's kind {kind!r}, got {given!r}")
        seed, file, duration = src.get("synth_seed"), src.get("file"), src.get("duration_s")
        if seed is not None and not is_seed(seed):
            problems.append(f"{path}.source.synth_seed: must be a non-negative integer, got {seed!r}")
        if file is not None and not isinstance(file, str):
            problems.append(f"{path}.source.file: must be a path string, got {file!r}")
        length = duration if file is None and is_finite_number(duration) and duration > 0 else 0.0
        fits = onset + length <= MAX_SCENE_SECONDS   # then its frame counts are finite
        if file is not None and duration is not None:
            problems.append(f"{path}.source.duration_s: a file source takes its length from the file; omit it")
        elif file is None and not length:
            problems.append(f"{path}.source.duration_s: a synthetic source needs a finite duration > 0, "
                            f"got {duration!r}")
        elif file is None and length <= MAX_SCENE_SECONDS and to_frames(length) < 1:
            problems.append(f"{path}.source.duration_s: {duration!r} s is shorter "
                            f"than one sample at {DEFAULT_RATE} Hz")
        if file is None and length and fits:   # the frames a W pass may hear it over, from its direct sound on
            start, stop = _heard(onset, to_frames(length))
            direct = 0 if why or hearer is None else to_frames(direct_delay(position, hearer))
            spans[path] = (start + direct, stop)
        if not fits:
            problems.append(f"{path}: ends at {onset + length:g} s, after the "
                            f"{MAX_SCENE_SECONDS:g} s scene limit")
        if isinstance(file, str) and directory is not None:
            file = os.path.join(directory, file)
        position = tuple(position) if isinstance(position, list) else position
        return PlacedSource(position, SourceSignal(given, duration, seed, file), onset)

    spans, target = {}, None
    if (spec := section("target")) is not None:
        target = placed("target", spec)

    entries = payload.get("interferers")
    count = len(entries) if isinstance(entries, list) else None
    if count is None or not 1 <= count <= 3:
        problems.append(f"interferers: need between 1 and 3, got {'none' if count is None else count}")
    interferers = []
    for i, spec in enumerate(entries if count else ()):
        path = f"interferers[{i}]"
        if not isinstance(spec, dict):
            problems.append(f"{path}: not an object")
            continue
        kind = spec.get("kind")
        if kind not in SOURCE_KINDS:
            problems.append(f"{path}.kind: must be {', '.join(SOURCE_KINDS[:-1])} or {SOURCE_KINDS[-1]}")
        interferers.append(placed(path, spec, kind if kind in SOURCE_KINDS else None))

    listener = None
    if (spec := section("listener")) is not None:
        position = spec.get("position")
        if why := misplaced(position):
            problems.append(f"listener.position: {why}")
        try:
            trajectory = RotationTrajectory(spec.get("trajectory") or ())
            listener = ListenerSpec(tuple(position) if isinstance(position, list) else position, trajectory)
        except ValueError as exc:
            problems.append(f"listener.trajectory: {exc}")

    snr = payload.get("snr_db")
    if snr is not None and not (is_finite_number(snr) and abs(snr) <= MAX_ABS_SNR_DB):
        problems.append(f"snr_db: must be null or a number within +-{MAX_ABS_SNR_DB:g}, got {snr!r}")
    heard = [spans.get(f"interferers[{i}]") for i in range(count or 0)]
    if snr is not None and target and target.onset_s <= MAX_SCENE_SECONDS and heard and None not in heard:
        begin, end = to_frames(target.onset_s), spans.get("target", (0, math.inf))[1]
        if max(stop for _, stop in heard) <= begin:
            problems.append(f"interferers: each ends, its {DEFAULT_RIR_SECONDS:g} s RIR tail included, "
                            "before the target starts, so snr_db has no interferer sound to set")
        elif all(stop <= begin or start >= end for start, stop in heard):
            problems.append(f"interferers: none sounds from the target's start to the end of its "
                            f"{DEFAULT_RIR_SECONDS:g} s RIR tail, so snr_db has no interferer sound to set")
    if (fidelity := payload.get("fidelity")) not in FIDELITY_NAMES:
        problems.append(f"fidelity: must be one of {FIDELITY_NAMES}")
    if not is_seed(seed := payload.get("seed")):
        problems.append(f"seed: must be a non-negative integer, got {seed!r}")
    if problems:
        raise ValueError("; ".join(problems))
    return SceneSpec(room, target, tuple(interferers), listener, snr, fidelity, seed)


def load_scene(path):
    """Parse and validate a scene JSON file.

    A relative source file is taken relative to the scene file's
    directory, and stored as an absolute path, whatever the working
    directory. A scene that breaks a rule raises ValueError naming the
    file.
    """
    payload = read_json(path)
    try:
        return scene_from_dict(payload, os.path.dirname(os.path.abspath(path)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_scene(scene, path):
    """Write scene_to_dict(scene) as JSON, encoded in full before the file is opened."""
    text = json.dumps(scene_to_dict(scene), indent=2, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)


def mix_at_snr(target_w, interferer_w, snr_db):
    """The gain on the summed interferers that hits an SNR against the target.

    The SNR is defined on the omnidirectional (W) channel, before any
    decoding: target_w and interferer_w are the W signals of the target
    and of the interferer sum over the frames the SNR reads, the
    target-active ones in a render. snr_db None gives gain 1. An
    interferer W whose RMS is at most SILENT_INTERFERER_SHARE of the target
    W's, an all-zero one included, is refused as silent; then an all-zero
    target W is refused.
    """
    if snr_db is None:
        return 1.0
    target_rms = rms_array(target_w)
    interferer_rms = rms_array(interferer_w)
    if interferer_rms <= SILENT_INTERFERER_SHARE * target_rms:
        raise ValueError("interferer sum is silent over the target-active range")
    if target_rms == 0.0:
        raise ValueError("target is silent over the target-active range")
    return target_rms / interferer_rms * 10.0 ** (-snr_db / 20.0)


def _turn_pairs(x, cos_m, sin_m):
    """x (K, ...) with each (l, +m), (l, -m) channel pair turned by the
    angle whose cosine and sine are cos_m[m - 1] and sin_m[m - 1]; m = 0
    channels pass unchanged. The gains are scalars or per-frame tracks."""
    out = np.empty_like(x)
    for l in range(len(cos_m) + 1):
        out[acn_index(l, 0)] = x[acn_index(l, 0)]
        for mm in range(1, l + 1):
            pos, neg = acn_index(l, mm), acn_index(l, -mm)
            c, s = cos_m[mm - 1], sin_m[mm - 1]
            out[pos] = c * x[pos] - s * x[neg]
            out[neg] = s * x[pos] + c * x[neg]
    return out


def apply_trajectory(field, trajectory, start=0):
    """Rotate a field through a time-varying listener yaw.

    The yaw is held per block: 50%-overlapped blocks of twice
    ROTATION_BLOCK_SECONDS, each rotated by the negated yaw at its centre
    time (a listener turning by +theta sees the field rotate by -theta),
    crossfaded with triangular windows; at the 160-frame hop the two
    windows over a frame sum to exactly 1, so nothing is normalized. A
    yaw rotation only turns each (l, +m), (l, -m) channel pair by the
    angle m*yaw, so the crossfade of the block rotations is one cos and
    one sin gain track per m = 1..order, applied pairwise; m = 0
    channels pass unchanged. The field's first frame is frame `start` of
    the scene, whose block grid starts at frame 0; each frame gets the
    gains it has in a field that starts at 0.
    """
    hop = to_frames(ROTATION_BLOCK_SECONDS)
    frames = field.frames
    ramp = (np.arange(hop) + 0.5) / hop
    fade_in, fade_out = ramp, ramp[::-1]
    # Block k is centred on frame k*hop. Frame t = k*hop + j lies in the
    # second half of block k (started at (k-1)*hop) and in the first half
    # of block k + 1.
    first = start // hop
    hops = -(-(start + frames) // hop) - first
    yaws = trajectory.yaw_at(np.arange(first, first + hops + 1) * hop / DEFAULT_RATE)
    angles = -np.outer(np.arange(1, field.order + 1), yaws)
    offset = start - first * hop

    def track(per_block):
        faded = fade_out * per_block[:, :-1, None] + fade_in * per_block[:, 1:, None]
        return faded.reshape(field.order, hops * hop)[:, offset : offset + frames]

    return AmbiSignal(_turn_pairs(field.data, track(np.cos(angles)), track(np.sin(angles))))


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
    # One full-size array: the noise is scaled and the field added in place.
    noisy = rng.standard_normal(field.data.shape)
    noisy *= sigma
    noisy += field.data
    return AmbiSignal(noisy)


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


def _render_ears(placed, spaced, trajectory, noise=None):
    """The calibrated ears of the sources in `placed` (sources, frames),
    each at its onset, through their RIRs `spaced`, K x sources x
    (taps + DEFAULT_TAPS - 1): each RIR followed by its decode history
    in zeros.

    Rotation and decode are linear, and time-invariant wherever the yaw
    is held. So while both blocks of a hop carry the trajectory's first
    yaw (the still head) or its last (the still tail), the ears are the
    sources convolved with their binaural RIRs at that yaw. A binaural
    RIR is the source's RIR through the decoder bank turned by the held
    yaw, and it is taps + DEFAULT_TAPS - 1 frames long; one convolve_sum
    decodes the binaural RIRs of both yaws, and each held yaw renders
    only its own frames through its own two. The K-channel field is
    formed only over the frames between, plus DEFAULT_TAPS - 1 frames of
    decode history on each side, and goes through apply_trajectory and
    binaural_decode; the parts are stitched by frame. Every stage asks
    convolve_sum for just the frames it keeps, on the block grid of the
    whole convolution, so the field keeps the bits of the full-field
    render's. Self-noise, a (level_db, seed, reference_rms) triple for
    add_transducer_noise, is added to the field at every frame, so with
    it the field spans the whole scene.
    """
    channels, sources, spacing = spaced.shape
    history = DEFAULT_TAPS - 1
    taps = spacing - history
    frames = placed.shape[1] + taps - 1
    length = frames + history
    hop = to_frames(ROTATION_BLOCK_SECONDS)
    # The yaw of each rotation block, at its centre (apply_trajectory).
    yaws = trajectory.yaw_at(np.arange(-(-frames // hop) + 1) * hop / DEFAULT_RATE)
    moved = np.flatnonzero(yaws != yaws[0])
    # Ears [0, head) take the first yaw, [tail, length) the last; between
    # them the field is rotated and decoded.
    if noise is not None:
        head, tail = 0, length
    elif not moved.size:
        head, tail = length, length
    else:
        head = (moved[0] - 1) * hop
        tail = (np.flatnonzero(yaws != yaws[-1])[-1] + 1) * hop + history
        # A field window that reaches the field's end is decoded to the
        # ears' end: past the field there are only zeros.
        tail = tail if tail < frames else length
    ears = np.empty((2, length))

    held = [(yaw, lo, hi) for yaw, lo, hi in ((yaws[0], 0, head), (yaws[-1], tail, length)) if lo < hi]
    if held:
        # Turning the field by -yaw before the decode is turning the
        # decoder's channel pairs by +yaw.
        order = math.isqrt(channels) - 1
        m = np.arange(1, order + 1)
        bank = decoder_bank(order).transpose(1, 0, 2)
        banks = np.concatenate([_turn_pairs(bank, np.cos(m * yaw), np.sin(m * yaw)).transpose(1, 0, 2)
                                for yaw, _, _ in held])
        brirs = convolve_sum(spaced.reshape(channels, -1), banks, 0, spaced[0].size)
        brirs = brirs.reshape(len(banks), sources, spacing)
        for i, (_, lo, hi) in enumerate(held):
            ears[:, lo:hi] = convolve_sum(placed, brirs[2 * i : 2 * i + 2], lo, hi)

    if head < tail:
        lo, hi = max(0, head - history), min(frames, tail)
        field = AmbiSignal(convolve_sum(placed, spaced[..., :taps], lo, hi))
        if noise is not None:
            field = add_transducer_noise(field, *noise)
        turn = binaural_decode(apply_trajectory(field, trajectory, start=lo))
        ears[:, head:tail] = turn.data[:, head - lo : tail - lo]
    ears *= EAR_CALIBRATION_GAIN
    return SampleBuffer(ears)


def render_scene(scene, profile=None, keep_components=False):
    """Render a scene to hearing-aid ear signals plus the scoring reference.

    Deterministic in (scene, profile). The stages are: dry sources and
    their room impulse responses, held once in the layout _render_ears
    reads, K x sources x (taps + DEFAULT_TAPS - 1) with each RIR followed
    by its decode history in zeros -> W pass over the target-active frames
    and interferer gain -> ears (_render_ears): binaural RIRs where the
    listener holds still, and the mixed field -> transducer noise ->
    head rotation -> binaural decode over the head turn, or over the
    whole scene when there is self-noise. The reference is the dry target
    utterance RMS-normalized to -26 dBFS. The record holds duration_s,
    the ears' length, and target_lag, the frame at which the target's
    direct sound reaches the ears: its onset plus the direct path plus
    the HRTF centre tap. keep_components adds the target, interferer and
    noise ear signals, which sum to the ears; the target and interferer
    ears come from their own renders. A file source that ends after
    MAX_SCENE_SECONDS raises ValueError before any impulse response is
    computed. Before any source is synthesized the scene is read back
    from scene_to_dict(scene), so it raises the reader's ValueError where
    it breaks a rule of scene_from_dict.
    """
    scene = scene_from_dict(scene_to_dict(scene))
    profile = profile or FidelityProfile.from_name(scene.fidelity)
    listener = np.asarray(scene.listener.position)
    absorption = min(1.0, scene.room.absorption * profile.absorption_scale)
    room = RoomSpec(scene.room.dimensions, absorption)
    child_seeds = _scene_child_seeds(scene.seed)

    specs = (scene.target, *scene.interferers)
    drys = []   # per source, target first
    for index, spec in enumerate(specs):
        source = spec.source
        if source.synth_seed is None and source.file is None:
            source = replace(source, synth_seed=child_seeds[index])
        drys.append(source.resolve())
        # A file's length is known only once it is read.
        end = spec.onset_s + drys[-1].size / DEFAULT_RATE
        if source.file is not None and end > MAX_SCENE_SECONDS:
            where = "target" if index == 0 else f"interferers[{index - 1}]"
            raise ValueError(f"{where}.source.file {source.file}: ends at {end:g} s, "
                             f"after the {MAX_SCENE_SECONDS:g} s scene limit")
    # The RIRs are held once, laid out as _render_ears reads them.
    taps = to_frames(DEFAULT_RIR_SECONDS)
    spaced = np.zeros((num_channels(profile.ambisonic_order), len(specs), taps + DEFAULT_TAPS - 1))
    rirs = spaced[..., :taps]   # K x sources x taps
    for index, spec in enumerate(specs):
        cardioid = index > 0 and profile.interferer_directivity == "cardioid"
        src = SourceSpec(spec.position, listener - np.asarray(spec.position) if cardioid else None)
        rir = image_source_rir(room, src, listener, profile.ambisonic_order, DEFAULT_RIR_SECONDS)
        rirs[:, index] = rir.signal.data
    onsets = [to_frames(spec.onset_s) for spec in specs]

    # Every dry signal sits at its onset in one row of `placed`, so one
    # convolve_sum over `rirs` renders a field.
    placed = np.zeros((len(drys), max(o + d.size for o, d in zip(onsets, drys))))
    for row, onset, dry in zip(placed, onsets, drys):
        row[onset : onset + dry.size] = dry
    active = _heard(scene.target.onset_s, drys[0].size)

    # The W pass gives the target and interferer-sum W signals over the
    # target-active frames, which fix the interferer gain; scaling the
    # interferer inputs by it makes each later pass render the mix.
    target_w = convolve_sum(placed[:1], rirs[:1, :1], *active)[0]
    interferer_w = convolve_sum(placed[1:], rirs[:1, 1:], *active)[0]
    interferer_gain = mix_at_snr(target_w, interferer_w, scene.snr_db)
    placed[1:] *= interferer_gain
    noise = None
    if profile.transducer_noise_db is not None:
        noise = (profile.transducer_noise_db, child_seeds[4], rms_array(target_w))
    trajectory = scene.listener.trajectory
    ears = _render_ears(placed, spaced, trajectory, noise)

    reference = SampleBuffer(scale_to_rms(drys[0], REFERENCE_RMS))

    record = {
        "seed": scene.seed,
        "fidelity": scene.fidelity,
        "snr_db": scene.snr_db,
        "profile": asdict(profile),
        "duration_s": ears.frames / DEFAULT_RATE,
        "interferer_gain": float(interferer_gain),
        "ear_gain": float(EAR_CALIBRATION_GAIN),
        "target_onset_s": scene.target.onset_s,
        "target_lag": onsets[0] + to_frames(direct_delay(scene.target.position, listener)) + DEFAULT_TAPS // 2,
    }

    components = None
    if keep_components:
        # Rotation and decode are linear, so the noise share is what the
        # target and interferer ears leave of the ears.
        target_ears = _render_ears(placed[:1], spaced[:, :1], trajectory)
        interferer_ears = _render_ears(placed[1:], spaced[:, 1:], trajectory)
        components = {
            "target_ears": target_ears,
            "interferer_ears": interferer_ears,
            "noise_ears": SampleBuffer(ears.data - target_ears.data - interferer_ears.data),
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

    interferers = []
    for j in range(n_interferers):
        kind = SOURCE_KINDS[int(rng.integers(0, len(SOURCE_KINDS)))]
        onset = float(rng.uniform(0.0, 0.3))
        interferers.append(
            PlacedSource(
                position=tuple(positions[2 + j]),
                source=SourceSignal(
                    kind=kind,
                    duration_s=round(scene_end - onset, 3),
                    synth_seed=int(rng.integers(0, 2**31)),
                ),
                onset_s=onset,
            )
        )

    return SceneSpec(
        room=room,
        target=PlacedSource(
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
    reproduces every byte, regardless of the worker count. A count outside
    1..MAX_SCENES, or a seed that is not a non-negative integer, raises
    ValueError before out_dir exists.
    """
    from . import __version__

    if not 1 <= count <= MAX_SCENES:
        raise ValueError(f"scene count must be at least 1 and at most {MAX_SCENES}, got {count}")
    if not is_seed(seed):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    os.makedirs(out_dir, exist_ok=True)
    scenes = draw_scenes(count, seed, fidelity=fidelity)

    def render_one(index):
        scene_id = f"S{index:04d}"
        result = render_scene(scenes[index])
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
