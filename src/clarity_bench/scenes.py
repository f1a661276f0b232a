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
omnidirectional (W) channel of their impulse responses, giving two
signals: the target's W and the interferer sum's W. From them
mix_at_snr takes one scalar, the interferer gain, which scales the
interferers' inputs. Rotation and decode are linear and, while the yaw is
held, time-invariant; so before the listener turns and after the turn
the ears are the sources convolved with their binaural RIRs (each RIR
decoded at the held yaw through hrtf.decoder_bank). Over the turn, the
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
from .ambisonics import AmbiSignal, acn_index
from .audio import (  # noqa: F401  (convolve_channels: perfbench/tracing.py wraps it by this name)
    DEFAULT_RATE, REFERENCE_RMS, SampleBuffer, convolve_channels, convolve_sum, read_json,
    read_wav, rms_array, scale_to_rms, write_wav,
)
from .hrtf import DEFAULT_TAPS, binaural_decode, decoder_bank
from .room import SPEED_OF_SOUND, RoomSpec, SourceSpec, direct_path_problem, image_source_rir, is_finite_number
from .workers import ordered_map

PAPER_ROOM = RoomSpec(dimensions=(6.6, 5.8, 2.8), absorption=0.438)

DEFAULT_RIR_SECONDS = 0.35
# Every source must end (onset plus duration) by this time. An order-6
# field of this length is 188 MiB, and a render holds a few at once.
MAX_SCENE_SECONDS = 30.0
ROTATION_BLOCK_SECONDS = 0.01
MAX_SCENES = 9999   # the most that the four-digit scene ids S%04d hold
_HOP = int(round(ROTATION_BLOCK_SECONDS * DEFAULT_RATE))   # frames between rotation block centres

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
    """value with every tuple and array in it turned into a list."""
    if isinstance(value, np.ndarray):
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


def scene_from_dict(payload, directory=None):
    """Build a SceneSpec from a scene dictionary and check it.

    This is the one checker of a scene. It walks the dictionary once and
    collects every problem, prefixed by its path, in field order into one
    ValueError that joins them by "; ". Numbers must be finite and not
    booleans (`is_finite_number`). RoomSpec and RotationTrajectory keep
    the room's and the trajectory's rules; a room's speed_of_sound, which
    scene_to_dict does not write, must be SPEED_OF_SOUND when given.
    Positions are three numbers inside the room, and the direct sound of
    every source must reach the listener within DEFAULT_RIR_SECONDS
    (`direct_path_problem`). There are 1 to 3 interferers. Every source
    needs an onset_s >= 0 (absent means 0); its duration_s, which a
    synthetic source (no file) must give, is > 0, and a synthetic one
    lasts at least one sample at DEFAULT_RATE; a given file is a string,
    joined to `directory` when one is given and the file is relative; a
    given synth_seed is a non-negative integer; and onset plus duration
    must not pass MAX_SCENE_SECONDS. Every source.kind is one of
    SOURCE_KINDS (absent means speech for the target); an interferer's
    "kind" is too, and its source.kind, when given, must equal it. snr_db
    is None or within MAX_ABS_SNR_DB, the fidelity is one of
    FIDELITY_NAMES and the seed is a non-negative integer.
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
        length = duration if is_finite_number(duration) and duration > 0 else 0.0
        if not length and (file is None or duration is not None):
            need = "a synthetic source needs" if file is None else "must be"
            problems.append(f"{path}.source.duration_s: {need} a finite duration > 0, got {duration!r}")
        elif file is None and round(length * DEFAULT_RATE) < 1:
            problems.append(f"{path}.source.duration_s: {duration!r} s is shorter "
                            f"than one sample at {DEFAULT_RATE} Hz")
        if onset + length > MAX_SCENE_SECONDS:
            problems.append(f"{path}: ends at {onset + length:g} s, after the "
                            f"{MAX_SCENE_SECONDS:g} s scene limit")
        if isinstance(file, str) and directory is not None:
            file = os.path.join(directory, file)
        position = tuple(position) if isinstance(position, list) else position
        return PlacedSource(position, SourceSignal(given, duration, seed, file), onset)

    target = None
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
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(scene_to_dict(scene), fp, indent=2, sort_keys=True)


def mix_at_snr(target_w, interferer_w, snr_db, active_range):
    """The gain on the summed interferers that hits an SNR against the target.

    The SNR is defined on the omnidirectional (W) channel over the
    target-active frame range, before any decoding: target_w and
    interferer_w are the W signals of the target and of the interferer
    sum, one length. snr_db None gives gain 1.
    """
    if snr_db is None:
        return 1.0
    start, stop = active_range
    start = max(0, int(start))
    stop = min(target_w.size, int(stop))
    if stop <= start:
        raise ValueError("empty target-active range")
    target_rms = rms_array(target_w[start:stop])
    interferer_rms = rms_array(interferer_w[start:stop])
    if interferer_rms == 0.0:
        raise ValueError("interferer sum is silent over the target-active range")
    if target_rms == 0.0:
        raise ValueError("target is silent over the target-active range")
    return target_rms / interferer_rms * 10.0 ** (-snr_db / 20.0)


def _block_yaws(trajectory, first, stop):
    """The listener yaw at the centres k * _HOP of rotation blocks
    k = first .. stop - 1; block k spans frames (k - 1) * _HOP to
    (k + 1) * _HOP."""
    return trajectory.yaw_at(np.arange(first, stop) * _HOP / DEFAULT_RATE)


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
    hop = _HOP
    frames = field.frames
    ramp = (np.arange(hop) + 0.5) / hop
    fade_in, fade_out = ramp, ramp[::-1]
    # Frame t = k*hop + j lies in the second half of block k (started at
    # (k-1)*hop) and in the first half of block k + 1.
    first = start // hop
    hops = -(-(start + frames) // hop) - first
    angles = -np.outer(np.arange(1, field.order + 1), _block_yaws(trajectory, first, first + hops + 1))
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
    noise = rng.standard_normal(field.data.shape) * sigma
    return AmbiSignal(field.data + noise)


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


def _render_ears(placed, rirs, trajectory, noise=None):
    """The calibrated ears of the sources in `placed` (sources, frames),
    each at its onset, through their RIRs `rirs` (K, sources, taps).

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
    channels, sources, taps = rirs.shape
    frames = placed.shape[1] + taps - 1
    length = frames + DEFAULT_TAPS - 1
    history = DEFAULT_TAPS - 1
    yaws = _block_yaws(trajectory, 0, -(-frames // _HOP) + 1)
    moved = np.flatnonzero(yaws != yaws[0])
    # Ears [0, head) take the first yaw, [tail, length) the last; between
    # them the field is rotated and decoded.
    if noise is not None:
        head, tail = 0, length
    elif not moved.size:
        head, tail = length, length
    else:
        head = (moved[0] - 1) * _HOP
        tail = (np.flatnonzero(yaws != yaws[-1])[-1] + 1) * _HOP + history
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
        # The RIRs laid end to end, each followed by the decode's history
        # in zeros, so one decode gives every source's binaural RIR.
        spaced = np.zeros((channels, sources, taps + history))
        spaced[:, :, :taps] = rirs
        brirs = convolve_sum(spaced.reshape(channels, -1), banks, 0, spaced[0].size)
        brirs = brirs.reshape(len(banks), sources, taps + history)
        for i, (_, lo, hi) in enumerate(held):
            ears[:, lo:hi] = convolve_sum(placed, brirs[2 * i : 2 * i + 2], lo, hi)

    if head < tail:
        lo, hi = max(0, head - history), min(frames, tail)
        field = AmbiSignal(convolve_sum(placed, rirs, lo, hi))
        if noise is not None:
            field = add_transducer_noise(field, *noise)
        turn = binaural_decode(apply_trajectory(field, trajectory, start=lo))
        ears[:, head:tail] = turn.data[:, head - lo : tail - lo]
    return SampleBuffer(ears * EAR_CALIBRATION_GAIN)


def render_scene(scene, profile=None, keep_components=False):
    """Render a scene to hearing-aid ear signals plus the scoring reference.

    Deterministic in (scene, profile). The stages are: dry sources and
    their room impulse responses -> W pass and interferer gain -> ears
    (_render_ears): binaural RIRs where the listener holds still, and
    the mixed field -> transducer noise -> head rotation -> binaural
    decode over the head turn, or over the whole scene when there is
    self-noise. The reference is the dry target utterance RMS-normalized
    to -26 dBFS. The record holds target_lag, the frame at which the
    target's direct sound reaches the ears: its onset plus the direct
    path plus the HRTF centre tap. keep_components adds the target,
    interferer and noise ear signals, which sum to the ears; the target
    and interferer ears come from their own renders. A file source that
    ends after MAX_SCENE_SECONDS raises ValueError before any
    impulse response is computed. Before any source is synthesized the
    scene is read back from scene_to_dict(scene), so it raises the
    reader's ValueError where it breaks a rule of scene_from_dict.
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
    onsets, rirs = [], []
    for index, spec in enumerate(specs):
        cardioid = index > 0 and profile.interferer_directivity == "cardioid"
        src = SourceSpec(spec.position, listener - np.asarray(spec.position) if cardioid else None)
        rir = image_source_rir(room, src, listener, profile.ambisonic_order, DEFAULT_RIR_SECONDS)
        onsets.append(int(round(spec.onset_s * DEFAULT_RATE)))
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

    # The W pass gives the target and interferer-sum W signals, which fix
    # the interferer gain; scaling the interferer inputs by it makes each
    # later pass render the mix.
    w_kernels = np.zeros((2, *rirs.shape[1:]))
    w_kernels[0, 0] = rirs[0, 0]
    w_kernels[1, 1:] = rirs[0, 1:]
    target_w, interferer_w = convolve_sum(placed, w_kernels)
    interferer_gain = mix_at_snr(target_w, interferer_w, scene.snr_db, active)
    placed[1:] *= interferer_gain
    noise = None
    if profile.transducer_noise_db is not None:
        noise = (profile.transducer_noise_db, child_seeds[4], rms_array(target_w[active[0] : active[1]]))
    trajectory = scene.listener.trajectory
    ears = _render_ears(placed, rirs, trajectory, noise)

    reference = SampleBuffer(scale_to_rms(drys[0], REFERENCE_RMS))
    direct = np.linalg.norm(np.asarray(scene.target.position) - listener)

    record = {
        "seed": scene.seed,
        "fidelity": scene.fidelity,
        "snr_db": scene.snr_db,
        "profile": asdict(profile),
        "duration_s": frames / DEFAULT_RATE,
        "interferer_gain": float(interferer_gain),
        "ear_gain": float(EAR_CALIBRATION_GAIN),
        "target_onset_s": scene.target.onset_s,
        "target_lag": onsets[0] + int(round(direct / SPEED_OF_SOUND * DEFAULT_RATE))
                      + DEFAULT_TAPS // 2,
    }

    components = None
    if keep_components:
        # Rotation and decode are linear, so the noise share is what the
        # target and interferer ears leave of the ears.
        target_ears = _render_ears(placed[:1], rirs[:, :1], trajectory)
        interferer_ears = _render_ears(placed[1:], rirs[:, 1:], trajectory)
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
