"""The full-field render, kept as a test oracle.

render_scene decodes each source's binaural RIR wherever the listener
holds still and forms the Ambisonic field only over the head turn. This
is the sequence that it must equal: the whole mixed field, transducer
noise, apply_trajectory and binaural_decode at every frame.
"""

from dataclasses import replace

import numpy as np

from clarity_bench.ambisonics import AmbiSignal
from clarity_bench.audio import DEFAULT_RATE, SampleBuffer, convolve_sum, rms_array
from clarity_bench.hrtf import binaural_decode
from clarity_bench.room import RoomSpec, SourceSpec, image_source_rir
from clarity_bench.scenes import (
    DEFAULT_RIR_SECONDS, EAR_CALIBRATION_GAIN, FidelityProfile, _scene_child_seeds,
    add_transducer_noise, apply_trajectory, mix_at_snr,
)


def full_field_render(scene, profile=None, keep_components=False):
    """(ears, components or None, mixed field before noise) of a scene.

    The components are the target, interferer and noise ears, as in
    render_scene; the target and interferer ears come from their own
    full fields.
    """
    profile = profile or FidelityProfile.from_name(scene.fidelity)
    listener = np.asarray(scene.listener.position)
    room = RoomSpec(scene.room.dimensions, min(1.0, scene.room.absorption * profile.absorption_scale))
    child_seeds = _scene_child_seeds(scene.seed)
    specs = (scene.target, *scene.interferers)
    drys, onsets, rirs = [], [], []
    for index, spec in enumerate(specs):
        source = spec.source
        if source.synth_seed is None and source.file is None:
            source = replace(source, synth_seed=child_seeds[index])
        drys.append(source.resolve())
        onsets.append(int(round(spec.onset_s * DEFAULT_RATE)))
        cardioid = index > 0 and profile.interferer_directivity == "cardioid"
        aim = listener - np.asarray(spec.position) if cardioid else None
        rir = image_source_rir(room, SourceSpec(spec.position, aim), listener,
                               profile.ambisonic_order, DEFAULT_RIR_SECONDS)
        rirs.append(rir.signal.data)

    placed = np.zeros((len(drys), max(o + d.size for o, d in zip(onsets, drys))))
    for row, onset, dry in zip(placed, onsets, drys):
        row[onset : onset + dry.size] = dry
    rirs = np.stack(rirs, axis=1)
    active = (onsets[0], onsets[0] + drys[0].size + rirs.shape[2] - 1)
    w_kernels = np.zeros((2, *rirs.shape[1:]))
    w_kernels[0, 0] = rirs[0, 0]
    w_kernels[1, 1:] = rirs[0, 1:]
    target_w, interferer_w = convolve_sum(placed, w_kernels)[:, active[0] : active[1]]
    placed[1:] *= mix_at_snr(target_w, interferer_w, scene.snr_db)
    mixed = AmbiSignal(convolve_sum(placed, rirs))
    noisy = add_transducer_noise(mixed, profile.transducer_noise_db, child_seeds[4], rms_array(target_w))

    def to_ears(field):
        decoded = binaural_decode(apply_trajectory(field, scene.listener.trajectory))
        return decoded.data * EAR_CALIBRATION_GAIN

    ears = to_ears(noisy)
    components = None
    if keep_components:
        target = to_ears(AmbiSignal(convolve_sum(placed[:1], rirs[:, :1])))
        interferers = to_ears(AmbiSignal(convolve_sum(placed[1:], rirs[:, 1:])))
        components = {"target_ears": target, "interferer_ears": interferers,
                      "noise_ears": ears - target - interferers}
    return SampleBuffer(ears), components, mixed
