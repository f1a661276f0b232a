"""Desk-scale hearing-aid listening-scene benchmark.

Simulates noisy domestic scenes as Ambisonic sound fields with listener
head rotation, renders binaural hearing-aid inputs, applies a fixed
NAL-R style amplification baseline, and scores the result with
audiogram-aware surrogate intelligibility/quality metrics.
"""

__version__ = "0.1.0"

from .ambisonics import (
    AmbiSignal,
    binaural_decode,
    fibonacci_directions,
    sh_eval,
    truncate,
)
from .audio import DEFAULT_RATE, SampleBuffer, mono, read_wav, write_wav
from .harness import (
    LeaderboardRow,
    RunManifest,
    load_published_results,
    metric_correlation,
    pearson,
    score_dataset,
)
from .hearing_aid import Audiogram, amplify, design_fir, flat_audiogram, load_audiogram, nalr_gains
from .hrtf import HeadModel, HrtfSet, default_hrtf_set, synth_hrtf
from .metrics import (
    MetricScore,
    better_ear,
    combined_score,
    intelligibility_score,
    quality_score,
)
from .room import AmbiRir, RoomSpec, SourceSpec, image_source_rir, schroeder_rt60
from .scenes import (
    FidelityProfile,
    RotationTrajectory,
    SceneSpec,
    apply_trajectory,
    default_trajectory,
    generate_dataset,
    load_scene,
    mix_at_snr,
    render_scene,
)
