"""Scores move the way their meaning says, on one rendered set.

Three seeded scenes at both fidelities, rendered once with their
components and scored with score_scene:

- fidelity: the measured-like capture (order 1, cardioid interferers,
  self-noise, less absorption) scores lower than the idealized
  simulation;
- the ends of the ladder: the target-only ears outscore the mix, in both
  metrics and each ear, with and without hearing loss.
"""

import statistics

import pytest

from clarity_bench.harness import score_scene
from clarity_bench.hearing_aid import EARS, flat_audiogram
from clarity_bench.scenes import FIDELITY_NAMES, draw_scenes, render_scene

LEVELS_DB_HL = (0.0, 40.0)
METRICS = ("haspi_like", "hasqi_like")


@pytest.fixture(scope="module")
def scores():
    """{(fidelity, ears, level): [score_scene record per scene]}, ears
    "mix" or "target"."""
    table = {}
    for fidelity in FIDELITY_NAMES:
        for scene in draw_scenes(3, 5, fidelity):
            result = render_scene(scene, keep_components=True)
            reference = result.reference.channel(0)
            for ears, buffer in (("mix", result.ears), ("target", result.components["target_ears"])):
                for level in LEVELS_DB_HL:
                    record = score_scene(buffer, reference, flat_audiogram(level))
                    table.setdefault((fidelity, ears, level), []).append(record)
    return table


def test_measured_like_scores_below_simulated(scores):
    simulated, measured = (statistics.mean(r["haspi_like"] for r in scores[fidelity, "mix", 40.0])
                           for fidelity in FIDELITY_NAMES)
    assert measured < simulated


@pytest.mark.parametrize("fidelity", FIDELITY_NAMES)
@pytest.mark.parametrize("level", LEVELS_DB_HL)
def test_target_alone_outscores_the_mix_in_each_ear(scores, fidelity, level):
    pairs = zip(scores[fidelity, "target", level], scores[fidelity, "mix", level])
    for scene, (target, mix) in enumerate(pairs):
        for metric in METRICS:
            for ear in EARS:
                key = f"{metric}_{ear}"
                assert target[key] > mix[key], (scene, key)
