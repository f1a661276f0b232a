"""Spans around the calls into the program's layers, for the traced run.

Each traced function is replaced at the module attribute through which
its caller looks it up (for example `clarity_bench.scenes.image_source_rir`,
the name `render_scene` calls). Work runs in the program's worker
threads, so every thread keeps its own span stack. Spans are held in
memory and written once, when the run ends.
"""

import json
import os
import re
import threading
import time
from collections import defaultdict
from importlib import import_module

# (span name, module whose attribute is replaced, attribute)
LAYERS = (
    ("scenes.render_scene", "clarity_bench.scenes", "render_scene"),
    ("signals.source_signal", "clarity_bench.signals", "source_signal"),
    ("room.image_source_rir", "clarity_bench.scenes", "image_source_rir"),
    ("ambisonics.sh_eval", "clarity_bench.room", "sh_eval"),
    ("ambisonics.sh_eval", "clarity_bench.ambisonics", "sh_eval"),
    ("audio.convolve_channels", "clarity_bench.scenes", "convolve_channels"),
    ("scenes.mix_at_snr", "clarity_bench.scenes", "mix_at_snr"),
    ("scenes.add_transducer_noise", "clarity_bench.scenes", "add_transducer_noise"),
    ("scenes.apply_trajectory", "clarity_bench.scenes", "apply_trajectory"),
    ("ambisonics.binaural_decode", "clarity_bench.scenes", "binaural_decode"),
    ("audio.write_wav", "clarity_bench.scenes", "write_wav"),
    ("audio.read_wav", "clarity_bench.harness", "read_wav"),
    ("hearing_aid.amplify", "clarity_bench.harness", "amplify"),
    ("metrics.intelligibility_score", "clarity_bench.harness", "intelligibility_score"),
    ("metrics.quality_score", "clarity_bench.harness", "quality_score"),
    ("metrics.gammatone_bands", "clarity_bench.metrics", "gammatone_bands"),
)

# Work counts taken from a traced call: span name -> (counter, function of
# (args, result) giving the amount).
COUNTERS = {
    "room.image_source_rir": ("room.images", lambda args, result: result.image_count),
    "ambisonics.sh_eval": ("ambisonics.sh_eval_points", lambda args, result: getattr(args[1], "size", 1)),
    "hearing_aid.amplify": ("hearing_aid.clipped_samples", lambda args, result: result.clipped),
}

# Per-layer metrics, each per scene of the traced phase: (name, unit, source).
# A source "span:<name>" sums span durations, "self:<name>" sums durations
# less child spans, "calls:<name>" counts spans, "count:<name>" sums a
# counter; the rest are filled by the workload process.
PER_LAYER = (
    ("setup.import_s", "s", "import"),
    ("scenes.render_scene_s", "s", "span:scenes.render_scene"),
    ("scenes.render_scene_self_s", "s", "self:scenes.render_scene"),
    ("signals.source_signal_s", "s", "span:signals.source_signal"),
    ("room.image_source_rir_s", "s", "span:room.image_source_rir"),
    ("room.image_source_rir_self_s", "s", "self:room.image_source_rir"),
    ("room.images", "count", "count:room.images"),
    ("ambisonics.sh_eval_s", "s", "span:ambisonics.sh_eval"),
    ("ambisonics.sh_eval_points", "count", "count:ambisonics.sh_eval_points"),
    ("audio.convolve_channels_s", "s", "span:audio.convolve_channels"),
    ("scenes.mix_at_snr_s", "s", "span:scenes.mix_at_snr"),
    ("scenes.add_transducer_noise_s", "s", "span:scenes.add_transducer_noise"),
    ("scenes.apply_trajectory_s", "s", "span:scenes.apply_trajectory"),
    ("ambisonics.binaural_decode_s", "s", "span:ambisonics.binaural_decode"),
    ("audio.write_wav_s", "s", "span:audio.write_wav"),
    ("audio.read_wav_s", "s", "span:audio.read_wav"),
    ("hearing_aid.amplify_s", "s", "span:hearing_aid.amplify"),
    ("hearing_aid.clipped_samples", "count", "count:hearing_aid.clipped_samples"),
    ("metrics.intelligibility_score_s", "s", "span:metrics.intelligibility_score"),
    ("metrics.quality_score_s", "s", "span:metrics.quality_score"),
    ("metrics.gammatone_bands_s", "s", "span:metrics.gammatone_bands"),
    ("metrics.gammatone_bands_calls", "count", "calls:metrics.gammatone_bands"),
    ("proc.minor_faults", "count", "rusage:ru_minflt"),
    ("proc.sys_s", "s", "rusage:ru_stime"),
    ("trace.overhead_pct", "%", "overhead"),
)

_SCENE_FILE = re.compile(r"(S\d+)_(?:mix|ref)\.wav$")


class Tracer:
    """Records spans (name, start, end, parent index, scene id) in memory."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved = []

    def _scene_of(self, name, args):
        """Scene id a call belongs to; None keeps the thread's current one."""
        if name == "scenes.render_scene":
            return f"seed{args[0].seed}"
        if name == "audio.read_wav":
            path = os.fspath(args[0])
            match = _SCENE_FILE.search(path)
            if match:
                return f"{os.path.basename(os.path.dirname(path))}/{match.group(1)}"
        return None

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            local = self._local
            stack = local.__dict__.setdefault("stack", [])
            scene = self._scene_of(name, args)
            if scene is not None:
                local.scene = scene
            with self._lock:
                index = len(self.spans)
                self.spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[index] = (name, start, end, parent, getattr(local, "scene", None))
            if counter is not None:
                key, amount = counter
                with self._lock:
                    self.counts[key] += float(amount(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, module_name, attr in LAYERS:
            module = import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def totals(self):
        """Per span name: (seconds, self seconds, calls)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0.0, 0.0, 0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += end - start
            entry[1] += end - start - child[i]
            entry[2] += 1
        return out

    def per_layer(self, scenes, extra):
        """PER_LAYER values per scene; `extra` fills the non-span sources."""
        totals = self.totals()
        column = {"span": 0, "self": 1, "calls": 2}
        values = {}
        for metric, _, source in PER_LAYER:
            kind, _, key = source.partition(":")
            if kind in column:
                values[metric] = totals[key][column[kind]] / scenes
            elif kind == "count":
                values[metric] = self.counts.get(key, 0.0) / scenes
            else:
                values[metric] = extra[metric]
        return values

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fp:
            json.dump(
                {"fields": ["name", "start", "end", "parent", "scene"], "spans": self.spans}, fp
            )
