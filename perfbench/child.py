"""One benchmark process: a fresh interpreter per call, started by run.py.

    child.py setup    --workload W --root R --t0 T [--inputs DIR]
    child.py prep     --root R --seed S --out DIR
    child.py workload --workload W --root R --t0 T --seed S --seconds N --trace 0|1
                      --work DIR [--inputs DIR] [--trace-file PATH]

run.py sets PYTHONPATH to the checkout's `src` and the thread variables
before starting it. `--t0` is the parent's time.monotonic() just before
the start, so set-up time counts the interpreter start too. The last
line of standard output is one JSON object.
"""

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

WORKLOAD_FIDELITY = {"render-sim": "simulated", "render-measured": "measured_like"}
FIDELITIES = ("simulated", "measured_like")
ROUND_SCENES = 3            # scenes per render round
SCORE_SCENES = 6            # scenes per fidelity in the score inputs
WARM_SEED_INDEX = 1_000_000  # dataset-seed stream index reserved for the warm-up scene


def set_up(workload, root, inputs):
    """Import the program and load the workload's inputs; returns import seconds."""
    start = time.perf_counter()
    import clarity_bench
    from clarity_bench import cli  # noqa: F401  (the entry point the workloads drive)

    import_s = time.perf_counter() - start
    expected = os.path.join(root, "src", "clarity_bench")
    if os.path.dirname(os.path.abspath(clarity_bench.__file__)) != expected:
        raise RuntimeError(f"imported clarity_bench from {clarity_bench.__file__}, not {expected}")
    manifests = None
    if workload == "score":
        manifests = {}
        for fidelity in FIDELITIES:
            with open(os.path.join(inputs, fidelity, "manifest.json"), encoding="utf-8") as fp:
                manifests[fidelity] = json.load(fp)
    return import_s, manifests


def dataset_seed(seed, index):
    """index-th dataset seed of the stream that --seed selects."""
    import numpy as np

    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0]) & 0x7FFFFFFF


ROUND_MIX = ([1, 2, 3], ["music", "music", "noise", "noise", "speech", "speech"])


class RoundSeeds:
    """Dataset seeds whose 3 scenes hold 1, 2 and 3 interferers, two of each kind.

    Render cost grows with the interferer count, and a speech interferer
    takes ten times as long to synthesize as noise or music, so fixing the
    mix in every round keeps scenes/s from following the seed's luck.
    """

    def __init__(self, seed):
        self.seed = seed
        self.seeds = []
        self._next = 0

    def __getitem__(self, k):
        from clarity_bench.scenes import draw_scenes

        while len(self.seeds) <= k:
            candidate = dataset_seed(self.seed, self._next)
            self._next += 1
            scenes = draw_scenes(ROUND_SCENES, candidate)
            mix = (sorted(len(s.interferers) for s in scenes),
                   sorted(i.kind for s in scenes for i in s.interferers))
            if mix == ROUND_MIX:
                self.seeds.append(candidate)
        return self.seeds[k]


def run_rounds(seconds, one_round, seeds=None):
    """Run whole rounds until `seconds` of round time have passed.

    Only the rounds are timed; choosing the next round's input is not.
    Returns [(round index, ok, seconds)].
    """
    busy = 0.0
    done = []
    while busy < seconds:
        k = len(done)
        arg = seeds[k] if seeds is not None else k
        start = time.perf_counter()
        try:
            one_round(k, arg)
            ok = True
        except Exception:  # a failed round counts as failed scenes; the run goes on
            traceback.print_exc()
            ok = False
        took = time.perf_counter() - start
        busy += took
        done.append((k, ok, took))
    return done


def round_rate(done, scenes_per_round):
    """Scenes per second of the median round (of the rounds that did not fail)."""
    times = [t for _, ok, t in done if ok] or [t for _, _, t in done]
    return scenes_per_round / statistics.median(times)


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fp:
            h.update(fp.read())
    return h.hexdigest()


def read_bytes(path):
    with open(path, "rb") as fp:
        return fp.read()


def timed_phases(args, one_round, scenes_per_round, seeds=None):
    """Timed phase, plus the traced phase on the same inputs when tracing.

    Returns the measurements, the indices of the rounds that did not fail
    in the timed and in the traced phase, and the per-layer values (None
    unless tracing).
    """
    import tracing

    done = run_rounds(args.seconds, lambda k, a: one_round("timed", k, a), seeds)
    out = {
        "scenes_per_s": round_rate(done, scenes_per_round),
        "peak_rss_mib": peak_rss_mib(),
        "attempted": scenes_per_round * len(done),
        "failed": scenes_per_round * sum(1 for _, ok, _ in done if not ok),
        "round_s": [t for _, _, t in done],
    }
    per_layer = None
    done_t = []
    if args.trace:
        tracer = tracing.Tracer()
        before = resource.getrusage(resource.RUSAGE_SELF)
        tracer.install()
        try:
            done_t = run_rounds(
                args.seconds, lambda k, a: one_round("traced", k, a), seeds
            )
        finally:
            tracer.uninstall()
        after = resource.getrusage(resource.RUSAGE_SELF)
        scenes = scenes_per_round * len(done_t)
        traced_sps = round_rate(done_t, scenes_per_round)
        per_layer = tracer.per_layer(scenes, {
            "setup.import_s": args.import_s,
            "proc.minor_faults": (after.ru_minflt - before.ru_minflt) / scenes,
            "proc.sys_s": (after.ru_stime - before.ru_stime) / scenes,
            "trace.overhead_pct": 100.0 * (out["scenes_per_s"] / traced_sps - 1.0),
        })
        out["attempted"] += scenes
        out["failed"] += scenes_per_round * sum(1 for _, ok, _ in done_t if not ok)
        tracer.write(args.trace_file)
    return out, [k for k, ok, _ in done if ok], [k for k, ok, _ in done_t if ok], per_layer


def render_workload(args, problems):
    import numpy as np
    from clarity_bench.audio import write_wav
    from clarity_bench.hrtf import DEFAULT_TAPS
    from clarity_bench.scenes import DEFAULT_RIR_SECONDS, generate_dataset, load_scene, render_scene

    import checks

    fidelity = WORKLOAD_FIDELITY[args.workload]
    seeds = RoundSeeds(args.seed)

    def round_dir(phase, k):
        return os.path.join(args.work, f"{phase}-{k:03d}")

    def one_round(phase, k, dataset):
        generate_dataset(round_dir(phase, k), count=ROUND_SCENES, seed=dataset, fidelity=fidelity)

    generate_dataset(os.path.join(args.work, "warm"), count=1,
                     seed=dataset_seed(args.seed, WARM_SEED_INDEX), fidelity=fidelity)
    out, rounds, traced_rounds, per_layer = timed_phases(args, one_round, ROUND_SCENES, seeds)

    rir_frames = int(round(DEFAULT_RIR_SECONDS * checks.RATE))
    entries = []
    for k in rounds:
        directory = round_dir("timed", k)
        with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fp:
            manifest = json.load(fp)
        if manifest["fidelity"] != fidelity or len(manifest["scenes"]) != ROUND_SCENES:
            problems.append(f"{directory}: manifest is not {ROUND_SCENES} {fidelity} scenes")
            continue
        for entry in manifest["scenes"]:
            paths = {key: os.path.join(directory, entry[key]) for key in ("mix", "reference", "scene")}
            entries.append(paths)
            with open(paths["scene"], encoding="utf-8") as fp:
                scene = json.load(fp)
            check(problems, paths["mix"], checks.check_mix,
                  read_bytes(paths["mix"]), scene, rir_frames, DEFAULT_TAPS)
            check(problems, paths["reference"], checks.check_reference,
                  read_bytes(paths["reference"]))
    if not entries:
        problems.append("no round completed")
        return out, None, per_layer

    sampled = entries[int(np.random.default_rng(args.seed).integers(len(entries)))]
    result = render_scene(load_scene(sampled["scene"]), keep_components=True)
    check(problems, "linearity", checks.check_components,
          result.ears.data, [c.data for c in result.components.values()])
    for key, buffer in (("mix", result.ears), ("reference", result.reference)):
        again = os.path.join(args.work, f"again_{key}.wav")
        write_wav(again, buffer)
        check(problems, sampled[key], checks.check_same_bytes,
              read_bytes(again), read_bytes(sampled[key]), key)

    first = sorted(os.path.join(round_dir("timed", rounds[0]), name)
                   for name in os.listdir(round_dir("timed", rounds[0])))
    if rounds[0] in traced_rounds:
        traced = [os.path.join(round_dir("traced", rounds[0]), os.path.basename(p)) for p in first]
        if digest(traced) != digest(first):
            problems.append(f"traced round {rounds[0]} differs from the untraced one")
    return out, digest(first), per_layer


def score_workload(args, problems, manifests):
    import numpy as np
    from clarity_bench import cli
    from clarity_bench.audio import read_wav
    from clarity_bench.harness import bundled_results_path, load_published_results, metric_correlation
    from clarity_bench.hearing_aid import design_fir, flat_audiogram, nalr_gains
    from clarity_bench.metrics import intelligibility_score, quality_score

    import checks

    datasets = {f: os.path.join(args.inputs, f, "manifest.json") for f in FIDELITIES}
    scenes_per_round = sum(len(manifests[f]["scenes"]) for f in FIDELITIES)

    def csv_path(phase, k, fidelity):
        return os.path.join(args.work, f"{phase}-{k:03d}", f"{fidelity}.csv")

    reports = {}

    def one_round(phase, k, _):
        os.makedirs(os.path.join(args.work, f"{phase}-{k:03d}"))
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            for fidelity in FIDELITIES:
                if cli.main(["score", "--dataset", datasets[fidelity],
                             "--out", csv_path(phase, k, fidelity)]) != 0:
                    raise RuntimeError(f"score {fidelity} failed")
            report_start = captured.tell()
            if cli.main(["report", "--scores", *(csv_path(phase, k, f) for f in FIDELITIES),
                         "--paper-table"]) != 0:
                raise RuntimeError("report failed")
        reports[(phase, k)] = captured.getvalue()[report_start:]

    os.makedirs(os.path.join(args.work, "warm"))
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["score", "--dataset", datasets["simulated"],
                  "--out", os.path.join(args.work, "warm", "simulated.csv")])
    out, rounds, traced_rounds, per_layer = timed_phases(args, one_round, scenes_per_round)
    if not rounds:
        problems.append("no round completed")
        return out, None, per_layer

    runs = {}
    for phase, k in [("timed", k) for k in rounds] + [("traced", k) for k in traced_rounds]:
        for fidelity in FIDELITIES:
            with open(csv_path(phase, k, fidelity) + ".run.json", encoding="utf-8") as fp:
                run = json.load(fp)
            with open(csv_path(phase, k, fidelity), encoding="utf-8") as fp:
                text = fp.read()
            where = f"{phase}-{k:03d}/{fidelity}"
            check(problems, where, checks.check_records, run["records"])
            check(problems, where, checks.check_aggregates, run)
            check(problems, where, checks.check_scores_csv, text, run["records"])
            if runs.setdefault(fidelity, (text, run["records"])) != (text, run["records"]):
                problems.append(f"{where}: scores differ from the first round")
        check(problems, f"{phase}-{k:03d} report", checks.check_report, reports[(phase, k)], 2)

    rng = np.random.default_rng(args.seed)
    zero_loss = (0.0,) * 6
    for fidelity in FIDELITIES:
        entry = manifests[fidelity]["scenes"][int(rng.integers(len(manifests[fidelity]["scenes"])))]
        ref = read_wav(os.path.join(args.inputs, fidelity, entry["reference"])).channel(0)
        check(problems, entry["reference"], checks.check_self_score, "intelligibility_score",
              intelligibility_score(ref, ref, zero_loss))
        check(problems, entry["reference"], checks.check_self_score, "quality_score",
              quality_score(ref, ref, zero_loss))
    check(problems, "nalr", checks.check_nalr_1khz,
          design_fir(nalr_gains(flat_audiogram(40.0), "left")))
    with open(bundled_results_path(), encoding="utf-8") as fp:
        table = list(csv.DictReader(fp))
    program_rows = load_published_results()
    for eval_set in sorted({row["eval_set"] for row in table}):
        check(problems, f"correlation {eval_set}", checks.check_correlation,
              metric_correlation([r for r in program_rows if r.eval_set == eval_set]),
              [row for row in table if row["eval_set"] == eval_set])
    means = {f: sum(r["haspi_like"] for r in runs[f][1]) / len(runs[f][1]) for f in FIDELITIES}
    check(problems, "fidelity gap", checks.check_fidelity_gap,
          means["simulated"], means["measured_like"])

    h = hashlib.sha256()
    for fidelity in FIDELITIES:
        h.update(runs[fidelity][0].encode())
        h.update(json.dumps(runs[fidelity][1], sort_keys=True).encode())
    return out, h.hexdigest(), per_layer


def check(problems, where, fn, *args):
    import checks

    try:
        fn(*args)
    except checks.CheckFailed as exc:
        problems.append(f"{where}: {exc}")


def prepare_score_inputs(args):
    """Render the score inputs with the program under test (untimed)."""
    from clarity_bench import cli

    with contextlib.redirect_stdout(io.StringIO()):
        for fidelity in FIDELITIES:
            code = cli.main(["generate", "--n", str(SCORE_SCENES), "--seed", str(args.seed),
                             "--fidelity", fidelity, "--out", os.path.join(args.out, fidelity)])
            if code != 0:
                raise RuntimeError(f"generate {fidelity} exited with {code}")
    with open(os.path.join(args.out, "ready"), "w", encoding="utf-8") as fp:
        fp.write("ok\n")
    return {}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "prep", "workload"))
    parser.add_argument("--workload", choices=("render-sim", "render-measured", "score"))
    parser.add_argument("--root", required=True)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work")
    parser.add_argument("--trace-file")
    parser.add_argument("--inputs")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    if args.mode == "prep":
        result = prepare_score_inputs(args)
    else:
        args.import_s, manifests = set_up(args.workload, args.root, args.inputs)
        result = {"setup_s": time.monotonic() - args.t0}
        if args.mode == "workload":
            problems = []
            if args.workload == "score":
                out, digest_hex, per_layer = score_workload(args, problems, manifests)
            else:
                out, digest_hex, per_layer = render_workload(args, problems)
            result.update(out, problems=problems, digest=digest_hex, per_layer=per_layer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
