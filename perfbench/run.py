#!/usr/bin/env python3
"""Benchmark of clarity-bench's rendering and scoring, one workload per call.

    python3 perfbench/run.py --workload render-sim --seed 7 --seconds 20 --trace 0

Run it from anywhere; it works on the checkout that holds it. Every
workload runs in fresh child processes with one worker thread. The
last line of standard output is one JSON object: `correct`, `attempted`,
`failed` (scenes) and `metrics`, the end-to-end metrics with --trace 0
and the per-layer metrics with --trace 1. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("render-sim", "render-measured", "score")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 3        # set-ups per run; setup_s is their median
PREP_THREADS = 2         # score inputs are rendered untimed, so they may use both cores
DEADLINE_S = 170.0       # every child is stopped by then
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "scenes_per_s": "scenes/s", "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def child_env(threads):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["CLARITY_BENCH_THREADS"] = str(threads)
    # One malloc arena: every call into the program starts a fresh pool
    # thread, and with per-thread arenas peak RSS differed between runs on
    # identical inputs.
    env["MALLOC_ARENA_MAX"] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, deadline, threads=1):
    """Run child.py to its end and return the JSON of its last output line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), *args,
           "--root", ROOT, "--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} process stopped after {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{args[0]} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def source_hash():
    """Hash of the program's source tree and of the benchmark's own child code."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fp:
                h.update(fp.read())
    with open(os.path.join(HERE, "child.py"), "rb") as fp:
        h.update(fp.read())
    return h.hexdigest()[:16]


def score_inputs(seed, deadline):
    """Directory of the score inputs for this seed, rendered if not cached.

    The key is the source tree's hash, so inputs are reused only by the
    same code; inputs of other trees are removed.
    """
    base = os.path.join(WORK, "inputs")
    os.makedirs(base, exist_ok=True)
    key = source_hash()
    target = os.path.join(base, f"{key}-seed{seed}")
    if os.path.exists(os.path.join(target, "ready")):
        return target
    for name in os.listdir(base):
        if not name.startswith(key):
            shutil.rmtree(os.path.join(base, name), ignore_errors=True)
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    shutil.rmtree(target, ignore_errors=True)
    run_child(["prep", "--seed", str(seed), "--out", tmp], deadline, threads=PREP_THREADS)
    os.replace(tmp, target)
    return target


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "clarity_bench", "__init__.py")):
        print(f"error: no program source at {os.path.join(ROOT, 'src', 'clarity_bench')}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    work = os.path.join(WORK, f"run-{args.workload}-{os.getpid()}")
    traces = os.path.join(WORK, "traces")
    os.makedirs(traces, exist_ok=True)
    try:
        common = ["--workload", args.workload]
        if args.workload == "score":
            common += ["--inputs", score_inputs(args.seed, deadline)]
        os.makedirs(work)
        result = run_child(
            ["workload", *common, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--work", work,
             "--trace-file", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")],
            deadline)
        setups = [result["setup_s"]]
        if not args.trace:
            setups += [run_child(["setup", *common], deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - 1)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("round_s " + json.dumps(result["round_s"]), file=sys.stderr)
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        from tracing import PER_LAYER

        metrics = {name: {"value": result["per_layer"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {"setup_s": statistics.median(setups),
                  "scenes_per_s": result["scenes_per_s"],
                  "peak_rss_mib": result["peak_rss_mib"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    print(f"digest {args.workload} seed {args.seed}: {result['digest']}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
