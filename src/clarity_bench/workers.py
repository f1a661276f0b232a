"""The worker pool shared by the scene-parallel stages (render and score)."""

import os
from concurrent.futures import ThreadPoolExecutor


def thread_count():
    """Worker cap: CLARITY_BENCH_THREADS when set, else min(4, CPU count)."""
    env = os.environ.get("CLARITY_BENCH_THREADS")
    if not env:
        return min(4, os.cpu_count() or 1)
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"CLARITY_BENCH_THREADS must be a positive integer, got {env!r}")
    return int(env)


def ordered_map(fn, items):
    """fn applied to every item on the worker pool; results in input order."""
    with ThreadPoolExecutor(max_workers=thread_count()) as pool:
        return list(pool.map(fn, items))
