"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

Each output check is shown to reject a corrupted output, and every
workload is smoke-run for one round.
"""

import json
import math
import os
import shutil
import struct
import subprocess
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import CheckFailed  # noqa: E402


def wav_bytes(samples, rate=16000):
    """Float32 WAV of a (channels, frames) array, written without the program."""
    data = np.asarray(samples, dtype="<f4").T.tobytes()
    channels = np.asarray(samples).shape[0]
    fmt = struct.pack("<HHIIHH", 3, channels, rate, rate * 4 * channels, 4 * channels, 32)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


SCENE = {
    "target": {"onset_s": 0.5, "source": {"duration_s": 1.0}},
    "interferers": [{"onset_s": 0.1, "source": {"duration_s": 1.5}}],
}
RIR_FRAMES, TAPS = 100, 8
MIX_FRAMES = round(0.1 * 16000) + round(1.5 * 16000) + RIR_FRAMES - 1 + TAPS - 1  # interferer ends last


def good_mix():
    return 0.01 * np.ones((2, MIX_FRAMES))


def good_reference():
    return np.full((1, 1000), checks.REFERENCE_RMS)


def records():
    return [{"scene": "S0000", "haspi_like": 0.5, "hasqi_like": 0.25, "ave": 0.375},
            {"scene": "S0001", "haspi_like": 0.75, "hasqi_like": 0.5, "ave": 0.625}]


def test_good_outputs_pass():
    checks.check_mix(wav_bytes(good_mix()), SCENE, RIR_FRAMES, TAPS)
    checks.check_reference(wav_bytes(good_reference()))
    checks.check_records(records())
    checks.check_aggregates({"records": records(),
                             "aggregates": {"haspi_like": 0.625, "hasqi_like": 0.375, "ave": 0.5}})
    checks.check_scores_csv("scene,haspi_like,hasqi_like,ave\nS0000,0.500,0.250,0.375\n"
                            "S0001,0.750,0.500,0.625\n", records())


def test_truncated_wav_rejected():
    with pytest.raises(CheckFailed, match="declares"):
        checks.check_mix(wav_bytes(good_mix())[:-100], SCENE, RIR_FRAMES, TAPS)
    blob = wav_bytes(good_mix())
    short = blob[:-100]
    short = short[:4] + struct.pack("<I", len(short) - 8) + short[8:]
    with pytest.raises(CheckFailed, match="truncated"):
        checks.check_mix(short, SCENE, RIR_FRAMES, TAPS)


@pytest.mark.parametrize("mix, reason", [
    (good_mix()[:, :-1], "frames"),
    (good_mix()[:1], "channels"),
    (np.where(np.arange(MIX_FRAMES) == 7, np.nan, good_mix()), "non-finite"),
])
def test_bad_mix_rejected(mix, reason):
    with pytest.raises(CheckFailed, match=reason):
        checks.check_mix(wav_bytes(mix), SCENE, RIR_FRAMES, TAPS)


def test_mix_rate_rejected():
    with pytest.raises(CheckFailed, match="rate"):
        checks.check_mix(wav_bytes(good_mix(), rate=8000), SCENE, RIR_FRAMES, TAPS)


def test_reference_level_rejected():
    with pytest.raises(CheckFailed, match="RMS"):
        checks.check_reference(wav_bytes(good_reference() * 1.0001))


def test_broken_linearity_rejected():
    ears = np.random.default_rng(0).standard_normal((2, 50))
    parts = [ears * 0.5, ears * 0.25, ears * 0.25]
    checks.check_components(ears, parts)
    parts[2] = parts[2] + 1e-6
    with pytest.raises(CheckFailed, match="within"):
        checks.check_components(ears, parts)


def test_changed_bytes_rejected():
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_same_bytes(b"abc", b"abd", "mix")


def test_score_out_of_bounds_rejected():
    bad = records()
    bad[1].update(haspi_like=1.2, ave=0.85)
    with pytest.raises(CheckFailed, match="outside"):
        checks.check_records(bad)


def test_broken_ave_rejected():
    bad = records()
    bad[0]["ave"] = 0.376
    with pytest.raises(CheckFailed, match="mean"):
        checks.check_records(bad)
    with pytest.raises(CheckFailed, match="mean"):
        checks.check_scores_csv("scene,haspi_like,hasqi_like,ave\nS0000,0.500,0.250,0.380\n"
                                "S0001,0.750,0.500,0.625\n", records())


def test_wrong_aggregate_rejected():
    with pytest.raises(CheckFailed, match="aggregate haspi_like"):
        checks.check_aggregates({"records": records(),
                                 "aggregates": {"haspi_like": 0.6, "hasqi_like": 0.375, "ave": 0.5}})


def test_flagged_report_rejected():
    ok = "a.csv: 2 scenes | flags 0\nb.csv: 2 scenes | flags 0\nflagged rows: 0\n[eval1]\nflagged rows: 2"
    checks.check_report(ok, 2)
    with pytest.raises(CheckFailed, match="flags"):
        checks.check_report(ok.replace("b.csv: 2 scenes | flags 0", "b.csv: 2 scenes | flags 1"), 2)
    with pytest.raises(CheckFailed, match="flags"):
        checks.check_report(ok.replace("b.csv: 2 scenes | flags 0\n", ""), 2)


def test_self_score_rejected():
    checks.check_self_score("quality_score", 1.0)
    with pytest.raises(CheckFailed, match="expected 1"):
        checks.check_self_score("quality_score", 0.999)


def test_nalr_gain_rejected():
    taps = 127
    n = np.arange(taps) - (taps - 1) / 2
    gain = 10.0 ** (checks.NALR_1KHZ_DB / 20.0)
    impulse = gain * np.sinc(n)  # flat response at the prescribed 1 kHz gain
    checks.check_nalr_1khz(impulse)
    with pytest.raises(CheckFailed, match="1 kHz"):
        checks.check_nalr_1khz(impulse * 2.0)


def test_correlation_mismatch_rejected():
    rows = [{"entry": e, "haspi": h, "hasqi": q, "ave": str((float(h) + float(q)) / 2)}
            for e, h, q in (("E01", "0.2", "0.1"), ("E01b", "0.9", "0.1"),
                            ("E02", "0.5", "0.3"), ("E03", "0.7", "0.4"))]
    chosen = [r["entry"] for r in checks.best_entry_per_team(rows)]
    assert chosen == ["E01b", "E02", "E03"]
    import statistics

    r = statistics.correlation([0.9, 0.5, 0.7], [0.1, 0.3, 0.4])
    checks.check_correlation(r, rows)
    with pytest.raises(CheckFailed, match="correlation"):
        checks.check_correlation(r + 1e-9, rows)


def test_fidelity_gap_rejected():
    checks.check_fidelity_gap(0.5, 0.3)
    with pytest.raises(CheckFailed, match="not below"):
        checks.check_fidelity_gap(0.3, 0.3)


def test_tracer_self_time_and_parents():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.01)

    traced_inner = tracer._wrap("inner", inner)

    def outer():
        traced_inner()
        traced_inner()

    tracer._wrap("outer", outer)()
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert [s[3] for s in tracer.spans] == [None, 0, 0]
    total, own, calls = tracer.totals()["outer"]
    assert calls == 1 and own < total - 0.015


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fp:
        spec = json.load(fp)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("render-sim", "0"), ("render-measured", "1"), ("score", "0"), ("score", "1")])
def test_smoke_run(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = ([n for n, _, _ in tracing.PER_LAYER] if trace == "1"
                else list(run.END_TO_END_UNITS))
    assert list(result["metrics"]) == expected
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program():
    bare = os.path.join(ROOT, ".perfbench", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "score", "--seconds", "1", cwd=bare,
                     script=os.path.join(bare, "perfbench", "run.py"))
        assert proc.returncode != 0
        assert proc.stdout.strip() == ""
        assert sorted(os.listdir(bare)) == ["BENCHMARK.json", "perfbench"]  # wrote nothing
    finally:
        shutil.rmtree(bare, ignore_errors=True)
