import csv
import json
import math
import pathlib

import numpy as np
import pytest

from clarity_bench.audio import read_wav
from clarity_bench.cli import main
from clarity_bench.harness import (
    LeaderboardRow,
    best_per_team,
    bundled_results_path,
    load_published_results,
    metric_correlation,
    pearson,
    read_scores_csv,
    report_published,
    report_scores,
    round3,
    score_dataset,
    score_scene,
    write_run_manifest,
    write_scores_csv,
)
from clarity_bench.hearing_aid import AUDIOGRAM_FREQUENCIES
from clarity_bench.scenes import generate_dataset


def test_round3_half_up():
    assert round3(0.2235) == 0.224
    assert round3(0.0005) == 0.001
    assert round3(0.1994) == 0.199
    assert round3(0.6055) == 0.606


def test_pearson_perfect_lines():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)


def test_pearson_validation():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="zero variance in a correlation input"):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_pearson_on_published_best_entries_reproduces_paper_value():
    rows = [r for r in load_published_results() if r.eval_set == "eval1"]
    assert metric_correlation(rows) == pytest.approx(0.943, abs=0.005)


def test_pearson_on_seven_submitted_teams_only():
    # leaving the baseline entry out of the team set gives a visibly
    # different value; the published figure needs all eight best entries
    pairs = [
        (0.179, 0.093), (0.286, 0.161), (0.797, 0.414), (0.117, 0.047),
        (0.816, 0.570), (0.838, 0.393), (0.729, 0.316),
    ]
    r = pearson([p[0] for p in pairs], [p[1] for p in pairs])
    assert r == pytest.approx(0.9373, abs=0.0005)
    assert abs(r - 0.943) > 0.005


def test_best_per_team_grouping():
    rows = [r for r in load_published_results() if r.eval_set == "eval1"]
    best = best_per_team(rows)
    entries = [r.entry for r in best]
    assert entries == ["E02", "E09", "E14", "E23", "E28d", "E29r", "E30", "E01"]


def test_bundled_table_flags_are_exactly_the_inconsistent_rows():
    rows = load_published_results()
    flagged = {(r.entry, r.eval_set) for r in rows if r.flagged()}
    assert flagged == {("E29", "eval1"), ("E28d", "eval2")}


def test_published_aves_recompute_to_stored_values_otherwise():
    for row in load_published_results():
        if (row.entry, row.eval_set) in {("E29", "eval1"), ("E28d", "eval2")}:
            continue
        assert abs(row.ave - row.recomputed_ave) <= 0.0005 + 1e-12


def test_report_published_text():
    text = report_published(load_published_results())
    assert "E01" in text and "eval1" in text and "eval2" in text
    assert "r = 0.943" in text
    assert "flagged rows: 2" in text


def test_leaderboard_row_team_parsing():
    assert LeaderboardRow("E28d", "eval1", 0.5, 0.5, 0.5).team == "E28"
    assert LeaderboardRow("E29r", "eval1", 0.5, 0.5, 0.5).team == "E29"
    assert LeaderboardRow("E01", "eval1", 0.5, 0.5, 0.5).team == "E01"


def test_load_published_results_error_reporting(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("entry,eval_set,haspi,hasqi,ave\nE01,eval1,oops,0.1,0.1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_published_results(bad)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("entry,haspi,hasqi,ave\nE01,0.1,0.1,0.1\n")
    with pytest.raises(ValueError, match="line 1: expected entry,eval_set,haspi,hasqi,ave header"):
        load_published_results(wrong)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    manifest = generate_dataset(out, count=2, seed=5, fidelity="simulated")
    return manifest


def test_score_dataset_and_csv_round_trip(small_dataset, tmp_path):
    run = score_dataset(small_dataset)
    assert len(run["records"]) == 2
    assert [r["scene"] for r in run["records"]] == ["S0000", "S0001"]
    for rec in run["records"]:
        assert 0.0 <= rec["haspi_like"] <= 1.0
        assert 0.0 <= rec["hasqi_like"] <= 1.0
        assert rec["ave"] == (rec["haspi_like"] + rec["hasqi_like"]) / 2.0

    csv_path = tmp_path / "scores.csv"
    write_scores_csv(run, csv_path)
    rows = read_scores_csv(csv_path)
    for row in rows:
        assert row["ave"] == pytest.approx(
            (row["haspi_like"] + row["hasqi_like"]) / 2.0, abs=0.0005 + 1e-12
        )
    report = report_scores([str(csv_path)])
    assert "flags 0" in report and "flagged rows: 0" in report

    manifest_path = tmp_path / "scores.run.json"
    write_run_manifest(run, manifest_path)
    payload = json.loads(manifest_path.read_text())
    assert payload["aggregates"]["ave"] == pytest.approx(
        sum(r["ave"] for r in run["records"]) / len(run["records"])
    )


def test_score_dataset_records_each_ears_scores(small_dataset, tmp_path):
    # Different ears, different losses: each per-ear score is the
    # single-ear score of that ear's amplified signal, and the record's
    # score is the better ear.
    import os

    from clarity_bench.audio import read_wav
    from clarity_bench.hearing_aid import Audiogram, amplify
    from clarity_bench.metrics import intelligibility_score, quality_score

    audiogram = Audiogram(left=(20.0,) * 6, right=(10.0, 20.0, 40.0, 50.0, 60.0, 60.0))
    run = score_dataset(small_dataset, audiogram)
    base = os.path.dirname(small_dataset)
    for rec in run["records"]:
        ears = amplify(read_wav(os.path.join(base, f"{rec['scene']}_mix.wav")), audiogram).ears
        ref = read_wav(os.path.join(base, f"{rec['scene']}_ref.wav")).channel(0)
        for metric, score in (("haspi_like", intelligibility_score), ("hasqi_like", quality_score)):
            per_ear = [rec[f"{metric}_{ear}"] for ear in ("left", "right")]
            assert per_ear == [score(ref, ears.channel(0), audiogram.ear("left")),
                               score(ref, ears.channel(1), audiogram.ear("right"))]
            assert rec[metric] == max(per_ear)
        assert rec["ave"] == (rec["haspi_like"] + rec["hasqi_like"]) / 2.0
    write_run_manifest(run, tmp_path / "ears.run.json")
    payload = json.loads((tmp_path / "ears.run.json").read_text())
    assert payload["records"] == run["records"]


def test_score_dataset_runs_one_front_end_per_scene(small_dataset, tmp_path, monkeypatch):
    # Both ears of each scene overlap the whole reference, so one scene
    # filters and smooths three signals (one reference, two ears) for both
    # metrics, and its record holds each ear's quality terms and lag.
    import os
    from dataclasses import asdict

    from clarity_bench import metrics
    from clarity_bench.audio import read_wav
    from clarity_bench.hearing_aid import amplify, flat_audiogram

    calls = []
    front_end = metrics._band_features

    def counted(*args, **kwargs):
        calls.append(1)
        return front_end(*args, **kwargs)

    monkeypatch.setattr(metrics, "_band_features", counted)
    run = score_dataset(small_dataset)
    scenes = len(run["records"])
    assert len(calls) == 3 * scenes
    monkeypatch.undo()

    audiogram = flat_audiogram(40.0)
    base = os.path.dirname(small_dataset)
    for rec in run["records"]:
        ears = amplify(read_wav(os.path.join(base, f"{rec['scene']}_mix.wav")), audiogram).ears
        ref = read_wav(os.path.join(base, f"{rec['scene']}_ref.wav")).channel(0)
        for index, ear in enumerate(("left", "right")):
            assert 0 <= rec[f"lag_{ear}"] <= ears.frames - ref.size
            (alone,) = metrics.ear_scores(ref, ears.data[index : index + 1], audiogram.ear(ear)[None])
            assert asdict(alone) == {key: rec[f"{key}_{ear}"] for key in asdict(alone)}
    write_run_manifest(run, tmp_path / "terms.run.json")
    payload = json.loads((tmp_path / "terms.run.json").read_text())
    assert payload["records"] == run["records"]


def test_score_dataset_same_bytes_for_any_worker_count(tmp_path, monkeypatch):
    for fidelity in ("measured_like", "simulated"):
        manifest = generate_dataset(tmp_path / fidelity, count=2, seed=3, fidelity=fidelity)
        outputs = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("CLARITY_BENCH_THREADS", workers)
            out = tmp_path / f"{fidelity}-{workers}"
            out.mkdir()
            assert main(["score", "--dataset", str(manifest), "--out", str(out / "scores.csv")]) == 0
            outputs[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(outputs["1"]) == ["scores.csv", "scores.csv.run.json"]
        assert outputs["1"] == outputs["2"]


def test_score_dataset_missing_file_names_scene(small_dataset, tmp_path):
    import os
    import shutil

    broken_dir = tmp_path / "broken"
    shutil.copytree(os.path.dirname(small_dataset), broken_dir)
    os.remove(broken_dir / "S0001_mix.wav")
    with pytest.raises(FileNotFoundError, match="S0001"):
        score_dataset(broken_dir / "manifest.json")


def test_score_dataset_checks_every_file_before_scoring(small_dataset, tmp_path, monkeypatch):
    from clarity_bench import harness

    path = copy_dataset(small_dataset, tmp_path / "d")
    manifest = json.loads(path.read_text())
    manifest["scenes"][-1]["mix"] = "gone.wav"
    path.write_text(json.dumps(manifest))
    calls = []
    monkeypatch.setattr(harness, "amplify", lambda *args: calls.append(args))
    with pytest.raises(FileNotFoundError, match="S0001: missing"):
        score_dataset(path)
    assert calls == []


def test_read_scores_csv_error_reporting(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("scene,haspi_like,hasqi_like,ave\nS0,0.5,oops,0.5\n")
    with pytest.raises(ValueError, match="line 2"):
        read_scores_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("scene,haspi_like,hasqi_like,ave\n")
    with pytest.raises(ValueError, match="no score rows"):
        read_scores_csv(empty)
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        read_scores_csv(wrong)


def test_report_scores_flags_bad_arithmetic(tmp_path):
    path = tmp_path / "scores.csv"
    with open(path, "w", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["scene", "haspi_like", "hasqi_like", "ave"])
        writer.writerow(["S0000", "0.400", "0.200", "0.300"])
        writer.writerow(["S0001", "0.400", "0.200", "0.350"])
    report = report_scores([str(path)])
    assert "FLAG S0001" in report and "flagged rows: 1" in report


# --- CLI ----------------------------------------------------------------------


def test_cli_report_bundled(capsys):
    assert main(["report", "--paper-table"]) == 0
    out = capsys.readouterr().out
    assert "r = 0.943" in out


def test_cli_report_requires_input():
    with pytest.raises(SystemExit) as exc:
        main(["report"])
    assert exc.value.code == 2


def test_cli_bad_fidelity_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--n", "1", "--seed", "1", "--fidelity", "bogus",
              "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cli_score_missing_dataset_is_runtime_error(tmp_path, capsys):
    code = main(["score", "--dataset", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "s.csv")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_generate_score_report_round_trip(small_dataset, tmp_path, capsys):
    csv_path = tmp_path / "scores.csv"
    audiogram_path = tmp_path / "flat40.json"
    flat40 = {str(int(f)): 40.0 for f in AUDIOGRAM_FREQUENCIES}
    audiogram_path.write_text(json.dumps({"left": flat40, "right": flat40}))
    code = main([
        "score", "--dataset", str(small_dataset),
        "--audiogram", str(audiogram_path), "--out", str(csv_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean ave" in out
    assert csv_path.exists() and (tmp_path / "scores.csv.run.json").exists()

    code = main(["report", "--scores", str(csv_path)])
    assert code == 0
    assert "flagged rows: 0" in capsys.readouterr().out


def test_bundled_results_path_exists():
    rows = load_published_results(bundled_results_path())
    assert len(rows) == 20
    assert {r.eval_set for r in rows} == {"eval1", "eval2"}


# --- bad input ends in one error line -------------------------------------------


def assert_one_error_line(code, capsys, *words):
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1
    for word in words:
        assert word in err


@pytest.mark.parametrize("count", ["0", "-2"])
def test_cli_generate_rejects_empty_or_negative_count(tmp_path, capsys, count):
    code = main(["generate", "--n", count, "--seed", "1", "--out", str(tmp_path / "d")])
    assert_one_error_line(code, capsys, "at least 1")
    assert not (tmp_path / "d").exists()


def test_cli_score_rejects_manifest_without_scenes(tmp_path, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"rate": 16000, "scenes": []}))
    code = main(["score", "--dataset", str(manifest), "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, "no scenes")


def test_cli_bad_thread_setting_names_the_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CLARITY_BENCH_THREADS", "abc")
    code = main(["generate", "--n", "1", "--seed", "1", "--out", str(tmp_path / "d")])
    assert_one_error_line(code, capsys, "CLARITY_BENCH_THREADS")


@pytest.mark.parametrize("key", ["mix", "reference"])
def test_score_dataset_rejects_paths_outside_the_dataset(small_dataset, tmp_path, key):
    import os
    import shutil

    escaped = tmp_path / "escaped"
    shutil.copytree(os.path.dirname(small_dataset), escaped)
    manifest = json.loads((escaped / "manifest.json").read_text())
    for name in ("../outside.wav", str(escaped / manifest["scenes"][1][key])):
        manifest["scenes"][1][key] = name
        (escaped / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="S0001.*outside the dataset"):
            score_dataset(escaped / "manifest.json")


def test_score_dataset_reports_clipped_samples(small_dataset, tmp_path):
    import os
    import shutil

    from clarity_bench.audio import SampleBuffer, read_wav, write_wav

    loud = tmp_path / "loud"
    shutil.copytree(os.path.dirname(small_dataset), loud)
    mix = read_wav(loud / "S0000_mix.wav")
    write_wav(loud / "S0000_mix.wav", SampleBuffer(mix.data * 100.0))
    run = score_dataset(loud / "manifest.json")
    assert run["records"][0]["clipped"] > 0
    assert all(isinstance(rec["clipped"], int) for rec in run["records"])
    write_run_manifest(run, tmp_path / "loud.run.json")
    payload = json.loads((tmp_path / "loud.run.json").read_text())
    assert payload["records"][0]["clipped"] == run["records"][0]["clipped"]


def copy_dataset(small_dataset, target):
    import os
    import shutil

    shutil.copytree(os.path.dirname(small_dataset), target)
    return target / "manifest.json"


@pytest.mark.parametrize("breakage, words", [
    pytest.param(lambda m: m.pop("rate"), ["manifest.json", "'rate'"], id="no-rate"),
    pytest.param(lambda m: m.update(rate=44100), ["manifest.json", "'rate'"], id="rate-44100"),
    pytest.param(lambda m: m.update(rate=True), ["manifest.json", "'rate'"], id="rate-true"),
    pytest.param(lambda m: m["scenes"][1].pop("mix"), ["manifest.json", "S0001", "'mix'"],
                 id="entry-without-mix"),
    pytest.param(lambda m: m.update(scenes=[m["scenes"][0], "S0001"]), ["manifest.json", "scene 1"],
                 id="entry-not-an-object"),
])
def test_cli_score_rejects_malformed_manifest_entries(small_dataset, tmp_path, capsys, breakage, words):
    path = copy_dataset(small_dataset, tmp_path / "d")
    manifest = json.loads(path.read_text())
    breakage(manifest)
    path.write_text(json.dumps(manifest))
    code = main(["score", "--dataset", str(path), "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, *words)


def test_cli_score_rejects_manifest_that_is_a_list(small_dataset, tmp_path, capsys):
    path = copy_dataset(small_dataset, tmp_path / "d")
    path.write_text(json.dumps(json.loads(path.read_text())["scenes"]))
    code = main(["score", "--dataset", str(path), "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, "manifest.json", "JSON object")


def test_cli_score_rejects_nan_in_one_ear(small_dataset, tmp_path, capsys):
    from scipy.io import wavfile

    path = copy_dataset(small_dataset, tmp_path / "d")
    rate, data = wavfile.read(tmp_path / "d" / "S0001_mix.wav")
    data = data.copy()
    data[1000:1100, 1] = np.nan
    wavfile.write(tmp_path / "d" / "S0001_mix.wav", rate, data)
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "S0001_mix.wav")
    assert not out.exists()


def test_cli_score_rejects_a_stereo_reference(small_dataset, tmp_path, capsys):
    from scipy.io import wavfile

    path = copy_dataset(small_dataset, tmp_path / "d")
    rate, data = wavfile.read(tmp_path / "d" / "S0001_ref.wav")
    wavfile.write(tmp_path / "d" / "S0001_ref.wav", rate, np.stack([data, data], axis=1))
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "S0001", "S0001_ref.wav", "mono")
    assert not out.exists()


def test_cli_score_rejects_a_mono_mix(small_dataset, tmp_path, capsys):
    from scipy.io import wavfile

    path = copy_dataset(small_dataset, tmp_path / "d")
    rate, data = wavfile.read(tmp_path / "d" / "S0001_mix.wav")
    wavfile.write(tmp_path / "d" / "S0001_mix.wav", rate, data[:, 0])
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "S0001", "S0001_mix.wav", "stereo")
    assert not out.exists()


def test_cli_score_rejects_a_truncated_mix(small_dataset, tmp_path, capsys):
    path = copy_dataset(small_dataset, tmp_path / "d")
    mix = tmp_path / "d" / "S0001_mix.wav"
    blob = mix.read_bytes()
    mix.write_bytes(blob[: len(blob) // 2])
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "S0001_mix.wav", "truncated")
    assert not out.exists()


def cut_wav(path, frames):
    """Keep the first `frames` frames of a WAV file."""
    from scipy.io import wavfile

    rate, data = wavfile.read(path)
    wavfile.write(path, rate, data[:frames])


@pytest.mark.parametrize("name, share, words", [
    ("mix", 0.0, ["S0001_mix.wav", "0 frames", "90%"]),
    ("mix", 0.85, ["S0001_mix.wav", "90%"]),
    ("ref", 0.0, ["S0001_ref.wav", "no samples"]),
], ids=["empty-mix", "short-mix", "empty-reference"])
def test_cli_score_rejects_an_empty_or_short_signal(small_dataset, tmp_path, capsys, name, share, words):
    path = copy_dataset(small_dataset, tmp_path / "d")
    reference_frames = read_wav(tmp_path / "d" / "S0001_ref.wav").frames
    cut_wav(tmp_path / "d" / f"S0001_{name}.wav", int(share * reference_frames))
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "S0001", *words)
    assert not out.exists()


def test_score_dataset_accepts_a_mix_at_the_overlap_limit(small_dataset, tmp_path):
    path = copy_dataset(small_dataset, tmp_path / "d")
    reference_frames = read_wav(tmp_path / "d" / "S0001_ref.wav").frames
    limit = math.ceil(0.9 * reference_frames)
    cut_wav(tmp_path / "d" / "S0001_mix.wav", limit)
    record = score_dataset(path)["records"][1]
    assert record["scene"] == "S0001"
    for ear in ("left", "right"):
        assert limit - reference_frames <= record[f"lag_{ear}"] <= 0


def test_run_manifest_aggregates_are_the_record_means(small_dataset, tmp_path, monkeypatch):
    from clarity_bench import harness

    scores = [{"haspi_like": 0.5, "hasqi_like": 0.25, "ave": 0.375},
              {"haspi_like": 0.75, "hasqi_like": 0.5, "ave": 0.625}]
    monkeypatch.setattr(harness, "score_scene", lambda *args: scores.pop())
    run = score_dataset(small_dataset)
    assert set(run) == {"version", "dataset", "fidelity", "records", "aggregates"}
    assert run["aggregates"] == {"haspi_like": 0.625, "hasqi_like": 0.375, "ave": 0.5}
    write_run_manifest(run, tmp_path / "means.run.json")
    assert json.loads((tmp_path / "means.run.json").read_text()) == run


def test_score_scene_is_the_score_dataset_record(small_dataset):
    # The buffers read back from the WAVs, as score_dataset reads them: the
    # mix was quantized to float32 when it was written.
    import os

    from clarity_bench.hearing_aid import Audiogram

    audiogram = Audiogram(left=(20.0,) * 6, right=(10.0, 20.0, 40.0, 50.0, 60.0, 60.0))
    base = os.path.dirname(small_dataset)
    for rec in score_dataset(small_dataset, audiogram)["records"]:
        ears = read_wav(os.path.join(base, f"{rec['scene']}_mix.wav"))
        reference = read_wav(os.path.join(base, f"{rec['scene']}_ref.wav"))
        for ref in (reference.channel(0), reference.data):
            assert {"scene": rec["scene"], **score_scene(ears, ref, audiogram)} == rec


def test_score_dataset_amplifies_once_and_reads_two_files_per_scene(small_dataset, monkeypatch):
    # The traced score spans (hearing_aid.amplify_s, clipped_samples,
    # audio.read_wav_s) wrap these two module attributes of harness.
    from clarity_bench import harness

    calls = []
    for name in ("amplify", "read_wav"):
        fn = getattr(harness, name)
        monkeypatch.setattr(harness, name, lambda *args, fn=fn, name=name: calls.append(name) or fn(*args))
    scenes = len(score_dataset(small_dataset)["records"])
    assert sorted(calls) == ["amplify"] * scenes + ["read_wav"] * 2 * scenes


@pytest.mark.parametrize(
    "payload, words",
    [
        ([40, 40], ["ag.json", "JSON object"]),
        ({"left": [40], "right": {}}, ["ag.json", "left ear"]),
        ({"left": {"250": None}, "right": {}}, ["ag.json", "left ear", "250 Hz"]),
        ({"left": {}, "right": {"4000": True}}, ["ag.json", "right ear", "4000 Hz"]),
        ({"left": {"1000": "40"}, "right": {}}, ["ag.json", "left ear", "1000 Hz"]),
        ({"left": {}, "right": {"2000": 10**400}}, ["ag.json", "right ear", "2000 Hz"]),
        ({"left": {"500": float("nan")}, "right": {}}, ["ag.json", "left ear", "500 Hz"]),
        ({"left": {}, "right": {"6000": float("inf")}}, ["ag.json", "right ear", "6000 Hz"]),
        ({"left": {"250": 150}, "right": {}},
         ["ag.json: left ear levels must lie in [0, 120] dB HL"]),
    ],
)
def test_cli_score_rejects_malformed_audiogram(tmp_path, capsys, payload, words):
    path = tmp_path / "ag.json"
    full = {str(int(f)): 40 for f in AUDIOGRAM_FREQUENCIES}
    if isinstance(payload, dict):
        payload = {ear: {**full, **table} if isinstance(table, dict) else table
                   for ear, table in payload.items()}
    path.write_text(json.dumps(payload))
    code = main(["score", "--dataset", str(tmp_path / "manifest.json"),
                 "--audiogram", str(path), "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, *words)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "7", "-0.1"])
def test_cli_report_scores_rejects_values_that_are_not_scores(tmp_path, capsys, value):
    path = tmp_path / "scores.csv"
    path.write_text(
        "scene,haspi_like,hasqi_like,ave\n"
        "S0000,0.400,0.200,0.300\n"
        f"S0001,{value},0.200,0.300\n"
    )
    code = main(["report", "--scores", str(path)])
    assert_one_error_line(code, capsys, "scores.csv", "line 3", "haspi_like", value)


@pytest.mark.parametrize("value", ["nan", "inf", "1.5"])
def test_cli_report_paper_table_rejects_values_that_are_not_scores(tmp_path, capsys, value):
    path = tmp_path / "table.csv"
    path.write_text(
        "entry,eval_set,haspi,hasqi,ave\n"
        "E01,eval1,0.400,0.200,0.300\n"
        f"E02,eval1,0.400,0.200,{value}\n"
    )
    code = main(["report", "--paper-table", str(path)])
    assert_one_error_line(code, capsys, "table.csv", "line 3", "ave", value)


SCORES_HEADER = "scene,haspi_like,hasqi_like,ave\n"
TABLE_HEADER = "entry,eval_set,haspi,hasqi,ave\n"
BUNDLED_LINES = pathlib.Path(bundled_results_path()).read_text(encoding="utf-8").splitlines(True)


@pytest.mark.parametrize("option, text, encoding, words", [
    pytest.param("--scores", SCORES_HEADER + "S" * 200_000 + ",0.400,0.200,0.300\n", "utf-8",
                 ["line 2", "field larger than field limit"], id="oversized-field"),
    pytest.param("--paper-table", TABLE_HEADER + "E01," + "e" * 200_000 + ",0.4,0.2,0.3\n", "utf-8",
                 ["line 2", "field larger than field limit"], id="paper-table-oversized-field"),
    pytest.param("--scores", SCORES_HEADER + "S0000,0.400,0.200,0.300\n", "utf-16",
                 ["'utf-8' codec can't decode byte 0xff in position 0"], id="not-utf-8"),
    pytest.param("--paper-table", TABLE_HEADER + "E01,eval1,0.4,0.2,0.3\n", "utf-16",
                 ["'utf-8' codec can't decode byte 0xff in position 0"], id="paper-table-not-utf-8"),
    pytest.param("--scores", SCORES_HEADER + "S0000,0.400,0.200,0.300\nS0001,0.500,0.100,0.300\n"
                 "S0000,0.400,0.200,0.300\n", "utf-8", ["line 4", "'S0000'", "line 2"],
                 id="repeated-scene"),
    pytest.param("--scores", SCORES_HEADER + "\nS0000,nan,0.2,0.3\n", "utf-8",
                 ["line 3: haspi_like"], id="blank-line-before-a-bad-score"),
    pytest.param("--scores", SCORES_HEADER + "S0000,0.4,0.2,0.3\n\nS0000,0.4,0.2,0.3\n", "utf-8",
                 ["line 4: scene 'S0000' repeats line 2"], id="blank-line-before-a-repeated-scene"),
    pytest.param("--paper-table", TABLE_HEADER + "\nE01,eval1,nan,0.2,0.3\n", "utf-8",
                 ["line 3: haspi"], id="paper-table-blank-line-before-a-bad-score"),
    pytest.param("--paper-table", TABLE_HEADER + "E01,eval1,0.4,0.2,0.3\n\nE01,eval1,0.4,0.2,0.3\n",
                 "utf-8", ["line 4: entry 'E01', eval_set 'eval1' repeats line 2"],
                 id="paper-table-blank-line-before-a-repeated-row"),
    pytest.param("--paper-table", "".join(BUNDLED_LINES) + BUNDLED_LINES[1], "utf-8",
                 [f"line {len(BUNDLED_LINES) + 1}: entry 'E02', eval_set 'eval1' repeats line 2"],
                 id="bundled-table-with-a-repeated-row"),
])
def test_cli_report_names_a_csv_it_cannot_read(tmp_path, capsys, option, text, encoding, words):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode(encoding))
    code = main(["report", option, str(path)])
    assert_one_error_line(code, capsys, f"{path}: ", *words)


@pytest.mark.parametrize("args, words", [
    pytest.param(["--n", "100000000000000000000", "--seed", "3"], ["at most 9999"], id="huge-count"),
    pytest.param(["--n", "1", "--seed", "-1"], ["seed", "non-negative"], id="negative-seed"),
])
def test_cli_generate_refuses_before_making_the_directory(tmp_path, capsys, args, words):
    code = main(["generate", *args, "--out", str(tmp_path / "d")])
    assert_one_error_line(code, capsys, *words)
    assert not (tmp_path / "d").exists()


BROKEN_JSON = [
    pytest.param(b"{\n", id="malformed"),
    pytest.param(b'{"rate": "\xff"}', id="not-utf-8"),
    pytest.param(b"[" * 100000 + b"]" * 100000, id="nested-too-deeply"),
    pytest.param(b"{}", id="breaks-a-rule"),
]


@pytest.mark.parametrize("blob", BROKEN_JSON)
@pytest.mark.parametrize("option", ["--dataset", "--audiogram"])
def test_cli_score_names_a_broken_json_file(small_dataset, tmp_path, capsys, option, blob):
    broken = tmp_path / "broken.json"
    broken.write_bytes(blob)
    files = {"--dataset": str(small_dataset), option: str(broken)}
    code = main(["score", *(arg for pair in files.items() for arg in pair), "--out", str(tmp_path / "s.csv")])
    assert_one_error_line(code, capsys, str(broken))


@pytest.mark.parametrize("blob", BROKEN_JSON)
def test_load_scene_names_a_broken_json_file(tmp_path, blob):
    from clarity_bench.scenes import load_scene

    broken = tmp_path / "broken_scene.json"
    broken.write_bytes(blob)
    with pytest.raises(ValueError, match="broken_scene.json"):
        load_scene(broken)


def test_cli_score_rejects_a_repeated_scene_id(small_dataset, tmp_path, capsys):
    path = copy_dataset(small_dataset, tmp_path / "d")
    manifest = json.loads(path.read_text())
    manifest["scenes"][1] = dict(manifest["scenes"][0])
    path.write_text(json.dumps(manifest))
    out = tmp_path / "s.csv"
    code = main(["score", "--dataset", str(path), "--out", str(out)])
    assert_one_error_line(code, capsys, "manifest.json", "'S0000'", "twice")
    assert not out.exists()
