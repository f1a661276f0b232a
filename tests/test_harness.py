import csv
import json

import numpy as np
import pytest

from clarity_bench.cli import main
from clarity_bench.errors import StatisticsError
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
    with pytest.raises(StatisticsError):
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
    assert len(run.records) == 2
    assert [r["scene"] for r in run.records] == ["S0000", "S0001"]
    for rec in run.records:
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
        sum(r["ave"] for r in run.records) / len(run.records)
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
    for rec in run.records:
        ears = amplify(read_wav(os.path.join(base, f"{rec['scene']}_mix.wav")), audiogram).ears
        ref = read_wav(os.path.join(base, f"{rec['scene']}_ref.wav")).channel(0)
        for metric, score in (("haspi_like", intelligibility_score), ("hasqi_like", quality_score)):
            per_ear = [rec[f"{metric}_{ear}"] for ear in ("left", "right")]
            assert per_ear == [score(ref, ears.channel(0), audiogram.ear("left")),
                               score(ref, ears.channel(1), audiogram.ear("right"))]
            assert rec[metric] == max(per_ear)
    write_run_manifest(run, tmp_path / "ears.run.json")
    payload = json.loads((tmp_path / "ears.run.json").read_text())
    assert payload["records"] == list(run.records)


def test_score_dataset_runs_one_front_end_per_scene(small_dataset, tmp_path, monkeypatch):
    # Both ears of each scene overlap the whole reference, so one scene
    # filters and smooths three signals (one reference, two ears) for both
    # metrics, and its record holds each ear's quality terms and lag.
    import os

    from clarity_bench import metrics
    from clarity_bench.audio import read_wav
    from clarity_bench.hearing_aid import amplify, flat_audiogram

    calls = []

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return counted

    for name in ("gammatone_bands", "lfilter"):
        monkeypatch.setattr(metrics, name, counting(name, getattr(metrics, name)))
    run = score_dataset(small_dataset)
    scenes = len(run.records)
    assert sorted(calls) == ["gammatone_bands"] * 3 * scenes + ["lfilter"] * 3 * scenes
    monkeypatch.undo()

    audiogram = flat_audiogram(40.0)
    base = os.path.dirname(small_dataset)
    for rec in run.records:
        ears = amplify(read_wav(os.path.join(base, f"{rec['scene']}_mix.wav")), audiogram).ears
        ref = read_wav(os.path.join(base, f"{rec['scene']}_ref.wav")).channel(0)
        for index, ear in enumerate(("left", "right")):
            assert 0 <= rec[f"lag_{ear}"] <= ears.frames - ref.size
            terms = metrics.quality_score(ref, ears.channel(index), audiogram.ear(ear), return_terms=True)
            assert terms == tuple(rec[f"{key}_{ear}"] for key in (
                "hasqi_like", "hasqi_like_correlation", "hasqi_like_spectral"))
    write_run_manifest(run, tmp_path / "terms.run.json")
    payload = json.loads((tmp_path / "terms.run.json").read_text())
    assert payload["records"] == list(run.records)


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
    write_wav(loud / "S0000_mix.wav", SampleBuffer(mix.data * 100.0, mix.rate))
    run = score_dataset(loud / "manifest.json")
    assert run.records[0]["clipped"] > 0
    assert all(isinstance(rec["clipped"], int) for rec in run.records)
    write_run_manifest(run, tmp_path / "loud.run.json")
    payload = json.loads((tmp_path / "loud.run.json").read_text())
    assert payload["records"][0]["clipped"] == run.records[0]["clipped"]


def copy_dataset(small_dataset, target):
    import os
    import shutil

    shutil.copytree(os.path.dirname(small_dataset), target)
    return target / "manifest.json"


@pytest.mark.parametrize("breakage, words", [
    pytest.param(lambda m: m.pop("rate"), ["manifest.json", "'rate'"], id="no-rate"),
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


def test_run_manifest_aggregates_are_the_record_means():
    from clarity_bench.harness import RunManifest

    records = (
        {"scene": "S0", "haspi_like": 0.5, "hasqi_like": 0.25, "ave": 0.375},
        {"scene": "S1", "haspi_like": 0.75, "hasqi_like": 0.5, "ave": 0.625},
    )
    run = RunManifest(version="v", dataset="d", fidelity="simulated", records=records)
    assert run.aggregates == {"haspi_like": 0.625, "hasqi_like": 0.375, "ave": 0.5}


@pytest.mark.parametrize(
    "payload, words",
    [
        ([40, 40], ["ag.json", "JSON object"]),
        ({"left": [40], "right": {}}, ["ag.json", "left ear"]),
        ({"left": {"250": None}, "right": {}}, ["ag.json", "left ear", "250 Hz"]),
        ({"left": {}, "right": {"4000": True}}, ["ag.json", "right ear", "4000 Hz"]),
        ({"left": {"1000": "40"}, "right": {}}, ["ag.json", "left ear", "1000 Hz"]),
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
