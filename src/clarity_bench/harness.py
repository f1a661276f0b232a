"""Batch scoring, leaderboard arithmetic and report generation.

The bundled data file carries the published leaderboard (both evaluation
sets, three score columns per entry) so the arithmetic checks run
offline: every stored "Ave" is re-derived from its HASPI/HASQI pair, and
the best-entry-per-team correlation between the two metrics is
recomputed. A row is flagged when its stored mean cannot be explained by
display rounding (tolerance 0.0005).
"""

import csv
import json
import math
import os
import re
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .audio import read_wav
from .errors import StatisticsError
from .hearing_aid import EARS, amplify, flat_audiogram
from .metrics import better_ear, combined_score, ear_scores
# Not called here: perfbench/tracing.py wraps the two metrics at this
# module, and its traced run fails without these names.
from .metrics import intelligibility_score, quality_score  # noqa: F401
from .workers import ordered_map

ROUNDING_TOLERANCE = 0.0005


def _unexplained_by_rounding(ave, haspi, hasqi):
    """True when a stored mean differs from the mean of its pair by more
    than display rounding can explain."""
    return abs(ave - (haspi + hasqi) / 2.0) > ROUNDING_TOLERANCE + 1e-12


def round3(value):
    """Round half away from zero at 3 decimals (display rounding)."""
    return math.floor(abs(value) * 1000.0 + 0.5) / 1000.0 * (1 if value >= 0 else -1)


def pearson(x, y):
    """Sample Pearson correlation coefficient.

    Needs at least 3 paired values and non-degenerate variance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-D score lists")
    if x.size < 3:
        raise ValueError(f"pearson needs at least 3 pairs, got {x.size}")
    xd = x - x.mean()
    yd = y - y.mean()
    denom = math.sqrt(float(np.sum(xd * xd)) * float(np.sum(yd * yd)))
    if denom == 0.0:
        raise StatisticsError("zero variance in a correlation input")
    return float(np.sum(xd * yd)) / denom


@dataclass(frozen=True)
class LeaderboardRow:
    """One entry's scores on one evaluation set."""

    entry: str
    eval_set: str
    haspi: float
    hasqi: float
    ave: float

    @property
    def recomputed_ave(self):
        return (self.haspi + self.hasqi) / 2.0

    def flagged(self):
        """True when the stored mean is not explainable by rounding."""
        return _unexplained_by_rounding(self.ave, self.haspi, self.hasqi)

    @property
    def team(self):
        """Entries that differ only by a trailing tag belong to one team."""
        match = re.match(r"(E\d+)", self.entry)
        return match.group(1) if match else self.entry


def bundled_results_path():
    """Filesystem path of the published leaderboard shipped in the package."""
    return str(resources.files("clarity_bench").joinpath("data/published_results.csv"))


def _read_score_rows(path, header, what):
    """Rows of a CSV with exactly `header` as dicts, the last three columns
    parsed as scores. A score that is not a number in [0, 1] (NaN and
    infinities included) raises ValueError naming the file and line."""
    rows = []
    with open(path, encoding="utf-8") as fp:
        reader = csv.DictReader(fp)
        if reader.fieldnames != header:
            raise ValueError(f"{path}: line 1: expected {','.join(header)} header")
        for line_no, rec in enumerate(reader, start=2):
            try:
                row = {key: rec[key] for key in header[:-3]}
                for key in header[-3:]:
                    value = float(rec[key])
                    if not 0.0 <= value <= 1.0:
                        raise ValueError(f"{key} {rec[key]!r} is not a score in [0, 1]")
                    row[key] = value
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from exc
            rows.append(row)
    if not rows:
        raise ValueError(f"{path}: no {what} rows")
    return rows


def load_published_results(path=None):
    """Rows of the published leaderboard (or any CSV in the same layout)."""
    path = path or bundled_results_path()
    header = ["entry", "eval_set", "haspi", "hasqi", "ave"]
    return [LeaderboardRow(**row) for row in _read_score_rows(path, header, "leaderboard")]


def best_per_team(rows):
    """Highest-Ave entry of every team, the baseline included, in file order."""
    best = {}
    order = []
    for row in rows:
        team = row.team
        if team not in best:
            order.append(team)
            best[team] = row
        elif row.ave > best[team].ave:
            best[team] = row
    return [best[t] for t in order]


def metric_correlation(rows):
    """Best-entry-per-team correlation between the two metric columns."""
    chosen = best_per_team(rows)
    return pearson([r.haspi for r in chosen], [r.hasqi for r in chosen])


def report_published(rows):
    """Text report: recomputed means, flags, and per-set correlations."""
    lines = []
    eval_sets = sorted({r.eval_set for r in rows})
    flagged_total = 0
    for eval_set in eval_sets:
        subset = [r for r in rows if r.eval_set == eval_set]
        lines.append(f"[{eval_set}]")
        lines.append(f"{'entry':<8}{'haspi':>8}{'hasqi':>8}{'ave':>8}{'recomputed':>12}  flag")
        for row in subset:
            flag = row.flagged()
            flagged_total += int(flag)
            lines.append(
                f"{row.entry:<8}{row.haspi:>8.3f}{row.hasqi:>8.3f}{row.ave:>8.3f}"
                f"{round3(row.recomputed_ave):>12.3f}  {'FLAG' if flag else 'ok'}"
            )
        try:
            corr = metric_correlation(subset)
            lines.append(f"best-entry-per-team metric correlation: r = {corr:.3f}")
        except (ValueError, StatisticsError) as exc:
            lines.append(f"best-entry-per-team metric correlation: unavailable ({exc})")
        lines.append("")
    lines.append(f"flagged rows: {flagged_total}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scoring rendered datasets


@dataclass(frozen=True)
class RunManifest:
    """Record of one scoring run; its aggregates are the record means."""

    version: str
    dataset: str
    fidelity: str
    records: tuple

    @property
    def aggregates(self):
        return {
            key: sum(r[key] for r in self.records) / len(self.records)
            for key in ("haspi_like", "hasqi_like", "ave")
        }


def _dataset_file(base, scene_id, name):
    """Path of a file a manifest entry names; it must lie inside `base`."""
    path = os.path.normpath(os.path.join(base, name))
    if os.path.isabs(name) or os.path.commonpath([base, path]) != base:
        raise ValueError(f"{scene_id}: {name!r} lies outside the dataset directory")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{scene_id}: missing {path}")
    return path


def _dataset_entries(manifest, path):
    """(id, mix path, reference path) of every manifest entry, its files
    resolved; raises on the first problem, before anything is scored."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    scenes = manifest.get("scenes")
    if not isinstance(scenes, list):
        raise ValueError(f"{path}: 'scenes' must be a list")
    if not scenes:
        raise ValueError(f"{path}: dataset has no scenes")
    if not isinstance(manifest.get("rate"), int):
        raise ValueError(f"{path}: 'rate' must be an integer")
    base = os.path.dirname(os.path.abspath(path))
    entries = []
    for index, entry in enumerate(scenes):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: scene {index}: entry must be an object")
        where = f"{path}: scene {entry['id'] if isinstance(entry.get('id'), str) else index}"
        for key in ("id", "mix", "reference"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{where}: '{key}' must be a string")
        scene_id = entry["id"]
        entries.append((scene_id, _dataset_file(base, scene_id, entry["mix"]),
                        _dataset_file(base, scene_id, entry["reference"])))
    return entries


def score_dataset(manifest_path, audiogram=None):
    """Run the baseline (passthrough + amplification) over a dataset.

    For every scene the rendered ear signals are amplified with the
    audiogram's prescription and scored per ear against the stored
    reference, both ears and both metrics in one ear_scores call; each
    metric keeps its better ear. The record also holds every field of
    each ear's EarScore (haspi_like_left, hasqi_like_correlation_left,
    lag_left, ..., lag_right) and counts the samples amplification
    clipped. Rows come back sorted by scene id.
    """
    audiogram = audiogram or flat_audiogram(40.0)
    with open(manifest_path, encoding="utf-8") as fp:
        manifest = json.load(fp)
    entries = _dataset_entries(manifest, manifest_path)
    rate = manifest["rate"]
    levels = np.stack([audiogram.ear(ear) for ear in EARS])

    def score_one(entry):
        scene_id, mix_path, reference_path = entry
        ears = read_wav(mix_path, expected_rate=rate)
        reference = read_wav(reference_path, expected_rate=rate)
        amplified = amplify(ears, audiogram)
        ref = reference.channel(0)
        per_ear = ear_scores(ref, amplified.ears.data, levels, rate=rate)
        score = combined_score(better_ear(*(e.haspi_like for e in per_ear)),
                               better_ear(*(e.hasqi_like for e in per_ear)))
        record = {
            "scene": scene_id,
            "haspi_like": score.haspi_like,
            "hasqi_like": score.hasqi_like,
            "ave": score.combined,
            "clipped": amplified.clipped,
        }
        for ear, result in zip(EARS, per_ear):
            record.update((f"{key}_{ear}", value) for key, value in asdict(result).items())
        return record

    records = sorted(ordered_map(score_one, entries), key=lambda r: r["scene"])
    return RunManifest(
        version=manifest.get("version", "unknown"),
        dataset=os.path.abspath(manifest_path),
        fidelity=manifest.get("fidelity", "unknown"),
        records=tuple(records),
    )


def write_scores_csv(run, path):
    """scene,haspi_like,hasqi_like,ave rows at 3-decimal display rounding.

    The displayed ave is the mean of the displayed metric columns, so
    verifying the file against itself never flags.
    """
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(["scene", "haspi_like", "hasqi_like", "ave"])
        for rec in run.records:
            h = round3(rec["haspi_like"])
            q = round3(rec["hasqi_like"])
            writer.writerow(
                [rec["scene"], f"{h:.3f}", f"{q:.3f}", f"{round3((h + q) / 2.0):.3f}"]
            )


def write_run_manifest(run, path):
    payload = {
        "version": run.version,
        "dataset": run.dataset,
        "fidelity": run.fidelity,
        "records": list(run.records),
        "aggregates": run.aggregates,
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)


def read_scores_csv(path):
    """Rows of a scores CSV; raises ValueError with the offending line."""
    return _read_score_rows(path, ["scene", "haspi_like", "hasqi_like", "ave"], "score")


def report_scores(paths):
    """Verify score CSVs: every ave column re-derived from its row."""
    lines = []
    flagged_total = 0
    for path in paths:
        rows = read_scores_csv(path)
        flags = [r for r in rows
                 if _unexplained_by_rounding(r["ave"], r["haspi_like"], r["hasqi_like"])]
        flagged_total += len(flags)
        means = {
            key: sum(r[key] for r in rows) / len(rows)
            for key in ("haspi_like", "hasqi_like", "ave")
        }
        lines.append(
            f"{path}: {len(rows)} scenes | mean haspi_like {means['haspi_like']:.3f} "
            f"| mean hasqi_like {means['hasqi_like']:.3f} | mean ave {means['ave']:.3f} "
            f"| flags {len(flags)}"
        )
        for r in flags:
            lines.append(f"  FLAG {r['scene']}: ave {r['ave']:.3f} != mean of metrics")
    lines.append(f"flagged rows: {flagged_total}")
    return "\n".join(lines)
