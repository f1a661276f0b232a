"""Batch scoring, leaderboard arithmetic and report generation.

The bundled data file carries the published leaderboard (both evaluation
sets, three score columns per entry) so the arithmetic checks run
offline: every stored "Ave" is re-derived from its HASPI/HASQI pair, and
the best-entry-per-team correlation between the two metrics is
recomputed. A row is flagged when its stored mean cannot be explained by
display rounding (tolerance 0.0005).

Both score tables, the leaderboard and the scores CSVs, go through one
reader, `_read_score_rows`, and share its rules; `pearson` is
`statistics.correlation` behind this module's input checks.

`score_scene` scores one scene from buffers in memory and touches no
file; `score_dataset` reads and checks a dataset's WAV files for it and
returns the run as the plain dict written to `*.run.json`.
"""

import csv
import json
import math
import os
import re
import statistics
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .audio import DEFAULT_RATE, read_json, read_wav
from .hearing_aid import EARS, amplify, flat_audiogram
from .metrics import MIN_OVERLAP, ear_scores
# Not called here: perfbench/tracing.py wraps the two metrics at this
# module, and its traced run fails without these names.
from .metrics import intelligibility_score, quality_score  # noqa: F401
from .workers import ordered_map

ROUNDING_TOLERANCE = 0.0005
SCORE_COLUMNS = ("haspi_like", "hasqi_like", "ave")
SCORES_HEADER = ("scene", *SCORE_COLUMNS)
LEADERBOARD_HEADER = ("entry", "eval_set", "haspi", "hasqi", "ave")


def _unexplained_by_rounding(ave, haspi, hasqi):
    """True when a stored mean differs from the mean of its pair by more
    than display rounding can explain."""
    return abs(ave - (haspi + hasqi) / 2.0) > ROUNDING_TOLERANCE + 1e-12


def round3(value):
    """Round half away from zero at 3 decimals (display rounding)."""
    return math.floor(abs(value) * 1000.0 + 0.5) / 1000.0 * (1 if value >= 0 else -1)


def pearson(x, y):
    """Sample Pearson correlation coefficient (statistics.correlation).

    Needs two equal-length lists of at least 3 values, neither constant.
    """
    x, y = [float(v) for v in x], [float(v) for v in y]
    if len(x) != len(y):
        raise ValueError("pearson needs two equal-length score lists")
    if len(x) < 3:
        raise ValueError(f"pearson needs at least 3 pairs, got {len(x)}")
    try:
        return statistics.correlation(x, y)
    except statistics.StatisticsError as exc:   # a constant input
        raise ValueError("zero variance in a correlation input") from exc


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
    parsed as scores; the one reader of score tables. Each ValueError
    names the file and the physical line (blank lines count, though csv
    skips them): a score that is not a number in [0, 1] (NaN and
    infinities included), a line the csv module cannot parse, or a row
    whose key (every column but the scores) repeats an earlier row's,
    naming both lines. Text that is not UTF-8 fails ahead of the parser
    and names the file alone."""
    rows = []
    first_line = {}
    with open(path, encoding="utf-8") as fp:
        reader = csv.DictReader(fp)
        try:
            if reader.fieldnames != list(header):
                raise ValueError(f"{path}: line 1: expected {','.join(header)} header")
            for rec in reader:
                try:
                    row = {key: rec[key] for key in header[:-3]}
                    seen = first_line.setdefault(tuple(row.values()), reader.line_num)
                    if seen != reader.line_num:
                        named = ", ".join(f"{key} {value!r}" for key, value in row.items())
                        raise ValueError(f"{named} repeats line {seen}")
                    for key in header[-3:]:
                        value = float(rec[key])
                        if not 0.0 <= value <= 1.0:
                            raise ValueError(f"{key} {rec[key]!r} is not a score in [0, 1]")
                        row[key] = value
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValueError(f"{path}: line {reader.line_num}: {exc}") from exc
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        except csv.Error as exc:   # e.g. a field over csv.field_size_limit()
            raise ValueError(f"{path}: line {reader.reader.line_num}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no {what} rows")
    return rows


def load_published_results(path=None):
    """Rows of the published leaderboard (or any CSV in the same layout)."""
    rows = _read_score_rows(path or bundled_results_path(), LEADERBOARD_HEADER, "leaderboard")
    return [LeaderboardRow(**row) for row in rows]


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
        except ValueError as exc:
            lines.append(f"best-entry-per-team metric correlation: unavailable ({exc})")
        lines.append("")
    lines.append(f"flagged rows: {flagged_total}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Scoring rendered datasets


def _column_means(rows):
    """Mean of each SCORE_COLUMNS column over rows."""
    return {key: sum(r[key] for r in rows) / len(rows) for key in SCORE_COLUMNS}


def summary_line(rows):
    """'N scenes | mean haspi_like ... | mean hasqi_like ... | mean ave ...'
    of score rows, each mean at 3 decimals."""
    means = _column_means(rows)
    return " | ".join([f"{len(rows)} scenes", *(f"mean {key} {means[key]:.3f}" for key in SCORE_COLUMNS)])


def _dataset_file(base, scene_id, name):
    """Path of a file a manifest entry names; it must lie inside `base`."""
    path = os.path.normpath(os.path.join(base, name))
    if os.path.isabs(name) or os.path.commonpath([base, path]) != base:
        raise ValueError(f"{scene_id}: {name!r} lies outside the dataset directory")
    if not os.path.exists(path):
        raise FileNotFoundError(f"{scene_id}: missing {path}")
    return path


def _dataset_entries(manifest, path):
    """(id, (mix path, reference path)) of every manifest entry, its files
    resolved; raises on the first problem (a repeated id is one) first."""
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    scenes = manifest.get("scenes")
    if not isinstance(scenes, list):
        raise ValueError(f"{path}: 'scenes' must be a list")
    if not scenes:
        raise ValueError(f"{path}: dataset has no scenes")
    rate = manifest.get("rate")
    if type(rate) is not int or rate != DEFAULT_RATE:
        raise ValueError(f"{path}: 'rate' must be the integer {DEFAULT_RATE}, got {rate!r}")
    base = os.path.dirname(os.path.abspath(path))
    entries = {}
    for index, entry in enumerate(scenes):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: scene {index}: entry must be an object")
        where = f"{path}: scene {entry['id'] if isinstance(entry.get('id'), str) else index}"
        for key in ("id", "mix", "reference"):
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{where}: '{key}' must be a string")
        scene_id = entry["id"]
        if scene_id in entries:
            raise ValueError(f"{where}: scene id {scene_id!r} is listed twice")
        entries[scene_id] = (_dataset_file(base, scene_id, entry["mix"]),
                             _dataset_file(base, scene_id, entry["reference"]))
    return list(entries.items())


def score_scene(ears, reference, audiogram):
    """Score one scene with the baseline (passthrough + amplification).

    The stereo ears (a SampleBuffer) are amplified with the audiogram's
    prescription and scored against the clean reference (a 1-D array or
    one row), both ears and both metrics in one ear_scores call; each
    metric keeps its better ear, and 'ave' is the mean of the two. The
    record also holds every field of each ear's EarScore (haspi_like_left,
    hasqi_like_correlation_left, lag_left, ..., lag_right) and counts the
    samples amplification clipped. No file is read or written.
    """
    amplified = amplify(ears, audiogram)
    levels = np.stack([audiogram.ear(ear) for ear in EARS])
    per_ear = ear_scores(reference, amplified.ears.data, levels)
    haspi = max(e.haspi_like for e in per_ear)
    hasqi = max(e.hasqi_like for e in per_ear)
    record = {"haspi_like": haspi, "hasqi_like": hasqi, "ave": (haspi + hasqi) / 2.0,
              "clipped": amplified.clipped}
    for ear, result in zip(EARS, per_ear):
        record.update((f"{key}_{ear}", value) for key, value in asdict(result).items())
    return record


def score_dataset(manifest_path, audiogram=None):
    """The run of score_scene over a dataset (audiogram default: flat 40 dB HL).

    The run is the dict written to *.run.json: version, fidelity,
    'dataset' (the manifest's absolute path), the records sorted by
    'scene' and 'aggregates', their SCORE_COLUMNS means. The manifest's
    'rate' must be DEFAULT_RATE, every mix stereo and every reference
    mono and not empty, and every mix long enough to overlap MIN_OVERLAP
    of its reference, else ValueError naming the scene and the file.
    """
    audiogram = audiogram or flat_audiogram(40.0)
    manifest = read_json(manifest_path)
    entries = _dataset_entries(manifest, manifest_path)

    def score_one(entry):
        scene_id, (mix_path, reference_path) = entry
        ears = read_wav(mix_path)
        reference = read_wav(reference_path)
        if ears.channels != 2:
            raise ValueError(f"{scene_id}: mix {mix_path} has "
                             f"{ears.channels} channels, expected stereo")
        if reference.channels != 1:
            raise ValueError(f"{scene_id}: reference {reference_path} has "
                             f"{reference.channels} channels, expected mono")
        if reference.frames == 0:
            raise ValueError(f"{scene_id}: reference {reference_path} has no samples")
        if ears.frames < math.ceil(MIN_OVERLAP * reference.frames):
            raise ValueError(f"{scene_id}: mix {mix_path} has {ears.frames} frames, fewer "
                             f"than {MIN_OVERLAP:.0%} of the {reference.frames}-frame reference")
        return {"scene": scene_id, **score_scene(ears, reference.channel(0), audiogram)}

    records = sorted(ordered_map(score_one, entries), key=lambda r: r["scene"])
    return {
        "version": manifest.get("version", "unknown"),
        "dataset": os.path.abspath(manifest_path),
        "fidelity": manifest.get("fidelity", "unknown"),
        "records": records,
        "aggregates": _column_means(records),
    }


def write_scores_csv(run, path):
    """scene,haspi_like,hasqi_like,ave rows at 3-decimal display rounding.

    The displayed ave is the mean of the displayed metric columns, so
    verifying the file against itself never flags.
    """
    with open(path, "w", encoding="utf-8", newline="") as fp:
        writer = csv.writer(fp)
        writer.writerow(SCORES_HEADER)
        for rec in run["records"]:
            h = round3(rec["haspi_like"])
            q = round3(rec["hasqi_like"])
            writer.writerow(
                [rec["scene"], f"{h:.3f}", f"{q:.3f}", f"{round3((h + q) / 2.0):.3f}"]
            )


def write_run_manifest(run, path):
    """Write the run that score_dataset returns as JSON."""
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(run, fp, indent=2, sort_keys=True)


def read_scores_csv(path):
    """Rows of a scores CSV, keyed by scene (see _read_score_rows)."""
    return _read_score_rows(path, SCORES_HEADER, "score")


def report_scores(paths):
    """Verify score CSVs: every ave column re-derived from its row."""
    lines = []
    flagged_total = 0
    for path in paths:
        rows = read_scores_csv(path)
        flags = [r for r in rows
                 if _unexplained_by_rounding(r["ave"], r["haspi_like"], r["hasqi_like"])]
        flagged_total += len(flags)
        lines.append(f"{path}: {summary_line(rows)} | flags {len(flags)}")
        lines.extend(f"  FLAG {r['scene']}: ave {r['ave']:.3f} != mean of metrics" for r in flags)
    lines.append(f"flagged rows: {flagged_total}")
    return "\n".join(lines)
