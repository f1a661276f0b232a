"""Output checks of the benchmark.

Each check raises CheckFailed with a one-line reason. The checks compare
the program's outputs with computations made here, apart from the
program (a RIFF parser, the scene-length formula, the NAL-R formula,
Pearson's r from the standard library), or with properties the method
must have (score bounds, linearity, byte-identical re-rendering). None
compares with a stored copy of earlier output.
"""

import csv
import io
import math
import re
import statistics
import struct

import numpy as np

RATE = 16000
REFERENCE_RMS = 10.0 ** (-26.0 / 20.0)
REFERENCE_RMS_RTOL = 1e-6
LINEARITY_ATOL = 1e-9
SELF_SCORE_ATOL = 1e-12
CORRELATION_ATOL = 1e-12
AVE_ROUNDING = 0.0005
NALR_1KHZ_DB = 0.05 * 120.0 + 0.31 * 40.0 + 1.0  # flat 40 dB HL: X + 0.31 H + k(1 kHz)
NALR_TOLERANCE_DB = 1.0


class CheckFailed(Exception):
    """An output of the program broke a check."""


def parse_wav(blob):
    """(rate, samples as (channels, frames) float64) of a PCM16/float32 WAV.

    Written here rather than taken from the program or scipy, so that a
    fault in the program's writer cannot also hide in its reader.
    """
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise CheckFailed("not a RIFF/WAVE file")
    declared = struct.unpack("<I", blob[4:8])[0] + 8
    if declared != len(blob):
        raise CheckFailed(f"RIFF header declares {declared} bytes, file has {len(blob)}")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk = blob[pos : pos + 4]
        size = struct.unpack("<I", blob[pos + 4 : pos + 8])[0]
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) != size:
            raise CheckFailed(f"chunk {chunk!r} truncated: {len(body)} of {size} bytes")
        if chunk == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif chunk == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise CheckFailed("missing fmt or data chunk")
    tag, channels, rate, _, block_align, bits = fmt
    if (tag, bits) == (3, 32):
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif (tag, bits) == (1, 16):
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raise CheckFailed(f"unsupported WAV format tag {tag} with {bits} bits")
    if channels < 1 or len(data) % block_align:
        raise CheckFailed(f"data chunk of {len(data)} bytes is not whole {channels}-channel frames")
    return rate, samples.reshape(-1, channels).T


def expected_mix_frames(scene, rir_frames, hrtf_taps, rate=RATE):
    """Mix length implied by a scene JSON: last source end + RIR - 1 + HRTF - 1."""
    sources = [scene["target"], *scene["interferers"]]
    last_end = max(
        int(round(src["onset_s"] * rate)) + int(round(src["source"]["duration_s"] * rate))
        for src in sources
    )
    return last_end + rir_frames - 1 + hrtf_taps - 1


def check_mix(blob, scene, rir_frames, hrtf_taps):
    rate, ears = parse_wav(blob)
    if rate != RATE:
        raise CheckFailed(f"mix rate {rate} Hz, expected {RATE}")
    if ears.shape[0] != 2:
        raise CheckFailed(f"mix has {ears.shape[0]} channels, expected 2")
    if not np.all(np.isfinite(ears)):
        raise CheckFailed("mix holds non-finite samples")
    frames = expected_mix_frames(scene, rir_frames, hrtf_taps)
    if ears.shape[1] != frames:
        raise CheckFailed(f"mix has {ears.shape[1]} frames, the scene implies {frames}")


def check_reference(blob):
    rate, ref = parse_wav(blob)
    if rate != RATE or ref.shape[0] != 1:
        raise CheckFailed(f"reference is {ref.shape[0]} channels at {rate} Hz, expected mono {RATE}")
    level = math.sqrt(float(np.mean(ref[0] * ref[0])))
    if abs(level / REFERENCE_RMS - 1.0) > REFERENCE_RMS_RTOL:
        raise CheckFailed(f"reference RMS {level!r}, expected {REFERENCE_RMS!r} (-26 dBFS)")


def check_components(ears, components):
    """Target, interferer and noise ears must sum to the ears (linearity)."""
    total = sum(np.asarray(c, dtype=np.float64) for c in components)
    if total.shape != ears.shape:
        raise CheckFailed(f"component shape {total.shape} differs from ears {ears.shape}")
    err = float(np.max(np.abs(total - ears)))
    if not err <= LINEARITY_ATOL:
        raise CheckFailed(f"components sum to the ears only within {err:.3g}")


def check_same_bytes(produced, written, what):
    if produced != written:
        raise CheckFailed(f"re-rendered {what} differs from the written file")


def check_records(records):
    """Scores of a run manifest: bounded, and ave the mean of the two."""
    if not records:
        raise CheckFailed("run manifest has no records")
    for rec in records:
        for key in ("haspi_like", "hasqi_like", "ave"):
            if not 0.0 <= rec[key] <= 1.0:
                raise CheckFailed(f"{rec['scene']}: {key} {rec[key]!r} outside [0, 1]")
        if rec["ave"] != (rec["haspi_like"] + rec["hasqi_like"]) / 2.0:
            raise CheckFailed(f"{rec['scene']}: ave {rec['ave']!r} is not the mean of its scores")


def check_aggregates(run):
    """The run manifest's aggregates equal the means of its own records."""
    records = run["records"]
    for key in ("haspi_like", "hasqi_like", "ave"):
        mean = math.fsum(r[key] for r in records) / len(records)
        if abs(run["aggregates"][key] - mean) > 1e-12:
            raise CheckFailed(f"aggregate {key} {run['aggregates'][key]!r} != record mean {mean!r}")


def check_scores_csv(text, records):
    """The CSV shows every record at display rounding, ave within rounding."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if [r["scene"] for r in rows] != [r["scene"] for r in records]:
        raise CheckFailed("scores CSV scenes differ from the run manifest")
    for row, rec in zip(rows, records):
        h, q, ave = (float(row[k]) for k in ("haspi_like", "hasqi_like", "ave"))
        for key, shown in (("haspi_like", h), ("hasqi_like", q)):
            if not 0.0 <= shown <= 1.0 or abs(shown - rec[key]) > AVE_ROUNDING + 1e-12:
                raise CheckFailed(f"{row['scene']}: CSV {key} {shown} does not show {rec[key]!r}")
        if abs(ave - (h + q) / 2.0) > AVE_ROUNDING + 1e-12:
            raise CheckFailed(f"{row['scene']}: CSV ave {ave} is not the mean of {h} and {q}")


def check_report(text, score_files):
    """`report --scores` lists every file with 0 flags and 0 flagged rows."""
    flags = re.findall(r"\| flags (\d+)$", text, flags=re.MULTILINE)
    if len(flags) != score_files or any(int(f) for f in flags):
        raise CheckFailed(f"report flags per scores file: {flags}, expected {score_files} zeros")
    totals = re.findall(r"^flagged rows: (\d+)$", text, flags=re.MULTILINE)
    if not totals or int(totals[0]) != 0:
        raise CheckFailed(f"report of the scores flags {totals[:1]} rows, expected 0")


def check_self_score(name, value):
    """A reference scored against itself with no loss scores exactly 1."""
    if abs(value - 1.0) > SELF_SCORE_ATOL:
        raise CheckFailed(f"{name}(ref, ref, 0 dB HL) = {value!r}, expected 1")


def check_nalr_1khz(fir, rate=RATE):
    """Realized FIR gain at 1 kHz for flat 40 dB HL within 1 dB of NAL-R."""
    n = np.arange(len(fir))
    response = abs(np.sum(np.asarray(fir) * np.exp(-2j * np.pi * 1000.0 / rate * n)))
    gain_db = 20.0 * math.log10(response)
    if abs(gain_db - NALR_1KHZ_DB) > NALR_TOLERANCE_DB:
        raise CheckFailed(f"NAL-R FIR gain at 1 kHz {gain_db:.3f} dB, expected {NALR_1KHZ_DB:.1f} +- 1")


def best_entry_per_team(rows):
    """Highest-ave row of every team (entries sharing an E<digits> prefix)."""
    best = {}
    for row in rows:
        match = re.match(r"E\d+", row["entry"])
        team = match.group(0) if match else row["entry"]
        if team not in best or float(row["ave"]) > float(best[team]["ave"]):
            best[team] = row
    return list(best.values())


def check_correlation(program_r, rows):
    """The program's correlation equals statistics.correlation over best entries."""
    chosen = best_entry_per_team(rows)
    expected = statistics.correlation(
        [float(r["haspi"]) for r in chosen], [float(r["hasqi"]) for r in chosen]
    )
    if abs(program_r - expected) > CORRELATION_ATOL:
        raise CheckFailed(f"metric_correlation {program_r!r} != statistics.correlation {expected!r}")


def check_fidelity_gap(simulated_haspi, measured_haspi):
    """The measured-like set scores lower in intelligibility than the simulated one."""
    if not measured_haspi < simulated_haspi:
        raise CheckFailed(
            f"mean haspi_like measured_like {measured_haspi:.4f} is not below "
            f"simulated {simulated_haspi:.4f}"
        )
