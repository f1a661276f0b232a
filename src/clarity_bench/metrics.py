"""Audiogram-aware objective scoring.

Two reference-based surrogate metrics mirror the challenge's pair of
indices: an intelligibility-like score built on per-band envelope
correlation, and a quality-like score that adds a long-term spectral
penalty. Like HASPI and HASQI, both read one auditory front end that
runs once per scene in `ear_scores`, the scorer's one entry point: each
ear is aligned to the reference once, and each aligned signal runs once
through a 32-band ERB-spaced gammatone filter bank. Half-wave
rectification, a 32 Hz second-order low-pass and decimation to 256 Hz by
linear interpolation give linear band envelopes, and the band RMS the
long-term band levels. One function, _band_features, is that front end
for one signal, reference or ear. It streams: the signal is transformed
once, and its bands are filtered, attenuated, smoothed and reduced
BAND_CHUNK at a time, so only the envelopes (32 rows at 256 Hz) and the
32 band levels are kept, never the 32 full-rate bands of a signal. Each
band row is its own product, inverse FFT, matmul and reduction, so the
chunking moves no bit; gammatone_bands(signal) is the whole-array view
of the same bands.
Only the dB conversion (-80 dB floor) is per metric, after a gain: 1 for
the intelligibility score, and for the quality score the gain that
brings the waveform to audio.REFERENCE_RMS. Every earlier stage is
positively homogeneous, so this equals scaling the waveform first, up to
rounding.

`ear_scores` takes the ears of a listener as rows, one audiogram row per
ear, and returns one EarScore per ear: both scores, the quality score's
two terms and the lag. Each ear is aligned to the reference at its own
lag, and one cross-correlation call gives the lags of all rows. The
reference front end runs once per distinct aligned reference segment:
ears aligned at the same overlap (every ear with a lag >= 0 and a full
overlap) share one reference pass, so a two-ear call filters three
signals, not four. A row scores exactly as it would alone, bit for bit.
`intelligibility_score` and `quality_score` are one-ear views: each
passes one 1-D ear and its audiogram to `ear_scores` as a single row and
returns one field.

Hearing loss enters as pure band attenuation on the processed branch:
the audiogram is interpolated to each band centre by
hearing_aid.interpolate_audiogram, the interpolation that also shapes
the amplification FIR, so there is one of it. The reference branch
stays unmodified. Frames whose reference envelope is below -60 dB are
ignored, so inaudible stretches neither help nor hurt, and a band with
fewer than 50 audible frames is left out.

These numbers are the module constants below (BANDS, FMIN, FMAX,
ENVELOPE_RATE, ENVELOPE_CUTOFF, FLOOR_DB, AUDIBILITY_DB, MIN_FRAMES,
SPECTRAL_SCALE_DB, MIN_OVERLAP, BAND_CHUNK). They are not parameters:
like the challenge, which fixed its evaluation model, every signal is
scored by the same front end, and every signal is a plain array at
audio.DEFAULT_RATE.

The gammatone bank, built once per process, is an audio.KernelBank: the
whole 32-kernel spectrum is memoized at the last FFT length used, so the
three signals of a scene at one length transform the kernels once, and
the front end reads its rows a chunk at a time (KernelBank.convolve_rows).
It keeps the bits of audio.convolve_channels(kernels, signal), the
convolution the scores were pinned to, because it multiplies the same
spectra in the same order. The alignment cross-correlation is
audio.convolve_channels itself, of all rows at once.

The envelope low-pass is the second-order Butterworth biquad of the
bilinear transform, its coefficients in closed form, and it is evaluated
only at the samples the decimation reads. The 62.5-sample frame grid
repeats every 125 samples, two frames, and the interpolation reads two
samples per frame, so a block of 125 rectified samples enters through
one fixed 125 x 6 matrix: the filter state it leaves at the block's end
and its own part of the four samples read. A doubling scan over the
blocks carries the state from block to block; it is elementwise, so each
band row gets the bits it would get alone. On speech bands this stays
within 1e-12 of the band's peak envelope of scipy.signal's butter and
lfilter followed by the same decimation, and it takes 0.0053 s per
32-band call at 51,883 frames where rectification and lfilter alone took
0.014 s (one thread).
"""

import math
from dataclasses import dataclass

import numpy as np

from .audio import DEFAULT_RATE, REFERENCE_RMS, KernelBank, convolve_channels, rms_array
from .hearing_aid import AUDIOGRAM_FREQUENCIES, interpolate_audiogram

_ERB_SLOPE = 4.37e-3   # per Hz
_ERB_MIN = 24.7        # Hz


def erb(frequency):
    """Equivalent rectangular bandwidth at a centre frequency, Hz."""
    return _ERB_MIN * (_ERB_SLOPE * np.asarray(frequency, dtype=np.float64) + 1.0)


def erb_rate(frequency):
    """Cumulative ERB count below a frequency (the ERB-rate scale)."""
    return np.log(1.0 + _ERB_SLOPE * np.asarray(frequency, dtype=np.float64)) / (
        _ERB_MIN * _ERB_SLOPE
    )


def erb_rate_inverse(rate_value):
    return (np.exp(np.asarray(rate_value, dtype=np.float64) * _ERB_MIN * _ERB_SLOPE) - 1.0) / _ERB_SLOPE


# The auditory front end and both scores are fixed: every entrant is
# scored by the same model.
BANDS = 32
FMIN = 80.0              # Hz
FMAX = 8000.0            # Hz
ENVELOPE_RATE = 256.0    # Hz
ENVELOPE_CUTOFF = 32.0   # Hz
FLOOR_DB = -80.0
AUDIBILITY_DB = -60.0
MIN_FRAMES = 50
SPECTRAL_SCALE_DB = 30.0
MIN_OVERLAP = 0.9        # share of the reference an aligned ear must overlap
BAND_CHUNK = 8           # bands the front end holds at full rate at once

# Band centres, ERB-spaced with half-step insets at both edges.
CENTER_FREQUENCIES = erb_rate_inverse(
    erb_rate(FMIN) + (erb_rate(FMAX) - erb_rate(FMIN)) / BANDS * (np.arange(BANDS) + 0.5)
)
CENTER_FREQUENCIES.flags.writeable = False
_FLOOR_LIN = 10.0 ** (FLOOR_DB / 20.0)

# -3 dB width of a 4th-order gammatone magnitude in units of its envelope
# bandwidth parameter: 2 * sqrt(2**(1/4) - 1).
_GAMMATONE_BW3 = 2.0 * np.sqrt(2.0 ** 0.25 - 1.0)
_BANDWIDTH_SCALE = 1.019


def _gammatone_kernels():
    """FIR kernels (bands x taps) with unit magnitude at each centre."""
    length = int(round(0.128 * DEFAULT_RATE))
    t = np.arange(length) / DEFAULT_RATE
    kernels = np.empty((BANDS, length))
    for i, fc in enumerate(CENTER_FREQUENCIES):
        b = _BANDWIDTH_SCALE * float(erb(fc)) / _GAMMATONE_BW3
        kern = t ** 3 * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
        peak = np.abs(np.sum(kern * np.exp(-2j * np.pi * fc * t)))
        kernels[i] = kern / peak
    kernels.flags.writeable = False
    return kernels


_GAMMATONE_BANK = KernelBank(_gammatone_kernels())

_FRAME_HOP = DEFAULT_RATE / ENVELOPE_RATE         # 62.5 samples
_BLOCK = int(2 * _FRAME_HOP)                      # the frame grid's period
_BLOCK_READS = (0, 1, int(_FRAME_HOP), int(_FRAME_HOP) + 1)


def _envelope_biquad():
    """(b0, z) of the 2nd-order Butterworth low-pass at ENVELOPE_CUTOFF,
    the biquad b0 (1 + q)^2 / ((1 - z q) (1 - conj(z) q)) in the unit
    delay q.

    The bilinear transform z = (1 + s) / (1 - s), with s in units of twice
    the sample rate, maps the analog Butterworth poles, prewarped to the
    cutoff, to z and conj(z); both zeros go to -1 and the gain at DC is 1.
    """
    k = math.tan(math.pi * ENVELOPE_CUTOFF / DEFAULT_RATE)
    s = k * complex(-math.sqrt(0.5), math.sqrt(0.5))
    return k * k / ((1.0 - s) * (1.0 - s).conjugate()).real, (1.0 + s) / (1.0 - s)


def _envelope_block_operators():
    """The envelope biquad over one block of _BLOCK samples.

    The biquad's output is y[m] = b0 x[m] + 2 Re(r w[m]), with the complex
    one-pole state w[m + 1] = z w[m] + x[m] at its pole z of residue r.
    The state is carried as (Re w, Im w), which each sample turns and
    scales by z. The transposed direct form's two states nearly cancel at
    this low cutoff: carried across blocks they drifted 5e-12 of the peak
    envelope from lfilter, this state 7e-13.

    Returns (projection, step, reads). projection (_BLOCK, 6) takes a
    block's input to the state w it leaves at the block's end from a zero
    start (Re, Im), then to its own part of the outputs at _BLOCK_READS.
    step is z**_BLOCK, which carries w across a block, and reads (4, 2)
    takes the block's start state (Re w, Im w) to the outputs at
    _BLOCK_READS.
    """
    b0, z = _envelope_biquad()
    residue = b0 * (z + 1.0) ** 2 / (z - z.conjugate())
    powers = z ** np.arange(_BLOCK + 1)
    response = np.concatenate([[b0], 2.0 * (residue * powers[:-1]).real])
    end_state = powers[_BLOCK - 1 :: -1]
    outputs = [np.concatenate([response[m::-1], np.zeros(_BLOCK - 1 - m)]) for m in _BLOCK_READS]
    projection = np.column_stack([end_state.real, end_state.imag, *outputs])
    carried = 2.0 * residue * powers[list(_BLOCK_READS)]
    reads = np.column_stack([carried.real, -carried.imag])
    for array in (projection, reads):
        array.flags.writeable = False
    return projection, complex(powers[_BLOCK]), reads


_ENVELOPE_BLOCKS = _envelope_block_operators()


def _one_channel(signal, name):
    """signal, 1-D or a single row, as a 1-D float64 array, else ValueError."""
    x = np.asarray(signal, dtype=np.float64)
    x = x[0] if x.ndim == 2 and len(x) == 1 else x
    if x.ndim != 1 or x.size == 0:
        raise ValueError(f"{name} must be one non-empty channel, got shape {np.shape(signal)}")
    return x


def gammatone_bands(signal):
    """Split a mono signal into the BANDS gammatone bands.

    Returns an array (bands, frames) the same length as the input. Each
    band is a 4th-order gammatone whose measured -3 dB bandwidth is
    1.019 * ERB(fc).
    """
    x = _one_channel(signal, "signal")
    return _GAMMATONE_BANK.convolve(x)[:, : x.size]


def _smoothed(bands):
    """Linear envelopes of band signals (..., frames) at the envelope rate.

    Half-wave rectification, 2nd-order low-pass at the envelope cutoff,
    then decimation to ENVELOPE_RATE by linear interpolation (np.interp's
    own formula). The low-pass runs block by block and is evaluated only
    at the samples the interpolation reads.
    """
    projection, step, reads = _ENVELOPE_BLOCKS
    shape, n = bands.shape[:-1], bands.shape[-1]
    blocks = -(-n // _BLOCK)
    rectified = np.empty((*shape, blocks * _BLOCK))
    np.maximum(bands, 0.0, out=rectified[..., :n])
    rectified[..., n:] = 0.0
    # One matmul per band row: each block's end state and samples read.
    per_block = rectified.reshape(*shape, blocks, _BLOCK) @ projection
    # Block j starts in the state block j - 1 leaves: a doubling scan of
    # the end states, shifted by one block, elementwise so that each row
    # keeps its own bits.
    re = np.zeros((*shape, blocks))
    im = np.zeros((*shape, blocks))
    re[..., 1:], im[..., 1:] = per_block[..., :-1, 0], per_block[..., :-1, 1]
    span = 1
    while span < blocks:
        carried_re = step.real * re[..., :-span] - step.imag * im[..., :-span]
        carried_im = step.imag * re[..., :-span] + step.real * im[..., :-span]
        re[..., span:] += carried_re
        im[..., span:] += carried_im
        step, span = step * step, 2 * span
    read = per_block[..., 2:] + re[..., None] * reads[:, 0] + im[..., None] * reads[:, 1]
    # Block j reads frames 2j and 2j + 1, each as the (lo, hi) pair it
    # interpolates between.
    frames = int(np.floor(n / DEFAULT_RATE * ENVELOPE_RATE))
    pairs = read.reshape(*shape, 2 * blocks, 2)[..., :frames, :]
    positions = np.arange(frames) * _FRAME_HOP
    frac = positions - positions.astype(np.intp)
    lo, hi = pairs[..., 0], pairs[..., 1]
    return np.where(frac == 0.0, lo, (hi - lo) * frac + lo)


def _db(linear, gain=1.0):
    """20*log10(gain * linear) with the FLOOR_DB floor."""
    return 20.0 * np.log10(np.maximum(gain * linear, _FLOOR_LIN))


def _aligned_slices(r, rows):
    """(reference slice, processed slice) per row of rows, trimming r and
    the row to their overlap at the row's best feasible lag.

    Only lags that leave at least MIN_OVERLAP of the reference overlapping
    are searched; when no such lag exists (rows shorter than that) the
    inputs are rejected, and so are non-finite samples. The lag is the
    peak of the row's cross-correlation with r; one convolve_channels call
    gives every row's, so the reversed reference is transformed once, and
    each row of it equals that row's own call bit for bit. A degenerate
    row (r or the row all zero) falls back to lag 0.
    """
    if not (np.isfinite(r).all() and np.isfinite(rows).all()):
        raise ValueError("reference and processed signals must be finite")
    size = rows.shape[1]
    needed = int(np.ceil(MIN_OVERLAP * r.size))
    if size < needed:
        raise ValueError(
            f"processed signal ({size} samples) cannot overlap {MIN_OVERLAP:.0%} of "
            f"the {r.size}-sample reference at any lag"
        )
    corr = convolve_channels(rows, r[::-1])
    center = r.size - 1
    lo = max(0, center - (r.size - needed))
    hi = min(corr.shape[1], center + size - needed + 1)
    norm_r = np.linalg.norm(r)
    slices = []
    for p, c in zip(rows, corr):
        lag = 0
        if norm_r * np.linalg.norm(p) != 0.0:
            lag = int(np.argmax(c[lo:hi])) + lo - center
        if lag >= 0:
            overlap = min(r.size, size - lag)
            slices.append((slice(0, overlap), slice(lag, lag + overlap)))
        else:
            overlap = min(r.size + lag, size)
            slices.append((slice(-lag, -lag + overlap), slice(0, overlap)))
    return slices


def _masked_pearson(a, b):
    """Pearson r; 0 when either side has no variance."""
    # x.sum() / x.size and ndarray.sum give the bits of x.mean() and
    # np.sum without their Python wrappers; this runs once per band.
    a = a - a.sum() / a.size
    b = b - b.sum() / b.size
    denom = math.sqrt((a * a).sum() * (b * b).sum())
    if denom == 0.0:
        return 0.0
    return float((a * b).sum() / denom)


def _envelope_correlation(ref_env, proc_env):
    """Mean over included bands of max(r, 0); bands with too few audible
    frames are excluded; no included bands gives 0."""
    audible = ref_env > AUDIBILITY_DB
    scores = [
        max(_masked_pearson(band_ref[mask], band_proc[mask]), 0.0)
        for band_ref, band_proc, mask, count
        in zip(ref_env, proc_env, audible, np.count_nonzero(audible, axis=1))
        if count >= MIN_FRAMES
    ]
    if not scores:
        return 0.0
    return float(np.mean(scores))


def _band_features(signal, gains, scratch):
    """(linear envelopes (BANDS, envelope frames), band RMS (BANDS,)) of a
    1-D signal, each band scaled by its entry of gains unless gains is
    None.

    The bands are filtered, scaled, smoothed and reduced BAND_CHUNK at a
    time, and only the envelopes and the RMS are kept. Every step works on
    each band row alone, so this equals _smoothed and the RMS of the whole
    gammatone_bands(signal) * gains[:, None] bit for bit. scratch is the
    dict of work arrays of KernelBank.convolve_rows.
    """
    n = signal.size
    envelopes, levels = [], []
    chunks = _GAMMATONE_BANK.convolve_rows(signal, BAND_CHUNK, scratch)
    for row, bands in zip(range(0, BANDS, BAND_CHUNK), chunks):
        bands = bands[:, :n]
        if gains is not None:
            bands *= gains[row : row + BAND_CHUNK, None]
        envelopes.append(_smoothed(bands))
        levels.append(np.sqrt(np.mean(bands**2, axis=1)))
    return np.concatenate(envelopes), np.concatenate(levels)


def _rms_gain(x):
    """Gain that scales x to REFERENCE_RMS; 1 for silence, as in scale_to_rms."""
    level = rms_array(x)
    return REFERENCE_RMS / level if level > 0 else 1.0


@dataclass(frozen=True)
class EarScore:
    """Both scores of one ear, the quality score's two terms and the lag
    (samples by which the processed ear trails the reference)."""

    haspi_like: float
    hasqi_like: float
    hasqi_like_correlation: float
    hasqi_like_spectral: float
    lag: int


def _score_ear(ref_features, proc_features, ref_gain, proc_gain, lag):
    (ref_env, ref_rms), (proc_env, proc_rms) = ref_features, proc_features
    haspi = _envelope_correlation(_db(ref_env), _db(proc_env))
    c_term = _envelope_correlation(_db(ref_env, ref_gain), _db(proc_env, proc_gain))
    spectral_db = float(np.mean(np.abs(_db(proc_rms, proc_gain) - _db(ref_rms, ref_gain))))
    s_term = 1.0 - min(1.0, spectral_db / SPECTRAL_SCALE_DB)
    return EarScore(haspi, 0.5 * c_term + 0.5 * s_term, c_term, s_term, lag)


def ear_scores(ref, ears, levels):
    """Both scores of every ear against ref from one front-end pass.

    ref is the clean reference, 1-D or one row (else ValueError); ears
    holds one processed ear signal per row, and levels one audiogram row
    per ear (six levels in [0, 120] dB HL). Returns a tuple of
    one EarScore per row, each equal to that of the row scored alone.
    """
    r = _one_channel(ref, "reference")
    rows = np.ascontiguousarray(ears, dtype=np.float64)
    levels = np.asarray(levels, dtype=np.float64)
    if rows.ndim != 2 or levels.shape != (len(rows), len(AUDIOGRAM_FREQUENCIES)):
        raise ValueError(
            f"need one processed ear per row and one audiogram of "
            f"{len(AUDIOGRAM_FREQUENCIES)} levels per ear, got signal shape "
            f"{rows.shape} and audiogram shape {levels.shape}"
        )
    if not np.isfinite(levels).all():
        raise ValueError("need one audiogram of finite levels per ear, got a NaN or infinite level")
    if ((levels < 0.0) | (levels > 120.0)).any():
        raise ValueError("need one audiogram of levels in [0, 120] dB HL per ear, got a level outside")
    ref_gain = _rms_gain(r)
    references = {}
    scores = []
    # One set of front-end work arrays for every signal of the call. Freed
    # and allocated again per signal, their pages went back to the system
    # and were faulted in again: 7,600 minor faults per scored scene
    # against 4,700 when shared (16 seed-7 scenes in a worker thread).
    scratch = {}
    for (r_slice, p_slice), p, ear in zip(_aligned_slices(r, rows), rows, levels):
        key = (r_slice.start, r_slice.stop)
        if key not in references:
            references[key] = _band_features(r[r_slice], None, scratch)
        gains = 10.0 ** (-interpolate_audiogram(ear, CENTER_FREQUENCIES) / 20.0)
        scores.append(_score_ear(references[key], _band_features(p[p_slice], gains, scratch),
                                 ref_gain, _rms_gain(p), p_slice.start - r_slice.start))
    return tuple(scores)


def _one_ear(ref, proc, ear_levels):
    """The EarScore of one ear: a 1-D proc with its 1-D audiogram."""
    (score,) = ear_scores(ref, np.asarray(proc)[None], np.asarray(ear_levels)[None])
    return score


def intelligibility_score(ref, proc, ear_levels):
    """HASPI-like surrogate in [0, 1] of one ear: the haspi_like field of
    ear_scores with proc and ear_levels as its one row."""
    return _one_ear(ref, proc, ear_levels).haspi_like


def quality_score(ref, proc, ear_levels):
    """HASQI-like surrogate in [0, 1] of one ear: the hasqi_like field of
    ear_scores with proc and ear_levels as its one row.

    Both signals are scored at audio.REFERENCE_RMS, so a uniform gain on
    proc does not change the score. The score averages the
    envelope-correlation term with a spectral-naturalness term
    S = 1 - min(1, mean |dL| / scale) over long-term band levels; the
    EarScore keeps both terms.
    """
    return _one_ear(ref, proc, ear_levels).hasqi_like
