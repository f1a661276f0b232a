"""Audiogram-aware objective scoring.

Two reference-based surrogate metrics mirror the challenge's pair of
indices: an intelligibility-like score built on per-band envelope
correlation, and a quality-like score that adds a long-term spectral
penalty. Both read one auditory front end, `_front_ends`, which runs each
aligned signal once through a 32-band gammatone filter bank on the ERB
scale. Half-wave rectification, a 32 Hz second-order low-pass, decimation
to 256 Hz by linear interpolation and conversion to dB with a -80 dB floor
give the band envelopes; the band RMS gives the long-term band levels,
which only the quality score reads and computes.

Both scores take the two ears of a listener in one call, one row each.
Each ear is aligned to the reference on its own, but the reference front
end runs once per distinct aligned reference segment: ears aligned at the
same overlap (every ear with a lag >= 0 and a full overlap) share one
reference pass, so a two-ear call filters three signals, not four. A
row scores exactly as it would alone, bit for bit.

Hearing loss enters as pure band attenuation on the processed branch
(the audiogram interpolated to each band centre); the reference branch
stays unmodified. Frames whose reference envelope is below -60 dB are
ignored, so inaudible stretches neither help nor hurt, and a band with
fewer than 50 audible frames is left out.

These numbers are the module constants below (BANDS, FMIN, FMAX,
ENVELOPE_RATE, ENVELOPE_CUTOFF, FLOOR_DB, AUDIBILITY_DB, MIN_FRAMES,
SPECTRAL_SCALE_DB). They are not parameters: like the challenge, which
fixed its evaluation model, every signal is scored by the same front end.
Only the sample rate is an argument, since it comes with the data.

The gammatone bank is an audio.KernelBank: its 32 kernels' spectrum is
memoized at the last FFT length used, so the three passes of a scene at
one length transform the kernels once. It keeps the bits of
audio.convolve_channels(kernels, signal), the convolution the scores
were pinned to, because it multiplies the same spectra in the same
order. The alignment cross-correlation is audio.convolve_channels
itself. The envelope low-pass stays a recursive filter (scipy.signal
butter + lfilter): convolving with the biquad's impulse response, cut
where it falls below 1e-18 (4,163 taps), matches lfilter within 1e-13
but is about 3x slower, 0.020 s against 0.006 s per 32-band call at
28,800 frames and 0.032 s against 0.010 s at 51,000 frames (one thread).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, lfilter

from .audio import REFERENCE_RMS, KernelBank, SampleBuffer, convolve_channels, scale_to_rms
from .errors import AlignmentError
from .hearing_aid import AUDIOGRAM_FREQUENCIES

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


def _gammatone_kernels(rate):
    """FIR kernels (bands x taps) with unit magnitude at each centre."""
    length = int(round(0.128 * rate))
    t = np.arange(length) / rate
    kernels = np.empty((BANDS, length))
    for i, fc in enumerate(CENTER_FREQUENCIES):
        b = _BANDWIDTH_SCALE * float(erb(fc)) / _GAMMATONE_BW3
        kern = t ** 3 * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
        peak = np.abs(np.sum(kern * np.exp(-2j * np.pi * fc * t)))
        kernels[i] = kern / peak
    kernels.flags.writeable = False
    return kernels


@lru_cache(maxsize=8)
def _gammatone_bank(rate):
    return KernelBank(_gammatone_kernels(rate))


def _as_mono_array(signal):
    if isinstance(signal, SampleBuffer):
        if signal.channels != 1:
            raise ValueError("expected a mono signal")
        return signal.channel(0)
    return np.asarray(signal, dtype=np.float64).ravel()


def gammatone_bands(signal, rate=None):
    """Split a mono signal into the BANDS gammatone bands.

    Returns an array (bands, frames) the same length as the input. Each
    band is a 4th-order gammatone whose measured -3 dB bandwidth is
    1.019 * ERB(fc).
    """
    if isinstance(signal, SampleBuffer):
        rate = signal.rate
    if rate is None:
        raise ValueError("rate is required for array input")
    if rate < 16000:
        raise ValueError(f"auditory front end needs rate >= 16 kHz, got {rate}")
    x = _as_mono_array(signal)
    return _gammatone_bank(rate).convolve(x)[:, : x.size]


@lru_cache(maxsize=8)
def _envelope_smoother(rate):
    return butter(2, ENVELOPE_CUTOFF, fs=rate)


def _envelopes(bands, rate):
    """dB envelopes of band signals (..., frames) at the envelope rate.

    Half-wave rectification, 2nd-order low-pass at the envelope cutoff,
    decimation to ENVELOPE_RATE by linear interpolation (np.interp's own
    formula, so the two agree bit for bit), then 20*log10 with the floor.
    """
    b, a = _envelope_smoother(rate)
    smooth = lfilter(b, a, np.maximum(bands, 0.0), axis=-1)
    n = smooth.shape[-1]
    frames = int(np.floor(n / rate * ENVELOPE_RATE))
    positions = np.arange(frames) * (rate / ENVELOPE_RATE)
    below = positions.astype(np.intp)
    frac = positions - below
    lo = smooth[..., below]
    hi = smooth[..., np.minimum(below + 1, n - 1)]
    decimated = np.where(frac == 0.0, lo, (hi - lo) * frac + lo)
    return 20.0 * np.log10(np.maximum(decimated, _FLOOR_LIN))


def audiogram_band_attenuation(ear_levels, centers):
    """Audiogram losses interpolated to band centres (log-f, dB domain)."""
    ear_levels = np.asarray(ear_levels, dtype=np.float64)
    freqs = np.asarray(AUDIOGRAM_FREQUENCIES)
    f = np.clip(np.asarray(centers, dtype=np.float64), freqs[0], freqs[-1])
    return np.interp(np.log(f), np.log(freqs), ear_levels)


def _xcorr_best_lag(r, p, lag_lo, lag_hi):
    """(lag, normalized peak) over an inclusive lag window."""
    denom = np.linalg.norm(r) * np.linalg.norm(p)
    if denom == 0.0:
        raise AlignmentError("cannot align all-zero signals")
    corr = convolve_channels(p, r[::-1])
    center = r.size - 1
    lo = max(0, center + lag_lo)
    hi = min(corr.size, center + lag_hi + 1)
    window = corr[lo:hi]
    best = int(np.argmax(window))
    return best + lo - center, float(window[best] / denom)


def _aligned_slices(r, p):
    """(reference slice, processed slice) that trim r/p to >= 90% overlap
    at the best feasible lag.

    Only lags that leave at least 90% of the reference overlapping are
    searched; when no such lag exists (proc shorter than 90% of ref) the
    inputs are rejected, and so are non-finite samples. Degenerate
    correlation falls back to lag 0.
    """
    if not (np.isfinite(r).all() and np.isfinite(p).all()):
        raise ValueError("reference and processed signals must be finite")
    needed = int(np.ceil(0.9 * r.size))
    if p.size < needed:
        raise ValueError(
            f"processed signal ({p.size} samples) cannot overlap 90% of "
            f"the {r.size}-sample reference at any lag"
        )
    lag_lo = -(r.size - needed)
    lag_hi = p.size - needed
    try:
        lag, _ = _xcorr_best_lag(r, p, lag_lo, lag_hi)
    except AlignmentError:
        lag = 0
    if lag >= 0:
        overlap = min(r.size, p.size - lag)
        return slice(0, overlap), slice(lag, lag + overlap)
    overlap = min(r.size + lag, p.size)
    return slice(-lag, -lag + overlap), slice(0, overlap)


def _masked_pearson(a, b):
    """Pearson r; 0 when either side has no variance."""
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0.0:
        return 0.0
    return float(np.sum(a * b) / denom)


def _envelope_correlation(ref_env, proc_env):
    """Mean over included bands of max(r, 0); bands with too few audible
    frames are excluded; no included bands gives 0."""
    scores = []
    for band_ref, band_proc in zip(ref_env, proc_env):
        mask = band_ref > AUDIBILITY_DB
        if int(mask.sum()) < MIN_FRAMES:
            continue
        scores.append(max(_masked_pearson(band_ref[mask], band_proc[mask]), 0.0))
    if not scores:
        return 0.0
    return float(np.mean(scores))


def _ear_rows(proc, ear_levels):
    """(proc rows, audiogram rows, True when proc is a single signal).

    A 1-D proc (or a mono SampleBuffer) is one ear with a 1-D audiogram;
    a 2-D proc holds one ear per row, with one audiogram row per ear.
    """
    single = isinstance(proc, SampleBuffer) or np.ndim(proc) < 2
    rows = _as_mono_array(proc)[None] if single else np.ascontiguousarray(proc, dtype=np.float64)
    levels = np.asarray(ear_levels, dtype=np.float64)
    levels = levels[None] if single else levels
    if rows.ndim != 2 or levels.shape != (len(rows), len(AUDIOGRAM_FREQUENCIES)):
        raise ValueError(
            f"need a 1-D or 2-D processed signal and one audiogram of "
            f"{len(AUDIOGRAM_FREQUENCIES)} levels per row, got a {rows.ndim - single}-D "
            f"signal and audiogram shape {np.shape(ear_levels)}"
        )
    return rows, levels, single


def _band_features(bands, rate, with_levels):
    """(dB envelopes, long-term dB band levels or None) of band signals."""
    levels = None
    if with_levels:
        levels = 20.0 * np.log10(np.maximum(np.sqrt(np.mean(bands**2, axis=1)), _FLOOR_LIN))
    return _envelopes(bands, rate), levels


def _front_ends(ref, proc, ear_levels, rate, quality):
    """(single, ears): the front end of every ear of proc against ref.

    ears holds one ((ref_env, ref_levels), (proc_env, proc_levels)) pair
    per row of proc, in dB. Each ear is aligned on its own, and its
    processed bands are attenuated by its audiogram. The reference front
    end runs once per distinct aligned reference segment, so ears aligned
    at the same overlap share it. The quality path first scales every
    signal to REFERENCE_RMS and adds the long-term band levels, which are
    None otherwise.
    """
    if isinstance(ref, SampleBuffer):
        rate = ref.rate
    r = _as_mono_array(ref)
    rows, levels, single = _ear_rows(proc, ear_levels)
    if quality:
        r = scale_to_rms(r, REFERENCE_RMS)
        rows = [scale_to_rms(p, REFERENCE_RMS) for p in rows]
    references = {}
    ears = []
    for p, ear in zip(rows, levels):
        r_slice, p_slice = _aligned_slices(r, p)
        key = (r_slice.start, r_slice.stop)
        if key not in references:
            references[key] = _band_features(gammatone_bands(r[r_slice], rate), rate, quality)
        attenuation = audiogram_band_attenuation(ear, CENTER_FREQUENCIES)
        proc_bands = gammatone_bands(p[p_slice], rate) * 10.0 ** (-attenuation[:, None] / 20.0)
        ears.append((references[key], _band_features(proc_bands, rate, quality)))
    return single, ears


def intelligibility_score(ref, proc, ear_levels, rate=16000):
    """HASPI-like surrogate in [0, 1].

    ref is the clean reference; proc the processed ear signal; ear_levels
    the audiogram for the ear being scored (dB HL at the six standard
    frequencies). A 2-D proc holds one ear per row and ear_levels one
    audiogram row per ear; the result is then a tuple of one score per
    row, each equal to the score of that row alone.
    """
    single, ears = _front_ends(ref, proc, ear_levels, rate, quality=False)
    scores = tuple(_envelope_correlation(r_env, p_env) for (r_env, _), (p_env, _) in ears)
    return scores[0] if single else scores


def quality_score(ref, proc, ear_levels, rate=16000, return_terms=False):
    """HASQI-like surrogate in [0, 1].

    Both signals are RMS-normalized to audio.REFERENCE_RMS, so a
    uniform gain on proc does not change the score. The score averages
    the envelope-correlation term with a spectral-naturalness term
    S = 1 - min(1, mean |dL| / scale) over long-term band levels.
    With return_terms the (score, correlation term, spectral term)
    triple comes back instead of the bare score. proc and ear_levels take
    one ear per row as in intelligibility_score, giving a tuple with one
    result per row.
    """
    single, ears = _front_ends(ref, proc, ear_levels, rate, quality=True)
    results = []
    for (ref_env, ref_levels), (proc_env, proc_levels) in ears:
        c_term = _envelope_correlation(ref_env, proc_env)
        s_term = 1.0 - min(1.0, float(np.mean(np.abs(proc_levels - ref_levels))) / SPECTRAL_SCALE_DB)
        score = 0.5 * c_term + 0.5 * s_term
        results.append((score, c_term, s_term) if return_terms else score)
    return results[0] if single else tuple(results)


@dataclass(frozen=True)
class MetricScore:
    """Intelligibility-like and quality-like scores with their mean."""

    haspi_like: float
    hasqi_like: float
    combined: float

    def __post_init__(self):
        if self.combined != (self.haspi_like + self.hasqi_like) / 2.0:
            raise ValueError("combined must equal the mean of the two scores")


def combined_score(haspi_like, hasqi_like):
    """Bundle two scores with their arithmetic mean."""
    for name, v in (("haspi_like", haspi_like), ("hasqi_like", hasqi_like)):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {v}")
    return MetricScore(
        haspi_like=float(haspi_like),
        hasqi_like=float(hasqi_like),
        combined=(float(haspi_like) + float(hasqi_like)) / 2.0,
    )


def better_ear(left_score, right_score):
    """Listener-level reduction: the better of the two ears."""
    return max(left_score, right_score)
