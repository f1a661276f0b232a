"""Audiogram-aware objective scoring.

Two reference-based surrogate metrics mirror the challenge's pair of
indices: an intelligibility-like score built on per-band envelope
correlation, and a quality-like score that adds a long-term spectral
penalty. Both read one auditory front end, `_front_end`, which runs each
aligned signal once through a 32-band gammatone filter bank on the ERB
scale. Half-wave rectification, a 32 Hz second-order low-pass, decimation
to 256 Hz by linear interpolation and conversion to dB with a -80 dB floor
give the band envelopes; the band RMS gives the long-term band levels.

Hearing loss enters as pure band attenuation on the processed branch
(the audiogram interpolated to each band centre); the reference branch
stays unmodified. Frames whose reference envelope is below the
audibility threshold are ignored, so inaudible stretches neither help
nor hurt.

The gammatone bank and the alignment cross-correlation are FFT
convolutions (audio.convolve_channels). The envelope low-pass stays a
recursive filter (scipy.signal butter + lfilter): convolving with the
biquad's impulse response, cut where it falls below 1e-18 (4,163 taps),
matches lfilter within 1e-13 but is about 3x slower, 0.020 s against
0.006 s per 32-band call at 28,800 frames and 0.032 s against 0.010 s at
51,000 frames (one thread).
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.signal import butter, lfilter

from .audio import SampleBuffer, convolve_channels, scale_to_rms
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


@dataclass(frozen=True)
class AuditoryConfig:
    """Constants of the auditory front end and both scores."""

    bands: int = 32
    fmin: float = 80.0
    fmax: float = 8000.0
    envelope_rate: float = 256.0
    envelope_cutoff: float = 32.0
    floor_db: float = -80.0
    audibility_db: float = -60.0
    min_frames: int = 50
    normalization_dbfs: float = -26.0
    spectral_scale_db: float = 30.0

    def center_frequencies(self):
        """Band centres, ERB-spaced with half-step insets at both edges."""
        lo, hi = erb_rate(self.fmin), erb_rate(self.fmax)
        step = (hi - lo) / self.bands
        centers = erb_rate_inverse(lo + step * (np.arange(self.bands) + 0.5))
        return centers


DEFAULT_CONFIG = AuditoryConfig()

# -3 dB width of a 4th-order gammatone magnitude in units of its envelope
# bandwidth parameter: 2 * sqrt(2**(1/4) - 1).
_GAMMATONE_BW3 = 2.0 * np.sqrt(2.0 ** 0.25 - 1.0)
_BANDWIDTH_SCALE = 1.019


@lru_cache(maxsize=8)
def _gammatone_kernels(config, rate):
    """FIR kernels (bands x taps) with unit magnitude at each centre."""
    centers = config.center_frequencies()
    length = int(round(0.128 * rate))
    t = np.arange(length) / rate
    kernels = np.empty((config.bands, length))
    for i, fc in enumerate(centers):
        b = _BANDWIDTH_SCALE * float(erb(fc)) / _GAMMATONE_BW3
        kern = t ** 3 * np.exp(-2.0 * np.pi * b * t) * np.cos(2.0 * np.pi * fc * t)
        peak = np.abs(np.sum(kern * np.exp(-2j * np.pi * fc * t)))
        kernels[i] = kern / peak
    kernels.flags.writeable = False
    return kernels, centers


def _as_mono_array(signal):
    if isinstance(signal, SampleBuffer):
        if signal.channels != 1:
            raise ValueError("expected a mono signal")
        return signal.channel(0)
    return np.asarray(signal, dtype=np.float64).ravel()


def gammatone_bands(signal, config=DEFAULT_CONFIG, rate=None):
    """Split a mono signal into the config's gammatone bands.

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
    kernels, _ = _gammatone_kernels(config, rate)
    return convolve_channels(kernels, x)[:, : x.size]


@lru_cache(maxsize=8)
def _envelope_smoother(config, rate):
    return butter(2, config.envelope_cutoff, fs=rate)


def _envelopes(bands, config, rate):
    """dB envelopes of band signals (..., frames) at the envelope rate.

    Half-wave rectification, 2nd-order low-pass at the envelope cutoff,
    decimation to envelope_rate by linear interpolation (np.interp's own
    formula, so the two agree bit for bit), then 20*log10 with the floor.
    """
    b, a = _envelope_smoother(config, rate)
    smooth = lfilter(b, a, np.maximum(bands, 0.0), axis=-1)
    n = smooth.shape[-1]
    frames = int(np.floor(n / rate * config.envelope_rate))
    positions = np.arange(frames) * (rate / config.envelope_rate)
    below = positions.astype(np.intp)
    frac = positions - below
    lo = smooth[..., below]
    hi = smooth[..., np.minimum(below + 1, n - 1)]
    decimated = np.where(frac == 0.0, lo, (hi - lo) * frac + lo)
    floor_lin = 10.0 ** (config.floor_db / 20.0)
    return 20.0 * np.log10(np.maximum(decimated, floor_lin))


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


def _aligned_pair(ref, proc):
    """Trim ref/proc to >= 90% overlap at the best feasible lag.

    Only lags that leave at least 90% of the reference overlapping are
    searched; when no such lag exists (proc shorter than 90% of ref) the
    inputs are rejected, and so are non-finite samples. Degenerate
    correlation falls back to lag 0.
    """
    r = _as_mono_array(ref)
    p = _as_mono_array(proc)
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
        r_seg, p_seg = r[:overlap], p[lag : lag + overlap]
    else:
        overlap = min(r.size + lag, p.size)
        r_seg, p_seg = r[-lag : -lag + overlap], p[:overlap]
    return r_seg, p_seg


def _masked_pearson(a, b):
    """Pearson r; 0 when either side has no variance."""
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom == 0.0:
        return 0.0
    return float(np.sum(a * b) / denom)


def _envelope_correlation(ref_env, proc_env, config):
    """Mean over included bands of max(r, 0); bands with too few audible
    frames are excluded; no included bands gives 0."""
    scores = []
    for band_ref, band_proc in zip(ref_env, proc_env):
        mask = band_ref > config.audibility_db
        if int(mask.sum()) < config.min_frames:
            continue
        scores.append(max(_masked_pearson(band_ref[mask], band_proc[mask]), 0.0))
    if not scores:
        return 0.0
    return float(np.mean(scores))


def _front_end(r_seg, p_seg, ear_levels, config, rate):
    """(ref_env, proc_env, ref_levels, proc_levels) of an aligned pair, in
    dB: one gammatone pass per segment, and the processed bands attenuated
    by the ear's audiogram."""
    _, centers = _gammatone_kernels(config, rate)
    attenuation = audiogram_band_attenuation(ear_levels, centers)
    ref_bands = gammatone_bands(r_seg, config, rate)
    proc_bands = gammatone_bands(p_seg, config, rate) * 10.0 ** (-attenuation[:, None] / 20.0)
    floor_lin = 10.0 ** (config.floor_db / 20.0)

    def levels(bands):
        return 20.0 * np.log10(np.maximum(np.sqrt(np.mean(bands**2, axis=1)), floor_lin))

    return (_envelopes(ref_bands, config, rate), _envelopes(proc_bands, config, rate),
            levels(ref_bands), levels(proc_bands))


def intelligibility_score(ref, proc, ear_levels, config=DEFAULT_CONFIG, rate=16000):
    """HASPI-like surrogate in [0, 1].

    ref is the clean reference; proc the processed ear signal; ear_levels
    the audiogram for the ear being scored (dB HL at the six standard
    frequencies).
    """
    if isinstance(ref, SampleBuffer):
        rate = ref.rate
    r_seg, p_seg = _aligned_pair(ref, proc)
    ref_env, proc_env, _, _ = _front_end(r_seg, p_seg, ear_levels, config, rate)
    return _envelope_correlation(ref_env, proc_env, config)


def quality_score(ref, proc, ear_levels, config=DEFAULT_CONFIG, rate=16000,
                  return_terms=False):
    """HASQI-like surrogate in [0, 1].

    Both signals are RMS-normalized to the config reference level, so a
    uniform gain on proc does not change the score. The score averages
    the envelope-correlation term with a spectral-naturalness term
    S = 1 - min(1, mean |dL| / scale) over long-term band levels.
    With return_terms the (score, correlation term, spectral term)
    triple comes back instead of the bare score.
    """
    if isinstance(ref, SampleBuffer):
        rate = ref.rate
    target = 10.0 ** (config.normalization_dbfs / 20.0)
    r_seg, p_seg = _aligned_pair(scale_to_rms(_as_mono_array(ref), target),
                                 scale_to_rms(_as_mono_array(proc), target))
    ref_env, proc_env, ref_levels, proc_levels = _front_end(r_seg, p_seg, ear_levels, config, rate)
    c_term = _envelope_correlation(ref_env, proc_env, config)
    s_term = 1.0 - min(1.0, float(np.mean(np.abs(proc_levels - ref_levels))) / config.spectral_scale_db)
    score = 0.5 * c_term + 0.5 * s_term
    if return_terms:
        return score, c_term, s_term
    return score


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
