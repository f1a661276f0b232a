import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.signal import butter, lfilter

from clarity_bench import metrics
from clarity_bench.audio import REFERENCE_RMS, convolve_channels, scale_to_rms
from clarity_bench.hearing_aid import interpolate_audiogram
from clarity_bench.metrics import (
    AUDIBILITY_DB,
    BANDS,
    CENTER_FREQUENCIES,
    ENVELOPE_CUTOFF,
    MIN_FRAMES,
    SPECTRAL_SCALE_DB,
    _GAMMATONE_BANK,
    EarScore,
    _aligned_slices,
    _band_features,
    _db,
    _envelope_biquad,
    _envelope_correlation,
    _gammatone_kernels,
    _smoothed,
    ear_scores,
    erb,
    gammatone_bands,
    intelligibility_score,
    quality_score,
)
from clarity_bench.signals import speech_like

RATE = 16000
ZERO_EAR = np.zeros(6)


def speech(seconds=2.0, seed=0, level=0.1):
    x = speech_like(seconds, seed=seed)
    return x * (level / np.sqrt(np.mean(x**2)))


def one_ear(ref, proc, ear_levels):
    """The EarScore of proc alone: an ear_scores call with one row."""
    (score,) = ear_scores(ref, np.asarray(proc)[None], np.asarray(ear_levels)[None])
    return score


def test_config_centers_increase_and_stay_below_nyquist():
    centers = CENTER_FREQUENCIES
    assert centers.size == 32
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 80.0
    assert centers[-1] < 8000.0


def test_gammatone_silence():
    bands = gammatone_bands(np.zeros(4000))
    assert bands.shape == (32, 4000)
    assert not np.any(bands)


def test_gammatone_peak_band_matches_tone():
    centers = CENTER_FREQUENCIES
    t = np.arange(RATE) / RATE
    for k in (4, 12, 20, 28):
        tone = np.sin(2 * np.pi * centers[k] * t)
        bands = gammatone_bands(tone)
        rms_per_band = np.sqrt(np.mean(bands**2, axis=1))
        assert int(np.argmax(rms_per_band)) == k


def test_gammatone_bandwidth_at_1khz():
    # the band response must be 3 dB down at +-half of 1.019*ERB(1000)
    k = int(np.argmin(np.abs(CENTER_FREQUENCIES - 1000.0)))
    fc = CENTER_FREQUENCIES[k]
    from clarity_bench.metrics import _gammatone_kernels

    kernels = _gammatone_kernels()
    spectrum = np.abs(np.fft.rfft(kernels[k], 1 << 18))
    freqs = np.fft.rfftfreq(1 << 18, 1.0 / RATE)
    peak = spectrum.max()
    above = spectrum >= peak / np.sqrt(2.0)
    lo = freqs[np.argmax(above)]
    hi = freqs[len(above) - 1 - np.argmax(above[::-1])]
    expected = 1.019 * float(erb(fc))
    assert hi - lo == pytest.approx(expected, rel=0.10)
    # the spec example pins the 1 kHz ERB arithmetic
    assert 1.019 * float(erb(1000.0)) == pytest.approx(135.1, abs=0.2)


def test_envelope_silence_sits_at_floor():
    env = _db(_smoothed(np.zeros(RATE)))
    assert env.shape[0] == 256
    assert np.all(env == -80.0)


def test_envelope_constant_tone_is_flat():
    t = np.arange(RATE) / RATE
    tone = 0.5 * np.sin(2 * np.pi * 1000 * t)
    env = _db(_smoothed(tone))
    settled = env[30:]  # past 100 ms of filter settling
    assert settled.max() - settled.min() < 2.0
    assert np.abs(settled - np.median(settled)).max() < 1.0


def test_envelope_tracks_4hz_modulation():
    t = np.arange(2 * RATE) / RATE
    carrier = np.sin(2 * np.pi * 1000 * t)
    am = (1.0 + 0.8 * np.sin(2 * np.pi * 4.0 * t)) * carrier
    env = _db(_smoothed(0.3 * am))
    env = env - env.mean()
    spectrum = np.abs(np.fft.rfft(env * np.hanning(env.size)))
    freqs = np.fft.rfftfreq(env.size, 1 / 256.0)
    peak = freqs[1:][np.argmax(spectrum[1:])]
    assert peak == pytest.approx(4.0, abs=0.5)


def test_align_identical_and_shifted():
    x = speech(1.0, seed=3)
    for proc, ref_seg in (
        (x, x),                                    # lag 0
        (np.concatenate([np.zeros(63), x]), x),    # proc delayed by 63
        (x[63:], x[63:]),                          # proc advanced by 63
    ):
        (r_slice, p_slice), = _aligned_slices(x, proc[None])
        assert np.array_equal(x[r_slice], ref_seg)
        assert np.array_equal(proc[p_slice], ref_seg)


def test_align_degenerate_and_bad_lag():
    # All-zero input has no correlation peak, so the pair falls back to lag
    # 0; in a batch only the degenerate row does.
    assert _aligned_slices(np.zeros(100), np.ones((2, 100))) == [(slice(0, 100), slice(0, 100))] * 2
    x = speech(1.0, seed=3)
    rows = np.stack([np.zeros(x.size + 63), np.concatenate([np.zeros(63), x])])
    assert _aligned_slices(x, rows) == [(slice(0, x.size), slice(0, x.size)),
                                        (slice(0, x.size), slice(63, x.size + 63))]
    # No lag leaves 90% of the reference overlapping.
    with pytest.raises(ValueError, match="90%"):
        _aligned_slices(np.ones(100), np.ones((1, 89)))


def test_intelligibility_identity():
    x = speech(2.0, seed=5)
    assert intelligibility_score(x, x, ZERO_EAR) >= 0.99


def test_intelligibility_silence_scores_zero():
    x = speech(2.0, seed=6)
    assert intelligibility_score(x, np.zeros_like(x), ZERO_EAR) == 0.0


def test_intelligibility_snr_ladder_strictly_decreasing():
    rng = np.random.default_rng(40)
    x = speech(2.5, seed=7)
    noise = rng.standard_normal(x.size)
    noise *= np.sqrt(np.mean(x**2)) / np.sqrt(np.mean(noise**2))
    scores = []
    for snr in (12.0, 6.0, 0.0, -6.0):
        proc = x + noise * 10 ** (-snr / 20.0)
        scores.append(intelligibility_score(x, proc, ZERO_EAR))
    assert all(b < a for a, b in zip(scores, scores[1:])), scores


def test_intelligibility_uniform_gain_invariance():
    x = speech(2.0, seed=8, level=0.15)
    base = intelligibility_score(x, x, ZERO_EAR)
    for gain_db in (-20.0, -6.0, 6.0, 20.0):
        scaled = x * 10 ** (gain_db / 20.0)
        assert intelligibility_score(x, scaled, ZERO_EAR) == pytest.approx(base, abs=1e-6)


def test_intelligibility_length_mismatch_rejected():
    x = speech(2.0, seed=9)
    with pytest.raises(ValueError):
        intelligibility_score(x, x[: x.size // 2], ZERO_EAR)


def test_quality_identity():
    x = speech(2.0, seed=10)
    assert quality_score(x, x, ZERO_EAR) >= 0.99


def test_quality_uniform_gain_invariance():
    x = speech(2.0, seed=11)
    base = quality_score(x, x, ZERO_EAR)
    boosted = quality_score(x, x * 10 ** (10 / 20.0), ZERO_EAR)
    assert boosted == pytest.approx(base, abs=1e-6)


def test_quality_lowpass_penalized():
    x = speech(2.5, seed=12)
    spectrum = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, 1.0 / RATE)
    spectrum[freqs > 1000.0] = 0.0
    lowpassed = np.fft.irfft(spectrum, x.size)
    identity, degraded = one_ear(x, x, ZERO_EAR), one_ear(x, lowpassed, ZERO_EAR)
    assert degraded.hasqi_like < identity.hasqi_like
    assert degraded.hasqi_like_spectral < 1.0
    assert identity.hasqi_like_spectral == pytest.approx(1.0, abs=1e-9)


def test_scores_bounded_for_arbitrary_inputs():
    rng = np.random.default_rng(55)
    x = speech(1.5, seed=13)
    junk = rng.uniform(-0.5, 0.5, x.size)
    for fn in (intelligibility_score, quality_score):
        v = fn(x, junk, np.array([30, 40, 50, 60, 70, 80]))
        assert 0.0 <= v <= 1.0


def test_audiogram_attenuation_lowers_scores():
    x = speech(2.0, seed=14)
    mild = intelligibility_score(x, x, np.array([10.0] * 6))
    severe = intelligibility_score(x, x, np.array([70.0] * 6))
    assert severe < mild <= 1.0


# --- the shared front end -------------------------------------------------


def count_front_end_calls(monkeypatch):
    """Counts the signals that enter the per-signal front end."""
    calls = []
    original = metrics._band_features

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "_band_features", counted)
    return calls


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
def test_each_score_filters_each_signal_once(monkeypatch, score):
    x = speech(1.0, seed=15)
    calls = count_front_end_calls(monkeypatch)
    score(x, 0.5 * x, ZERO_EAR)
    assert len(calls) == 2


def test_envelope_is_one_row_of_the_multiband_envelopes():
    bands = gammatone_bands(speech(1.0, seed=16))
    assert bands.shape[0] == 32
    envelopes = _db(_smoothed(bands))
    for k, row in enumerate(bands):
        assert np.array_equal(_db(_smoothed(row)), envelopes[k])


# The smoother and lfilter round differently; lfilter's own recursion
# rounds at about 1e-13 of the peak (poles at radius 0.991), and the two
# differ by under 1e-12 on speech bands.
ENVELOPE_TOLERANCE = 1e-10   # of each row's peak envelope


def lfilter_envelopes(bands):
    """The envelope oracle: scipy.signal butter + lfilter, then np.interp
    at the 256 Hz frame positions."""
    b, a = butter(2, ENVELOPE_CUTOFF, fs=RATE)
    smooth = lfilter(b, a, np.maximum(bands, 0.0), axis=-1)
    n = smooth.shape[-1]
    positions = np.arange(n * 256 // RATE) * (RATE / 256.0)
    rows = [np.interp(positions, np.arange(n), row) for row in smooth.reshape(-1, n)]
    return np.reshape(rows, (*bands.shape[:-1], positions.size))


def assert_envelopes_match_lfilter(bands):
    ours, expected = _smoothed(bands), lfilter_envelopes(bands)
    assert ours.shape == expected.shape
    peak = np.abs(expected).max(axis=-1, keepdims=True, initial=0.0)
    assert np.all(np.abs(ours - expected) <= ENVELOPE_TOLERANCE * peak)


def test_envelope_decimation_equals_np_interp():
    assert_envelopes_match_lfilter(gammatone_bands(speech(1.0, seed=17)))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 400), rows=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(n=1, rows=2, seed=0)      # no frame
@example(n=62, rows=0, seed=1)     # no frame
@example(n=63, rows=1, seed=2)
@example(n=124, rows=2, seed=3)
@example(n=125, rows=1, seed=4)    # one whole block
@example(n=126, rows=3, seed=5)
@example(n=250, rows=2, seed=6)
def test_envelope_equals_lfilter_at_any_length(n, rows, seed):
    # rows == 0 draws one 1-D signal
    rng = np.random.default_rng(seed)
    assert_envelopes_match_lfilter(rng.standard_normal((rows, n) if rows else n))


def test_envelope_biquad_is_scipys_butterworth():
    b0, pole = _envelope_biquad()
    b, a = butter(2, ENVELOPE_CUTOFF, fs=RATE)
    np.testing.assert_array_max_ulp(b0 * np.array([1.0, 2.0, 1.0]), b, maxulp=4)
    np.testing.assert_array_max_ulp(np.poly([pole, pole.conjugate()]).real, a, maxulp=4)


def test_quality_correlation_term_is_intelligibility_of_normalized_pair():
    rng = np.random.default_rng(18)
    x = speech(2.0, seed=18)
    proc = 0.3 * x + 0.02 * rng.standard_normal(x.size)
    ear = np.array([20.0, 25.0, 30.0, 40.0, 50.0, 60.0])
    normalized = [v * (REFERENCE_RMS / np.sqrt(np.mean(v * v))) for v in (x, proc)]
    c_term = one_ear(x, proc, ear).hasqi_like_correlation
    # The quality gain is applied after filtering: equal up to rounding.
    assert c_term == pytest.approx(intelligibility_score(*normalized, ear), abs=1e-12)


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
@pytest.mark.parametrize("side", ["ref", "proc"])
def test_scores_reject_nan_input(score, side):
    x = speech(1.0, seed=19)
    bad = x.copy()
    bad[100] = np.nan
    pair = (bad, x) if side == "ref" else (x, bad)
    with pytest.raises(ValueError, match="finite"):
        score(*pair, ZERO_EAR)


# --- both ears in one call ------------------------------------------------


def shifted(x, lag, length):
    """x delayed by lag samples (advanced when lag < 0), cut or padded to length."""
    out = np.zeros(length)
    src = x[max(0, -lag):]
    start = max(0, lag)
    n = min(src.size, length - start)
    out[start : start + n] = src[:n]
    return out


def two_ears(x, lags, length, gains=(1.0, 0.5), noise=0.02, seed=20):
    rng = np.random.default_rng(seed)
    return np.stack([
        gain * shifted(x, lag, length) + noise * rng.standard_normal(length)
        for lag, gain in zip(lags, gains)
    ])


EAR_ROWS = np.array([[10.0, 15.0, 20.0, 30.0, 40.0, 50.0],
                     [0.0, 0.0, 10.0, 20.0, 20.0, 30.0]])
X = speech(1.0, seed=21)
# lags 40 and 70 both overlap the whole reference, so its segment is shared;
# lags 40 and -60 trim it differently, so nothing is shared.
SHARED = two_ears(X, (40, 70), X.size + 100)
APART = two_ears(X, (40, -60), X.size)


def test_two_ear_test_signals_align_as_intended():
    shared = [r for r, _ in _aligned_slices(X, SHARED)]
    apart = [r for r, _ in _aligned_slices(X, APART)]
    assert shared == [slice(0, X.size)] * 2
    assert apart == [slice(0, X.size - 40), slice(60, X.size)]


# Each view is one EarScore field; the third case also compares the two
# quality terms that hasqi_like averages.
@pytest.mark.parametrize("score, kwargs", [
    (intelligibility_score, {"field": "haspi_like"}),
    (quality_score, {"field": "hasqi_like"}),
    (quality_score, {"field": "hasqi_like", "terms": ("hasqi_like_correlation", "hasqi_like_spectral")}),
])
@pytest.mark.parametrize("ears", [SHARED, APART], ids=["shared", "apart"])
def test_two_ear_call_equals_the_per_ear_calls(score, kwargs, ears):
    both = ear_scores(X, ears, EAR_ROWS)
    pairs = list(zip(ears, EAR_ROWS))
    assert [getattr(e, kwargs["field"]) for e in both] == [score(X, *pair) for pair in pairs]
    for term in kwargs.get("terms", ()):
        assert [getattr(e, term) for e in both] == [getattr(one_ear(X, *pair), term) for pair in pairs]


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
@pytest.mark.parametrize("ears, passes", [(SHARED, 3), (APART, 4)], ids=["shared", "apart"])
def test_two_ear_call_filters_a_shared_reference_once(monkeypatch, score, ears, passes):
    calls = count_front_end_calls(monkeypatch)
    ear_scores(X, ears, EAR_ROWS)
    assert len(calls) == passes
    # A one-ear view filters its reference and its ear once each.
    calls.clear()
    score(X, ears[0], EAR_ROWS[0])
    assert len(calls) == 2


@pytest.mark.parametrize("proc, levels", [
    (SHARED, EAR_ROWS[0]),
    (SHARED, EAR_ROWS[:1]),
    (SHARED, np.zeros((2, 5))),
    (SHARED[0], EAR_ROWS),
    (SHARED[None], EAR_ROWS),
    (SHARED, np.full((2, 6), np.nan)),
    (SHARED, np.where(EAR_ROWS == 40.0, np.inf, EAR_ROWS)),
    (SHARED[0], np.full(6, np.nan)),
    (SHARED[0], np.full(6, -np.inf)),
    (SHARED, np.full((2, 6), -500.0)),
    (SHARED, np.full((2, 6), 1e6)),
    (SHARED[0], np.full(6, -500.0)),
    (SHARED[0], np.full(6, 1e6)),
])
def test_scores_need_one_audiogram_row_per_signal_row(proc, levels):
    for score in (ear_scores, intelligibility_score, quality_score):
        with pytest.raises(ValueError, match="one audiogram"):
            score(X, proc, levels)


def test_ear_scores_take_rows_only():
    # One 1-D ear goes through the one-ear views, not ear_scores.
    with pytest.raises(ValueError, match="one processed ear per row"):
        ear_scores(X, SHARED[0], EAR_ROWS[0])


def test_ear_scores_take_a_reference_as_one_row():
    assert ear_scores(X[None], SHARED, EAR_ROWS) == ear_scores(X, SHARED, EAR_ROWS)


@pytest.mark.parametrize("ref", [np.stack([X, X]), X[:, None], X[None, None], np.zeros(0), np.zeros((1, 0))],
                         ids=["two-rows", "column", "3-d", "empty", "empty-row"])
def test_scores_reject_a_reference_that_is_not_one_channel(ref):
    for score, proc, levels in ((ear_scores, SHARED, EAR_ROWS),
                                (intelligibility_score, SHARED[0], EAR_ROWS[0]),
                                (quality_score, SHARED[0], EAR_ROWS[0])):
        with pytest.raises(ValueError, match="reference must be one non-empty channel"):
            score(ref, proc, levels)


LONG_SPEECH = speech(1.2, seed=22)
TWO_EAR_DRAWS = given(
    n=st.integers(6000, 16000),
    extra=st.integers(0, 300),
    lags=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
    gains=st.tuples(st.floats(0.05, 4.0), st.floats(0.05, 4.0)),
    noise=st.floats(0.0, 0.2),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=15, deadline=None)
@TWO_EAR_DRAWS
def test_two_ear_scores_are_the_per_ear_scores_and_bounded(n, extra, lags, gains, noise, seed):
    x = LONG_SPEECH[:n]
    ears = two_ears(x, lags, n + extra, gains, noise, seed)
    both = ear_scores(x, ears, EAR_ROWS)
    assert both == tuple(one_ear(x, row, levels) for row, levels in zip(ears, EAR_ROWS))
    for e in both:
        assert all(0.0 <= v <= 1.0 for v in (
            e.haspi_like, e.hasqi_like, e.hasqi_like_correlation, e.hasqi_like_spectral))


def per_ear_slices(r, p):
    """One ear aligned alone, as before the ears shared a cross-correlation:
    its own convolve_channels with the reversed reference, peak over the
    lags that keep 90% overlap, lag 0 when either signal is all zero."""
    needed = int(np.ceil(0.9 * r.size))
    lag = 0
    if np.linalg.norm(r) * np.linalg.norm(p) != 0.0:
        corr = convolve_channels(p, r[::-1])
        center = r.size - 1
        lo = max(0, center - (r.size - needed))
        hi = min(corr.size, center + p.size - needed + 1)
        lag = int(np.argmax(corr[lo:hi])) + lo - center
    if lag >= 0:
        overlap = min(r.size, p.size - lag)
        return slice(0, overlap), slice(lag, lag + overlap)
    overlap = min(r.size + lag, p.size)
    return slice(-lag, -lag + overlap), slice(0, overlap)


@settings(max_examples=15, deadline=None)
@TWO_EAR_DRAWS
def test_one_cross_correlation_aligns_each_ear_as_alone(n, extra, lags, gains, noise, seed):
    x = LONG_SPEECH[:n]
    ears = two_ears(x, lags, n + extra, gains, noise, seed)
    batched = convolve_channels(ears, x[::-1])
    for row, corr in zip(ears, batched):
        assert np.array_equal(corr, convolve_channels(row, x[::-1]))
    assert _aligned_slices(x, ears) == [per_ear_slices(x, row) for row in ears]


def prescaled_front_end(ref, proc, ear_levels, quality):
    """One ear's front end for one metric, the quality gain applied to the
    waveforms: the quality path scales both to REFERENCE_RMS first and
    aligns the scaled pair. Returns (ref dB envelopes, proc dB envelopes,
    ref dB band levels, proc dB band levels, lag)."""
    if quality:
        ref, proc = scale_to_rms(ref, REFERENCE_RMS), scale_to_rms(proc, REFERENCE_RMS)
    r_slice, p_slice = per_ear_slices(ref, proc)
    attenuation = interpolate_audiogram(ear_levels, CENTER_FREQUENCIES)
    ref_bands = gammatone_bands(ref[r_slice])
    proc_bands = gammatone_bands(proc[p_slice]) * 10.0 ** (-attenuation[:, None] / 20.0)
    levels = [20.0 * np.log10(np.maximum(np.sqrt(np.mean(b**2, axis=1)), 1e-4))
              for b in (ref_bands, proc_bands)]
    return (_db(_smoothed(ref_bands)), _db(_smoothed(proc_bands)), *levels,
            p_slice.start - r_slice.start)


def per_band_envelope_correlation(ref_env, proc_env):
    """The envelope correlation as a plain loop of np.mean Pearsons, band by band."""
    scores = []
    for band_ref, band_proc in zip(ref_env, proc_env):
        mask = band_ref > AUDIBILITY_DB
        if mask.sum() < MIN_FRAMES:
            continue
        a = band_ref[mask] - band_ref[mask].mean()
        b = band_proc[mask] - band_proc[mask].mean()
        denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
        scores.append(max(float(np.sum(a * b) / denom) if denom else 0.0, 0.0))
    return float(np.mean(scores)) if scores else 0.0


def test_envelope_correlation_keeps_the_bits_of_the_per_band_loop():
    rng = np.random.default_rng(11)
    for draw in range(300):
        frames = int(rng.integers(MIN_FRAMES // 2, 900))
        ref_env = rng.normal(AUDIBILITY_DB + rng.normal(0, 10), 15, (32, frames))
        proc_env = rng.uniform(-1, 1) * ref_env + rng.normal(0, rng.uniform(0.1, 30), ref_env.shape)
        if draw % 5 == 0:
            proc_env[: draw % 32] = 3.0   # bands with no variance score 0
        assert _envelope_correlation(ref_env, proc_env) == per_band_envelope_correlation(
            ref_env, proc_env), draw


def two_pass_ear_score(ref, proc, ear_levels):
    """EarScore of one ear from two front-end passes, one per metric."""
    ref_env, proc_env, _, _, lag = prescaled_front_end(ref, proc, ear_levels, quality=False)
    haspi = _envelope_correlation(ref_env, proc_env)
    ref_env, proc_env, ref_levels, proc_levels, quality_lag = prescaled_front_end(
        ref, proc, ear_levels, quality=True)
    assert quality_lag == lag
    c_term = _envelope_correlation(ref_env, proc_env)
    s_term = 1.0 - min(1.0, float(np.mean(np.abs(proc_levels - ref_levels))) / SPECTRAL_SCALE_DB)
    return EarScore(haspi, 0.5 * c_term + 0.5 * s_term, c_term, s_term, lag)


@settings(max_examples=15, deadline=None)
@TWO_EAR_DRAWS
def test_one_front_end_matches_one_pass_per_metric(n, extra, lags, gains, noise, seed):
    x = LONG_SPEECH[:n]
    ears = two_ears(x, lags, n + extra, gains, noise, seed)
    for got, levels, row in zip(ear_scores(x, ears, EAR_ROWS), EAR_ROWS, ears):
        want = two_pass_ear_score(x, row, levels)
        assert got.lag == want.lag
        assert got.haspi_like == want.haspi_like
        for field in ("hasqi_like", "hasqi_like_correlation", "hasqi_like_spectral"):
            assert getattr(got, field) == pytest.approx(getattr(want, field), abs=1e-12)


@pytest.mark.parametrize("ears", [SHARED, APART], ids=["shared", "apart"])
def test_ear_scores_gather_both_scores_and_the_lags(ears):
    got = ear_scores(X, ears, EAR_ROWS)
    pairs = list(zip(ears, EAR_ROWS))
    assert got == tuple(one_ear(X, *pair) for pair in pairs)
    assert [e.haspi_like for e in got] == [intelligibility_score(X, *pair) for pair in pairs]
    assert [e.hasqi_like for e in got] == [quality_score(X, *pair) for pair in pairs]
    for e in got:
        assert e.hasqi_like == 0.5 * e.hasqi_like_correlation + 0.5 * e.hasqi_like_spectral
    lags = [p.start - r.start for r, p in (per_ear_slices(X, row) for row in ears)]
    assert [e.lag for e in got] == lags == ([40, 70] if ears is SHARED else [40, -60])


# --- the gammatone kernel spectra -------------------------------------------


def test_gammatone_bands_keep_the_bits_of_convolve_channels_across_lengths():
    # Alternating lengths replaces the bank's memoized spectrum each call;
    # a stale spectrum would change (or fail to broadcast with) the
    # signal's. gammatone_bands computes its bands without the bank, so
    # the bank's rows are checked here too.
    kernels = _gammatone_kernels()
    signals = [speech(0.5, seed=23), speech(0.8, seed=24)]
    for x in signals * 2:
        expected = convolve_channels(kernels, x)
        assert np.array_equal(gammatone_bands(x), expected[:, : x.size])
        rows = [chunk.copy() for chunk in _GAMMATONE_BANK.convolve_rows(x, metrics.BAND_CHUNK, {})]
        assert np.array_equal(np.concatenate(rows), expected)


def test_gammatone_memo_holds_one_fft_length():
    # The front end fills the memo; gammatone_bands, its oracle, does not.
    bank = _GAMMATONE_BANK
    taps = _gammatone_kernels().shape[1]
    for seconds in (0.5, 0.8, 0.5):
        x = speech(seconds, seed=25)
        _band_features(x, None, {})
        nfft = next_fast_len(x.size + taps - 1, real=True)
        assert set(vars(bank)) == {"kernels", "_memo"}
        memo_nfft, spectrum = bank._memo
        assert memo_nfft == nfft
        assert spectrum.shape == (32, nfft // 2 + 1)


@pytest.mark.parametrize("chunk", [1, 3, metrics.BAND_CHUNK, BANDS])
def test_band_features_stream_without_changing_a_bit(monkeypatch, chunk):
    # One scratch serves every length, as in an ear_scores call; 2,047
    # frames is shorter than a kernel, and 3 bands per chunk leave a
    # shorter last chunk.
    monkeypatch.setattr(metrics, "BAND_CHUNK", chunk)
    gains = 10.0 ** (-interpolate_audiogram(EAR_ROWS[0], CENTER_FREQUENCIES) / 20.0)
    scratch = {}
    for n in (1, 2047, 12345, 28800, 2047):
        x = np.random.default_rng(n).standard_normal(n)
        for scale in (None, gains):
            bands = gammatone_bands(x) if scale is None else gammatone_bands(x) * scale[:, None]
            envelopes, levels = _band_features(x, scale, scratch)
            assert np.array_equal(envelopes, _smoothed(bands)), n
            assert np.array_equal(levels, np.sqrt(np.mean(bands**2, axis=1))), n


def test_ear_scores_hold_a_chunk_of_bands_not_all_of_them():
    # A two-ear call on a 28,800-frame reference. Holding every band of a
    # signal at full rate (product, inverse, attenuated and rectified
    # copies) traced 23-24 MiB above the start; the kernel spectrum memo is
    # filled by the first call, so the second traces the front end alone.
    x = speech(1.8, seed=26)
    ears = two_ears(x, (40, 70), x.size + 1000)
    ear_scores(x, ears, EAR_ROWS)
    tracemalloc.start()
    try:
        scores = ear_scores(x, ears, EAR_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [s.lag for s in scores] == [40, 70]
    assert peak <= 12 * 2**20


def test_alignment_correlates_only_the_searched_lags():
    # A 10 s reference and two 10 s ears: the whole cross-correlation
    # (319,999 lags at FFT length 320,000) traced 12.2 MiB; the 32,001
    # searched lags run at FFT length 177,147 (3^11).
    x = speech(10.0, seed=27)
    ears = two_ears(x, (40, -70), x.size)
    _aligned_slices(x, ears)
    tracemalloc.start()
    try:
        slices = _aligned_slices(x, ears)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [p.start - r.start for r, p in slices] == [40, -70]
    assert peak < 9 * 2**20
