import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len

from clarity_bench.audio import REFERENCE_RMS, convolve_channels, scale_to_rms
from clarity_bench.errors import AlignmentError
from clarity_bench.metrics import (
    CENTER_FREQUENCIES,
    ENVELOPE_CUTOFF,
    SPECTRAL_SCALE_DB,
    EarScore,
    MetricScore,
    _aligned_slices,
    _envelope_correlation,
    _envelopes,
    _gammatone_bank,
    _gammatone_kernels,
    _xcorr_best_lag,
    audiogram_band_attenuation,
    better_ear,
    combined_score,
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


def test_config_centers_increase_and_stay_below_nyquist():
    centers = CENTER_FREQUENCIES
    assert centers.size == 32
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 80.0
    assert centers[-1] < 8000.0


def test_gammatone_silence():
    bands = gammatone_bands(np.zeros(4000), rate=RATE)
    assert bands.shape == (32, 4000)
    assert not np.any(bands)


def test_gammatone_peak_band_matches_tone():
    centers = CENTER_FREQUENCIES
    t = np.arange(RATE) / RATE
    for k in (4, 12, 20, 28):
        tone = np.sin(2 * np.pi * centers[k] * t)
        bands = gammatone_bands(tone, rate=RATE)
        rms_per_band = np.sqrt(np.mean(bands**2, axis=1))
        assert int(np.argmax(rms_per_band)) == k


def test_gammatone_bandwidth_at_1khz():
    # the band response must be 3 dB down at +-half of 1.019*ERB(1000)
    k = int(np.argmin(np.abs(CENTER_FREQUENCIES - 1000.0)))
    fc = CENTER_FREQUENCIES[k]
    from clarity_bench.metrics import _gammatone_kernels

    kernels = _gammatone_kernels(RATE)
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


def test_gammatone_rejects_low_rate():
    with pytest.raises(ValueError):
        gammatone_bands(np.zeros(100), rate=8000)


def test_envelope_silence_sits_at_floor():
    env = _envelopes(np.zeros(RATE), RATE)
    assert env.shape[0] == 256
    assert np.all(env == -80.0)


def test_envelope_constant_tone_is_flat():
    t = np.arange(RATE) / RATE
    tone = 0.5 * np.sin(2 * np.pi * 1000 * t)
    env = _envelopes(tone, RATE)
    settled = env[30:]  # past 100 ms of filter settling
    assert settled.max() - settled.min() < 2.0
    assert np.abs(settled - np.median(settled)).max() < 1.0


def test_envelope_tracks_4hz_modulation():
    t = np.arange(2 * RATE) / RATE
    carrier = np.sin(2 * np.pi * 1000 * t)
    am = (1.0 + 0.8 * np.sin(2 * np.pi * 4.0 * t)) * carrier
    env = _envelopes(0.3 * am, RATE)
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
        r_slice, p_slice = _aligned_slices(x, proc)
        assert np.array_equal(x[r_slice], ref_seg)
        assert np.array_equal(proc[p_slice], ref_seg)


def test_align_degenerate_and_bad_lag():
    # All-zero input has no correlation peak, so the pair falls back to lag 0.
    r_slice, p_slice = _aligned_slices(np.zeros(100), np.ones(100))
    assert (r_slice, p_slice) == (slice(0, 100), slice(0, 100))
    with pytest.raises(AlignmentError):
        _xcorr_best_lag(np.zeros(100), np.ones(100), -10, 10)
    # No lag leaves 90% of the reference overlapping.
    with pytest.raises(ValueError, match="90%"):
        _aligned_slices(np.ones(100), np.ones(89))


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
    identity, _, s_identity = quality_score(x, x, ZERO_EAR, return_terms=True)
    degraded, _, s_degraded = quality_score(x, lowpassed, ZERO_EAR, return_terms=True)
    assert degraded < identity
    assert s_degraded < 1.0
    assert s_identity == pytest.approx(1.0, abs=1e-9)


def test_scores_bounded_for_arbitrary_inputs():
    rng = np.random.default_rng(55)
    x = speech(1.5, seed=13)
    junk = rng.uniform(-0.5, 0.5, x.size)
    for fn in (intelligibility_score, quality_score):
        v = fn(x, junk, np.array([30, 40, 50, 60, 70, 80]))
        assert 0.0 <= v <= 1.0


def test_combined_score_paper_rows():
    assert combined_score(0.266, 0.128).combined == pytest.approx(0.197)
    assert combined_score(0.797, 0.414).combined == pytest.approx(0.6055)
    assert combined_score(0.0, 0.0).combined == 0.0


def test_combined_score_validation():
    with pytest.raises(ValueError):
        combined_score(1.2, 0.0)
    with pytest.raises(ValueError):
        combined_score(0.5, -0.1)
    with pytest.raises(ValueError):
        MetricScore(haspi_like=0.4, hasqi_like=0.2, combined=0.35)


def test_better_ear():
    assert better_ear(0.4, 0.6) == 0.6
    assert better_ear(0.5, 0.5) == 0.5
    assert better_ear(0.0, 0.3) == 0.3


def test_audiogram_attenuation_lowers_scores():
    x = speech(2.0, seed=14)
    mild = intelligibility_score(x, x, np.array([10.0] * 6))
    severe = intelligibility_score(x, x, np.array([70.0] * 6))
    assert severe < mild <= 1.0


# --- the shared front end -------------------------------------------------


def count_gammatone_calls(monkeypatch):
    from clarity_bench import metrics

    calls = []
    original = metrics.gammatone_bands

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(metrics, "gammatone_bands", counted)
    return calls


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
def test_each_score_filters_each_signal_once(monkeypatch, score):
    x = speech(1.0, seed=15)
    calls = count_gammatone_calls(monkeypatch)
    score(x, 0.5 * x, ZERO_EAR)
    assert len(calls) == 2


def test_envelope_is_one_row_of_the_multiband_envelopes():
    bands = gammatone_bands(speech(1.0, seed=16), rate=RATE)
    assert bands.shape[0] == 32
    envelopes = _envelopes(bands, RATE)
    for k, row in enumerate(bands):
        assert np.array_equal(_envelopes(row, RATE), envelopes[k])


def test_envelope_decimation_equals_np_interp():
    from scipy.signal import butter, lfilter

    band = gammatone_bands(speech(1.0, seed=17), rate=RATE)[9]
    b, a = butter(2, ENVELOPE_CUTOFF, fs=RATE)
    smooth = lfilter(b, a, np.maximum(band, 0.0))
    positions = np.arange(256) * (RATE / 256.0)
    expected = 20.0 * np.log10(np.maximum(np.interp(positions, np.arange(band.size), smooth), 1e-4))
    assert np.array_equal(_envelopes(band, RATE), expected)


def test_quality_correlation_term_is_intelligibility_of_normalized_pair():
    rng = np.random.default_rng(18)
    x = speech(2.0, seed=18)
    proc = 0.3 * x + 0.02 * rng.standard_normal(x.size)
    ear = np.array([20.0, 25.0, 30.0, 40.0, 50.0, 60.0])
    normalized = [v * (REFERENCE_RMS / np.sqrt(np.mean(v * v))) for v in (x, proc)]
    _, c_term, _ = quality_score(x, proc, ear, return_terms=True)
    # quality_score applies its gain after filtering: equal up to rounding.
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


@pytest.mark.parametrize("score, kwargs", [
    (intelligibility_score, {}),
    (quality_score, {}),
    (quality_score, {"return_terms": True}),
])
@pytest.mark.parametrize("ears", [SHARED, APART], ids=["shared", "apart"])
def test_two_ear_call_equals_the_per_ear_calls(score, kwargs, ears):
    both = score(X, ears, EAR_ROWS, **kwargs)
    assert both == tuple(score(X, row, levels, **kwargs) for row, levels in zip(ears, EAR_ROWS))


def test_two_ear_test_signals_align_as_intended():
    shared = [_aligned_slices(X, row)[0] for row in SHARED]
    apart = [_aligned_slices(X, row)[0] for row in APART]
    assert shared == [slice(0, X.size)] * 2
    assert apart == [slice(0, X.size - 40), slice(60, X.size)]


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
@pytest.mark.parametrize("ears, passes", [(SHARED, 3), (APART, 4)], ids=["shared", "apart"])
def test_two_ear_call_filters_a_shared_reference_once(monkeypatch, score, ears, passes):
    calls = count_gammatone_calls(monkeypatch)
    score(X, ears, EAR_ROWS)
    assert len(calls) == passes


@pytest.mark.parametrize("proc, levels", [
    (SHARED, EAR_ROWS[0]),
    (SHARED, EAR_ROWS[:1]),
    (SHARED, np.zeros((2, 5))),
    (SHARED[0], EAR_ROWS),
    (SHARED[None], EAR_ROWS),
])
def test_scores_need_one_audiogram_row_per_signal_row(proc, levels):
    for score in (intelligibility_score, quality_score):
        with pytest.raises(ValueError, match="one audiogram"):
            score(X, proc, levels)


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
    for score in (intelligibility_score, quality_score):
        both = score(x, ears, EAR_ROWS)
        assert both == tuple(score(x, row, levels) for row, levels in zip(ears, EAR_ROWS))
        assert all(0.0 <= v <= 1.0 for v in both)


def prescaled_front_end(ref, proc, ear_levels, quality):
    """One ear's front end for one metric, the quality gain applied to the
    waveforms: the quality path scales both to REFERENCE_RMS first and
    aligns the scaled pair. Returns (ref dB envelopes, proc dB envelopes,
    ref dB band levels, proc dB band levels, lag)."""
    if quality:
        ref, proc = scale_to_rms(ref, REFERENCE_RMS), scale_to_rms(proc, REFERENCE_RMS)
    r_slice, p_slice = _aligned_slices(ref, proc)
    attenuation = audiogram_band_attenuation(ear_levels, CENTER_FREQUENCIES)
    ref_bands = gammatone_bands(ref[r_slice], RATE)
    proc_bands = gammatone_bands(proc[p_slice], RATE) * 10.0 ** (-attenuation[:, None] / 20.0)
    levels = [20.0 * np.log10(np.maximum(np.sqrt(np.mean(b**2, axis=1)), 1e-4))
              for b in (ref_bands, proc_bands)]
    return (_envelopes(ref_bands, RATE), _envelopes(proc_bands, RATE), *levels,
            p_slice.start - r_slice.start)


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
    assert [e.haspi_like for e in got] == list(intelligibility_score(X, ears, EAR_ROWS))
    terms = quality_score(X, ears, EAR_ROWS, return_terms=True)
    assert [(e.hasqi_like, e.hasqi_like_correlation, e.hasqi_like_spectral) for e in got] == list(terms)
    lags = [p.start - r.start for r, p in (_aligned_slices(X, row) for row in ears)]
    assert [e.lag for e in got] == lags == ([40, 70] if ears is SHARED else [40, -60])


# --- the gammatone kernel spectra -------------------------------------------


def test_gammatone_bands_keep_the_bits_of_convolve_channels_across_lengths():
    # Alternating lengths replaces the memoized spectrum each call; a stale
    # spectrum would change (or fail to broadcast with) the signal's.
    kernels = _gammatone_kernels(RATE)
    signals = [speech(0.5, seed=23), speech(0.8, seed=24)]
    for x in signals * 2:
        assert np.array_equal(gammatone_bands(x, RATE), convolve_channels(kernels, x)[:, : x.size])


def test_gammatone_memo_holds_one_fft_length():
    bank = _gammatone_bank(RATE)
    taps = _gammatone_kernels(RATE).shape[1]
    for seconds in (0.5, 0.8, 0.5):
        x = speech(seconds, seed=25)
        gammatone_bands(x, RATE)
        nfft = next_fast_len(x.size + taps - 1, real=True)
        assert set(vars(bank)) == {"kernels", "_memo"}
        memo_nfft, spectrum = bank._memo
        assert memo_nfft == nfft
        assert spectrum.shape == (32, nfft // 2 + 1)
