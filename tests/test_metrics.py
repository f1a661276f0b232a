import numpy as np
import pytest

from clarity_bench.errors import AlignmentError
from clarity_bench.metrics import (
    DEFAULT_CONFIG,
    AuditoryConfig,
    MetricScore,
    _aligned_pair,
    _envelopes,
    _xcorr_best_lag,
    better_ear,
    combined_score,
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
    centers = DEFAULT_CONFIG.center_frequencies()
    assert centers.size == 32
    assert np.all(np.diff(centers) > 0)
    assert centers[0] > 80.0
    assert centers[-1] < 8000.0


def test_gammatone_silence():
    bands = gammatone_bands(np.zeros(4000), rate=RATE)
    assert bands.shape == (32, 4000)
    assert not np.any(bands)


def test_gammatone_peak_band_matches_tone():
    centers = DEFAULT_CONFIG.center_frequencies()
    t = np.arange(RATE) / RATE
    for k in (4, 12, 20, 28):
        tone = np.sin(2 * np.pi * centers[k] * t)
        bands = gammatone_bands(tone, rate=RATE)
        rms_per_band = np.sqrt(np.mean(bands**2, axis=1))
        assert int(np.argmax(rms_per_band)) == k


def test_gammatone_bandwidth_at_1khz():
    # the band response must be 3 dB down at +-half of 1.019*ERB(1000)
    config = DEFAULT_CONFIG
    centers = config.center_frequencies()
    k = int(np.argmin(np.abs(centers - 1000.0)))
    fc = centers[k]
    from clarity_bench.metrics import _gammatone_kernels

    kernels, _ = _gammatone_kernels(config, RATE)
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
    env = _envelopes(np.zeros(RATE), DEFAULT_CONFIG, RATE)
    assert env.shape[0] == 256
    assert np.all(env == -80.0)


def test_envelope_constant_tone_is_flat():
    t = np.arange(RATE) / RATE
    tone = 0.5 * np.sin(2 * np.pi * 1000 * t)
    env = _envelopes(tone, DEFAULT_CONFIG, RATE)
    settled = env[30:]  # past 100 ms of filter settling
    assert settled.max() - settled.min() < 2.0
    assert np.abs(settled - np.median(settled)).max() < 1.0


def test_envelope_tracks_4hz_modulation():
    t = np.arange(2 * RATE) / RATE
    carrier = np.sin(2 * np.pi * 1000 * t)
    am = (1.0 + 0.8 * np.sin(2 * np.pi * 4.0 * t)) * carrier
    env = _envelopes(0.3 * am, DEFAULT_CONFIG, RATE)
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
        r_seg, p_seg = _aligned_pair(x, proc)
        assert np.array_equal(r_seg, ref_seg)
        assert np.array_equal(p_seg, ref_seg)


def test_align_degenerate_and_bad_lag():
    # All-zero input has no correlation peak, so the pair falls back to lag 0.
    r_seg, p_seg = _aligned_pair(np.zeros(100), np.ones(100))
    assert r_seg.size == 100 and np.array_equal(p_seg, np.ones(100))
    with pytest.raises(AlignmentError):
        _xcorr_best_lag(np.zeros(100), np.ones(100), -10, 10)
    # No lag leaves 90% of the reference overlapping.
    with pytest.raises(ValueError, match="90%"):
        _aligned_pair(np.ones(100), np.ones(89))


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


def test_config_is_hashable_and_custom():
    config = AuditoryConfig(bands=16)
    assert hash(config) != hash(DEFAULT_CONFIG)
    bands = gammatone_bands(np.zeros(1000), config, rate=RATE)
    assert bands.shape[0] == 16


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
    envelopes = _envelopes(bands, DEFAULT_CONFIG, RATE)
    for k, row in enumerate(bands):
        assert np.array_equal(_envelopes(row, DEFAULT_CONFIG, RATE), envelopes[k])


def test_envelope_decimation_equals_np_interp():
    from scipy.signal import butter, lfilter

    band = gammatone_bands(speech(1.0, seed=17), rate=RATE)[9]
    b, a = butter(2, DEFAULT_CONFIG.envelope_cutoff, fs=RATE)
    smooth = lfilter(b, a, np.maximum(band, 0.0))
    positions = np.arange(256) * (RATE / 256.0)
    expected = 20.0 * np.log10(np.maximum(np.interp(positions, np.arange(band.size), smooth), 1e-4))
    assert np.array_equal(_envelopes(band, DEFAULT_CONFIG, RATE), expected)


def test_quality_correlation_term_is_intelligibility_of_normalized_pair():
    rng = np.random.default_rng(18)
    x = speech(2.0, seed=18)
    proc = 0.3 * x + 0.02 * rng.standard_normal(x.size)
    ear = np.array([20.0, 25.0, 30.0, 40.0, 50.0, 60.0])
    target = 10.0 ** (DEFAULT_CONFIG.normalization_dbfs / 20.0)
    normalized = [v * (target / np.sqrt(np.mean(v * v))) for v in (x, proc)]
    _, c_term, _ = quality_score(x, proc, ear, return_terms=True)
    assert c_term == intelligibility_score(*normalized, ear)


@pytest.mark.parametrize("score", [intelligibility_score, quality_score])
@pytest.mark.parametrize("side", ["ref", "proc"])
def test_scores_reject_nan_input(score, side):
    x = speech(1.0, seed=19)
    bad = x.copy()
    bad[100] = np.nan
    pair = (bad, x) if side == "ref" else (x, bad)
    with pytest.raises(ValueError, match="finite"):
        score(*pair, ZERO_EAR)
