import json

import numpy as np
import pytest
from scipy.signal import freqz

from clarity_bench.audio import SampleBuffer
from clarity_bench.hearing_aid import (
    AUDIOGRAM_FREQUENCIES,
    Audiogram,
    amplify,
    design_fir,
    flat_audiogram,
    load_audiogram,
    nalr_gains,
)

SLOPING = Audiogram(left=(20, 30, 40, 50, 60, 65), right=(20, 30, 40, 50, 60, 65))


def measured_response_db(fir, freqs, rate=16000):
    w, h = freqz(fir, worN=32768, fs=rate)
    return np.interp(freqs, w, 20 * np.log10(np.maximum(np.abs(h), 1e-12)))


def test_nalr_zero_audiogram_only_1k_survives_clamp():
    gains = nalr_gains(flat_audiogram(0.0), "left")
    assert gains == (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)


def test_nalr_flat_40():
    gains = nalr_gains(flat_audiogram(40.0), "left")
    assert gains == pytest.approx((1.4, 10.4, 19.4, 17.4, 16.4, 16.4))


def test_nalr_sloping_example():
    gains = nalr_gains(SLOPING, "right")
    assert gains[4] == pytest.approx(22.6)  # 4 kHz: 6 + 0.31*60 - 2


def test_nalr_gains_never_negative_and_monotone():
    rng = np.random.default_rng(17)
    for _ in range(50):
        levels = rng.uniform(0, 120, 6)
        base = np.array(nalr_gains(Audiogram(tuple(levels), tuple(levels)), "left"))
        assert np.all(base >= 0.0)
        bump = levels.copy()
        idx = rng.integers(0, 6)
        bump[idx] = min(120.0, bump[idx] + rng.uniform(0, 20))
        bumped = np.array(nalr_gains(Audiogram(tuple(bump), tuple(bump)), "left"))
        assert np.all(bumped >= base - 1e-12)


def test_audiogram_validation():
    with pytest.raises(ValueError):
        Audiogram(left=(0, 0, 0, 0, 0), right=(0,) * 6)
    with pytest.raises(ValueError):
        Audiogram(left=(0, 0, 0, 0, 0, 130), right=(0,) * 6)


def test_design_fir_identity_curve():
    fir = design_fir((0.0,) * 6)
    freqs = np.linspace(250, 6000, 200)
    assert np.max(np.abs(measured_response_db(fir, freqs))) < 0.5


def test_design_fir_hits_prescription_within_1db():
    for audiogram in (flat_audiogram(40.0), SLOPING, flat_audiogram(70.0)):
        gains = nalr_gains(audiogram, "left")
        fir = design_fir(gains)
        got = measured_response_db(fir, np.array(AUDIOGRAM_FREQUENCIES))
        assert np.max(np.abs(got - np.array(gains))) < 1.0


def test_design_fir_flat40_1khz_gain():
    fir = design_fir(nalr_gains(flat_audiogram(40.0), "left"))
    assert measured_response_db(fir, np.array([1000.0]))[0] == pytest.approx(19.4, abs=1.0)


def test_design_fir_linear_phase_symmetry():
    fir = design_fir(nalr_gains(SLOPING, "left"))
    assert np.array_equal(fir, fir[::-1])


def test_amplify_silence():
    result = amplify(SampleBuffer(np.zeros((2, 500))), flat_audiogram(0.0))
    assert not np.any(result.ears.data)
    assert result.clipped == 0


def test_amplify_zero_audiogram_passthrough_away_from_1k():
    # prescribed gain is 0 dB everywhere except +1 dB at 1 kHz, so probe
    # tones off that bump come back as the pure group delay
    t = np.arange(4000) / 16000
    for f in (400.0, 4000.0):
        x = 0.25 * np.sin(2 * np.pi * f * t)
        result = amplify(SampleBuffer(np.stack([x, x])), flat_audiogram(0.0))
        delay = 63
        out = result.ears.channel(0)[delay : delay + 4000]
        body = slice(500, 3500)
        in_rms = np.sqrt(np.mean(x[body] ** 2))
        out_rms = np.sqrt(np.mean(out[body] ** 2))
        assert abs(20 * np.log10(out_rms / in_rms)) < 0.5


def test_amplify_flat40_1khz_sine_level():
    t = np.arange(8000) / 16000
    x = 10 ** (-40 / 20) * np.sqrt(2) * np.sin(2 * np.pi * 1000 * t)  # -40 dBFS RMS
    result = amplify(SampleBuffer(np.stack([x, x])), flat_audiogram(40.0))
    out = result.ears.channel(0)[1000:7000]
    in_rms = 10 ** (-40 / 20)
    out_rms = np.sqrt(np.mean(out**2))
    # -40 dBFS tone + 19.4 dB prescribed gain -> -20.6 dBFS
    assert 20 * np.log10(out_rms / in_rms) == pytest.approx(19.4, abs=1.0)
    assert 20 * np.log10(out_rms) == pytest.approx(-20.6, abs=1.0)
    assert result.clipped == 0


def test_amplify_linear_below_clipping():
    rng = np.random.default_rng(23)
    x = 0.01 * rng.uniform(-1, 1, 2000)
    y = 0.01 * rng.uniform(-1, 1, 2000)
    audiogram = flat_audiogram(40.0)
    a = amplify(SampleBuffer(np.stack([x, y])), audiogram).ears.data
    b = amplify(SampleBuffer(np.stack([3.0 * x, 3.0 * y])), audiogram).ears.data
    assert np.max(np.abs(b - 3.0 * a)) < 1e-9


def test_amplify_ears_independent():
    rng = np.random.default_rng(29)
    x = 0.05 * rng.uniform(-1, 1, 1500)
    y = 0.05 * rng.uniform(-1, 1, 1500)
    left_heavy = Audiogram(left=(60,) * 6, right=(10,) * 6)
    left_light = Audiogram(left=(5,) * 6, right=(10,) * 6)
    a = amplify(SampleBuffer(np.stack([x, y])), left_heavy).ears
    b = amplify(SampleBuffer(np.stack([x, y])), left_light).ears
    assert np.array_equal(a.channel(1), b.channel(1))
    assert not np.array_equal(a.channel(0), b.channel(0))


def test_amplify_reports_clipping():
    t = np.arange(2000) / 16000
    x = 0.9 * np.sin(2 * np.pi * 1000 * t)
    result = amplify(SampleBuffer(np.stack([x, x])), flat_audiogram(40.0))
    assert result.clipped > 0
    assert np.max(np.abs(result.ears.data)) <= 1.0


def test_amplify_rejects_mono():
    with pytest.raises(ValueError):
        amplify(SampleBuffer(np.zeros(100)), flat_audiogram(0.0))


def test_audiogram_json_round_trip(tmp_path):
    path = tmp_path / "ag.json"
    payload = {
        ear: {str(int(f)): level for f, level in zip(AUDIOGRAM_FREQUENCIES, getattr(SLOPING, ear))}
        for ear in ("left", "right")
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp)
    loaded = load_audiogram(path)
    assert loaded == SLOPING


def test_audiogram_json_missing_frequency(tmp_path):
    path = tmp_path / "bad.json"
    payload = {"left": {"250": 10}, "right": {str(int(f)): 0 for f in AUDIOGRAM_FREQUENCIES}}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_audiogram(path)
