"""Low-pass dataset preparation."""

import numpy as np
import pytest

from bwx import (
    BandLayout,
    LowpassMode,
    LowpassSpec,
    SampleDepth,
    StftConfig,
    Waveform,
    lowpass,
    lsd,
    make_pair,
    wav_read,
    wav_write,
)
from bwx.dsp import stft_array
from bwx.errors import DomainError
from bwx.prep import design_fir

from conftest import interior_slice

CFG = StftConfig()
SR = 44100


def _rms(x):
    return np.sqrt(np.mean(x * x))


class TestLowpassSpec:
    def test_even_taps_rejected(self):
        with pytest.raises(DomainError):
            LowpassSpec(taps=510)

    def test_tiny_taps_rejected(self):
        with pytest.raises(DomainError):
            LowpassSpec(taps=9)

    def test_cutoff_at_nyquist_rejected(self):
        x = Waveform(np.zeros(4 * CFG.frame_len), SR)
        with pytest.raises(DomainError, match="Nyquist"):
            lowpass(x, LowpassSpec(cutoff_hz=SR / 2), CFG)


class TestBrickwall:
    def test_stopband_sine_removed(self):
        t = np.arange(6 * CFG.frame_len) / SR
        x = np.sin(2 * np.pi * 6000 * t)
        out = lowpass(Waveform(x, SR), LowpassSpec(cutoff_hz=4000.0), CFG)
        sel = interior_slice(len(x), CFG)
        assert _rms(out.samples[sel]) < 1e-3 * _rms(x[sel])
        # The sine's abrupt start and end leak below the cutoff, but every
        # sample stays bounded.
        assert np.abs(out.samples).max() < 0.5

    def test_passband_sine_preserved(self):
        t = np.arange(6 * CFG.frame_len) / SR
        x = np.sin(2 * np.pi * 1000 * t)
        out = lowpass(Waveform(x, SR), LowpassSpec(cutoff_hz=4000.0), CFG)
        sel = interior_slice(len(x), CFG)
        assert _rms(out.samples[sel]) == pytest.approx(_rms(x[sel]), rel=0.01)
        assert _rms(out.samples) == pytest.approx(_rms(x), rel=0.01)

    def test_length_preserved(self, short_music):
        out = lowpass(short_music, LowpassSpec(cutoff_hz=4000.0), CFG)
        assert len(out.samples) == len(short_music.samples)

    def test_odd_length_preserved(self):
        rng = np.random.default_rng(0)
        x = Waveform(rng.standard_normal(3 * CFG.frame_len + 777), SR)
        out = lowpass(x, LowpassSpec(cutoff_hz=4000.0), CFG)
        assert len(out.samples) == len(x.samples)

    def test_reanalysis_stopband_is_small(self, short_music):
        # Overlapping Hann analysis couples neighbouring bins, so the zeroed
        # band reappears at leakage level (not exactly zero) on re-analysis.
        out = lowpass(short_music, LowpassSpec(cutoff_hz=4000.0), CFG)
        X = stft_array(out.samples, CFG)
        cutoff = 186
        ratio = np.linalg.norm(X[:, cutoff:]) / np.linalg.norm(X)
        assert ratio < 0.05


class TestFirSinc:
    def test_stopband_attenuation_at_125x_cutoff(self):
        taps = design_fir(LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=4000.0), SR)
        n_fft = 1 << 16
        response = np.abs(np.fft.rfft(taps, n_fft))
        freqs = np.fft.rfftfreq(n_fft, 1.0 / SR)
        at_5k = response[np.argmin(np.abs(freqs - 5000.0))]
        assert 20 * np.log10(at_5k) <= -50.0

    def test_passband_roughly_unity(self):
        taps = design_fir(LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=4000.0), SR)
        n_fft = 1 << 16
        response = np.abs(np.fft.rfft(taps, n_fft))
        freqs = np.fft.rfftfreq(n_fft, 1.0 / SR)
        passband = response[freqs <= 3500.0]
        np.testing.assert_allclose(passband, 1.0, atol=0.01)

    def test_zero_phase_and_length(self):
        # Forward-backward application must not delay the signal.
        t = np.arange(4 * CFG.frame_len) / SR
        x = np.sin(2 * np.pi * 500 * t)
        spec = LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=4000.0)
        out = lowpass(Waveform(x, SR), spec, CFG)
        assert len(out.samples) == len(x)
        inner = slice(2048, -2048)
        lag = np.argmax(np.correlate(out.samples[inner], x[inner], "full")) - (
            len(x[inner]) - 1
        )
        assert lag == 0

    def test_stopband_sine_removed(self):
        t = np.arange(4 * CFG.frame_len) / SR
        x = np.sin(2 * np.pi * 8000 * t)
        spec = LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=4000.0)
        out = lowpass(Waveform(x, SR), spec, CFG)
        inner = slice(spec.taps, -spec.taps)  # edge transients ring for ~1 filter length
        assert _rms(out.samples[inner]) < 1e-4 * _rms(x[inner])


class TestMakePair:
    def test_lengths_and_rate_preserved(self, tmp_path, short_music):
        hr = tmp_path / "hr.wav"
        lr = tmp_path / "lr.wav"
        wav_write(hr, short_music, SampleDepth.FLOAT32)
        make_pair(hr, lr)
        channels, _ = wav_read(lr)
        assert len(channels) == 1
        assert channels[0].sample_rate == short_music.sample_rate
        assert len(channels[0].samples) == len(short_music.samples)

    def test_passband_lsd_small_highband_lsd_large(self, tmp_path, short_music):
        hr = tmp_path / "hr.wav"
        lr = tmp_path / "lr.wav"
        wav_write(hr, short_music, SampleDepth.FLOAT32)
        make_pair(hr, lr)
        lr_wave = wav_read(lr)[0][0]

        layout = BandLayout(186, 372, CFG.n_bins)
        truth = np.abs(stft_array(short_music.samples, CFG))
        estimate = np.abs(stft_array(lr_wave.samples, CFG))
        low = lsd(truth, estimate, (0, layout.k_lo))
        high = lsd(truth, estimate, (layout.k_lo, layout.k_hi))
        assert low < 0.5
        assert high > 10.0

    def test_stereo_channels_processed_independently(self, tmp_path, short_music):
        hr = tmp_path / "hr2.wav"
        lr = tmp_path / "lr2.wav"
        silent = Waveform(np.zeros(len(short_music.samples)), SR)
        wav_write(hr, [short_music, silent], SampleDepth.FLOAT32)
        make_pair(hr, lr)
        channels, _ = wav_read(lr)
        assert len(channels) == 2
        assert np.any(channels[0].samples != 0)
        assert np.all(channels[1].samples == 0)
