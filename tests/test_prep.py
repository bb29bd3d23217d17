"""Low-pass dataset preparation."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st

import bwx
from bwx import (
    BandLayout,
    LowpassMode,
    LowpassSpec,
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


FIR_TAPS = [11, 13, 255, 511]
FIR_CUTOFFS = [100.0, 1000.0, 4000.0, 11025.0, 20000.0]
# Tolerance fixed from float64 rounding over two passes of up to 511 taps.
FIR_RTOL = 1e-12


@st.composite
def fir_cases(draw):
    taps = draw(st.sampled_from(FIR_TAPS))
    edge = 3 * taps + 1  # N - 1 == 3T: the extension takes every sample
    n = draw(st.one_of(st.integers(1, 4 * taps), st.sampled_from([edge - 1, edge, edge + 1])))
    cutoff = draw(st.sampled_from(FIR_CUTOFFS))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 3e4]))
    return taps, cutoff, scale * np.random.default_rng(seed).standard_normal(n)


class TestScipyReference:
    """The numpy FIR design and zero-phase filter against scipy.signal."""

    @pytest.mark.parametrize("taps", FIR_TAPS)
    @pytest.mark.parametrize("cutoff", FIR_CUTOFFS)
    def test_design_matches_firwin(self, taps, cutoff):
        spec = LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=cutoff, taps=taps)
        expected = scipy.signal.firwin(taps, cutoff, window="hamming", fs=SR)
        np.testing.assert_allclose(design_fir(spec, SR), expected, rtol=0, atol=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(fir_cases())
    def test_lowpass_matches_filtfilt(self, case):
        taps, cutoff, x = case
        spec = LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=cutoff, taps=taps)
        expected = scipy.signal.filtfilt(
            design_fir(spec, SR), [1.0], x, padlen=min(3 * taps, len(x) - 1)
        )
        out = lowpass(Waveform(x, SR), spec, CFG).samples
        assert out.shape == x.shape
        assert np.abs(out - expected).max() <= FIR_RTOL * np.abs(x).max()

    def test_stereo_make_pair_matches_filtfilt(self, tmp_path, short_music):
        hr = tmp_path / "hr.wav"
        lr = tmp_path / "lr.wav"
        rng = np.random.default_rng(3)
        other = Waveform(0.3 * rng.standard_normal(len(short_music.samples)), SR)
        wav_write(hr, [short_music, other])
        spec = LowpassSpec(mode=LowpassMode.FIR_SINC, cutoff_hz=5000.0, taps=255)
        make_pair(hr, lr, spec)
        taps = design_fir(spec, SR)
        for source, written in zip(wav_read(hr)[0], wav_read(lr)[0], strict=True):
            x = source.samples
            expected = scipy.signal.filtfilt(taps, [1.0], x, padlen=3 * spec.taps)
            # Stored as float32: one ulp of the peak covers the rounding.
            atol = FIR_RTOL * np.abs(x).max() + np.spacing(np.float32(np.abs(expected).max()))
            np.testing.assert_allclose(written.samples, expected, rtol=0, atol=atol)


def test_cli_import_leaves_scipy_signal_out():
    # A fresh interpreter: this process imported scipy.signal for the
    # references. bwx imports no SciPy module at all.
    code = "import sys, bwx.cli; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    src = str(Path(bwx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.strip() == "False"


class TestMakePair:
    def test_lengths_and_rate_preserved(self, tmp_path, short_music):
        hr = tmp_path / "hr.wav"
        lr = tmp_path / "lr.wav"
        wav_write(hr, short_music)
        make_pair(hr, lr)
        channels, _ = wav_read(lr)
        assert len(channels) == 1
        assert channels[0].sample_rate == short_music.sample_rate
        assert len(channels[0].samples) == len(short_music.samples)

    def test_passband_lsd_small_highband_lsd_large(self, tmp_path, short_music):
        hr = tmp_path / "hr.wav"
        lr = tmp_path / "lr.wav"
        wav_write(hr, short_music)
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
        wav_write(hr, [short_music, silent])
        make_pair(hr, lr)
        channels, _ = wav_read(lr)
        assert len(channels) == 2
        assert np.any(channels[0].samples != 0)
        assert np.all(channels[1].samples == 0)
