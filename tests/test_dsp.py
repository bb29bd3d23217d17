"""Core time-frequency analysis tests, checked against brute-force DFT oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwx import (
    BandLayout,
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    bin_index,
    interior_slice,
    istft,
    stft,
    wrap_phase,
)
from bwx.dsp import _synthesis_denominator, consistency_project_array, hann_window, istft_array
from bwx.errors import DomainError, LengthError, ShapeError


def dft_oracle_frames(x, cfg):
    """One-sided DFT of each windowed frame via the explicit transform matrix."""
    window = hann_window(cfg.frame_len)
    n_frames = 1 + (len(x) - cfg.frame_len) // cfg.hop
    k = np.arange(cfg.n_bins)[:, None]
    n = np.arange(cfg.frame_len)[None, :]
    dft = np.exp(-2j * np.pi * k * n / cfg.frame_len)
    out = np.empty((n_frames, cfg.n_bins), dtype=np.complex128)
    for i in range(n_frames):
        frame = x[i * cfg.hop : i * cfg.hop + cfg.frame_len] * window
        out[i] = dft @ frame
    return out


def test_public_names_resolve():
    import bwx

    assert [name for name in bwx.__all__ if not hasattr(bwx, name)] == []


class TestBinIndex:
    def test_4khz_default_grid(self):
        assert bin_index(4000, 44100, 2048) == 186

    def test_8khz_default_grid(self):
        assert bin_index(8000, 44100, 2048) == 372

    def test_dc(self):
        assert bin_index(0, 44100, 2048) == 0

    def test_nyquist(self):
        assert bin_index(22050, 44100, 2048) == 1024

    def test_above_nyquist_rejected(self):
        with pytest.raises(DomainError, match="Nyquist|outside"):
            bin_index(23000, 44100, 2048)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bin_index(-1, 44100, 2048)


class TestStftConfig:
    def test_defaults(self):
        cfg = StftConfig()
        assert cfg.frame_len == 2048
        assert cfg.hop == 256
        assert cfg.n_bins == 1025

    def test_odd_frame_rejected(self):
        with pytest.raises(DomainError):
            StftConfig(frame_len=2047)

    def test_oversized_hop_rejected(self):
        with pytest.raises(DomainError):
            StftConfig(frame_len=1024, hop=1025)

    def test_window_squared_overlap_is_constant(self):
        # Constant-overlap-add of the squared window over interior samples.
        cfg = StftConfig()
        wsq = hann_window(cfg.frame_len) ** 2
        n_frames = 64
        total = np.zeros((n_frames - 1) * cfg.hop + cfg.frame_len)
        for i in range(n_frames):
            total[i * cfg.hop : i * cfg.hop + cfg.frame_len] += wsq
        inner = total[interior_slice(len(total), cfg)]
        np.testing.assert_allclose(inner / inner[0], 1.0, atol=1e-9)


class TestWaveform:
    def test_nan_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            Waveform(np.array([0.0, np.nan]), 44100)

    def test_bad_rate_rejected(self):
        with pytest.raises(DomainError):
            Waveform(np.zeros(4), 0)


class TestStft:
    def test_zero_input_shape_and_content(self):
        x = Waveform(np.zeros(8192), 44100)
        X = stft(x, StftConfig())
        assert X.data.shape == (25, 1025)
        assert np.all(X.data == 0)

    def test_too_short_rejected(self):
        with pytest.raises(LengthError):
            stft(Waveform(np.zeros(100), 44100), StftConfig())

    def test_sine_peaks_at_its_bin(self):
        cfg = StftConfig()
        sr = 44100
        freq = 100 * sr / cfg.frame_len  # exactly bin 100
        t = np.arange(3 * cfg.frame_len) / sr
        x = np.sin(2 * np.pi * freq * t)
        X = stft(Waveform(x, sr), cfg)
        peaks = np.argmax(np.abs(X.data), axis=1)
        assert np.all(peaks == 100)

    def test_matches_direct_dft_oracle(self):
        cfg = StftConfig()
        rng = np.random.default_rng(42)
        x = rng.standard_normal(6 * cfg.hop + cfg.frame_len) * 0.3
        X = stft(Waveform(x, 44100), cfg)
        oracle = dft_oracle_frames(x, cfg)
        for i in range(X.data.shape[0]):
            err = np.linalg.norm(X.data[i] - oracle[i]) / np.linalg.norm(oracle[i])
            assert err < 1e-9

    def test_impulse_at_zero_is_silent(self):
        # The periodic Hann window is zero at sample 0, so an impulse there
        # leaves a flat all-zero magnitude profile.
        cfg = StftConfig()
        x = np.zeros(cfg.frame_len)
        x[0] = 1.0
        X = stft(Waveform(x, 44100), cfg)
        assert np.all(X.data == 0)

    def test_impulse_profile_equals_window_sample(self):
        cfg = StftConfig()
        pos = 100
        x = np.zeros(cfg.frame_len)
        x[pos] = 1.0
        X = stft(Waveform(x, 44100), cfg)
        expected = hann_window(cfg.frame_len)[pos]
        np.testing.assert_allclose(np.abs(X.data[0]), expected, rtol=1e-12)
        oracle = dft_oracle_frames(x, cfg)
        np.testing.assert_allclose(X.data, oracle, atol=1e-12)

    def test_parseval_per_frame(self):
        # One-sided bins weighted 2x except DC and Nyquist.
        cfg = StftConfig()
        rng = np.random.default_rng(7)
        x = rng.standard_normal(cfg.frame_len + 4 * cfg.hop)
        X = stft(Waveform(x, 44100), cfg).data
        window = hann_window(cfg.frame_len)
        weights = np.full(cfg.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        for i in range(X.shape[0]):
            frame = x[i * cfg.hop : i * cfg.hop + cfg.frame_len] * window
            spectral = np.sum(weights * np.abs(X[i]) ** 2) / cfg.frame_len
            direct = np.sum(frame * frame)
            assert abs(spectral - direct) / direct < 1e-9


class TestIstft:
    def test_round_trip_interior(self):
        cfg = StftConfig()
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4 * cfg.frame_len)
        y = istft(stft(Waveform(x, 44100), cfg))
        n = len(y.samples)
        sel = interior_slice(n, cfg)
        err = np.linalg.norm(x[:n][sel] - y.samples[sel]) / np.linalg.norm(x[:n][sel])
        assert err < 1e-6

    def test_zero_spectrogram_gives_silence(self):
        cfg = StftConfig()
        X = ComplexSpectrogram(np.zeros((10, cfg.n_bins)), cfg, 44100)
        y = istft(X)
        assert np.all(y.samples == 0)
        assert len(y.samples) == cfg.output_length(10)

    def test_single_frame_windowed_sine_inverse_oracle(self):
        # istft of one frame must reproduce irfft(X)*w normalised by w^2.
        cfg = StftConfig(frame_len=256, hop=64)
        sr = 8000
        t = np.arange(cfg.frame_len)
        x = np.sin(2 * np.pi * 8 * t / cfg.frame_len)
        X = stft(Waveform(x, sr), cfg)
        assert X.data.shape[0] == 1
        y = istft(X)

        window = hann_window(cfg.frame_len)
        k = np.arange(cfg.frame_len)[:, None]
        n = np.arange(cfg.n_bins)[None, :]
        weights = np.full(cfg.n_bins, 1.0)
        weights[1:-1] = 2.0
        inverse = (
            np.real(np.exp(2j * np.pi * k * n / cfg.frame_len) @ (weights * X.data[0]))
            / cfg.frame_len
        )
        expected = inverse * window / np.maximum(window * window, 1e-12)
        np.testing.assert_allclose(y.samples, expected, atol=1e-9)

    def test_wrong_width_rejected(self):
        cfg = StftConfig()
        X = ComplexSpectrogram(np.zeros((4, 100)), cfg, 44100)
        with pytest.raises(ShapeError):
            istft(X)

    def test_non_dividing_hop_round_trip(self):
        cfg = StftConfig(frame_len=2048, hop=384)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5 * cfg.frame_len)
        y = istft(stft(Waveform(x, 44100), cfg))
        n = len(y.samples)
        sel = interior_slice(n, cfg)
        err = np.linalg.norm(x[:n][sel] - y.samples[sel]) / np.linalg.norm(x[:n][sel])
        assert err < 1e-6


def overlap_add_oracle(X, cfg):
    """Per-frame weighted overlap-add divided by the floored window-square sum."""
    window = hann_window(cfg.frame_len)
    n_out = (X.shape[0] - 1) * cfg.hop + cfg.frame_len
    out = np.zeros(n_out)
    wsum = np.zeros(n_out)
    for i, row in enumerate(X):
        start = i * cfg.hop
        out[start : start + cfg.frame_len] += np.fft.irfft(row, cfg.frame_len) * window
        wsum[start : start + cfg.frame_len] += window * window
    return out / np.maximum(wsum, 1e-12)


class TestIstftArray:
    @pytest.mark.parametrize("hop", [16, 24])
    @pytest.mark.parametrize("n_frames", [5, 9])
    def test_matches_overlap_add_oracle(self, hop, n_frames):
        cfg = StftConfig(frame_len=64, hop=hop)
        rng = np.random.default_rng(hop * n_frames)
        X = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal(
            (n_frames, cfg.n_bins)
        )
        np.testing.assert_allclose(
            istft_array(X, cfg), overlap_add_oracle(X, cfg), rtol=1e-12, atol=1e-12
        )

    @pytest.mark.parametrize("hop", [16, 24])
    def test_cached_denominator_is_read_only_and_never_aliased(self, hop):
        cfg = StftConfig(frame_len=64, hop=hop)
        denominator = _synthesis_denominator(cfg, 7)
        assert _synthesis_denominator(cfg, 7) is denominator
        assert _synthesis_denominator(cfg, 7, 0, cfg.output_length(7)) is denominator
        assert not denominator.flags.writeable
        with pytest.raises(ValueError):
            denominator[0] = 1.0
        before = denominator.copy()

        X = np.ones((7, cfg.n_bins), dtype=np.complex128)
        out = istft_array(X, cfg)
        expected = out.copy()
        assert not np.shares_memory(out, denominator)
        out[:] = 0.0
        assert np.array_equal(_synthesis_denominator(cfg, 7), before)
        assert np.array_equal(istft_array(X, cfg), expected)


def whole_window_sum(cfg, n_frames):
    """The floored window-square sum over every sample, summed as bwx always
    has: with hop dividing the frame, row r of hop samples adds segment j of
    frame r - j for j ascending; otherwise frames are added in ascending order."""
    wsq = hann_window(cfg.frame_len) ** 2
    if cfg.frame_len % cfg.hop == 0:
        n_seg = cfg.frame_len // cfg.hop
        wline = np.zeros((n_frames - 1 + n_seg, cfg.hop))
        for j in range(n_seg):
            wline[j : j + n_frames] += wsq.reshape(n_seg, cfg.hop)[j]
        wsum = wline.reshape(-1)
    else:
        wsum = np.zeros(cfg.output_length(n_frames))
        for i in range(n_frames):
            wsum[i * cfg.hop : i * cfg.hop + cfg.frame_len] += wsq
    return np.maximum(wsum, 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([4, 8, 16, 32, 64]), st.integers(1, 64)),
    n_frames=st.integers(1, 30),
    data=st.data(),
)
def test_denominator_range_equals_slice_of_whole_sum(hop, n_frames, data):
    cfg = StftConfig(frame_len=64, hop=hop)
    whole = whole_window_sum(cfg, n_frames)
    start = data.draw(st.integers(0, len(whole)))
    stop = data.draw(st.integers(start, len(whole)))
    assert np.array_equal(_synthesis_denominator(cfg, n_frames, start, stop), whole[start:stop])
    assert np.array_equal(_synthesis_denominator(cfg, n_frames), whole)


class TestConsistencyProject:
    def test_fixed_point_on_stft_output(self, short_music):
        cfg = StftConfig()
        X = stft(short_music, cfg)
        P = consistency_project_array(X.data, cfg)
        err = np.linalg.norm(P - X.data) / np.linalg.norm(X.data)
        assert err < 1e-6

    def test_zero_is_fixed(self):
        cfg = StftConfig()
        X = np.zeros((12, cfg.n_bins), dtype=np.complex128)
        assert np.all(consistency_project_array(X, cfg) == 0)

    def test_contraction_on_random_phases(self, short_music):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        X = stft(short_music, cfg)
        scrambled = np.abs(X.data) * np.exp(2j * np.pi * rng.random(X.data.shape))
        X2 = consistency_project_array(scrambled, cfg)
        X3 = consistency_project_array(X2, cfg)
        first = np.linalg.norm(X2 - scrambled)
        second = np.linalg.norm(X3 - X2)
        assert 0 < second < first

    @settings(max_examples=40, deadline=None)
    @given(
        hop=st.integers(1, 64),
        n_frames=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_projection_keeps_shape(self, hop, n_frames, seed):
        # L frames resynthesise to output_length(L) samples, which analyse
        # back into exactly L frames, for hops that divide frame_len or not.
        cfg = StftConfig(frame_len=64, hop=hop)
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_frames, cfg.n_bins)) + 1j * rng.normal(size=(n_frames, cfg.n_bins))
        assert consistency_project_array(X, cfg).shape == X.shape


class TestBands:
    def test_default_layout_widths(self):
        layout = BandLayout(186, 372, 1025)
        assert layout.lfc_width == 186
        assert layout.hfc_width == 186

    def test_from_frequencies(self):
        layout = BandLayout.from_frequencies(4000, 8000, 44100, StftConfig())
        assert (layout.k_lo, layout.k_hi, layout.n_bins) == (186, 372, 1025)

    def test_degenerate_layout_rejected(self):
        with pytest.raises(DomainError):
            BandLayout(186, 186, 1025)


class TestWrapPhase:
    def test_range(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(-20, 20, size=1000)
        wrapped = wrap_phase(theta)
        assert np.all(wrapped > -np.pi)
        assert np.all(wrapped <= np.pi)

    def test_negative_pi_maps_to_pi(self):
        assert wrap_phase(np.array([-np.pi]))[0] == pytest.approx(np.pi)

    def test_identity_inside_range(self):
        theta = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
        np.testing.assert_allclose(wrap_phase(theta), theta, atol=1e-12)
