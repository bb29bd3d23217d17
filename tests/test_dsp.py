"""Core time-frequency analysis tests, checked against brute-force DFT oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bwx.dsp
from bwx import (
    BandLayout,
    StftConfig,
    Waveform,
    bin_index,
    consistency_residual,
    istft_array,
    stft_array,
)
from bwx.dsp import (
    _add_frames,
    _normalise,
    _synthesis_denominator,
    consistency_project_array,
    hann_window,
    padded_grid,
    resynthesize,
)
from bwx.errors import DomainError, LengthError, ShapeError

from conftest import interior_slice, padded_round_trip, whole_window_sum


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


@pytest.mark.parametrize("frame_len", [64, 2048])
def test_window_is_cached_read_only_periodic_hann(frame_len):
    window = StftConfig(frame_len=frame_len, hop=frame_len // 4).window_values()
    assert StftConfig(frame_len=frame_len, hop=frame_len // 2).window_values() is window
    assert not window.flags.writeable
    with pytest.raises(ValueError):
        window[0] = 1.0
    n = np.arange(frame_len)
    np.testing.assert_array_equal(window, 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len))


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

    @settings(max_examples=200, deadline=None)
    @given(
        sample_rate=st.integers(1, 10**6),
        half_frame=st.integers(1, 1 << 16),
        data=st.data(),
    )
    def test_every_valid_frequency_maps_into_the_one_sided_bins(
        self, sample_rate, half_frame, data
    ):
        # Every frequency in [0, Nyquist] lands on a bin of an even frame.
        frame_len = 2 * half_frame
        freq = data.draw(st.floats(0.0, sample_rate / 2.0), label="freq_hz")
        assert 0 <= bin_index(freq, sample_rate, frame_len) <= frame_len // 2
        assert bin_index(sample_rate / 2.0, sample_rate, frame_len) == frame_len // 2


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
        X = stft_array(np.zeros(8192), StftConfig())
        assert X.shape == (25, 1025)
        assert np.all(X == 0)

    def test_too_short_rejected(self):
        with pytest.raises(LengthError):
            stft_array(np.zeros(100), StftConfig())

    def test_two_dimensional_rejected(self):
        for shape in ((4096, 2), (2, 4096)):
            with pytest.raises(ShapeError, match="1-D"):
                stft_array(np.zeros(shape), StftConfig())

    def test_sine_peaks_at_its_bin(self):
        cfg = StftConfig()
        sr = 44100
        freq = 100 * sr / cfg.frame_len  # exactly bin 100
        t = np.arange(3 * cfg.frame_len) / sr
        x = np.sin(2 * np.pi * freq * t)
        X = stft_array(x, cfg)
        peaks = np.argmax(np.abs(X), axis=1)
        assert np.all(peaks == 100)

    def test_matches_direct_dft_oracle(self):
        cfg = StftConfig()
        rng = np.random.default_rng(42)
        x = rng.standard_normal(6 * cfg.hop + cfg.frame_len) * 0.3
        X = stft_array(x, cfg)
        oracle = dft_oracle_frames(x, cfg)
        for i in range(X.shape[0]):
            err = np.linalg.norm(X[i] - oracle[i]) / np.linalg.norm(oracle[i])
            assert err < 1e-9

    def test_impulse_at_zero_is_silent(self):
        # The periodic Hann window is zero at sample 0, so an impulse there
        # leaves a flat all-zero magnitude profile.
        cfg = StftConfig()
        x = np.zeros(cfg.frame_len)
        x[0] = 1.0
        X = stft_array(x, cfg)
        assert np.all(X == 0)

    def test_impulse_profile_equals_window_sample(self):
        cfg = StftConfig()
        pos = 100
        x = np.zeros(cfg.frame_len)
        x[pos] = 1.0
        X = stft_array(x, cfg)
        expected = hann_window(cfg.frame_len)[pos]
        np.testing.assert_allclose(np.abs(X[0]), expected, rtol=1e-12)
        oracle = dft_oracle_frames(x, cfg)
        np.testing.assert_allclose(X, oracle, atol=1e-12)

    def test_parseval_per_frame(self):
        # One-sided bins weighted 2x except DC and Nyquist.
        cfg = StftConfig()
        rng = np.random.default_rng(7)
        x = rng.standard_normal(cfg.frame_len + 4 * cfg.hop)
        X = stft_array(x, cfg)
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
        y = istft_array(stft_array(x, cfg), cfg)
        n = len(y)
        sel = interior_slice(n, cfg)
        err = np.linalg.norm(x[:n][sel] - y[sel]) / np.linalg.norm(x[:n][sel])
        assert err < 1e-6

    def test_zero_spectrogram_gives_silence(self):
        cfg = StftConfig()
        y = istft_array(np.zeros((10, cfg.n_bins)), cfg)
        assert np.all(y == 0)
        assert len(y) == cfg.output_length(10)

    def test_single_frame_windowed_sine_inverse_oracle(self):
        # istft of one frame must reproduce irfft(X)*w normalised by w^2.
        cfg = StftConfig(frame_len=256, hop=64)
        sr = 8000
        t = np.arange(cfg.frame_len)
        x = np.sin(2 * np.pi * 8 * t / cfg.frame_len)
        X = stft_array(x, cfg)
        assert X.shape[0] == 1
        y = istft_array(X, cfg)

        window = hann_window(cfg.frame_len)
        k = np.arange(cfg.frame_len)[:, None]
        n = np.arange(cfg.n_bins)[None, :]
        weights = np.full(cfg.n_bins, 1.0)
        weights[1:-1] = 2.0
        inverse = (
            np.real(np.exp(2j * np.pi * k * n / cfg.frame_len) @ (weights * X[0]))
            / cfg.frame_len
        )
        expected = inverse * window / np.maximum(window * window, 1e-12)
        np.testing.assert_allclose(y, expected, atol=1e-9)

    def test_wrong_width_rejected(self):
        cfg = StftConfig()
        with pytest.raises(ShapeError, match="spectrogram has 100 bins, config demands 1025"):
            istft_array(np.zeros((4, 100)), cfg)
        with pytest.raises(ShapeError, match="2-D"):
            istft_array(np.zeros(cfg.n_bins), cfg)

    def test_non_dividing_hop_round_trip(self):
        cfg = StftConfig(frame_len=2048, hop=384)
        rng = np.random.default_rng(9)
        x = rng.standard_normal(5 * cfg.frame_len)
        y = istft_array(stft_array(x, cfg), cfg)
        n = len(y)
        sel = interior_slice(n, cfg)
        err = np.linalg.norm(x[:n][sel] - y[sel]) / np.linalg.norm(x[:n][sel])
        assert err < 1e-6


@pytest.mark.parametrize(
    "inverse",
    [istft_array, consistency_project_array, consistency_residual],
    ids=lambda f: f.__name__,
)
def test_spectrogram_with_no_frames_rejected(inverse):
    # No frame makes no signal: not frame_len - hop zeros, and no LengthError
    # about a signal the caller never passed.
    cfg = StftConfig()
    with pytest.raises(ShapeError, match="spectrogram has no frames"):
        inverse(np.zeros((0, cfg.n_bins), dtype=np.complex128), cfg)


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


@settings(max_examples=60, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([4, 8, 16, 32, 64]), st.integers(1, 64)),
    n_frames=st.integers(1, 30),
)
def test_denominator_equals_whole_window_sum(hop, n_frames):
    cfg = StftConfig(frame_len=64, hop=hop)
    assert np.array_equal(_synthesis_denominator(cfg, n_frames), whole_window_sum(cfg, n_frames))


def _full_coverage_stretches(test):
    """`example`s of 300-frame grids at frame 64 whose stretch ends at or
    between hop boundaries of the full-coverage region [c * hop, (300 - c) *
    hop), c = ceil(64 / hop): the whole region, from or to its ends, inside
    one hop, one sample into or short of a hop, and across more than 64
    hops."""
    for hop in (1, 24, 64):
        c = -(-64 // hop)
        head, tail, length = c * hop, (300 - c) * hop, 299 * hop + 64
        mid, third = hop // 2, hop // 3
        for start, stop in (
            (head, tail), (head, head + 70 * hop + 1), (head + hop - 1, tail),
            (head + mid, tail - third), (head + 2 * hop + third, head + 2 * hop + mid + 1),
        ):
            ends = ((start + 0.5) / length, (stop + 0.5) / length)  # int(f * length) = start, stop
            test = example(hop=hop, n_frames=300, ends=ends)(test)
    return test


@settings(max_examples=80, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([1, 16, 24, 40, 64]), st.integers(1, 64)),
    n_frames=st.integers(1, 300),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
@_full_coverage_stretches
def test_normalise_divides_by_the_whole_window_sum(hop, n_frames, ends):
    # Any stretch of any grid, read off short-grid sums, bit for bit.
    cfg = StftConfig(frame_len=64, hop=hop)
    wsum = whole_window_sum(cfg, n_frames)
    start, stop = sorted(int(f * len(wsum)) for f in ends)
    out = np.ones(stop - start)
    _normalise(out, start, n_frames, cfg)
    assert np.array_equal(out, 1.0 / wsum[start:stop])


@pytest.mark.parametrize("hop", [1, 24, 64])
def test_only_short_window_sums_are_built(monkeypatch, hop):
    # istft_array and the projection of a long grid read their denominators
    # off sums of at most 2 * ceil(frame_len / hop) + 1 frames.
    cfg = StftConfig(frame_len=64, hop=hop)
    frames = []
    original = bwx.dsp._synthesis_denominator
    monkeypatch.setattr(
        bwx.dsp, "_synthesis_denominator", lambda c, n: frames.append(n) or original(c, n)
    )
    X = np.ones((400, cfg.n_bins), dtype=np.complex128)
    istft_array(X, cfg)
    consistency_project_array(X, cfg)
    assert frames and max(frames) <= 2 * -(-64 // hop) + 1


@settings(max_examples=60, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([4, 8, 16, 32, 64]), st.integers(1, 64)),
    n_frames=st.integers(1, 30),
    start=st.integers(0, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_add_frames_equals_ascending_per_frame_loop(hop, n_frames, start, seed):
    # Bit for bit, for any hop: every sample takes its frames first to last,
    # on top of what out already holds.
    cfg = StftConfig(frame_len=64, hop=hop)
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((n_frames, cfg.frame_len))
    out = rng.standard_normal(start + cfg.output_length(n_frames) + 3)
    expected = out.copy()
    for i in range(n_frames):
        expected[start + i * hop : start + i * hop + cfg.frame_len] += frames[i]
    _add_frames(frames, out, start, cfg)
    assert np.array_equal(out, expected)


def test_add_frames_past_the_end_is_rejected():
    cfg = StftConfig(frame_len=64, hop=24)
    out = np.zeros(cfg.output_length(3) - 1)
    with pytest.raises(ValueError):
        _add_frames(np.ones((3, cfg.frame_len)), out, 0, cfg)


@settings(max_examples=60, deadline=None)
@given(
    # hop < frame_len: with hop == frame_len no frame overlaps another, and
    # the window's zero at each frame start loses that sample.
    hop=st.one_of(st.sampled_from([4, 8, 16, 32]), st.integers(1, 63)),
    n=st.integers(1, 700),
    seed=st.integers(0, 2**32 - 1),
)
def test_resynthesize_round_trip_is_exact_on_every_sample(hop, n, seed):
    # On the padded grid every sample lies under a full set of frames, so the
    # unedited round trip gives the input back on the whole signal, not only
    # an interior, for any length and any hop (dividing frame_len 64 or not);
    # and it is, bit for bit, the whole-array model's.
    cfg = StftConfig(frame_len=64, hop=hop)
    x = np.random.default_rng(seed).uniform(-1, 1, n)
    y = np.concatenate([p for p, in resynthesize(lambda a, b: [x[a:b]], n, cfg, lambda *_: None)])
    assert len(y) == n
    np.testing.assert_allclose(y, x, rtol=0, atol=1e-9)
    assert np.array_equal(y, padded_round_trip(x, cfg))


@pytest.mark.parametrize("frame_len, hop", [(2048, 256), (64, 16), (64, 24), (64, 7), (64, 64)])
def test_padded_grid_covers_every_sample(frame_len, hop):
    cfg = StftConfig(frame_len=frame_len, hop=hop)
    lead, _ = padded_grid(cfg, 1)
    # A multiple of hop, and at least frame_len - hop: every frame over the
    # first signal sample starts at or after padded sample 0.
    assert lead % hop == 0 and frame_len - hop <= lead < frame_len
    for n in (1, hop - 1, hop, frame_len - 1, frame_len, frame_len + 1, 5 * frame_len + 3):
        # The last signal sample's latest frame is the grid's last.
        assert padded_grid(cfg, n) == (lead, (lead + n - 1) // hop + 1)


class TestConsistencyProject:
    def test_fixed_point_on_stft_output(self, short_music):
        cfg = StftConfig()
        X = stft_array(short_music.samples, cfg)
        P = consistency_project_array(X, cfg)
        err = np.linalg.norm(P - X) / np.linalg.norm(X)
        assert err < 1e-6

    def test_zero_is_fixed(self):
        cfg = StftConfig()
        X = np.zeros((12, cfg.n_bins), dtype=np.complex128)
        assert np.all(consistency_project_array(X, cfg) == 0)

    def test_contraction_on_random_phases(self, short_music):
        cfg = StftConfig()
        rng = np.random.default_rng(1)
        X = stft_array(short_music.samples, cfg)
        scrambled = np.abs(X) * np.exp(2j * np.pi * rng.random(X.shape))
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

