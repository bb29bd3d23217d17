"""Log-spectral distance, SNR and consistency residual."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwx import (
    EvalReport,
    StftConfig,
    Waveform,
    consistency_residual,
    evaluate,
    lsd,
    snr,
    stft_array,
)
from bwx.dsp import _ArraySource, _paper_layout
from bwx.errors import DomainError, LengthError, ShapeError
from bwx.metrics import LSD_POWER_FLOOR, SNR_CHUNK, _EnergySums, _evaluate_sources

CFG = StftConfig()


def scalar_lsd(truth, estimate, lo, hi):
    """Brute-force restatement of the metric with explicit loops."""
    n_frames = truth.shape[0]
    total = 0.0
    for l in range(n_frames):
        inner = 0.0
        for f in range(lo, hi):
            lp_t = 10.0 * math.log10(truth[l, f] ** 2 + LSD_POWER_FLOOR)
            lp_e = 10.0 * math.log10(estimate[l, f] ** 2 + LSD_POWER_FLOOR)
            inner += (lp_t - lp_e) ** 2
        total += math.sqrt(inner / (hi - lo))
    return total / n_frames


class TestLsd:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(0)
        m = rng.random((7, CFG.n_bins))
        assert lsd(m, m, (0, CFG.n_bins)) == 0.0

    def test_single_perturbation_closed_form(self):
        # One bin's power 10x the other's in exactly one frame.
        n_frames, bins = 25, (0, 186)
        width = bins[1] - bins[0]
        truth = np.ones((n_frames, CFG.n_bins))
        estimate = np.ones((n_frames, CFG.n_bins))
        truth[3, 50] = math.sqrt(10.0)
        value = lsd(truth, estimate, bins)
        closed_form = (10.0 / math.sqrt(width)) / n_frames
        assert abs(value - closed_form) < 1e-9

    def test_matches_scalar_brute_force(self):
        rng = np.random.default_rng(5)
        truth = rng.random((4, 64))
        estimate = rng.random((4, 64))
        assert lsd(truth, estimate, (8, 40)) == pytest.approx(
            scalar_lsd(truth, estimate, 8, 40), rel=1e-12
        )

    def test_symmetry(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            a = rng.random((3, CFG.n_bins))
            b = rng.random((3, CFG.n_bins))
            assert lsd(a, b, (0, 372)) == lsd(b, a, (0, 372))

    def test_partition_consistency(self):
        # Full-range per-frame sums equal the width-weighted combination of
        # disjoint sub-band sums.
        rng = np.random.default_rng(9)
        truth = rng.random((6, CFG.n_bins))
        estimate = rng.random((6, CFG.n_bins))
        split = 400
        full = lsd(truth, estimate, (0, CFG.n_bins))

        def frame_inner(lo, hi):
            d = (
                10 * np.log10(truth[:, lo:hi] ** 2 + LSD_POWER_FLOOR)
                - 10 * np.log10(estimate[:, lo:hi] ** 2 + LSD_POWER_FLOOR)
            )
            return np.sum(d * d, axis=1)

        combined = np.mean(
            np.sqrt((frame_inner(0, split) + frame_inner(split, CFG.n_bins)) / CFG.n_bins)
        )
        assert full == pytest.approx(combined, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            lsd(np.ones((3, CFG.n_bins)), np.ones((4, CFG.n_bins)), (0, 10))

    def test_empty_range_rejected(self):
        m = np.ones((3, CFG.n_bins))
        with pytest.raises(DomainError):
            lsd(m, m, (10, 10))

    @pytest.mark.parametrize(
        "value, error, match",
        [
            (-1.0, DomainError, "negative"),
            (np.nan, DomainError, "non-finite"),
            (np.inf, DomainError, "non-finite"),
        ],
    )
    def test_bad_values_rejected(self, value, error, match):
        good = np.ones((3, CFG.n_bins))
        bad = good.copy()
        bad[1, 7] = value
        for truth, estimate in ((bad, good), (good, bad)):
            with pytest.raises(error, match=match):
                lsd(truth, estimate, (0, 10))

    def test_one_dimensional_rejected(self):
        m = np.ones(CFG.n_bins)
        with pytest.raises(ShapeError, match="2-D"):
            lsd(m, m, (0, 10))


class TestSnr:
    def test_identical_signals_hit_cap(self):
        x = Waveform(np.sin(np.linspace(0, 20, 4000)), 44100)
        assert snr(x, x) == pytest.approx(120.0, abs=1e-9)

    def test_zero_estimate_is_zero_db(self):
        x = Waveform(np.sin(np.linspace(0, 20, 4000)), 44100)
        zero = Waveform(np.zeros(4000), 44100)
        assert snr(x, zero) == pytest.approx(0.0, abs=1e-12)

    def test_half_amplitude_closed_form(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(5000)
        truth = Waveform(x, 44100)
        half = Waveform(0.5 * x, 44100)
        assert snr(truth, half) == pytest.approx(10 * math.log10(4), abs=1e-12)
        assert snr(truth, half) == pytest.approx(6.02, abs=0.01)

    def test_joint_scaling_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3000)
        e = x + 0.1 * rng.standard_normal(3000)
        base = snr(Waveform(x, 44100), Waveform(e, 44100))
        scaled = snr(Waveform(4.0 * x, 44100), Waveform(4.0 * e, 44100))
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            snr(Waveform(np.ones(10), 44100), Waveform(np.ones(11), 44100))

    def test_zero_truth_rejected(self):
        with pytest.raises(DomainError):
            snr(Waveform(np.zeros(10), 44100), Waveform(np.ones(10), 44100))


# Cuts on and beside the chunk boundaries, where a piece fills a chunk
# exactly, stops one short or spills one over.
_CHUNK_EDGES = [k * SNR_CHUNK + d for k in (1, 2, 3) for d in (-1, 0, 1)]


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 3 * SNR_CHUNK + 100),
    cuts=st.lists(
        st.one_of(st.integers(0, 3 * SNR_CHUNK + 100), st.sampled_from(_CHUNK_EDGES)),
        max_size=12,
    ),
    noise=st.sampled_from([0.0, 1e-3, 0.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_snr_does_not_depend_on_the_cuts(n, cuts, noise, seed):
    # A pair fed in any pieces, empty ones included, gives the bits of the
    # pair fed whole.
    rng = np.random.default_rng(seed)
    truth = rng.standard_normal(n)
    estimate = truth + noise * rng.standard_normal(n)
    whole = _EnergySums()
    whole.add(truth, estimate)
    pieces = _EnergySums()
    bounds = [0, *sorted(min(c, n) for c in cuts), n]
    for a, b in zip(bounds, bounds[1:]):
        pieces.add(truth[a:b], estimate[a:b])
    assert pieces.snr_db() == whole.snr_db()


class TestConsistencyResidual:
    def test_stft_output_is_consistent(self, short_music):
        X = stft_array(short_music.samples, CFG)
        assert consistency_residual(X, CFG) < 1e-6

    def test_zero_spectrogram(self):
        assert consistency_residual(np.zeros((8, CFG.n_bins), dtype=complex), CFG) == 0.0

    def test_bin_count_must_match_config(self):
        with pytest.raises(ShapeError, match="config demands 1025"):
            consistency_residual(np.zeros((8, 100), dtype=complex), CFG)

    def test_scrambled_phases_are_inconsistent(self, short_music):
        rng = np.random.default_rng(11)
        X = stft_array(short_music.samples, CFG)
        scrambled = np.abs(X) * np.exp(2j * np.pi * rng.random(X.shape))
        residual = consistency_residual(scrambled, CFG)
        assert residual > 1e-2

    def test_flip_spectrogram_less_consistent_than_gla_output(self, short_music):
        from bwx import BandLayout, GlaConfig, flip_phase, gla_reconstruct

        layout = BandLayout(186, 372, CFG.n_bins)
        X = stft_array(short_music.samples, CFG)
        magnitude = np.abs(X[:, 186:])
        flipped = X.copy()
        flipped[:, 186:372] = magnitude[:, :186] * flip_phase(X[:, :186], layout)
        flip_residual = consistency_residual(flipped, CFG)

        start = X.copy()
        start[:, 186:] = magnitude
        every_bin = BandLayout(186, CFG.n_bins, CFG.n_bins)
        gla_reconstruct(magnitude, start, GlaConfig(iterations=20), every_bin, CFG)
        assert consistency_residual(start, CFG) < flip_residual


class TestEvalReport:
    def test_csv_row_format(self):
        report = EvalReport(1.23456, 0.98765, 42.0, 17)
        row = report.csv_row("a.wav", "gla")
        assert row == "a.wav,gla,1.2346,0.9877,42.0000,17"

    def test_negative_lsd_rejected(self):
        with pytest.raises(DomainError):
            EvalReport(-1.0, 0.0, 0.0, 1)

    def test_evaluate_identical_waveforms(self, short_music):
        report = evaluate(short_music, short_music)
        assert report.lsd_hf == 0.0
        assert report.lsd_full == 0.0
        assert report.snr == pytest.approx(120.0, abs=1e-9)
        assert report.frames_compared == CFG.frame_count(len(short_music.samples))

    def test_evaluate_takes_the_band_at_the_truths_rate(self, short_music):
        # At 48 kHz the paper's 4-8 kHz band is bins [171, 341), not the
        # [186, 372) of 44.1 kHz.
        layout = _paper_layout(48000)
        assert (layout.k_lo, layout.k_hi) == (171, 341)
        rng = np.random.default_rng(48)
        truth = Waveform(short_music.samples, 48000)
        estimate = Waveform(0.5 * short_music.samples + 0.01 * rng.standard_normal(len(truth)), 48000)
        report = evaluate(truth, estimate)
        mt, me = (np.abs(stft_array(w.samples, CFG)) for w in (truth, estimate))
        np.testing.assert_allclose(
            [report.lsd_hf, report.lsd_full],
            [lsd(mt, me, (171, 341)), lsd(mt, me, (0, 341))],
            rtol=1e-12,
            atol=0,
        )


class _CountingSource(_ArraySource):
    """Channels in memory that count how often they are read."""

    def __init__(self, channels):
        super().__init__(channels)
        self.reads = 0

    def read(self, start, stop):
        self.reads += 1
        return super().read(start, stop)


class TestScoringChecks:
    """Every check of a pair fires before either source is read, in a fixed
    order: channel count, length, sample rates, then the band at the truth's
    rate. The truth is at 8 kHz, where 8 kHz is past Nyquist, so each case
    below also breaks every later check, and the first must win."""

    @staticmethod
    def _channel(n, rate=44100):
        return Waveform(np.random.default_rng(n).standard_normal(n) * 0.1, rate)

    @pytest.mark.parametrize(
        "est_shape,error,match",
        [
            ((2, 2 * 2048, 48000), ShapeError, "channel counts differ"),
            ((1, 2 * 2048, 48000), LengthError, "too short"),
            ((1, 3 * 2048, 48000), ShapeError, "sample rates differ"),
            ((1, 3 * 2048, 8000), DomainError, "8000.0 Hz outside"),
        ],
        ids=["channels", "length", "rates", "band"],
    )
    def test_check_fails_before_any_read(self, est_shape, error, match):
        n_channels, n, rate = est_shape
        truth = _CountingSource([self._channel(3 * 2048, 8000)])
        estimate = _CountingSource([self._channel(n, rate)] * n_channels)
        with pytest.raises(error, match=match):
            _evaluate_sources(truth, estimate)
        assert (truth.reads, estimate.reads) == (0, 0)

    def test_valid_pair_is_read(self):
        truth = _CountingSource([self._channel(3 * 2048)])
        estimate = _CountingSource([self._channel(3 * 2048)])
        _evaluate_sources(truth, estimate)
        assert truth.reads > 0 and estimate.reads > 0
