"""FLIP, band-constrained Griffin-Lim and reference phase extraction."""

import numpy as np
import pytest

from bwx import (
    BandLayout,
    GlaConfig,
    GlaInit,
    StftConfig,
    extract_reference_phase,
    flip_phase,
    gla_reconstruct,
    stft_array,
)
import bwx.phase
from bwx.dsp import consistency_project_array
from bwx.errors import DomainError, NumericalError, ShapeError

CFG = StftConfig()
LAYOUT = BandLayout(186, 372, CFG.n_bins)


def closed_form_source(k, k_lo):
    return k_lo - 1 - ((k - k_lo) % k_lo)


def low_band(phase, seed=0):
    """Complex low band with the given phases and random non-zero magnitudes."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.1, 2.0, size=phase.shape) * np.exp(1j * phase)


class TestFlipPhase:
    def test_zero_phase_stays_zero(self):
        out = flip_phase(np.ones((5, 186), dtype=complex), LAYOUT)
        assert out.shape == (5, 186)
        assert np.all(out == 1)

    def test_cutoff_neighbour_negated(self):
        data = np.zeros((1, 186))
        data[0, 185] = np.pi / 3
        out = flip_phase(low_band(data), LAYOUT)
        assert np.angle(out[0, 0]) == pytest.approx(-np.pi / 3)

    def test_full_mirror_span_reaches_bin_zero(self):
        data = np.zeros((1, 186))
        data[0, 0] = 0.7
        out = flip_phase(low_band(data), LAYOUT)
        # k = 371 reads from source bin 0.
        assert np.angle(out[0, 371 - 186]) == pytest.approx(-0.7)

    def test_exhaustive_mapping_matches_closed_form(self):
        rng = np.random.default_rng(4)
        data = rng.uniform(-np.pi + 1e-9, np.pi, size=(3, 186))
        out = flip_phase(low_band(data), LAYOUT)
        for k in range(186, 372):
            src = closed_form_source(k, 186)
            expected = -data[:, src]
            np.testing.assert_allclose(np.angle(out[:, k - 186]), expected, atol=1e-12)

    def test_output_range(self):
        rng = np.random.default_rng(8)
        data = rng.uniform(-np.pi + 1e-12, np.pi, size=(4, 186))
        out = flip_phase(low_band(data), LAYOUT)
        np.testing.assert_allclose(np.abs(out), 1.0, rtol=0, atol=1e-12)

    def test_zero_low_band_bin_gives_phasor_one(self):
        lfc = low_band(np.full((2, 186), 2.0))
        lfc[1, 185] = 0.0
        out = flip_phase(lfc, LAYOUT)
        # k = 186 reads from source bin 185; np.angle(0) == 0.
        assert out[1, 0] == 1
        assert np.all(np.isfinite(out))

    def test_repeating_mirror_for_wide_high_band(self):
        cfg = StftConfig(frame_len=64, hop=16)
        layout = BandLayout(k_lo=8, k_hi=30, n_bins=cfg.n_bins)
        rng = np.random.default_rng(2)
        data = rng.uniform(-3, 3, size=(2, 8))
        out = flip_phase(low_band(data), layout)
        for k in range(8, 30):
            src = closed_form_source(k, 8)
            np.testing.assert_allclose(np.angle(out[:, k - 8]), -data[:, src], atol=1e-12)

    def test_double_flip_is_identity_for_equal_widths(self):
        # The mirror is an involution and the two conjugations cancel, so
        # flipping the flipped band recovers the original phasors.
        rng = np.random.default_rng(13)
        lfc = low_band(rng.uniform(-3.0, 3.0, size=(4, 186)))
        twice = flip_phase(flip_phase(lfc, LAYOUT), LAYOUT)
        np.testing.assert_allclose(twice, lfc / np.abs(lfc), atol=1e-12)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            flip_phase(np.ones((5, 100), dtype=complex), LAYOUT)


def _consistent_inputs(wave):
    """The STFT of ``wave``, the magnitudes of its bins from the cutoff up and
    its complex low band."""
    X = stft_array(wave.samples, CFG)
    return X, np.abs(X[:, 186:]), X[:, :186].copy()


def _gla(magnitude, lfc, cfg, **kwargs):
    return gla_reconstruct(magnitude, lfc, cfg, LAYOUT, CFG, **kwargs)


class TestGlaReconstruct:
    def test_consistent_input_is_fixed_point(self, short_music):
        # Warm-start with the true phases: the loop must sit still.
        X, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=20)
        phasors = bwx.phase._unit_phasors(X[:, 186:])  # 1 where a bin is 0
        out, residuals = _gla(magnitude, lfc, cfg, initial_hf=phasors)
        assert len(residuals) == 20
        assert np.all(residuals < 1e-6)
        err = np.linalg.norm(out.data - X) / np.linalg.norm(X)
        assert err < 1e-6

    def test_zero_iterations_returns_documented_start(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=0)
        out, residuals = _gla(magnitude, lfc, cfg)
        assert len(residuals) == 0
        expected = np.empty_like(out.data)
        expected[:, :186] = lfc
        expected[:, 186:] = magnitude  # zero phase
        assert np.array_equal(out.data, expected)
        # A warm start multiplies the magnitudes by the complex values as given.
        warm = low_band(np.ones(magnitude.shape), seed=3)
        out, _ = _gla(magnitude, lfc, cfg, initial_hf=warm)
        expected[:, 186:] = magnitude * warm
        assert np.array_equal(out.data, expected)
        with pytest.raises(ShapeError, match="initial high band"):
            _gla(magnitude, lfc, cfg, initial_hf=warm[:, 1:])

    def test_flip_init_start(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=0, init=GlaInit.FLIP_PHASE)
        out, _ = _gla(magnitude, lfc, cfg)
        assert np.array_equal(out.data[:, :186], lfc)
        # high band carries the mirrored phase, residual band stays zero phase
        k = 186
        src = closed_form_source(k, 186)
        expected = magnitude[:, k - 186] * np.exp(-1j * np.angle(lfc[:, src]))
        np.testing.assert_allclose(out.data[:, k], expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            out.data[:, 372:], magnitude[:, 372 - 186 :].astype(complex), atol=1e-12
        )

    def test_residual_decreases_on_oracle_task(self, short_music):
        # Zero the high band of the constraint, keep oracle magnitudes.
        X, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=30)
        out, residuals = _gla(magnitude, lfc, cfg)
        assert residuals[-1] < residuals[0]

    def test_low_band_preserved_bit_for_bit(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=5)
        out, _ = _gla(magnitude, lfc, cfg)
        assert np.array_equal(out.data[:, :186], lfc)

    def test_final_magnitudes_match_constraint(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=5)
        out, _ = _gla(magnitude, lfc, cfg)
        np.testing.assert_allclose(
            np.abs(out.data[:, 186:]), magnitude, rtol=1e-12, atol=0
        )

    def test_deterministic(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=8)
        out1, residuals1 = _gla(magnitude, lfc, cfg)
        out2, residuals2 = _gla(magnitude, lfc, cfg)
        assert np.array_equal(out1.data, out2.data)
        assert np.array_equal(residuals1, residuals2)

    def test_record_trace_off(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        _, residuals = _gla(magnitude, lfc, GlaConfig(iterations=3), record_trace=False)
        assert len(residuals) == 0

    def test_shape_mismatch_rejected(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        for bad_magnitude, bad_lfc in (
            (magnitude, lfc[:, :100]),  # low band too narrow
            (np.abs(stft_array(short_music.samples, CFG)), lfc),  # every bin, not k_lo up
            (magnitude[:-1], lfc),  # frame counts differ
            (magnitude[0], lfc[0]),  # not 2-D
        ):
            with pytest.raises(ShapeError):
                _gla(bad_magnitude, bad_lfc, GlaConfig())
        with pytest.raises(ShapeError, match="inconsistent"):
            gla_reconstruct(magnitude, lfc, GlaConfig(), LAYOUT, StftConfig(1024, 256))

    @pytest.mark.parametrize(
        "damage, match",
        [
            ("negative magnitude", "magnitude spectrogram contains negative"),
            ("nan magnitude", "magnitude spectrogram contains non-finite"),
            ("inf magnitude", "magnitude spectrogram contains non-finite"),
            ("nan low band", "low-band constraint contains non-finite"),
            ("inf low band", "low-band constraint contains non-finite"),
        ],
    )
    def test_bad_values_rejected(self, short_music, damage, match):
        _, magnitude, lfc = _consistent_inputs(short_music)
        value = {"negative": -1.0, "nan": np.nan, "inf": np.inf}[damage.split()[0]]
        if damage.endswith("magnitude"):
            magnitude[2, 5] = value
        else:
            lfc[2, 5] = complex(0.0, value)
        with pytest.raises(DomainError, match=match):
            _gla(magnitude, lfc, GlaConfig(iterations=1))


def _reference_loop(magnitude, lfc, start, iterations):
    """The loop as first written: project, re-impose A * Y / |Y| on every bin
    with 0/0 -> 0, then re-pin the low band. Returns the spectrogram and the
    residual of every iteration."""
    k_lo = lfc.shape[1]
    A = np.hstack([np.abs(lfc), magnitude])
    X = start.copy()
    residuals = []
    for _ in range(iterations):
        Y = consistency_project_array(X, CFG)
        residuals.append(np.linalg.norm(X - Y) / max(np.linalg.norm(X), 1e-12))
        absY = np.abs(Y)
        X = A * np.divide(Y, absY, out=np.zeros_like(Y), where=absY > 0)
        X[:, :k_lo] = lfc
    return X, np.array(residuals)


class TestGlaKernel:
    ITERATIONS = 6

    @pytest.mark.parametrize("record_trace", [True, False])
    @pytest.mark.parametrize("start", ["zero", "flip", "warm"])
    def test_matches_reference_loop(self, short_music, start, record_trace):
        _, magnitude, lfc = _consistent_inputs(short_music)
        init = GlaInit.FLIP_PHASE if start == "flip" else GlaInit.ZERO_PHASE
        warm = None
        if start == "warm":
            rng = np.random.default_rng(17)
            warm = np.exp(1j * rng.uniform(-np.pi, np.pi, size=magnitude.shape))
        start_cfg = GlaConfig(iterations=0, init=init)
        X0, _ = _gla(magnitude, lfc, start_cfg, initial_hf=warm)
        expected, expected_residuals = _reference_loop(magnitude, lfc, X0.data, self.ITERATIONS)

        cfg = GlaConfig(iterations=self.ITERATIONS, init=init)
        out, residuals = _gla(magnitude, lfc, cfg, initial_hf=warm, record_trace=record_trace)
        # A * (Y / |Y|) and Y * (A / |Y|) round differently, and the FFTs spread
        # that rounding over every bin, so the tolerance is relative to the
        # spectrogram's scale rather than to each (possibly tiny) entry.
        scale = np.abs(expected).max()
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12 * scale)
        assert np.array_equal(out.data[:, :186], lfc)
        if record_trace:
            np.testing.assert_allclose(residuals, expected_residuals, rtol=1e-9)
        else:
            assert len(residuals) == 0

    def test_zero_magnitude_bins_give_zero(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        zeroed = magnitude.copy()
        zeroed[:, 300 - 186 : 400 - 186] = 0.0
        zeroed[:, 900 - 186 :] = 0.0
        out, _ = _gla(zeroed, lfc, GlaConfig(iterations=3))
        assert np.all(np.isfinite(out.data))
        assert np.all(out.data[:, 300:400] == 0)
        assert np.all(out.data[:, 900:] == 0)

    def test_silence_stays_silent(self):
        # |Y| = 0 everywhere: every re-imposed bin is 0 / 0, defined as 0.
        frames = 6
        magnitude = np.zeros((frames, CFG.n_bins - 186))
        lfc = np.zeros((frames, 186), dtype=complex)
        out, residuals = _gla(magnitude, lfc, GlaConfig(iterations=3))
        assert np.all(out.data == 0)
        assert np.all(np.isfinite(residuals))

    def test_nan_names_its_iteration(self, short_music, monkeypatch):
        _, magnitude, lfc = _consistent_inputs(short_music)
        calls = []

        def poisoned(X, cfg):
            Y = consistency_project_array(X, cfg)
            if len(calls) == 2:
                Y[3, 500] = np.nan
            calls.append(1)
            return Y

        monkeypatch.setattr(bwx.phase, "consistency_project_array", poisoned)
        with pytest.raises(NumericalError, match="iteration 2"):
            _gla(magnitude, lfc, GlaConfig(iterations=5))
        assert len(calls) == 3


class TestExtractReferencePhase:
    def test_exact_match_on_hr_file(self, short_music):
        X = stft_array(short_music.samples, CFG)
        phasors = extract_reference_phase(X, LAYOUT, target_frames=X.shape[0])
        np.testing.assert_allclose(
            np.angle(phasors), np.angle(X[:, 186:372]), atol=1e-12
        )
        np.testing.assert_allclose(np.abs(phasors), 1.0, rtol=0, atol=1e-12)

    def test_silence_gives_zero_phase(self):
        silence = stft_array(np.zeros(3 * CFG.frame_len), CFG)
        phasors = extract_reference_phase(silence, LAYOUT, len(silence))
        assert np.all(phasors == 1)

    def test_short_reference_padded(self, short_music):
        X = stft_array(short_music.samples, CFG)
        frames = len(X)
        short_ref = stft_array(short_music.samples[: len(short_music.samples) - CFG.hop], CFG)
        assert len(short_ref) == frames - 1
        phasors = extract_reference_phase(short_ref, LAYOUT, frames)
        assert phasors.shape == (frames, 186)
        assert np.array_equal(phasors[:-1], extract_reference_phase(X, LAYOUT, frames)[:-1])
        assert np.all(phasors[-1] == 1)

    def test_long_reference_truncated(self, short_music):
        X = stft_array(short_music.samples, CFG)
        frames = len(X)
        phasors = extract_reference_phase(X, LAYOUT, frames - 3)
        assert phasors.shape == (frames - 3, 186)
        assert np.array_equal(phasors, extract_reference_phase(X, LAYOUT, frames)[:-3])
