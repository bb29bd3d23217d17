"""FLIP, band-constrained Griffin-Lim and reference phase extraction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bwx import (
    BandLayout,
    GlaConfig,
    OracleSpec,
    ReconstructSpec,
    StftConfig,
    Waveform,
    consistency_residual,
    extract_reference_phase,
    flip_phase,
    gla_reconstruct,
    reconstruct,
    stft_array,
)
import bwx.dsp
import bwx.phase
from bwx.dsp import consistency_project_array
from bwx.errors import DomainError, NumericalError, ShapeError

from conftest import padded_round_trip, synth_clip

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


# Re-imposes every bin from the cutoff up, so only the low band is pinned;
# the cases with a pinned residual band use LAYOUT.
FULL = BandLayout(186, CFG.n_bins, CFG.n_bins)


def _start(lfc, magnitude, phasors=None):
    """A Griffin-Lim start: the complex low band, then ``magnitude`` times
    ``phasors`` (zero phase when None) on every bin from the cutoff up."""
    X = np.empty((len(lfc), CFG.n_bins), dtype=np.complex128)
    X[:, :186] = lfc
    X[:, 186:] = magnitude if phasors is None else magnitude * phasors
    return X


def _gla(magnitude, lfc, cfg, phasors=None):
    """GLA from `_start`: the updated start and the residuals."""
    X = _start(lfc, magnitude, phasors)
    return X, gla_reconstruct(magnitude, X, cfg, FULL, CFG)


class TestGlaReconstruct:
    def test_consistent_input_is_fixed_point(self, short_music):
        # Start from the true phases: the loop must sit still.
        X, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=20)
        phasors = bwx.phase._unit_phasors(X[:, 186:])  # 1 where a bin is 0
        out, residuals = _gla(magnitude, lfc, cfg, phasors)
        assert len(residuals) == 20
        assert np.all(residuals < 1e-6)
        err = np.linalg.norm(out - X) / np.linalg.norm(X)
        assert err < 1e-6

    def test_zero_iterations_returns_documented_start(self, short_music):
        # The caller's start is the result, untouched.
        _, magnitude, lfc = _consistent_inputs(short_music)
        start = _start(lfc, magnitude, low_band(np.ones(magnitude.shape), seed=3))
        expected = start.copy()
        residuals = gla_reconstruct(magnitude, start, GlaConfig(iterations=0), FULL, CFG)
        assert isinstance(residuals, np.ndarray) and len(residuals) == 0
        assert np.array_equal(start, expected)

    def test_flip_phasor_warm_start(self, short_music):
        # A flip start is the caller's: flip phasors on the high band, 1 above.
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=0)
        out, _ = _gla(magnitude, lfc, cfg, _flip_start(lfc, magnitude))
        assert np.array_equal(out[:, :186], lfc)
        # high band carries the mirrored phase, residual band stays zero phase
        k = 186
        src = closed_form_source(k, 186)
        expected = magnitude[:, k - 186] * np.exp(-1j * np.angle(lfc[:, src]))
        np.testing.assert_allclose(out[:, k], expected, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            out[:, 372:], magnitude[:, 372 - 186 :].astype(complex), atol=1e-12
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
        assert np.array_equal(out[:, :186], lfc)

    def test_pinned_bins_survive_bit_for_bit(self, short_music):
        # With the paper's layout, only [186, 372) is re-estimated: the low
        # band and the residual band keep their start, in the caller's array.
        X, magnitude, _ = _consistent_inputs(short_music)
        start = X.copy()
        start[:, 186:372] = magnitude[:, : 372 - 186]
        expected = start.copy()
        residuals = gla_reconstruct(magnitude[:, : 372 - 186], start, GlaConfig(5), LAYOUT, CFG)
        assert len(residuals) == 5
        assert np.array_equal(start[:, :186], expected[:, :186])
        assert np.array_equal(start[:, 372:], expected[:, 372:])
        np.testing.assert_allclose(
            np.abs(start[:, 186:372]), magnitude[:, : 372 - 186], rtol=1e-12, atol=0
        )
        assert not np.array_equal(start[:, 186:372], expected[:, 186:372])

    def test_final_magnitudes_match_constraint(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=5)
        out, _ = _gla(magnitude, lfc, cfg)
        np.testing.assert_allclose(
            np.abs(out[:, 186:]), magnitude, rtol=1e-12, atol=0
        )

    def test_deterministic(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        cfg = GlaConfig(iterations=8)
        out1, residuals1 = _gla(magnitude, lfc, cfg)
        out2, residuals2 = _gla(magnitude, lfc, cfg)
        assert np.array_equal(out1, out2)
        assert np.array_equal(residuals1, residuals2)

    def test_shape_mismatch_rejected(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        start = _start(lfc, magnitude)
        for bad_magnitude, bad_start in (
            (magnitude, start[:, :-1]),  # start narrower than the STFT's bins
            (np.abs(start), start),  # every bin, not the high band
            (magnitude[:, : 372 - 186], start),  # the paper's high band, not FULL's
            (magnitude[:-1], start),  # frame counts differ
            (magnitude[0], start[0]),  # not 2-D
        ):
            with pytest.raises(ShapeError):
                gla_reconstruct(bad_magnitude, bad_start, GlaConfig(), FULL, CFG)
        with pytest.raises(ShapeError, match="inconsistent"):
            gla_reconstruct(magnitude, start, GlaConfig(), FULL, StftConfig(1024, 256))

    @pytest.mark.parametrize("kind", ["complex64", "float64", "list"])
    def test_start_is_not_converted(self, short_music, kind):
        # A converted copy would be iterated instead of the caller's array.
        _, magnitude, lfc = _consistent_inputs(short_music)
        start = _start(lfc, magnitude)
        bad = {
            "complex64": start.astype(np.complex64),
            "float64": np.abs(start),
            "list": start.tolist(),
        }[kind]
        with pytest.raises(ShapeError, match="complex128"):
            gla_reconstruct(magnitude, bad, GlaConfig(1), FULL, CFG)

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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_residual_band_rejected(self, short_music, value):
        X, magnitude, _ = _consistent_inputs(short_music)
        X[2, 500] = value
        with pytest.raises(DomainError, match="residual band contains non-finite"):
            gla_reconstruct(magnitude[:, : 372 - 186], X, GlaConfig(1), LAYOUT, CFG)


def _reference_loop(magnitude, start, layout, iterations):
    """The loop as first written: project, re-impose A * Y / |Y| on the high
    band [k_lo, k_hi) with 0/0 -> 0, then re-pin every other bin to ``start``.
    Returns the spectrogram and the residual of every iteration."""
    k_lo, k_hi = layout.k_lo, layout.k_hi
    X = start.copy()
    residuals = []
    for _ in range(iterations):
        Y = consistency_project_array(X, CFG)
        residuals.append(np.linalg.norm(X - Y) / max(np.linalg.norm(X), 1e-12))
        absY = np.abs(Y)
        X = magnitude * np.divide(Y, absY, out=np.zeros_like(Y), where=absY > 0)[:, k_lo:k_hi]
        X = np.hstack([start[:, :k_lo], X, start[:, k_hi:]])
    return X, np.array(residuals)


def _flip_start(lfc, magnitude):
    """Start phasors for every bin from the cutoff up: the mirrored low
    band's on the high band, phase zero above it."""
    start = np.ones(magnitude.shape, dtype=np.complex128)
    start[:, : LAYOUT.hfc_width] = flip_phase(lfc, LAYOUT)
    return start


def _assert_matches_reference(out, expected):
    # A * (Y / |Y|) and Y * (A / |Y|) round differently, and the FFTs spread
    # that rounding over every bin, so the tolerance is relative to the
    # spectrogram's scale rather than to each (possibly tiny) entry.
    scale = np.abs(expected).max()
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=1e-12 * scale)


class TestGlaKernel:
    ITERATIONS = 6

    @pytest.mark.parametrize("start", ["zero", "flip", "warm"])
    def test_matches_reference_loop(self, short_music, start):
        _, magnitude, lfc = _consistent_inputs(short_music)
        phasors = None
        if start == "flip":
            phasors = _flip_start(lfc, magnitude)
        elif start == "warm":
            rng = np.random.default_rng(17)
            phasors = np.exp(1j * rng.uniform(-np.pi, np.pi, size=magnitude.shape))
        X0 = _start(lfc, magnitude, phasors)
        expected, expected_residuals = _reference_loop(magnitude, X0, FULL, self.ITERATIONS)

        cfg = GlaConfig(iterations=self.ITERATIONS)
        out, residuals = _gla(magnitude, lfc, cfg, phasors)
        _assert_matches_reference(out, expected)
        assert np.array_equal(out[:, :186], lfc)
        np.testing.assert_allclose(residuals, expected_residuals, rtol=1e-9)

    def test_high_band_matches_reference_loop(self, short_music):
        # The paper's layout: [186, 372) re-estimated, the residual band pinned.
        X, magnitude, _ = _consistent_inputs(short_music)
        band = magnitude[:, : 372 - 186]
        X[:, 186:372] = band
        expected, expected_residuals = _reference_loop(band, X, LAYOUT, self.ITERATIONS)
        residuals = gla_reconstruct(band, X, GlaConfig(self.ITERATIONS), LAYOUT, CFG)
        _assert_matches_reference(X, expected)
        np.testing.assert_allclose(residuals, expected_residuals, rtol=1e-9)

    def test_squared_norm_of_strided_arrays(self):
        # The residual trace's norms, on a C-ordered block and on strided and
        # Fortran-ordered views, agree with BLAS's dot product.
        z = low_band(np.random.default_rng(5).uniform(-3, 3, size=(40, 33)))
        for view in (z, z[::3, 1:], np.asfortranarray(z)):
            expected = np.vdot(view, view).real
            assert bwx.phase._squared_norm(view) == pytest.approx(expected, rel=1e-13)

    def test_zero_magnitude_bins_give_zero(self, short_music):
        _, magnitude, lfc = _consistent_inputs(short_music)
        zeroed = magnitude.copy()
        zeroed[:, 300 - 186 : 400 - 186] = 0.0
        zeroed[:, 900 - 186 :] = 0.0
        out, _ = _gla(zeroed, lfc, GlaConfig(iterations=3))
        assert np.all(np.isfinite(out))
        assert np.all(out[:, 300:400] == 0)
        assert np.all(out[:, 900:] == 0)

    def test_silence_stays_silent(self):
        # |Y| = 0 everywhere: every re-imposed bin is 0 / 0, defined as 0.
        frames = 6
        magnitude = np.zeros((frames, CFG.n_bins - 186))
        lfc = np.zeros((frames, 186), dtype=complex)
        out, residuals = _gla(magnitude, lfc, GlaConfig(iterations=3))
        assert np.all(out == 0)
        assert np.all(np.isfinite(residuals))

    def test_nan_names_its_iteration(self, short_music, monkeypatch):
        # The NaN enters through the projection's analysis FFT, as `bwx.dsp`
        # calls it, in the first block of iteration 2; the loop stops at that
        # block. `gla_reconstruct` analyses whole rows, through `rfft`.
        _, magnitude, lfc = _consistent_inputs(short_music)
        calls = []
        original = np.fft.rfft

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bwx.dsp.np.fft, "rfft", counting)
        _gla(magnitude, lfc, GlaConfig(iterations=1))
        per_iteration = len(calls)
        assert per_iteration > 1  # 337 frames take two blocks
        calls.clear()

        def poisoned(*args, **kwargs):
            Y = counting(*args, **kwargs)
            if len(calls) == 2 * per_iteration + 1:
                Y[3, 500] = np.nan
            return Y

        monkeypatch.setattr(bwx.dsp.np.fft, "rfft", poisoned)
        with pytest.raises(NumericalError, match="iteration 2"):
            _gla(magnitude, lfc, GlaConfig(iterations=5))
        assert len(calls) == 2 * per_iteration + 1  # no later block or iteration ran


def _band_inputs(wave, layout=LAYOUT):
    """A zero-phase GLA start on ``layout``'s band: the whole start, the
    band's magnitudes, the unnormalised overlap-add of every other bin and
    the pinned constants `_gla_band`'s residual reads: per frame, the squared
    norm of every other bin and the real parts of bins 0 and N / 2 (0 when
    the band holds it)."""
    X = stft_array(wave.samples, CFG)
    band = slice(layout.k_lo, layout.k_hi)
    magnitude = np.abs(X[:, band])
    X[:, band] = magnitude
    others = X.copy()
    others[:, band] = 0.0
    pinned = np.zeros(CFG.output_length(len(X)))
    bwx.dsp.overlap_add(others, pinned, 0, CFG)
    sums = np.stack(
        [np.sum(np.abs(others) ** 2, axis=1), others[:, 0].real, others[:, -1].real], axis=1
    )
    return X, magnitude, sums, pinned


def test_band_entry_equals_whole_spectrogram_gla_to_rounding(short_music):
    # The projection is linear, so the band's rows added onto the pinned
    # bins' overlap-add give gla_reconstruct's iterates and residuals, up to
    # rounding.
    X, magnitude, sums, pinned = _band_inputs(short_music)
    band = X[:, 186:372].copy()
    residuals = bwx.phase._gla_band(magnitude, band, pinned, GlaConfig(5), LAYOUT, CFG, sums)
    expected = gla_reconstruct(magnitude, X, GlaConfig(5), LAYOUT, CFG)
    assert np.max(np.abs(band - X[:, 186:372])) <= 1e-9 * np.max(np.abs(X))
    np.testing.assert_allclose(residuals, expected, rtol=1e-9, atol=0)
    assert len(bwx.phase._gla_band(magnitude, band, pinned, GlaConfig(2), LAYOUT, CFG)) == 0


@pytest.mark.parametrize(
    "layout",
    [LAYOUT, BandLayout(512, 1024, CFG.n_bins), BandLayout(186, 1025, CFG.n_bins)],
    ids=["4-8kHz", "meets-mirror", "to-nyquist"],
)
def test_band_entry_traced_and_untraced_bands_are_bit_identical(short_music, layout):
    # The trace sums the projection's windowed frames beside the band
    # kernel, whose values it does not touch: the float64 bands are the same
    # bits with it and without.
    X, magnitude, sums, pinned = _band_inputs(short_music, layout)
    band = slice(layout.k_lo, layout.k_hi)
    traced, untraced = X[:, band].copy(), X[:, band].copy()
    residuals = bwx.phase._gla_band(magnitude, traced, pinned, GlaConfig(4), layout, CFG, sums)
    bwx.phase._gla_band(magnitude, untraced, pinned, GlaConfig(4), layout, CFG)
    assert len(residuals) == 4
    assert np.array_equal(traced.view(np.float64), untraced.view(np.float64))


@settings(max_examples=30, deadline=None)
@given(
    layout=st.sampled_from(
        [LAYOUT, BandLayout(512, 1024, CFG.n_bins), BandLayout(186, 1025, CFG.n_bins)]
    ),
    n_frames=st.integers(1, 12),
    log_scale=st.floats(-3.0, 3.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_first_residual_is_the_starts_consistency_residual(layout, n_frames, log_scale, seed):
    # The loop sums its residual from the projection's frames (Pythagoras),
    # not from X - P_C(X): on a random complex start, whose pinned bins 0 and
    # N / 2 have imaginary parts that irfft does not read, the first one is
    # still the start's consistency residual. The sum cancels, so its
    # relative error grows about as 2e-16 / residual^2 (measured 5e-10 at
    # 1e-3, 3e-8 at 1e-4); random starts sit near 0.7.
    rng = np.random.default_rng(seed)
    shape = (n_frames, CFG.n_bins)
    X = 10.0**log_scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    assert np.all(X[:, 0].imag != 0) and np.all(X[:, -1].imag != 0)
    expected = consistency_residual(X, CFG)
    magnitude = rng.uniform(0.0, 2.0, (n_frames, layout.hfc_width))
    [residual] = gla_reconstruct(magnitude, X, GlaConfig(1), layout, CFG)
    if expected >= 1e-3:
        assert residual == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize(
    "rate, layout, stft",
    [
        (16000, BandLayout(512, 1024, CFG.n_bins), CFG),
        (44100, BandLayout(186, 1025, CFG.n_bins), CFG),
        (44100, LAYOUT, CFG),
        (44100, LAYOUT, StftConfig(2048, 300)),
    ],
    ids=["16kHz-meets-mirror", "to-nyquist", "paper-layout", "hop-300"],
)
def test_gla_reconstruct_through_the_band_kernel_matches_gla_reconstruct(rate, layout, stft):
    # `reconstruct` with oracle magnitudes and GLA, as `sr` runs it, on a
    # band that meets its mirror (4-8 kHz at 16 kHz: bins [512, 1024), bin
    # 512 being its own mirror), on one reaching Nyquist, on the paper's
    # 4-8 kHz at 44.1 kHz and on a hop of 300 that does not divide the
    # frame, against `gla_reconstruct` on the whole padded grid's
    # spectrogram. The pipeline finishes each channel by overlap-adding the
    # band onto the other bins' overlap-add, not by one synthesis of both.
    if rate == 16000:
        assert BandLayout.from_frequencies(4000.0, 8000.0, rate, CFG) == layout
    hr = synth_clip(3, duration=0.5, sr=rate)
    lr = synth_clip(4, duration=0.5, sr=rate)
    spec = ReconstructSpec(OracleSpec("hr.wav"), GlaConfig(5), layout, stft=stft)
    [out] = reconstruct(spec, [Waveform(lr, rate)], references={"hr.wav": [Waveform(hr, rate)]})
    band = slice(layout.k_lo, layout.k_hi)
    oracle = []
    padded_round_trip(hr, stft, lambda X: oracle.append(np.abs(X[:, band])))

    def edit(X):
        X[:, band] = oracle[0]
        gla_reconstruct(oracle[0], X, GlaConfig(5), layout, stft)

    expected = padded_round_trip(lr, stft, edit)
    assert np.max(np.abs(out.samples - expected)) <= 1e-9 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "damage, match",
    [("negative", "negative"), ("nan magnitude", "non-finite"), ("inf pinned", "pinned")],
)
def test_band_entry_keeps_the_entry_checks(short_music, damage, match):
    _, magnitude, _, pinned = _band_inputs(short_music)
    if damage == "negative":
        magnitude[3, 5] = -1.0
    elif damage == "nan magnitude":
        magnitude[3, 5] = np.nan
    else:
        pinned[100] = np.inf
    band = magnitude.astype(np.complex128)
    with pytest.raises(DomainError, match=match):
        bwx.phase._gla_band(magnitude, band, pinned, GlaConfig(1), LAYOUT, CFG)


class TestExtractReferencePhase:
    def test_exact_match_on_hr_file(self, short_music):
        X = stft_array(short_music.samples, CFG)
        phasors = extract_reference_phase(X, LAYOUT)
        np.testing.assert_allclose(
            np.angle(phasors), np.angle(X[:, 186:372]), atol=1e-12
        )
        np.testing.assert_allclose(np.abs(phasors), 1.0, rtol=0, atol=1e-12)

    def test_silence_gives_zero_phase(self):
        silence = stft_array(np.zeros(3 * CFG.frame_len), CFG)
        phasors = extract_reference_phase(silence, LAYOUT)
        assert np.all(phasors == 1)

    def test_short_reference_padded(self, short_music):
        # The padded grid reads zeros past a reference's end: frames that lie
        # wholly there get the phasor 1, earlier frames the reference's own.
        x = short_music.samples
        frames = len(stft_array(x, CFG))
        cut = len(x) - 3 * CFG.frame_len
        padded = np.concatenate([x[:cut], np.zeros(len(x) - cut)])
        phasors = extract_reference_phase(stft_array(padded, CFG), LAYOUT)
        assert phasors.shape == (frames, 186)
        whole = extract_reference_phase(stft_array(x, CFG), LAYOUT)
        inside = CFG.frame_count(cut)
        assert np.array_equal(phasors[:inside], whole[:inside])
        past = -(-cut // CFG.hop)  # first frame starting at or past the cut
        assert np.all(phasors[past:] == 1)
