"""Oracle, band-replication and imported magnitude predictors."""

import numpy as np
import pytest

from bwx import (
    BandLayout,
    SpecKind,
    StftConfig,
    bin_index,
    load_magnitude,
    predict_band_replication,
    predict_oracle,
    spec_write,
)
from bwx.dsp import stft_array
from bwx.errors import FileFormatError, PayloadValueError, ShapeError

CFG = StftConfig()
LAYOUT = BandLayout(186, 372, CFG.n_bins)
SR = 44100


class TestOracle:
    def test_silent_reference_gives_zero(self):
        silence = stft_array(np.zeros(2 * CFG.frame_len), CFG)
        out = predict_oracle(silence, LAYOUT)
        assert out.shape[1] == 186
        assert np.all(out == 0)

    def test_6khz_sine_hits_its_bin(self):
        t = np.arange(4 * CFG.frame_len) / SR
        x = stft_array(np.sin(2 * np.pi * 6000 * t), CFG)
        out = predict_oracle(x, LAYOUT)
        expected_bin = bin_index(6000, SR, CFG.frame_len) - LAYOUT.k_lo
        assert bin_index(6000, SR, CFG.frame_len) == 279
        peaks = np.argmax(out, axis=1)
        assert np.all(peaks == expected_bin)


class TestBandReplication:
    def _lfc(self, data):
        return np.asarray(data, dtype=np.float64)

    def test_flat_input_stays_flat(self):
        flat = self._lfc(np.full((3, 186), 0.7))
        out = predict_band_replication(flat, LAYOUT)
        np.testing.assert_allclose(out, 0.7, rtol=1e-12)

    def test_zero_input_gives_zero(self):
        out = predict_band_replication(self._lfc(np.zeros((3, 186))), LAYOUT)
        assert np.all(out == 0)

    def test_ramp_lands_on_the_top_octave(self):
        # A ramp holds each bin's own index, so the output is the source map:
        # bin 186 + i copies bin 93 + i mod 93, unscaled.
        ramp = np.tile(np.arange(186.0), (2, 1))
        out = predict_band_replication(self._lfc(ramp), LAYOUT)
        expected = np.concatenate([np.arange(93.0, 186.0)] * 2)
        np.testing.assert_array_equal(out, np.tile(expected, (2, 1)))

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        base = rng.random((4, 186)) + 0.1
        out1 = predict_band_replication(self._lfc(base), LAYOUT)
        out2 = predict_band_replication(self._lfc(4.0 * base), LAYOUT)
        # Powers of two scale exactly in binary floating point.
        assert np.array_equal(out2, 4.0 * out1)

    def test_output_is_nonnegative_with_expected_width(self):
        rng = np.random.default_rng(7)
        out = predict_band_replication(self._lfc(rng.random((5, 186))), LAYOUT)
        assert out.shape == (5, 186)
        assert np.all(out >= 0)
        assert np.all(np.isfinite(out))

    def test_low_band_width_mismatch_rejected(self):
        with pytest.raises(ShapeError, match="low band has 100 bins, layout expects 186"):
            predict_band_replication(np.ones((2, 100)), LAYOUT)

    def test_hfc_wider_than_lfc_tiles(self):
        # 15 high-band bins over a 5-bin low band: its top octave, bins 2..4,
        # repeats five times.
        layout = BandLayout(k_lo=5, k_hi=20, n_bins=33)
        lfc = self._lfc(np.tile(np.arange(5.0), (2, 1)))
        out = predict_band_replication(lfc, layout)
        np.testing.assert_array_equal(out, np.tile([2.0, 3.0, 4.0] * 5, (2, 1)))

    def test_odd_k_lo(self):
        # k_lo = 7: the top octave is bins 3..6, four bins wide.
        layout = BandLayout(k_lo=7, k_hi=13, n_bins=33)
        lfc = self._lfc([[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]])
        out = predict_band_replication(lfc, layout)
        np.testing.assert_array_equal(out, [[3.0, 4.0, 5.0, 6.0, 3.0, 4.0]])


class TestLoadMagnitude:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.random((12, 186)).astype(np.float32)
        path = tmp_path / "m.bwx"
        spec_write(path, data, SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
        out = load_magnitude(path, (12, 186), CFG, SR)
        np.testing.assert_array_equal(out, data.astype(np.float64))

    def test_wrong_shape_names_both(self, tmp_path):
        path = tmp_path / "m.bwx"
        spec_write(path, np.ones((12, 100)), SpecKind.MAGNITUDE, SR, 2048, 256)
        with pytest.raises(ShapeError, match=r"\(12, 100\).*\(12, 186\)"):
            load_magnitude(path, (12, 186), CFG, SR)

    def test_negative_entry_rejected(self, tmp_path):
        data = np.ones((3, 186), dtype=np.float32)
        data[1, 5] = -1.0
        path = tmp_path / "m.bwx"
        spec_write(path, data, SpecKind.MAGNITUDE, SR, 2048, 256)
        with pytest.raises(PayloadValueError, match="negative"):
            load_magnitude(path, (3, 186), CFG, SR)

    def test_complex_kind_rejected(self, tmp_path):
        path = tmp_path / "c.bwx"
        spec_write(path, np.ones((3, 186)), SpecKind.COMPLEX, SR, 2048, 256)
        with pytest.raises(FileFormatError, match="magnitude"):
            load_magnitude(path, (3, 186), CFG, SR)

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.bwx"
        spec_write(path, np.ones((3, 186)), SpecKind.MAGNITUDE, SR, 1024, 256)
        with pytest.raises(ShapeError, match="config"):
            load_magnitude(path, (3, 186), CFG, SR)

    def test_sample_rate_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.bwx"
        spec_write(path, np.ones((3, 186)), SpecKind.MAGNITUDE, 22050, 2048, 256)
        with pytest.raises(ShapeError, match="sample rate 22050 does not match 44100"):
            load_magnitude(path, (3, 186), CFG, SR)
