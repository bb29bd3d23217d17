"""Oracle, band-replication and imported magnitude predictors."""

import numpy as np
import pytest

from bwx import (
    BandLayout,
    BandReplicationSpec,
    MagnitudeSpectrogram,
    SpecKind,
    StftConfig,
    Waveform,
    bin_index,
    load_magnitude,
    predict_band_replication,
    predict_oracle,
    spec_write,
)
from bwx.errors import FileFormatError, PayloadValueError, ShapeError

CFG = StftConfig()
LAYOUT = BandLayout(186, 372, CFG.n_bins)
SR = 44100


class TestOracle:
    def test_silent_reference_gives_zero(self):
        silence = Waveform(np.zeros(2 * CFG.frame_len), SR)
        out = predict_oracle(silence, CFG, LAYOUT)
        assert out.data.shape[1] == 186
        assert np.all(out.data == 0)

    def test_6khz_sine_hits_its_bin(self):
        t = np.arange(4 * CFG.frame_len) / SR
        x = Waveform(np.sin(2 * np.pi * 6000 * t), SR)
        out = predict_oracle(x, CFG, LAYOUT)
        expected_bin = bin_index(6000, SR, CFG.frame_len) - LAYOUT.k_lo
        assert bin_index(6000, SR, CFG.frame_len) == 279
        peaks = np.argmax(out.data, axis=1)
        assert np.all(peaks == expected_bin)


class TestBandReplication:
    def _lfc(self, data):
        return MagnitudeSpectrogram(data, CFG, SR)

    def test_flat_input_stays_flat(self):
        flat = self._lfc(np.full((3, 186), 0.7))
        out = predict_band_replication(flat, LAYOUT)
        np.testing.assert_allclose(out.data, 0.7, rtol=1e-12)

    def test_zero_input_gives_zero(self):
        out = predict_band_replication(self._lfc(np.zeros((3, 186))), LAYOUT)
        assert np.all(out.data == 0)

    def test_ramp_gain_matches_closed_form(self):
        ramp = np.tile(np.arange(186.0), (2, 1))
        out = predict_band_replication(self._lfc(ramp), LAYOUT, BandReplicationSpec())
        gain = np.mean([182.0, 183.0, 184.0, 185.0]) / np.mean([0.0, 1.0, 2.0, 3.0])
        assert gain == 183.5 / 1.5
        np.testing.assert_allclose(out.data, ramp * gain, rtol=1e-12)

    def test_tilt(self):
        flat = self._lfc(np.ones((1, 186)))
        spec = BandReplicationSpec(tilt_per_bin=0.99)
        out = predict_band_replication(flat, LAYOUT, spec)
        np.testing.assert_allclose(out.data[0], 0.99 ** np.arange(186), rtol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        base = rng.random((4, 186)) + 0.1
        out1 = predict_band_replication(self._lfc(base), LAYOUT)
        out2 = predict_band_replication(self._lfc(4.0 * base), LAYOUT)
        # Powers of two scale exactly in binary floating point.
        assert np.array_equal(out2.data, 4.0 * out1.data)

    def test_output_is_nonnegative_with_expected_width(self):
        rng = np.random.default_rng(7)
        out = predict_band_replication(self._lfc(rng.random((5, 186))), LAYOUT)
        assert out.data.shape == (5, 186)
        assert np.all(out.data >= 0)
        assert np.all(np.isfinite(out.data))

    def test_hfc_wider_than_lfc_rejected(self):
        cfg = StftConfig(frame_len=64, hop=16)
        layout = BandLayout(k_lo=5, k_hi=20, n_bins=cfg.n_bins)
        lfc = MagnitudeSpectrogram(np.ones((2, 5)), cfg, SR)
        with pytest.raises(ShapeError, match="wider"):
            predict_band_replication(lfc, layout)


class TestLoadMagnitude:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        data = rng.random((12, 186)).astype(np.float32)
        path = tmp_path / "m.bwx"
        spec_write(path, data, SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
        out = load_magnitude(path, (12, 186), cfg=CFG, sample_rate=SR)
        np.testing.assert_array_equal(out.data, data.astype(np.float64))

    def test_wrong_shape_names_both(self, tmp_path):
        path = tmp_path / "m.bwx"
        spec_write(path, np.ones((12, 100)), SpecKind.MAGNITUDE, SR, 2048, 256)
        with pytest.raises(ShapeError, match=r"\(12, 100\).*\(12, 186\)"):
            load_magnitude(path, (12, 186))

    def test_negative_entry_rejected(self, tmp_path):
        data = np.ones((3, 186), dtype=np.float32)
        data[1, 5] = -1.0
        path = tmp_path / "m.bwx"
        spec_write(path, data, SpecKind.MAGNITUDE, SR, 2048, 256)
        with pytest.raises(PayloadValueError, match="negative"):
            load_magnitude(path, (3, 186))

    def test_complex_kind_rejected(self, tmp_path):
        path = tmp_path / "c.bwx"
        spec_write(path, np.ones((3, 186)), SpecKind.COMPLEX, SR, 2048, 256)
        with pytest.raises(FileFormatError, match="magnitude"):
            load_magnitude(path, (3, 186))

    def test_config_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.bwx"
        spec_write(path, np.ones((3, 186)), SpecKind.MAGNITUDE, SR, 1024, 256)
        with pytest.raises(ShapeError, match="config"):
            load_magnitude(path, (3, 186), cfg=CFG)
