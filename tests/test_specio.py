"""BWXSPEC binary spectrogram format."""

import numpy as np
import pytest

from bwx import SpecKind, spec_read, spec_write
from bwx.errors import (
    BadMagicError,
    MalformedHeaderError,
    PayloadMismatchError,
    PayloadValueError,
    TruncatedDataError,
)
from bwx.specio import HEADER_SIZE


def test_header_size_is_29_bytes():
    assert HEADER_SIZE == 29


def test_magnitude_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.random((17, 33)).astype(np.float32)
    path = tmp_path / "m.bwx"
    spec_write(path, data, SpecKind.MAGNITUDE, 44100, 2048, 256)
    back, header = spec_read(path)
    assert np.array_equal(back, data)
    assert header.frames == 17
    assert header.bins == 33
    assert header.kind is SpecKind.MAGNITUDE
    assert (header.sample_rate, header.frame_len, header.hop) == (44100, 2048, 256)


def test_complex_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    data = (rng.standard_normal((9, 21)) + 1j * rng.standard_normal((9, 21))).astype(
        np.complex64
    )
    path = tmp_path / "c.bwx"
    spec_write(path, data, SpecKind.COMPLEX, 44100, 2048, 256)
    back, header = spec_read(path)
    assert header.kind is SpecKind.COMPLEX
    assert np.array_equal(back, data)


@pytest.mark.parametrize(
    "kind,per_value", [(SpecKind.MAGNITUDE, 1), (SpecKind.COMPLEX, 2)]
)
def test_file_size_layout(tmp_path, kind, per_value):
    frames, bins = 13, 7
    data = np.ones((frames, bins))
    path = tmp_path / "s.bwx"
    spec_write(path, data, kind, 44100, 2048, 256)
    assert path.stat().st_size == 29 + 4 * frames * bins * per_value


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = bytearray(path.read_bytes())
    raw[:8] = b"NOTSPEC0"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        spec_read(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.bwx"
    path.write_bytes(b"BWXSPEC1\x01")
    with pytest.raises(TruncatedDataError):
        spec_read(path)


def test_payload_length_mismatch(tmp_path):
    path = tmp_path / "cut.bwx"
    spec_write(path, np.ones((4, 4)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(PayloadMismatchError, match="payload"):
        spec_read(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "kind.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = bytearray(path.read_bytes())
    raw[16] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedHeaderError, match="kind"):
        spec_read(path)


def test_nan_payload_rejected_on_read(tmp_path):
    path = tmp_path / "nan.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE : HEADER_SIZE + 4] = np.float32("nan").tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(PayloadValueError, match="NaN"):
        spec_read(path)


def test_nan_payload_rejected_on_write(tmp_path):
    data = np.ones((2, 2))
    data[0, 0] = np.nan
    with pytest.raises(PayloadValueError):
        spec_write(tmp_path / "x.bwx", data, SpecKind.MAGNITUDE, 44100, 2048, 256)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_payload_rejected_on_read(tmp_path, bad):
    path = tmp_path / "inf.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = bytearray(path.read_bytes())
    raw[HEADER_SIZE + 8 : HEADER_SIZE + 12] = np.float32(bad).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(PayloadValueError, match="infinite"):
        spec_read(path)


@pytest.mark.parametrize(
    "kind, bad",
    [
        (SpecKind.MAGNITUDE, np.inf),
        (SpecKind.MAGNITUDE, 1e39),  # finite in float64, infinite as float32
        (SpecKind.COMPLEX, complex(0.0, -np.inf)),
        (SpecKind.COMPLEX, complex(np.nan, 0.0)),
    ],
    ids=["magnitude-inf", "magnitude-overflow", "complex-inf", "complex-nan"],
)
def test_non_finite_payload_rejected_on_write(tmp_path, kind, bad):
    data = np.ones((2, 2), dtype=type(bad))
    data[1, 0] = bad
    path = tmp_path / "x.bwx"
    with pytest.raises(PayloadValueError):
        spec_write(path, data, kind, 44100, 2048, 256)
    assert not path.exists()
