"""BWXSPEC binary spectrogram format."""

import numpy as np
import pytest

from bwx import SpecKind, spec_read, spec_write
from bwx.errors import (
    BadMagicError,
    DomainError,
    MalformedHeaderError,
    PayloadMismatchError,
    PayloadValueError,
    ShapeError,
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
    # Zero parts of either sign, which compare equal, so their sign bits are
    # compared too.
    data[0, :4] = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    path = tmp_path / "c.bwx"
    spec_write(path, data, SpecKind.COMPLEX, 44100, 2048, 256)
    back, header = spec_read(path)
    assert header.kind is SpecKind.COMPLEX
    assert back.dtype == np.complex64
    assert np.array_equal(back, data)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(back)), np.signbit(part(data)))


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


@pytest.mark.parametrize(
    "offset, value, match",
    [
        (8, 0, "frames and bins"),  # frames
        (12, 0, "frames and bins"),  # bins
        (17, 0, "sample rate"),
        (21, 0, "frame length"),
        (21, 2047, "frame length"),
        (25, 0, "hop"),
        (25, 2049, "hop"),  # longer than the frame
    ],
)
def test_bad_header_field_rejected(tmp_path, offset, value, match):
    path = tmp_path / "field.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 44100, 2048, 256)
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = value.to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(MalformedHeaderError, match=match) as excinfo:
        spec_read(path)
    assert str(excinfo.value).startswith(f"{path}: ")


@pytest.mark.parametrize(
    "shape, fields, error, match",
    [
        ((0, 2), (44100, 2048, 256), ShapeError, "frames and bins"),
        ((2, 0), (44100, 2048, 256), ShapeError, "frames and bins"),
        ((2, 2), (0, 2048, 256), DomainError, "sample rate"),
        ((2, 2), (-1, 2048, 256), DomainError, "sample rate"),
        ((2, 2), (44100, 0, 256), DomainError, "frame length"),
        ((2, 2), (44100, 2047, 256), DomainError, "frame length"),
        ((2, 2), (44100, 2048, 0), DomainError, "hop"),
        ((2, 2), (44100, 2048, 2049), DomainError, "hop"),
        ((2, 2), (2**32, 2048, 256), DomainError, r"below 2\*\*32"),
        ((2, 2), (44100, 2**32, 256), DomainError, r"below 2\*\*32"),
    ],
)
def test_bad_header_field_rejected_on_write(tmp_path, shape, fields, error, match):
    path = tmp_path / "field.bwx"
    with pytest.raises(error, match=match):
        spec_write(path, np.ones(shape), SpecKind.MAGNITUDE, *fields)
    assert not path.exists()


def test_hop_equal_to_frame_length_accepted(tmp_path):
    path = tmp_path / "edge.bwx"
    spec_write(path, np.ones((2, 2)), SpecKind.MAGNITUDE, 1, 2, 2)
    _, header = spec_read(path)
    assert (header.sample_rate, header.frame_len, header.hop) == (1, 2, 2)


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
