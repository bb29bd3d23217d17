"""BWXSPEC binary spectrogram files.

Little-endian layout, 29 header bytes then the payload:

    offset  size  field
    0       8     magic "BWXSPEC1"
    8       4     frames (u32)
    12      4     bins (u32)
    16      1     kind (u8): 0 = magnitude, 1 = complex interleaved
    17      4     sample_rate (u32)
    21      4     frame_len (u32)
    25      4     hop (u32)

The payload is row-major frames x bins float32 for magnitude files, or
interleaved re,im float32 pairs for complex files.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    BwxError,
    DomainError,
    MalformedHeaderError,
    PayloadMismatchError,
    PayloadValueError,
    ShapeError,
    TruncatedDataError,
)

MAGIC = b"BWXSPEC1"
_HEADER_STRUCT = struct.Struct("<8sIIBIII")
HEADER_SIZE = _HEADER_STRUCT.size  # 29
_U32_MAX = 2**32 - 1


class SpecKind(enum.IntEnum):
    MAGNITUDE = 0
    COMPLEX = 1


@dataclass(frozen=True)
class SpecFileHeader:
    frames: int
    bins: int
    kind: SpecKind
    sample_rate: int
    frame_len: int
    hop: int


def _header_error(frames, bins, sample_rate, frame_len, hop) -> BwxError | None:
    """The error, as a writer raises it, for the first header field that
    breaks the format's rule, or None when the header is valid."""
    fields = (frames, bins, sample_rate, frame_len, hop)
    rules = (
        (DomainError, max(fields) > _U32_MAX, f"header fields must be below 2**32, got {fields}"),
        (ShapeError, frames < 1 or bins < 1, f"frames and bins must be >= 1, got {frames}x{bins}"),
        (DomainError, sample_rate < 1, f"sample rate must be >= 1, got {sample_rate}"),
        (DomainError, frame_len < 1 or frame_len % 2,
         f"frame length must be even and >= 2, got {frame_len}"),
        (DomainError, not 0 < hop <= frame_len,
         f"hop must be in 1..frame length {frame_len}, got {hop}"),
    )
    return next((error(problem) for error, bad, problem in rules if bad), None)


def spec_write(
    path,
    data: np.ndarray,
    kind: SpecKind,
    sample_rate: int,
    frame_len: int,
    hop: int,
) -> None:
    """Write a spectrogram payload with its header. Magnitude data is stored
    as float32, complex data as interleaved float32 re,im pairs. A payload
    holding NaN or infinity, also one that overflows float32, is refused, and
    so is a header that `spec_read` would refuse."""
    data = np.asarray(data)
    if data.ndim != 2:
        raise ShapeError(f"spectrogram data must be 2-D, got shape {data.shape}")
    error = _header_error(*data.shape, sample_rate, frame_len, hop)
    if error is not None:
        raise error

    kind = SpecKind(kind)
    with np.errstate(over="ignore"):
        if kind is SpecKind.MAGNITUDE:
            payload = data.astype("<f4")
        else:
            as_complex = data.astype(np.complex64)
            payload = np.empty((data.shape[0], data.shape[1] * 2), dtype="<f4")
            payload[:, 0::2] = as_complex.real
            payload[:, 1::2] = as_complex.imag
    if not np.isfinite(payload).all():
        raise PayloadValueError("refusing to write a NaN or infinite payload")

    header = _HEADER_STRUCT.pack(
        MAGIC, data.shape[0], data.shape[1], int(kind), sample_rate, frame_len, hop
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload.tobytes())


def spec_read(path) -> tuple[np.ndarray, SpecFileHeader]:
    """Read a BWXSPEC file, validating magic, kind, header fields and payload
    length. A header field out of range raises `MalformedHeaderError`.

    Returns float32 magnitudes or complex64 values, shape (frames, bins).
    """
    with open(path, "rb") as fh:
        raw = fh.read()

    if len(raw) < HEADER_SIZE:
        raise TruncatedDataError(
            f"{path}: {len(raw)} bytes cannot hold a {HEADER_SIZE}-byte header"
        )
    magic, frames, bins, kind_byte, sample_rate, frame_len, hop = _HEADER_STRUCT.unpack_from(
        raw, 0
    )
    if magic != MAGIC:
        raise BadMagicError(f"{path}: magic {magic!r} is not {MAGIC!r}")
    try:
        kind = SpecKind(kind_byte)
    except ValueError:
        raise MalformedHeaderError(f"{path}: unknown spectrogram kind {kind_byte}") from None
    error = _header_error(frames, bins, sample_rate, frame_len, hop)
    if error is not None:
        raise MalformedHeaderError(f"{path}: {error}")
    header = SpecFileHeader(frames, bins, kind, sample_rate, frame_len, hop)

    per_value = 8 if kind is SpecKind.COMPLEX else 4
    expected = frames * bins * per_value
    actual = len(raw) - HEADER_SIZE
    if actual != expected:
        raise PayloadMismatchError(
            f"{path}: payload is {actual} bytes, header implies {expected}"
        )

    floats = np.frombuffer(raw, dtype="<f4", offset=HEADER_SIZE)
    if not np.isfinite(floats).all():
        raise PayloadValueError(f"{path}: payload contains NaN or infinite values")
    if kind is SpecKind.MAGNITUDE:
        data = floats.reshape(frames, bins).copy()
    else:
        pairs = floats.reshape(frames, bins, 2)
        data = (pairs[..., 0] + 1j * pairs[..., 1]).astype(np.complex64)
    return data, header
