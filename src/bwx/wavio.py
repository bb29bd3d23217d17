"""Minimal RIFF/WAVE reader and writer.

Reads PCM 16-bit, PCM 24-bit and IEEE float 32-bit files; integer samples are
normalised to [-1, 1) by dividing by 2^(depth-1). Writes PCM 16-bit (clamped,
rounded half away from zero) or float 32-bit with a canonical 44-byte header.
Unknown chunks are skipped on read.

Both ends stream: ``wav_read(path, start, stop)`` decodes only a range of
frames, and ``wav_write`` can write the header for a known total and then
append the frames block by block to an open file.

``_atomic_output`` is the one place bwx opens a file for writing: every WAV,
BWXSPEC and CSV it writes appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import enum
import os
import shutil
import struct
import uuid
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import Waveform, _channel_layout
from .errors import (
    DomainError,
    MalformedHeaderError,
    TruncatedDataError,
    UnsupportedCodecError,
)

_FORMAT_PCM = 1
_FORMAT_IEEE_FLOAT = 3
_FORMAT_EXTENSIBLE = 0xFFFE
_SUPPORTED = {(_FORMAT_PCM, 16), (_FORMAT_PCM, 24), (_FORMAT_IEEE_FLOAT, 32)}


class SampleDepth(enum.Enum):
    PCM16 = "pcm16"
    FLOAT32 = "float32"


@dataclass(frozen=True)
class _WavHeader:
    n_channels: int
    sample_rate: int
    bits: int
    data_offset: int
    data_size: int

    @property
    def frames(self) -> int:
        return self.data_size // (self.bits // 8 * self.n_channels)


def _read_header(fh, path) -> _WavHeader:
    """Walk the RIFF chunks of an open, seekable WAV file.

    Reads only chunk headers and the fmt body; the data chunk is located,
    checked against the file size and skipped. Raises the typed format errors
    for a malformed, truncated or unsupported file.
    """
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    head = fh.read(12)
    if len(head) < 12:
        raise MalformedHeaderError(f"{path}: file too small to hold a RIFF header")
    if head[0:4] != b"RIFF":
        raise MalformedHeaderError(f"{path}: missing RIFF tag")
    if head[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: missing WAVE tag")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", fh.read(8))
        body_start = pos + 8
        if chunk_id == b"fmt ":
            if chunk_size < 16 or body_start + chunk_size > size:
                raise MalformedHeaderError(f"{path}: fmt chunk truncated")
            body = fh.read(min(chunk_size, 40))
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _FORMAT_EXTENSIBLE and chunk_size >= 40:
                # Resolve WAVE_FORMAT_EXTENSIBLE via the SubFormat GUID prefix.
                (sub_tag,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_tag,) + fmt[1:]
        elif chunk_id == b"data":
            available = size - body_start
            if chunk_size > available:
                raise TruncatedDataError(
                    f"{path}: data chunk declares {chunk_size} bytes, only {available} present"
                )
            data = (body_start, chunk_size)
        pos = body_start + chunk_size + (chunk_size & 1)

    if fmt is None:
        raise MalformedHeaderError(f"{path}: no fmt chunk")
    if data is None:
        raise MalformedHeaderError(f"{path}: no data chunk")

    tag, n_channels, sample_rate, _byte_rate, _block_align, bits = fmt
    if n_channels < 1:
        raise MalformedHeaderError(f"{path}: channel count {n_channels} invalid")
    if sample_rate < 1:
        raise MalformedHeaderError(f"{path}: sample rate {sample_rate} Hz invalid")
    if (tag, bits) not in _SUPPORTED:
        raise UnsupportedCodecError(
            f"{path}: format tag {tag} with {bits} bits is not supported "
            "(PCM16, PCM24 or float32 only)"
        )
    return _WavHeader(n_channels, sample_rate, bits, *data)


def wav_header(path) -> _WavHeader:
    """Channel count, sample rate, bit depth and frame count of a WAV file,
    read from its header without decoding the samples. Raises the same format
    errors as `wav_read`."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)


def wav_read(
    path, start: int | None = None, stop: int | None = None, header: _WavHeader | None = None
) -> tuple[list[Waveform], int]:
    """Read a WAV file, returning one Waveform per channel and the bit depth.

    ``start`` and ``stop`` select a range of frames with the meaning of a
    Python slice, so only that range is read and decoded. The bit depth is
    16, 24 or 32 (32 meaning IEEE float). Given the file's ``header``, as
    `wav_header` returned it, the chunks are not walked again; a file that
    has since lost samples of the range raises `TruncatedDataError`.
    """
    with open(path, "rb") as fh:
        if header is None:
            header = _read_header(fh, path)
        first, last, _ = slice(start, stop).indices(header.frames)
        frames = max(last - first, 0)
        block_align = header.bits // 8 * header.n_channels
        fh.seek(header.data_offset + first * block_align)
        # PCM24 keeps one spare byte in front: each sample is then the top
        # three bytes of the little-endian int32 that starts one byte earlier.
        pad = 1 if header.bits == 24 else 0
        raw = bytearray(pad + frames * block_align)
        if fh.readinto(memoryview(raw)[pad:]) < frames * block_align:
            raise TruncatedDataError(f"{path}: data chunk ends before frame {last}")

    n_channels, depth = header.n_channels, header.bits
    width = depth // 8
    code = {16: "<i2", 24: "<i4", 32: "<f4"}[depth]
    # Every channel read straight out of the interleaved bytes.
    interleaved = np.ndarray(
        (frames, n_channels), dtype=code, buffer=raw, strides=(n_channels * width, width)
    )
    channels = []
    for c in range(n_channels):
        stored = interleaved[:, c]
        if depth == 16:
            values = stored.astype(np.float64)
            values /= 32768.0
        elif depth == 24:
            values = (stored >> 8).astype(np.float64)
            values /= float(1 << 23)
        else:
            values = stored.astype(np.float64)
        channels.append(Waveform(values, header.sample_rate))
    return channels, depth


@contextlib.contextmanager
def _atomic_output(path):
    """Open a new temporary binary file beside ``path`` and move it over
    ``path`` once the block completes. A symlink at ``path`` is followed, so
    its target is replaced, and an existing file's permission bits carry over
    (its owner and other hard links do not). On an error the temporary file
    is removed, so no partial file appears and an existing ``path`` is
    untouched. A ``path`` that exists and is not a regular file (a FIFO or a
    device) cannot be replaced, so it is opened and written in place; that is
    decided on ``path`` as given, since a resolved ``/dev/stdout`` may name
    no file."""
    given = Path(path)
    if given.exists() and not given.is_file():
        with open(given, "wb") as fh:
            yield fh
        return
    path = given.resolve()
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _quantize_pcm16(samples: np.ndarray) -> np.ndarray:
    clamped = np.clip(samples, -1.0, 1.0)
    scaled = clamped * 32768.0
    rounded = np.trunc(scaled + np.copysign(0.5, scaled))
    return np.clip(rounded, -32768, 32767).astype("<i2")


def wav_write(path, x, depth: SampleDepth = SampleDepth.FLOAT32, total_frames: int | None = None) -> None:
    """Write one Waveform (or a list of equal-length channels) as WAV.

    ``path`` is a file name, or a binary file open for writing to stream a
    file in blocks: with ``total_frames`` the header for that many frames is
    written first, without it the frames are appended to what the file holds.
    A file name gets a header for ``x`` alone and is written through
    `_atomic_output`, so it appears whole or not at all. PCM16 output clamps
    to [-1, 1] and rounds half away from zero; float32 output preserves
    values bit-exactly.
    """
    channels = [x] if isinstance(x, Waveform) else list(x)
    n, rate = _channel_layout(channels)

    if depth is SampleDepth.PCM16:
        code, tag, bits = "<i2", _FORMAT_PCM, 16
    elif depth is SampleDepth.FLOAT32:
        code, tag, bits = "<f4", _FORMAT_IEEE_FLOAT, 32
    else:
        raise DomainError(f"unsupported write depth {depth}")
    payload = np.empty((n, len(channels)), dtype=code)  # interleaved frames
    for c, ch in enumerate(channels):
        payload[:, c] = _quantize_pcm16(ch.samples) if bits == 16 else ch.samples

    streaming = hasattr(path, "write")
    header_frames = total_frames if streaming else n
    header = b""
    if header_frames is not None:
        n_channels = len(channels)
        block_align = n_channels * bits // 8
        data_size = header_frames * block_align
        header = struct.pack(
            "<4sI4s4sIHHIIHH4sI",
            b"RIFF",
            36 + data_size,
            b"WAVE",
            b"fmt ",
            16,
            tag,
            n_channels,
            rate,
            rate * block_align,
            block_align,
            bits,
            b"data",
            data_size,
        )
    with contextlib.nullcontext(path) if streaming else _atomic_output(path) as fh:
        fh.write(header)
        fh.write(payload)
