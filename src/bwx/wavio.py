"""Minimal RIFF/WAVE reader and writer.

Reads PCM 16-bit, PCM 24-bit and IEEE float 32-bit files; integer samples are
normalised to [-1, 1) by dividing by 2^(depth-1). Writes PCM 16-bit (clamped,
rounded half away from zero) or float 32-bit with a canonical 44-byte header.

Both ends stream, front to back, so a pipe works as a file does.
`_WavSource` is the one reader: one open file, its chunks walked without
seeking, then the ascending sample spans of a pass, each frame decoded
once; ``wav_read`` is one whole pass. ``wav_write`` can write the header for
a known total and then append the frames block by block to an open file.

``_atomic_output`` is the one place bwx opens a file for writing: every WAV,
BWXSPEC and CSV it writes appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import enum
import os
import shutil
import stat
import struct
import uuid
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
# The most bytes read at once, so a forged chunk size allocates only what
# the file holds; `_WavSource.check_unread` reads as many bytes of frames.
_PIECE_BYTES = 1 << 20


class SampleDepth(enum.Enum):
    PCM16 = "pcm16"
    FLOAT32 = "float32"


def _pieces(fh, size: int):
    """The next ``size`` bytes of ``fh`` (fewer where it ends), in pieces."""
    while size > 0:
        piece = fh.read(min(size, _PIECE_BYTES))
        if not piece:
            return
        size -= len(piece)
        yield piece


def _read_header(fh, path) -> tuple[int, int, int, int]:
    """Channel count, sample rate, bit depth and frame count of an open WAV
    file, its chunks walked front to back to its first sample: ``fmt ``
    before ``data``, any other chunk read past. A regular file must hold the
    data size; a stream must not give a placeholder (0 or 0xFFFFFFFF) for it.
    Raises the typed format errors for a malformed, truncated or unsupported file."""
    head = fh.read(12)
    if len(head) < 12:
        raise MalformedHeaderError(f"{path}: file too small to hold a RIFF header")
    if head[0:4] != b"RIFF":
        raise MalformedHeaderError(f"{path}: missing RIFF tag")
    if head[8:12] != b"WAVE":
        raise MalformedHeaderError(f"{path}: missing WAVE tag")

    fmt = None
    while len(chunk := fh.read(8)) == 8:
        chunk_id, size = struct.unpack("<4sI", chunk)
        if chunk_id == b"data":
            break
        body = fh.read(min(size, 40)) if chunk_id == b"fmt " else b""
        if len(body) + sum(map(len, _pieces(fh, size - len(body)))) < size:
            name = chunk_id.decode("latin-1").strip()
            raise MalformedHeaderError(f"{path}: {name} chunk truncated")
        fh.read(size & 1)  # the pad byte
        if chunk_id == b"fmt ":
            if size < 16:
                raise MalformedHeaderError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", body)
            if fmt[0] == _FORMAT_EXTENSIBLE and size >= 40:
                # Resolve WAVE_FORMAT_EXTENSIBLE via the SubFormat GUID prefix.
                (sub_tag,) = struct.unpack_from("<H", body, 24)
                fmt = (sub_tag,) + fmt[1:]
    else:
        raise MalformedHeaderError(f"{path}: no {'data' if fmt else 'fmt'} chunk")
    if fmt is None:
        raise MalformedHeaderError(f"{path}: data chunk before the fmt chunk")
    info = os.fstat(fh.fileno())
    if stat.S_ISREG(info.st_mode):
        available = info.st_size - fh.tell()
        if size > available:
            raise TruncatedDataError(
                f"{path}: data chunk declares {size} bytes, only {available} present"
            )
    elif size in (0, 0xFFFFFFFF):
        raise TruncatedDataError(f"{path}: data size {size:#x} is a placeholder, not a length")

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
    return n_channels, sample_rate, bits, size // (bits // 8 * n_channels)


class _WavSource(contextlib.AbstractContextManager):
    """A WAV file read by one forward pass, as a context manager that closes
    it. The header is read on opening; the pass then asks for ascending
    sample spans, touching or overlapping, and the last span's samples are
    kept, so each frame is decoded once (a gap's on the way)."""

    def __init__(self, path):
        self.path = path
        self._fh = open(path, "rb")
        try:
            self.n_channels, self.sample_rate, self.bits, self.n_samples = _read_header(self._fh, path)
        except BaseException:
            self._fh.close()
            raise
        self._start = 0  # the kept samples are those from here on
        self._kept = [np.zeros(0)] * self.n_channels

    def __exit__(self, *exc) -> None:
        self._fh.close()

    def read(self, start: int, stop: int) -> list[np.ndarray]:
        """Samples [start, stop) of every channel, clipped to the file; a
        span that starts below the kept samples raises `DomainError`."""
        stop = min(stop, self.n_samples)
        start = min(start, stop)
        if start < self._start:
            raise DomainError(f"{self.path}: read from sample {start} after {self._start}")
        end = self._start + len(self._kept[0])
        first = min(start, end)
        keep = [kept[first - self._start :] for kept in self._kept]
        if stop > end:
            keep = self._decode(keep, stop - end)
        self._start, self._kept = first, keep
        return [kept[start - first : stop - first] for kept in keep]

    def _decode(self, keep: list[np.ndarray], frames: int) -> list[np.ndarray]:
        """Each channel's ``keep`` and then the file's next ``frames`` frames."""
        depth, n_channels = self.bits, self.n_channels
        width = depth // 8
        # PCM24 keeps one spare byte in front: each sample is then the top
        # three bytes of the little-endian int32 that starts one byte earlier.
        pad = b"\0" if depth == 24 else b""
        raw = b"".join([pad, *_pieces(self._fh, frames * width * n_channels)])
        if len(raw) - len(pad) < frames * width * n_channels:
            raise TruncatedDataError(f"{self.path}: data chunk ends before its {self.n_samples} frames")
        code = {16: "<i2", 24: "<i4", 32: "<f4"}[depth]
        # Every channel read straight out of the interleaved bytes.
        interleaved = np.ndarray(
            (frames, n_channels), dtype=code, buffer=raw, strides=(n_channels * width, width)
        )
        channels = []
        for c, kept in enumerate(keep):
            values = np.empty(len(kept) + frames)
            values[: len(kept)] = kept
            fresh = values[len(kept) :]
            # A signalling NaN warns in the cast; the check below raises for it.
            with np.errstate(invalid="ignore"):
                fresh[:] = interleaved[:, c] >> 8 if depth == 24 else interleaved[:, c]
            if depth < 32:
                fresh /= float(1 << (depth - 1))
            elif not np.all(np.isfinite(fresh)):
                raise DomainError(f"{self.path}: waveform contains non-finite samples")
            channels.append(values)
        return channels

    def check_unread(self) -> None:
        """Decode the samples past the last span, so a non-finite sample
        anywhere in the file raises `DomainError` as a whole read would."""
        step = max(_PIECE_BYTES // (self.bits // 8 * self.n_channels), 1)
        while (end := self._start + len(self._kept[0])) < self.n_samples:
            self.read(end, end + step)


def wav_read(path) -> tuple[list[Waveform], int]:
    """Read a WAV file whole, by one pass of `_WavSource`: one Waveform per
    channel and the bit depth, 16, 24 or 32 (32 meaning IEEE float)."""
    with _WavSource(path) as source:
        channels = source.read(0, source.n_samples)
        return [Waveform(ch, source.sample_rate) for ch in channels], source.bits


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
