"""The benchmark's own WAV reader/writer, STFT and LSD-HF scorer.

They are independent of ``bwx`` on purpose: the benchmark checks bwx's outputs
with them, so a defect in bwx's I/O or metrics cannot hide itself. The
conventions are the ones bwx documents (frames start at sample 0, periodic
Hann, log power ``10*log10(m^2 + 1e-10)``, per-frame RMS averaged over frames).
"""

from __future__ import annotations

import struct

import numpy as np

FRAME_LEN = 2048
HOP = 256
SAMPLE_RATE = 44100
LO_HZ, HI_HZ = 4000.0, 8000.0
LSD_POWER_FLOOR = 1e-10
_CHUNK_FRAMES = 2048


def band_bin(freq_hz: float) -> int:
    return int(np.floor(freq_hz * FRAME_LEN / SAMPLE_RATE + 0.5))


K_LO, K_HI = band_bin(LO_HZ), band_bin(HI_HZ)


def n_frames(n_samples: int) -> int:
    return 1 + (n_samples - FRAME_LEN) // HOP


def write_wav(path, x: np.ndarray, pcm16: bool = False) -> None:
    """Write (samples,) or (samples, channels) as float32 or PCM16 WAV."""
    x = np.asarray(x, dtype=np.float64)
    x = x[:, None] if x.ndim == 1 else x
    if pcm16:
        payload = np.round(np.clip(x, -1.0, 32767 / 32768) * 32768).astype("<i2").tobytes()
        tag, bits = 1, 16
    else:
        payload = x.astype("<f4").tobytes()
        tag, bits = 3, 32
    channels = x.shape[1]
    align = channels * bits // 8
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16, tag,
        channels, SAMPLE_RATE, SAMPLE_RATE * align, align, bits, b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_wav(path) -> np.ndarray:
    """Read a float32 or PCM16 WAV as (samples, channels) float64.

    Raises ValueError for anything else or a malformed file.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk, size = raw[pos : pos + 4], struct.unpack_from("<I", raw, pos + 4)[0]
        if chunk == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", raw, pos + 8)
        elif chunk == b"data":
            data = raw[pos + 8 : pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    tag, channels, _, _, _, bits = fmt
    if (tag, bits) == (3, 32):
        values = np.frombuffer(data, dtype="<f4").astype(np.float64)
    elif (tag, bits) == (1, 16):
        values = np.frombuffer(data, dtype="<i2") / 32768.0
    else:
        raise ValueError(f"{path}: format tag {tag} with {bits} bits")
    if channels < 1 or len(values) % channels:
        raise ValueError(f"{path}: {len(values)} samples do not split into {channels} channels")
    return values.reshape(-1, channels)


def band_magnitude(x: np.ndarray) -> np.ndarray:
    """|STFT| over bins [K_LO, K_HI) of a 1-D signal, (frames, bins)."""
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / FRAME_LEN)
    frames = np.lib.stride_tricks.sliding_window_view(x, FRAME_LEN)[::HOP][: n_frames(len(x))]
    out = np.empty((len(frames), K_HI - K_LO))
    for start in range(0, len(frames), _CHUNK_FRAMES):
        spectrum = np.fft.rfft(frames[start : start + _CHUNK_FRAMES] * window, axis=1)
        out[start : start + len(spectrum)] = np.abs(spectrum[:, K_LO:K_HI])
    return out


def band_log_power(x: np.ndarray) -> np.ndarray:
    m = band_magnitude(x)
    return 10.0 * np.log10(m * m + LSD_POWER_FLOOR)


def lsd(truth_log_power: np.ndarray, estimate_log_power: np.ndarray) -> float:
    """Per-frame RMS of the log-power difference, averaged over the frames
    both spectrograms have."""
    n = min(len(truth_log_power), len(estimate_log_power))
    diff = truth_log_power[:n] - estimate_log_power[:n]
    return float(np.mean(np.sqrt(np.mean(diff * diff, axis=1))))
