"""Time-frequency analysis/synthesis, band indexing and the consistency projection.

Conventions used throughout the package:

* Frames start at sample 0 with no center padding; a signal of N samples
  yields L = 1 + floor((N - frame_len) / hop) frames.
* Spectrograms are one-sided, shape (L, F) with F = frame_len // 2 + 1.
* Synthesis is weighted overlap-add with the analysis window applied a
  second time and the result divided by the overlapped squared-window sum
  (floored at 1e-12 to keep edge samples finite). That sum depends only on
  the configuration, the frame count and the sample range; the whole-length
  sum is cached per (cfg, frames).
* Every sample of the overlap-add sums its frames in ascending frame order,
  so adding a spectrogram block by block (`overlap_add` per block of
  `frame_blocks`) gives the same bits as adding it whole. Analysis is per
  frame, so a block's STFT equals the matching rows of the whole STFT.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DomainError, LengthError, ShapeError

WINDOW_SUM_FLOOR = 1e-12

# Frames per block in the frame-local flows (sr without Griffin-Lim, eval,
# brickwall prepare): 256 frames of 2048/256 hold about 4 MB of complex128,
# so their spectrogram memory does not grow with the input's length; sr and
# eval also read and write their WAV files one block at a time.
BLOCK_FRAMES = 256


def hann_window(frame_len: int) -> np.ndarray:
    """Periodic Hann window of the given even length."""
    n = np.arange(frame_len)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len)


def wrap_phase(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into (-pi, pi]; -pi maps to +pi."""
    return np.pi - np.mod(np.pi - np.asarray(theta, dtype=np.float64), 2.0 * np.pi)


def bin_index(freq_hz: float, sample_rate: int, frame_len: int) -> int:
    """Map a frequency in Hz to the nearest one-sided spectrogram bin.

    Rounds half up and clamps to [0, frame_len // 2 + 1]. Frequencies outside
    [0, Nyquist] are rejected.
    """
    nyquist = sample_rate / 2.0
    if not 0.0 <= freq_hz <= nyquist:
        raise DomainError(
            f"frequency {freq_hz} Hz outside [0, {nyquist}] for sample rate {sample_rate}"
        )
    k = int(np.floor(freq_hz * frame_len / sample_rate + 0.5))
    return min(max(k, 0), frame_len // 2 + 1)


@dataclass(frozen=True)
class StftConfig:
    """Analysis/synthesis contract: frame length and hop, with a periodic
    Hann window."""

    frame_len: int = 2048
    hop: int = 256

    def __post_init__(self) -> None:
        if self.frame_len <= 0 or self.frame_len % 2 != 0:
            raise DomainError(f"frame_len must be positive and even, got {self.frame_len}")
        if not 0 < self.hop <= self.frame_len:
            raise DomainError(f"hop must satisfy 0 < hop <= frame_len, got {self.hop}")

    @property
    def n_bins(self) -> int:
        return self.frame_len // 2 + 1

    def window_values(self) -> np.ndarray:
        return hann_window(self.frame_len)

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.frame_len:
            raise LengthError(
                f"signal of {n_samples} samples shorter than one frame ({self.frame_len})"
            )
        return 1 + (n_samples - self.frame_len) // self.hop

    def output_length(self, n_frames: int) -> int:
        return (n_frames - 1) * self.hop + self.frame_len


@dataclass
class Waveform:
    """Mono sample sequence plus its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self) -> None:
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ShapeError(f"waveform samples must be 1-D, got shape {self.samples.shape}")
        if self.sample_rate <= 0:
            raise DomainError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise DomainError("waveform contains non-finite samples")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class BandLayout:
    """Bin boundaries splitting a spectrogram into LFC, HFC and residual bands.

    LFC covers [0, k_lo), HFC covers [k_lo, k_hi), the residual band covers
    [k_hi, n_bins).
    """

    k_lo: int
    k_hi: int
    n_bins: int

    def __post_init__(self) -> None:
        if not 0 < self.k_lo < self.k_hi <= self.n_bins:
            raise DomainError(
                f"band layout requires 0 < k_lo < k_hi <= n_bins, "
                f"got ({self.k_lo}, {self.k_hi}, {self.n_bins})"
            )

    @property
    def lfc_width(self) -> int:
        return self.k_lo

    @property
    def hfc_width(self) -> int:
        return self.k_hi - self.k_lo

    @classmethod
    def from_frequencies(
        cls, lo_hz: float, hi_hz: float, sample_rate: int, cfg: StftConfig
    ) -> "BandLayout":
        return cls(
            k_lo=bin_index(lo_hz, sample_rate, cfg.frame_len),
            k_hi=bin_index(hi_hz, sample_rate, cfg.frame_len),
            n_bins=cfg.n_bins,
        )


def _validate_spectrogram_data(data: np.ndarray) -> None:
    if data.ndim != 2:
        raise ShapeError(f"spectrogram data must be 2-D (frames x bins), got {data.shape}")
    if not np.all(np.isfinite(data)):
        raise DomainError("spectrogram contains non-finite entries")


@dataclass
class ComplexSpectrogram:
    """Complex STFT values, shape (frames, bins). May be a band slice."""

    data: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.complex128)
        _validate_spectrogram_data(self.data)

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


@dataclass
class MagnitudeSpectrogram:
    """Non-negative magnitudes, shape (frames, bins). May be a band slice."""

    data: np.ndarray
    config: StftConfig
    sample_rate: int

    def __post_init__(self) -> None:
        self.data = np.asarray(self.data, dtype=np.float64)
        _validate_spectrogram_data(self.data)
        if np.any(self.data < 0):
            raise DomainError("magnitude spectrogram contains negative entries")

    @property
    def n_frames(self) -> int:
        return self.data.shape[0]

    @property
    def n_bins(self) -> int:
        return self.data.shape[1]


# ---------------------------------------------------------------------------
# Array-level core. The public operations below wrap these in the typed
# containers; iterative callers (Griffin-Lim) use them directly.
# ---------------------------------------------------------------------------


_scratch = threading.local()


def _frame_scratch(n_frames: int, frame_len: int) -> np.ndarray:
    """A (n_frames, frame_len) float64 array for windowed frames. Up to
    `BLOCK_FRAMES` frames it comes from one buffer per thread, reused by
    every later call: a fresh multi-MB array per block page-faults anew on
    every block once the allocator has handed the previous block's memory
    back to the system. Longer (whole-file) requests get a fresh array."""
    if n_frames > BLOCK_FRAMES:
        return np.empty((n_frames, frame_len))
    buffer = getattr(_scratch, "frames", None)
    if buffer is None or buffer.shape[1] != frame_len or len(buffer) < n_frames:
        buffer = _scratch.frames = np.empty((n_frames, frame_len))
    return buffer[:n_frames]


def stft_array(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """STFT of a 1-D float array, returning (frames, bins) complex128."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = cfg.frame_count(len(x))
    windows = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_len)[:: cfg.hop]
    frames = np.multiply(
        windows[:n_frames], cfg.window_values(), out=_frame_scratch(n_frames, cfg.frame_len)
    )
    return scipy.fft.rfft(frames, axis=1, workers=-1)


def _synthesis_denominator(
    cfg: StftConfig, n_frames: int, start: int = 0, stop: int | None = None
) -> np.ndarray:
    """Overlapped squared-window sum of ``n_frames`` frames over samples
    [start, stop) (default: all of them), floored at WINDOW_SUM_FLOOR.

    Each sample sums its frames' window squares in the same order whatever
    the range, so a range's values equal that slice of the whole sum bit for
    bit. The whole sum is cached per (cfg, n_frames) and shared by every
    caller, so it is returned read-only; a partial range (one block's) costs
    a few vector adds and is computed afresh."""
    stop = cfg.output_length(n_frames) if stop is None else stop
    if start == 0 and stop == cfg.output_length(n_frames):
        return _whole_denominator(cfg, n_frames)
    return _window_square_sum(cfg, n_frames, start, stop)


@functools.lru_cache(maxsize=4)
def _whole_denominator(cfg: StftConfig, n_frames: int) -> np.ndarray:
    denominator = _window_square_sum(cfg, n_frames, 0, cfg.output_length(n_frames))
    denominator.flags.writeable = False
    return denominator


def _window_square_sum(cfg: StftConfig, n_frames: int, start: int, stop: int) -> np.ndarray:
    frame_len, hop = cfg.frame_len, cfg.hop
    window = cfg.window_values()
    wsq = window * window
    if frame_len % hop == 0:
        # Rows of hop samples; row r takes segment j of frame r - j, j ascending.
        n_seg = frame_len // hop
        wblocks = wsq.reshape(n_seg, hop)
        r0, r1 = start // hop, -(-stop // hop)
        wline = np.zeros((r1 - r0, hop))
        for j in range(n_seg):
            lo, hi = max(j, r0), min(j + n_frames, r1)
            if lo < hi:
                wline[lo - r0 : hi - r0] += wblocks[j]
        wsum = wline.reshape(-1)[start - r0 * hop : stop - r0 * hop]
    else:
        wsum = np.zeros(stop - start)
        for i in range(max(0, (start - frame_len) // hop + 1), min(n_frames, -(-stop // hop))):
            lo, hi = max(i * hop, start), min(i * hop + frame_len, stop)
            wsum[lo - start : hi - start] += wsq[lo - i * hop : hi - i * hop]
    return np.maximum(wsum, WINDOW_SUM_FLOOR)


def overlap_add(X_block: np.ndarray, out: np.ndarray, first_frame: int, cfg: StftConfig) -> None:
    """Add the windowed irfft frames of ``X_block`` into ``out``, frame i at
    sample (first_frame + i) * hop, without normalising.

    Each sample receives its frames in ascending frame order, so calling this
    block after block in frame order sums exactly as one call on the whole
    spectrogram does."""
    frame_len, hop = cfg.frame_len, cfg.hop
    n_frames = X_block.shape[0]
    frames = scipy.fft.irfft(X_block, n=frame_len, axis=1, workers=-1)
    frames *= cfg.window_values()
    start = first_frame * hop
    if frame_len % hop == 0:
        # Hop divides the frame: add hop-sized segments, the last segment of
        # every frame first, so each output row takes its earliest frame first.
        n_seg = frame_len // hop
        segments = frames.reshape(n_frames, n_seg, hop)
        rows = out[start : start + (n_frames - 1 + n_seg) * hop].reshape(-1, hop)
        for j in reversed(range(n_seg)):
            rows[j : j + n_frames] += segments[:, j, :]
    else:
        for i in range(n_frames):
            out[start + i * hop : start + i * hop + frame_len] += frames[i]


def istft_array(X: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Weighted overlap-add inverse of `stft_array`; output has
    (L - 1) * hop + frame_len samples.

    The overlap-added signal is divided by the floored squared-window sum,
    which is computed once per (cfg, L) and cached."""
    X = np.asarray(X, dtype=np.complex128)
    n_frames = X.shape[0]
    out = np.zeros(cfg.output_length(n_frames))
    overlap_add(X, out, 0, cfg)
    out /= _synthesis_denominator(cfg, n_frames)
    return out


def frame_blocks(
    n_frames: int, cfg: StftConfig, block_frames: int | None = None
) -> Iterator[tuple[int, int, slice]]:
    """Split frames 0..n_frames-1 into consecutive blocks of ``block_frames``
    (default `BLOCK_FRAMES`) frames.

    Yields ``(f0, f1, samples)``: the block covers frames f0..f1-1 and
    ``stft_array(x[samples], cfg)`` is exactly those frames of
    ``stft_array(x, cfg)``."""
    step = block_frames or BLOCK_FRAMES
    for f0 in range(0, n_frames, step):
        f1 = min(f0 + step, n_frames)
        yield f0, f1, slice(f0 * cfg.hop, (f1 - 1) * cfg.hop + cfg.frame_len)


def interior_slice(n_samples: int, cfg: StftConfig) -> slice:
    """Index range where every sample is covered by a full set of overlapping
    frames, i.e. where the round trip is exact."""
    margin = cfg.frame_len - cfg.hop
    return slice(margin, n_samples - margin)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def stft(x: Waveform, cfg: StftConfig) -> ComplexSpectrogram:
    """Forward STFT of a waveform."""
    return ComplexSpectrogram(stft_array(x.samples, cfg), cfg, x.sample_rate)


def istft(X: ComplexSpectrogram) -> Waveform:
    """Inverse STFT by weighted overlap-add synthesis."""
    if X.n_bins != X.config.n_bins:
        raise ShapeError(
            f"spectrogram has {X.n_bins} bins, config demands {X.config.n_bins}"
        )
    return Waveform(istft_array(X.data, X.config), X.sample_rate)


def consistency_project_array(X: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Project onto the set of consistent spectrograms: stft(istft(X)), a
    fixed point (up to rounding) exactly when X is the STFT of some signal.
    An L-frame spectrogram resynthesises to output_length(L) samples, which
    analyse back into exactly L frames."""
    return stft_array(istft_array(X, cfg), cfg)
