"""Time-frequency analysis/synthesis, band indexing and the consistency projection.

Conventions used throughout the package:

* Frames start at sample 0 with no center padding; a signal of N samples
  yields L = 1 + floor((N - frame_len) / hop) frames.
* Spectrograms are one-sided, shape (L, F) with F = frame_len // 2 + 1.
* Synthesis is weighted overlap-add with the analysis window applied a
  second time and the result divided by the overlapped squared-window sum
  (floored at 1e-12 to keep edge samples finite). Numerator and
  denominator are one overlap-add (`_add_frames`), of the windowed frames
  and of the squared window, and it takes the same path for every hop,
  whether or not the hop divides frame_len. No sample lies under more than
  ceil(frame_len / hop) frames, so every value of a whole-length sum is
  read, bit for bit, off the sum of a short grid of 2 * ceil(frame_len / hop)
  + 1 frames (`_normalise`); only those short sums are built and cached, per
  (cfg, frames), the hop-periodic stretch between their ends is divided hop
  by hop by one hop of the short sum, and no denominator as long as the
  signal is held.
* Every sample of both sums takes its frames in ascending frame order, so
  adding a spectrogram block by block (`overlap_add` per block of
  `frame_blocks`) gives the same bits as adding it whole. Analysis is per
  frame, so a block's STFT equals the matching rows of the whole STFT.
* Reconstruction and brickwall filtering run on a padded grid
  (`padded_grid`, `resynthesize`): ceil((frame_len - hop) / hop) * hop zeros
  go in front of the signal and enough behind it that every sample lies under
  a full set of frames, and the output is cut back to the signal's own
  samples. Each of those is divided by the hop-periodic full-coverage sum, so
  the output has the input's length and no edge sample sits on the floor.
  The lead is a multiple of hop, so the grid's frames lead/hop onwards are
  the frames the signal alone analyses into. A caller that needs the output
  whole fills one array with the stretches as they come (`_whole_channels`).
* `stft_array` and `overlap_add` work through at most `BLOCK_FRAMES` frames
  at a time, so no transform takes a whole-file frame buffer. Their workspace
  is one frame buffer per thread (`_frame_scratch`): a block's windowed
  frames, read through one strided view of the signal, are written into it
  and transformed straight into the block's rows of the result, and a
  block's inverse transform is written into it and windowed in place, so no
  block allocates frames or spectra of its own. The FFTs are numpy's
  (pocketfft, single-threaded, with ``out=``). The consistency projection
  stft(istft(X)) of a whole spectrogram is those two transforms
  (`consistency_project_array`). Griffin-Lim streams it (`_project_band`):
  each block of X is overlap-added into one reused buffer of about a block's
  samples, a frame is analysed as soon as no later block can touch its
  samples, and only the samples later frames still need are carried to the
  buffer's front, so no signal-length array is held. The projection is
  linear, so the rows may be added onto a signal that already holds the
  overlap-add of frames that never change: Griffin-Lim in the pipeline
  keeps only its high band and that signal, not the grid's spectrogram, and
  transforms only the band: a real frame is read as half as many complex
  samples, so its band's bins synthesise through one half-length complex
  `ifft` of a block zero outside the band and its mirror, and analyse back
  through one half-length `fft`, with the split-radix twiddles applied to
  the band's bins alone.
"""

from __future__ import annotations

import functools
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LengthError, ShapeError

WINDOW_SUM_FLOOR = 1e-12

# Frames per block in the frame-local flows (sr without Griffin-Lim, eval,
# brickwall prepare) and the most frames any transform here works on at once,
# Griffin-Lim's projection included: 64 frames of 2048/256 hold about 1 MB of
# complex128, so block memory does not grow with the input's length; sr and
# eval also read and write their WAV files one block at a time. Chosen from a
# sweep of the benchmark's passes (seed 1, warm input cache, one process per
# pass, peak RSS of that process) on a 2-core x86-64 host:
#
#   frames  study peak RSS  long-stereo  prep-batch  long-stereo CPU, 4 runs
#      256        106.5 MB      78.4 MB     77.0 MB  4.9-5.8 s
#       64         98.4 MB      62.5 MB     65.7 MB  4.7-6.2 s
#       32         98.0 MB      61.2 MB     65.2 MB  5.4-6.7 s
#       16         98.0 MB      60.9 MB     65.2 MB  5.3-7.6 s
#
# Below 64 frames peak RSS falls by under 1.5 MB more; the CPU ranges overlap
# on this noisy host, and each halving doubles the per-block Python calls.
BLOCK_FRAMES = 64


@functools.lru_cache(maxsize=4)
def hann_window(frame_len: int) -> np.ndarray:
    """Periodic Hann window of the given even length. Cached per frame_len and
    shared by every caller, so it is returned read-only."""
    n = np.arange(frame_len)
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_len)
    window.flags.writeable = False
    return window


def bin_index(freq_hz: float, sample_rate: int, frame_len: int) -> int:
    """Map a frequency in Hz to the nearest one-sided spectrogram bin.

    Rounds half up. Frequencies outside [0, Nyquist] are rejected, so for an
    even ``frame_len``, as `StftConfig` requires, the bin is in
    [0, frame_len // 2].
    """
    nyquist = sample_rate / 2.0
    if not 0.0 <= freq_hz <= nyquist:
        raise DomainError(
            f"frequency {freq_hz} Hz outside [0, {nyquist}] for sample rate {sample_rate}"
        )
    return int(np.floor(freq_hz * frame_len / sample_rate + 0.5))


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


# The paper's task: the input is band-limited at BAND_LO_HZ and [BAND_LO_HZ,
# BAND_HI_HZ) rebuilt. The phase study runs there and scores at StftConfig().
BAND_LO_HZ, BAND_HI_HZ = 4000.0, 8000.0


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


def _channel_layout(channels: Sequence[Waveform]) -> tuple[int, int]:
    """The length and sample rate that every one of ``channels`` shares;
    `ShapeError` for no channels or channels that differ in either."""
    if not channels:
        raise ShapeError("need at least one channel")
    n, rate = len(channels[0]), channels[0].sample_rate
    if any(len(ch) != n or ch.sample_rate != rate for ch in channels):
        raise ShapeError("all channels must share length and sample rate")
    return n, rate


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


def _checked_magnitude(m: np.ndarray) -> np.ndarray:
    """``m`` as float64, checked to be 2-D (frames x bins; `ShapeError`),
    finite and non-negative (`DomainError`)."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"spectrogram data must be 2-D (frames x bins), got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DomainError("magnitude spectrogram contains non-finite entries")
    if np.any(m < 0):
        raise DomainError("magnitude spectrogram contains negative entries")
    return m


_scratch = threading.local()


def _frame_scratch(n_frames: int, frame_len: int) -> np.ndarray:
    """A (n_frames, frame_len) float64 array for windowed or inverse-transformed
    frames, n_frames at most `BLOCK_FRAMES`, from one buffer per thread reused
    by every later call: a fresh multi-MB array per block page-faults anew on
    every block once the allocator has handed the previous block's memory back
    to the system."""
    buffer = getattr(_scratch, "frames", None)
    if buffer is None or buffer.shape[1] != frame_len or len(buffer) < n_frames:
        buffer = _scratch.frames = np.empty((n_frames, frame_len))
    return buffer[:n_frames]


def stft_array(x: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """STFT of a 1-D float array, returning (frames, bins) complex128,
    analysed `BLOCK_FRAMES` frames at a time: each block is windowed into the
    thread's frame buffer and transformed straight into its rows of the
    result. The samples are not scanned for non-finite values: `Waveform` and
    the WAV reader check them where they enter."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError(f"signal must be 1-D, got shape {x.shape}")
    n_frames = cfg.frame_count(len(x))
    windows = _frame_view(np.ascontiguousarray(x), n_frames, cfg)
    X = np.empty((n_frames, cfg.n_bins), dtype=np.complex128)
    for f0, f1, _ in frame_blocks(n_frames, cfg):
        frames = _frame_scratch(f1 - f0, cfg.frame_len)
        np.multiply(windows[f0:f1], cfg.window_values(), out=frames)
        np.fft.rfft(frames, axis=1, out=X[f0:f1])
    return X


def _frame_view(x: np.ndarray, n_frames: int, cfg: StftConfig) -> np.ndarray:
    """Frames 0..n_frames-1 of the contiguous 1-D ``x`` as one strided view:
    row i is x[i * hop : i * hop + frame_len]."""
    return np.ndarray(
        (n_frames, cfg.frame_len), x.dtype, buffer=x, strides=(cfg.hop * x.itemsize, x.itemsize)
    )


def _add_frames(frames: np.ndarray, out: np.ndarray, start: int, cfg: StftConfig) -> None:
    """Add row i of ``frames`` (n, frame_len) into the contiguous ``out`` at
    sample start + i * hop, for any hop.

    One numpy call per hop-long column segment, the last segment first: a
    sample in hop row r takes segment j of frame r - j, so with j descending
    it takes its frames in ascending order. A segment's rows never overlap in
    ``out``; the last one is narrower when hop does not divide frame_len."""
    hop, item = cfg.hop, out.itemsize
    for j in reversed(range(0, cfg.frame_len, hop)):
        width = min(hop, cfg.frame_len - j)
        # A strided view of out whose bounds numpy checks against the buffer.
        rows = np.ndarray(
            (len(frames), width), out.dtype, buffer=out,
            offset=(start + j) * item, strides=(hop * item, item),
        )
        rows += frames[:, j : j + width]


@functools.lru_cache(maxsize=4)
def _synthesis_denominator(cfg: StftConfig, n_frames: int) -> np.ndarray:
    """Overlapped squared-window sum of ``n_frames`` frames over all their
    samples, added by `_add_frames` like the synthesis it divides and floored
    at WINDOW_SUM_FLOOR. Cached per (cfg, n_frames) and shared by every
    caller, so it is returned read-only. `_normalise` asks only for short
    grids, of at most 2 * ceil(frame_len / hop) + 1 frames, so no cached sum
    grows with the signal."""
    wsq = cfg.window_values() ** 2
    denominator = np.zeros(cfg.output_length(n_frames))
    _add_frames(np.broadcast_to(wsq, (n_frames, cfg.frame_len)), denominator, 0, cfg)
    np.maximum(denominator, WINDOW_SUM_FLOOR, out=denominator)
    denominator.flags.writeable = False
    return denominator


def _normalise(out: np.ndarray, start: int, n_frames: int, cfg: StftConfig) -> None:
    """Divide the contiguous ``out``, samples [start, start + len(out)) of an
    overlap-add of ``n_frames`` frames, in place by those samples of the
    frames' floored squared-window sum, bit for bit, without building that
    whole sum.

    No sample lies under more than c = ceil(frame_len / hop) frames, so the
    sum of a short grid of 2c + 1 frames holds every value of a longer one:
    the first c hops are the short sum's first c hops, the last
    (c - 1) * hop + frame_len samples are its last ones, and every sample in
    between lies under a full set of frames, added in the same order, so it
    equals the short sum's sample in hop c with the same offset in its hop.
    That stretch's whole hops are divided through a (hops, hop) view of
    ``out`` by that one hop of the short sum, and its partial first and last
    hops by their slices of it. A grid of at most 2c + 1 frames is divided by
    its own sum."""
    hop = cfg.hop
    c = -(-cfg.frame_len // hop)
    stop = start + len(out)
    if n_frames <= 2 * c + 1:
        out /= _synthesis_denominator(cfg, n_frames)[start:stop]
        return
    short = _synthesis_denominator(cfg, 2 * c + 1)
    head, tail = c * hop, (n_frames - c) * hop
    shift = tail - head - hop  # whole-sum sample s >= tail is short-sum sample s - shift
    b = min(stop, head)
    if start < b:
        out[: b - start] /= short[start:b]
    period = short[head : head + hop]  # sample s of [head, tail) is period[s % hop]
    a, b = max(start, head), min(stop, tail)
    if a < b:
        a_hop = min(-(-a // hop) * hop, b)  # the whole hops are [a_hop, b_hop)
        b_hop = max(b // hop * hop, a_hop)
        if a < a_hop:
            out[a - start : a_hop - start] /= period[a % hop : a % hop + a_hop - a]
        hops = out[a_hop - start : b_hop - start].reshape(-1, hop, copy=False)
        hops /= period
        if b_hop < b:
            out[b_hop - start : b - start] /= period[: b - b_hop]
    a = max(start, tail)
    if a < stop:
        out[a - start :] /= short[a - shift : stop - shift]


def overlap_add(X: np.ndarray, out: np.ndarray, first_frame: int, cfg: StftConfig) -> None:
    """Add the windowed irfft frames of ``X`` into the contiguous ``out``,
    frame i at sample (first_frame + i) * hop, without normalising,
    `BLOCK_FRAMES` frames at a time.

    Each sample receives its frames in ascending frame order, so calling this
    block after block in frame order sums exactly as one call on the whole
    spectrogram does."""
    for f0, f1, _ in frame_blocks(X.shape[0], cfg):
        frames = _frame_scratch(f1 - f0, cfg.frame_len)
        np.fft.irfft(X[f0:f1], n=cfg.frame_len, axis=1, out=frames)
        frames *= cfg.window_values()
        _add_frames(frames, out, (first_frame + f0) * cfg.hop, cfg)


def _checked_spectrogram(X: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """``X`` as complex128, checked to be 2-D with at least one frame and
    ``cfg.n_bins`` bins (`ShapeError` otherwise)."""
    X = np.asarray(X, dtype=np.complex128)
    if X.ndim != 2:
        raise ShapeError(f"spectrogram data must be 2-D (frames x bins), got {X.shape}")
    if X.shape[0] == 0:
        raise ShapeError("spectrogram has no frames")
    if X.shape[1] != cfg.n_bins:
        raise ShapeError(f"spectrogram has {X.shape[1]} bins, config demands {cfg.n_bins}")
    return X


def istft_array(X: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Weighted overlap-add inverse of `stft_array`; output has
    (L - 1) * hop + frame_len samples.

    The overlap-added signal is divided by the floored squared-window sum
    (`_normalise`). ``X`` must have at least one frame and ``cfg.n_bins``
    bins (`ShapeError` otherwise)."""
    X = _checked_spectrogram(X, cfg)
    n_frames = X.shape[0]
    out = np.zeros(cfg.output_length(n_frames))
    overlap_add(X, out, 0, cfg)
    _normalise(out, 0, n_frames, cfg)
    return out


def frame_blocks(n_frames: int, cfg: StftConfig) -> Iterator[tuple[int, int, slice]]:
    """Split frames 0..n_frames-1 into consecutive blocks of `BLOCK_FRAMES`
    frames, the last one shorter.

    Yields ``(f0, f1, samples)``: the block covers frames f0..f1-1 and
    ``stft_array(x[samples], cfg)`` is exactly those frames of
    ``stft_array(x, cfg)``."""
    for f0 in range(0, n_frames, BLOCK_FRAMES):
        f1 = min(f0 + BLOCK_FRAMES, n_frames)
        yield f0, f1, slice(f0 * cfg.hop, (f1 - 1) * cfg.hop + cfg.frame_len)


def padded_grid(cfg: StftConfig, n_samples: int) -> tuple[int, int]:
    """The padded frame grid over a signal of ``n_samples`` samples, as
    ``(lead, n_frames)``: ``lead`` = ceil((frame_len - hop) / hop) * hop zeros
    go in front of the signal and zeros behind it, and ``n_frames`` frames
    from the first zero put every signal sample under a full set of frames.
    ``lead`` is a multiple of hop, so grid frames lead/hop .. lead/hop + L - 1
    are the L frames of the signal alone."""
    hop = cfg.hop
    lead = -(-(cfg.frame_len - hop) // hop) * hop
    return lead, lead // hop - (-n_samples // hop)


def read_padded(read, n_samples: int, cfg: StftConfig, start: int, stop: int) -> list[np.ndarray]:
    """Samples [start, stop) of a signal of ``n_samples`` samples as its
    padded grid holds it, one array per channel: zeros outside the signal,
    whose own samples [a, b) ``read(a, b)`` returns per channel."""
    lead, _ = padded_grid(cfg, n_samples)
    a = min(max(start - lead, 0), n_samples)
    b = max(min(stop - lead, n_samples), a)
    padded = []
    for samples in read(a, b):
        x = np.zeros(stop - start)
        x[lead + a - start : lead + b - start] = samples
        padded.append(x)
    return padded


class _ArraySource:
    """Channels held in memory, read by sample range without copying: the
    in-memory counterpart of a WAV file source."""

    def __init__(self, channels: Sequence[Waveform]):
        self.channels = channels
        self.n_channels = len(channels)
        self.n_samples, self.sample_rate = _channel_layout(channels)

    def read(self, start: int, stop: int) -> list[np.ndarray]:
        return [ch.samples[start:stop] for ch in self.channels]

    def check_unread(self) -> None:
        """Nothing to do: `Waveform` checked the samples when it was made."""


def resynthesize(read, n_samples: int, cfg: StftConfig, edit) -> Iterator[list[np.ndarray]]:
    """Analyse a signal on its padded grid, edit it and resynthesise it, one
    block of `BLOCK_FRAMES` frames at a time.

    ``read(a, b)`` returns the signal's samples [a, b) per channel (see
    `read_padded`), and ``edit(channel, X, block)`` changes a channel's block
    spectrogram ``X`` in place, ``block`` being the `frame_blocks` triple. For
    each block that finishes some of the signal's samples, yields those
    samples of every channel, normalised: the pieces join into exactly
    ``n_samples`` samples per channel. Every piece lies under full sets of
    frames, so it is divided by the hop-periodic full-coverage window-square
    sum."""
    lead, n_frames = padded_grid(cfg, n_samples)
    carries = None  # per channel, the overlap-add sums begun past the last piece
    for block in frame_blocks(n_frames, cfg):
        f0, f1, span = block
        # No later frame reaches below f1 * hop; the signal ends at lead + n_samples.
        done = min(f1 * cfg.hop, lead + n_samples) - span.start
        first = max(lead - span.start, 0)
        channels = read_padded(read, n_samples, cfg, span.start, span.stop)
        carries = carries or [np.zeros(0)] * len(channels)
        pieces = []
        for channel in range(len(channels)):
            X = stft_array(channels[channel], cfg)
            channels[channel] = None  # not held through the edit
            edit(channel, X, block)
            out = np.zeros(span.stop - span.start)
            out[: len(carries[channel])] = carries[channel]
            overlap_add(X, out, 0, cfg)
            del X  # not held while the next block is analysed
            carries[channel] = out[done:]
            piece = out[first:done]
            _normalise(piece, span.start + first, n_frames, cfg)
            pieces.append(piece)
        if first < done:
            yield pieces


def _whole_channels(
    stretches: Iterator[list[np.ndarray]], n_channels: int, n_samples: int
) -> np.ndarray:
    """The per-channel stretches that `resynthesize` (or a generator like it)
    yields, joined into one (n_channels, n_samples) array. The array is
    allocated at the first stretch, so it is not held through whatever runs
    before that (Griffin-Lim, in the pipeline); an empty signal yields none
    and gives (n_channels, 0)."""
    out, at = np.empty((n_channels, 0)), 0
    for pieces in stretches:
        if at == 0:
            out = np.empty((n_channels, n_samples))
        for row, piece in zip(out, pieces):
            row[at : at + len(piece)] = piece
        at += len(pieces[0])
    return out


def _project_band(
    band: np.ndarray, k_lo: int, cfg: StftConfig, pinned: np.ndarray, trace: bool = False
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray | None]]:
    """Stream Griffin-Lim's consistency projection stft(istft(X)) of the
    spectrogram X whose band [k_lo, k_hi) (0 < k_lo < k_hi <= n_bins)
    ``band`` gives, (frames, k_hi - k_lo), and whose other bins ``pinned``
    gives. Yields ``(a0, a1, Y_band, sums)``, consecutive from frame 0: the
    band's columns of projection rows a0..a1-1, at most `BLOCK_FRAMES` of
    them, and, with ``trace`` (else None), an (a1 - a0, 3) array of each
    row's sum((w x_t)^2) over its windowed frame and its bins 0 and N / 2,
    that frame's sum and alternating sum. Both are views of buffers that the
    next block overwrites; the band's values are the same bits with
    ``trace`` and without.

    Block by block, X's rows are overlap-added into one reused buffer of
    about a block's samples; the stretch that no later frame reaches is
    divided by its window-square sum (`_normalise`, at its absolute sample
    positions), every frame whose samples are then final is analysed, and
    the samples that later frames still need are carried to the front of the
    buffer. Each block of rows is read once, in frame order, so the caller
    may overwrite the rows below a yielded a1 before asking for the next.

    ``pinned`` 2-D is the whole spectrogram, ``band`` a view of it, whose
    rows are synthesised whole by `overlap_add` and analysed by
    `np.fft.rfft`: the same bits as those columns of
    `consistency_project_array`, without its signal-length array. ``pinned``
    1-D is the unnormalised overlap-add, output_length(frames) samples, of
    the other bins, which starts each new sample of the buffer; the
    projection is linear, so the band's rows alone are synthesised onto it,
    and the band never widens to n_bins columns.
    A real frame x of N = frame_len samples, read as M = N / 2 complex
    samples z = x[0::2] + i x[1::2], has
    the half-length spectrum Z = fft(z), and with w = exp(-2 pi i k / N) its
    one-sided spectrum is X[k] = (1 - i w) Z[k] / 2 + (1 + i w) conj(Z[M - k]) / 2,
    Z[M] being Z[0] (Sorensen et al., IEEE TASSP 35(6), 1987). Synthesis
    inverts that: band bin k puts (1 + i conj(w)) X[k] / 2 into Z[k] and
    (1 + i w) conj(X[k]) / 2 into Z[M - k], and a band that meets its mirror
    adds both into the bins they share; the Nyquist bin k = M has no Z[M], so
    it puts only (1 - i) Re X[M] / 2 into Z[0], reading its real part as
    `irfft` does. Those go into one (block, M) buffer that
    is zero elsewhere, which `np.fft.ifft` turns straight into the thread's
    frame buffer, viewed as complex: that view is the real frame, windowed
    and added by `_add_frames`. Analysis windows frames into the frame buffer
    and transforms its complex view in place with `np.fft.fft`."""
    n_frames, width = band.shape
    k_hi = k_lo + width
    frame_len, half, hop = cfg.frame_len, cfg.frame_len // 2, cfg.hop
    direct = slice(k_lo, min(k_hi, half))  # Z's bins that band bins below M map onto
    n_direct = direct.stop - direct.start
    nyquist = k_hi == half + 1  # the last band bin is bin M
    mirror = slice(half - k_hi + 1, half - k_lo + 1)  # Z[M - k], in reverse band order
    shared = max(mirror.start, direct.start) < min(mirror.stop, direct.stop)
    w = np.exp(-2j * np.pi * np.arange(k_lo, k_hi) / frame_len)
    from_bin = 0.5 * (1 - 1j * w)  # Z[k]'s weight in X[k]
    to_bin = 0.5 * (1 + 1j * w[:n_direct].conj())  # X[k]'s weight in Z[k]
    mirror_term = 0.5 * (1 + 1j * w)  # conj(Z[M - k])'s in X[k], conj(X[k])'s in Z[M - k]
    step = min(BLOCK_FRAMES, n_frames)
    whole_rows = pinned.ndim == 2
    spectrum = np.zeros((0 if whole_rows else step, half), dtype=np.complex128)
    Y = np.empty((step, cfg.n_bins if whole_rows else width), dtype=np.complex128)
    sums = np.empty((step, 3))  # the trace's, for the block last analysed

    def synthesise(X, out, first_frame):
        n = len(X)
        Z, frames = spectrum[:n], _frame_scratch(n, frame_len)
        # The mirror terms, in the frame buffer until the transform fills it.
        T = frames.view(np.complex128)[:, :width]
        np.multiply(np.conjugate(X, out=T), mirror_term, out=T)
        if nyquist:  # Z[0] takes bin M once, and only its real part
            np.multiply(X[:, -1].real, mirror_term[-1], out=T[:, -1])
        to_mirror = Z[:, mirror][:, ::-1]
        if shared:  # the bins the band shares with its mirror take both terms
            to_mirror[...] = 0.0
        np.multiply(X[:, :n_direct], to_bin, out=Z[:, direct])
        if shared:
            to_mirror += T
        else:
            to_mirror[...] = T
        np.fft.ifft(Z, axis=1, out=frames.view(np.complex128))
        frames *= cfg.window_values()
        _add_frames(frames, out, first_frame * hop, cfg)

    def analyse(x):
        n = cfg.frame_count(len(x))
        frames = _frame_scratch(n, frame_len)
        np.multiply(_frame_view(x, n, cfg), cfg.window_values(), out=frames)
        if trace:
            np.einsum("ij,ij->i", frames, frames, out=sums[:n, 0])
            z0 = frames.view(np.complex128).sum(axis=1)  # Z[0]; bins 0 and N / 2 are Re +- Im
            sums[:n, 1:] = z0.real[:, None] + z0.imag[:, None] * [1.0, -1.0]
        if whole_rows:
            return np.fft.rfft(frames, axis=1, out=Y[:n])[:, k_lo:k_hi]
        Z = frames.view(np.complex128)
        np.fft.fft(Z, axis=1, out=Z)
        Y_band = Y[:n]
        np.multiply(Z[:, direct], from_bin[:n_direct], out=Y_band[:, :n_direct])
        if nyquist:
            np.multiply(Z[:, 0], from_bin[-1], out=Y_band[:, -1])
        # Z's direct bins are read, so its mirror bins may be weighted in place.
        mirrored = np.conjugate(Z[:, mirror][:, ::-1], out=Z[:, mirror][:, ::-1])
        Y_band += np.multiply(mirrored, mirror_term, out=mirrored)
        return Y_band

    # The first frame not yet analysed starts at most ceil(frame_len / hop) - 1
    # frames before a block's first frame, so the buffer spans that many more.
    reach = -(-frame_len // hop)
    buffer = np.empty(cfg.output_length(min(step + reach - 1, n_frames)))
    base = held = 0  # buffer[0] is sample `base`; buffer[:held] holds sums begun earlier
    divided = a0 = 0  # samples divided so far; frames yielded so far
    for f0, f1, _ in frame_blocks(n_frames, cfg):
        end = (f1 - 1) * hop + frame_len
        if whole_rows:
            buffer[held : end - base] = 0.0
            overlap_add(pinned[f0:f1], buffer, f0 - base // hop, cfg)
        else:
            buffer[held : end - base] = pinned[base + held : end]
            synthesise(band[f0:f1], buffer, f0 - base // hop)
        # No frame from f1 on reaches below f1 * hop; the last block ends the signal.
        final = end if f1 == n_frames else f1 * hop
        _normalise(buffer[divided - base : final - base], divided, n_frames, cfg)
        divided = final
        a1 = max(a0, (final - frame_len) // hop + 1)  # frames lying wholly below `final`
        ready = buffer[a0 * hop - base : (a1 - 1) * hop + frame_len - base]
        for g0, g1, span in frame_blocks(a1 - a0, cfg):
            yield a0 + g0, a0 + g1, analyse(ready[span]), sums[: g1 - g0] if trace else None
        held = end - a1 * hop
        buffer[:held] = buffer[a1 * hop - base : end - base]
        base, a0 = a1 * hop, a1


def consistency_project_array(X: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """Project onto the set of consistent spectrograms: stft(istft(X)), a
    fixed point (up to rounding) exactly when X is the STFT of some signal.
    An L-frame spectrogram resynthesises to output_length(L) samples, which
    analyse back into exactly L frames. ``X`` must have ``cfg.n_bins`` bins
    and L >= 1 (`ShapeError` otherwise). Besides its complex output it holds
    that one float64 signal, about hop / frame_len of the output's size (1/8
    at 2048/256); Griffin-Lim streams the projection (`_project_band`)."""
    return stft_array(istft_array(X, cfg), cfg)
