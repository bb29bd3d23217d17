"""Objective evaluation: log-spectral distance, time-domain SNR and
spectrogram consistency residuals. `evaluate`, ``eval`` and the phase study
score at the paper's STFT, ``StftConfig()`` (2048/256), only.

Log power is 10*log10(m^2 + 1e-10); the floor keeps silent bins bounded and
is recorded here as a constant so results stay comparable across runs.
Absolute LSD numbers depend on that floor, orderings do not.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dsp import (
    BandLayout,
    StftConfig,
    Waveform,
    _ArraySource,
    _checked_magnitude,
    consistency_project_array,
    frame_blocks,
    stft_array,
)
from .errors import DomainError, LengthError, ShapeError
from .phase import RESIDUAL_NORM_FLOOR

LSD_POWER_FLOOR = 1e-10
SNR_RATIO_FLOOR = 1e-12
# Samples per partial sum of SNR's energies: fixed, so SNR does not depend on
# how a flow cuts a signal into blocks.
SNR_CHUNK = 1 << 16

EVAL_CSV_HEADER = "file,method,lsd_hf_db,lsd_full_db,snr_db,frames"


def log_power(magnitude: np.ndarray) -> np.ndarray:
    """10*log10(m^2 + floor), the log-power spectra LSD compares."""
    m = np.asarray(magnitude, dtype=np.float64)
    return 10.0 * np.log10(m * m + LSD_POWER_FLOOR)


def lsd(truth: np.ndarray, estimate: np.ndarray, bins: tuple[int, int]) -> float:
    """Log-spectral distance in dB between two magnitude spectrograms, shape
    (frames, bins), over the half-open bin range ``bins``.

    Per frame, the RMS of log-power differences across the selected bins;
    those per-frame values are averaged over all frames. Both inputs must be
    2-D, finite and non-negative.
    """
    truth = _checked_magnitude(truth)
    estimate = _checked_magnitude(estimate)
    if truth.shape != estimate.shape:
        raise ShapeError(f"magnitude shapes differ: {truth.shape} vs {estimate.shape}")
    _check_bins(bins, truth.shape[1])
    band = slice(*bins)
    diff = log_power(truth[:, band]) - log_power(estimate[:, band])
    return float(np.mean(_rms_per_frame(diff)))


def _check_bins(bins: tuple[int, int], n_bins: int) -> None:
    lo, hi = bins
    if not 0 <= lo < hi <= n_bins:
        raise DomainError(f"bin range [{lo}, {hi}) invalid for {n_bins} bins")


def _rms_per_frame(diff: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(diff * diff, axis=1))


def _check_rates(truth_rate: int, estimate_rate: int) -> None:
    if truth_rate != estimate_rate:
        raise ShapeError(f"sample rates differ: {truth_rate} vs {estimate_rate}")


class _EnergySums:
    """Signal and residual energy of a truth/estimate pair fed in consecutive
    pieces. Each energy is summed per fixed chunk of SNR_CHUNK samples and the
    chunk sums are added in order, so the totals do not depend on where the
    pieces were cut."""

    def __init__(self) -> None:
        self.signal = 0.0
        self.noise = 0.0
        self._truth = np.empty(SNR_CHUNK)
        self._residual = np.empty(SNR_CHUNK)
        self._fill = 0

    def add(self, truth: np.ndarray, estimate: np.ndarray) -> None:
        pos = 0
        while pos < len(truth):
            take = min(SNR_CHUNK - self._fill, len(truth) - pos)
            piece, chunk = slice(pos, pos + take), slice(self._fill, self._fill + take)
            self._truth[chunk] = truth[piece]
            np.subtract(truth[piece], estimate[piece], out=self._residual[chunk])
            self._fill += take
            pos += take
            if self._fill == SNR_CHUNK:
                self._flush()

    def _flush(self) -> None:
        truth, residual = self._truth[: self._fill], self._residual[: self._fill]
        self.signal += float(np.sum(truth * truth))
        self.noise += float(np.sum(residual * residual))
        self._fill = 0

    def snr_db(self) -> float:
        """SNR in dB of everything added, capped at 120 dB for a zero residual."""
        self._flush()
        if self.signal == 0.0:
            raise DomainError("SNR undefined for an all-zero reference")
        noise = max(self.noise, SNR_RATIO_FLOOR * self.signal)
        return float(10.0 * np.log10(self.signal / noise))


def snr(truth: Waveform, estimate: Waveform) -> float:
    """Signal-to-noise ratio in dB, capped at 120 dB for a zero residual."""
    if len(truth) != len(estimate):
        raise ShapeError(f"lengths differ: {len(truth)} vs {len(estimate)}")
    _check_rates(truth.sample_rate, estimate.sample_rate)
    sums = _EnergySums()
    sums.add(truth.samples, estimate.samples)
    return sums.snr_db()


def consistency_residual(X: np.ndarray, cfg: StftConfig) -> float:
    """||X - P_C(X)||_F / max(||X||_F, 1e-12) for a complex spectrogram
    ``X`` analysed under ``cfg``; zero exactly for consistent X. ``X`` must
    have a frame or more and ``cfg.n_bins`` bins (`ShapeError` otherwise)."""
    num = np.linalg.norm(X - consistency_project_array(X, cfg))
    return float(num / max(np.linalg.norm(X), RESIDUAL_NORM_FLOOR))


@dataclass
class EvalReport:
    """One evaluated truth/estimate pair."""

    lsd_hf: float
    lsd_full: float
    snr: float
    frames_compared: int

    def __post_init__(self) -> None:
        if self.lsd_hf < 0 or self.lsd_full < 0:
            raise DomainError("LSD values cannot be negative")
        if self.frames_compared < 1:
            raise DomainError("a report needs at least one compared frame")

    def csv_row(self, file: str, method: str) -> str:
        return (
            f"{file},{method},{self.lsd_hf:.4f},{self.lsd_full:.4f},"
            f"{self.snr:.4f},{self.frames_compared}"
        )


def _mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    return EvalReport(
        lsd_hf=float(np.mean([r.lsd_hf for r in reports])),
        lsd_full=float(np.mean([r.lsd_full for r in reports])),
        snr=float(np.mean([r.snr for r in reports])),
        frames_compared=int(round(np.mean([r.frames_compared for r in reports]))),
    )


def _evaluate_sources(truth, estimate, layout: BandLayout) -> EvalReport:
    """Score every channel of the source ``estimate`` against the source
    ``truth``, reading both one block span at a time, and average the channel
    reports (see `evaluate`). Every check of the pair is made before any block
    is read. Samples past the shorter source's end are not scored, but each
    source is still checked to its end."""
    cfg = StftConfig()
    if truth.n_channels != estimate.n_channels:
        raise ShapeError(
            f"channel counts differ: {truth.n_channels} vs {estimate.n_channels}"
        )
    n = min(truth.n_samples, estimate.n_samples)
    if n <= 2 * cfg.frame_len:
        raise LengthError(
            f"signals of {n} samples are too short to evaluate "
            f"with frame_len {cfg.frame_len}"
        )
    _check_bins((layout.k_lo, layout.k_hi), cfg.n_bins)  # and so the wider [0, k_hi)
    if layout.n_bins != cfg.n_bins:
        raise ShapeError(f"layout covers {layout.n_bins} bins, scoring's STFT has {cfg.n_bins}")
    _check_rates(truth.sample_rate, estimate.sample_rate)
    n_frames = cfg.frame_count(n)
    hf = np.empty((truth.n_channels, n_frames))
    full = np.empty((truth.n_channels, n_frames))
    energies = [_EnergySums() for _ in range(truth.n_channels)]
    for f0, f1, span in frame_blocks(n_frames, cfg):
        # SNR takes the block's own stretch, inside the trim: from span.start
        # to where the next block's span starts (f1 * hop), or to the span's
        # end for the last.
        own_stop = span.stop if f1 == n_frames else f1 * cfg.hop
        lo, hi = max(span.start, cfg.frame_len), min(own_stop, n - cfg.frame_len)
        piece = slice(lo - span.start, hi - span.start)
        pairs = zip(truth.read(span.start, span.stop), estimate.read(span.start, span.stop))
        for c, (t, e) in enumerate(pairs):
            # Only bins below k_hi, the top of both LSD ranges, are compared;
            # the log-power difference is taken once over [0, k_hi) and the
            # HF range sliced from it.
            diff = log_power(np.abs(stft_array(t, cfg)[:, : layout.k_hi]))
            diff -= log_power(np.abs(stft_array(e, cfg)[:, : layout.k_hi]))
            hf[c, f0:f1] = _rms_per_frame(diff[:, layout.k_lo :])
            full[c, f0:f1] = _rms_per_frame(diff)
            # Freed before the next block's transforms: kept alive, this
            # block-sized array stops the allocator reusing their memory, and
            # each block faults in fresh pages.
            del diff
            if lo < hi:
                energies[c].add(t[piece], e[piece])
    truth.check_unread()
    estimate.check_unread()
    return _mean_report(
        [
            EvalReport(float(np.mean(h)), float(np.mean(f)), energy.snr_db(), n_frames)
            for h, f, energy in zip(hf, full, energies)
        ]
    )


def evaluate(truth: Waveform, estimate: Waveform, layout: BandLayout) -> EvalReport:
    """Build an EvalReport for a waveform pair, one block of frames at a time,
    by the same walk as ``eval`` and the phase study, at the paper's STFT,
    ``StftConfig()`` (2048/256). ``layout`` must be made for that STFT, with
    its 1025 bins (`ShapeError` otherwise).

    LSD-HF covers [k_lo, k_hi) and LSD-Full [0, k_hi). Both are means of
    per-frame values over every frame. SNR is computed on interior samples
    only, trimming one frame length from each end to exclude overlap-add edge
    effects.
    """
    return _evaluate_sources(_ArraySource([truth]), _ArraySource([estimate]), layout)
