"""Objective evaluation: log-spectral distance, time-domain SNR and
spectrogram consistency residuals.

Log power is 10*log10(m^2 + 1e-10); the floor keeps silent bins bounded and
is recorded here as a constant so results stay comparable across runs.
Absolute LSD numbers depend on that floor, orderings do not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    StftConfig,
    Waveform,
    consistency_project_array,
    frame_blocks,
    stft_array,
)
from .errors import DomainError, LengthError, ShapeError
from .phase import _consistency_residual

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


def lsd(
    truth: MagnitudeSpectrogram,
    estimate: MagnitudeSpectrogram,
    bins: tuple[int, int],
) -> float:
    """Log-spectral distance in dB over the half-open bin range ``bins``.

    Per frame, the RMS of log-power differences across the selected bins;
    those per-frame values are averaged over all frames.
    """
    if truth.data.shape != estimate.data.shape:
        raise ShapeError(
            f"magnitude shapes differ: {truth.data.shape} vs {estimate.data.shape}"
        )
    _check_bins(bins, truth.n_bins)
    return float(np.mean(_lsd_per_frame(truth.data, estimate.data, bins)))


def _check_bins(bins: tuple[int, int], n_bins: int) -> None:
    lo, hi = bins
    if not 0 <= lo < hi <= n_bins:
        raise DomainError(f"bin range [{lo}, {hi}) invalid for {n_bins} bins")


def _lsd_per_frame(truth: np.ndarray, estimate: np.ndarray, bins: tuple[int, int]) -> np.ndarray:
    """Per-frame RMS of log-power differences over the bin range ``bins``."""
    lo, hi = bins
    diff = log_power(truth[:, lo:hi]) - log_power(estimate[:, lo:hi])
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


def consistency_residual(X: ComplexSpectrogram) -> float:
    """||X - P_C(X)||_F / max(||X||_F, 1e-12); zero exactly for consistent X."""
    if X.n_bins != X.config.n_bins:
        raise ShapeError(
            f"spectrogram has {X.n_bins} bins, config demands {X.config.n_bins}"
        )
    return _consistency_residual(X.data, consistency_project_array(X.data, X.config))


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


class _Evaluation:
    """LSD per frame and SNR energy sums of one truth/estimate channel pair,
    both ``n_samples`` long, fed block by block.

    Every check of the pair is made on construction, before any block. SNR
    covers the interior samples only, trimming one frame length from each end
    to exclude overlap-add edge effects.
    """

    def __init__(
        self,
        n_samples: int,
        sample_rates: tuple[int, int],
        layout: BandLayout,
        cfg: StftConfig,
    ) -> None:
        if n_samples <= 2 * cfg.frame_len:
            raise LengthError(
                f"signals of {n_samples} samples are too short to evaluate "
                f"with frame_len {cfg.frame_len}"
            )
        self.hf_bins = (layout.k_lo, layout.k_hi)
        self.full_bins = (0, layout.k_hi)
        _check_bins(self.hf_bins, cfg.n_bins)  # and so the wider full range
        _check_rates(*sample_rates)
        self.cfg = cfg
        self.n_frames = cfg.frame_count(n_samples)
        self.trim = (cfg.frame_len, n_samples - cfg.frame_len)
        self.hf = np.empty(self.n_frames)
        self.full = np.empty(self.n_frames)
        self.energy = _EnergySums()

    def add(self, block: tuple[int, int, slice], truth: np.ndarray, estimate: np.ndarray) -> None:
        """Feed one ``frame_blocks`` block (f0, f1, span): ``truth`` and
        ``estimate`` hold the pair's samples from span.start on, at least up
        to span.stop."""
        f0, f1, span = block
        cfg = self.cfg
        # Only bins below k_hi, the top of both LSD ranges, are compared.
        top = self.full_bins[1]
        mt = np.abs(stft_array(truth, cfg)[:, :top])
        me = np.abs(stft_array(estimate, cfg)[:, :top])
        self.hf[f0:f1] = _lsd_per_frame(mt, me, self.hf_bins)
        self.full[f0:f1] = _lsd_per_frame(mt, me, self.full_bins)
        # SNR takes the block's own stretch: from span.start to where the next
        # block's span starts (f1 * hop), or to the span's end for the last.
        own_stop = span.stop if f1 == self.n_frames else f1 * cfg.hop
        lo, hi = max(span.start, self.trim[0]), min(own_stop, self.trim[1])
        if lo < hi:
            piece = slice(lo - span.start, hi - span.start)
            self.energy.add(truth[piece], estimate[piece])

    def report(self) -> EvalReport:
        """Mean LSD over every frame fed, and the SNR."""
        return EvalReport(
            float(np.mean(self.hf)),
            float(np.mean(self.full)),
            self.energy.snr_db(),
            self.n_frames,
        )


def evaluate(
    truth: Waveform,
    estimate: Waveform,
    layout: BandLayout,
    cfg: StftConfig,
) -> EvalReport:
    """Build an EvalReport for a waveform pair, one block of frames at a time.

    LSD-HF covers [k_lo, k_hi) and LSD-Full [0, k_hi). Both are means of per-frame values over every frame. SNR
    is computed on interior samples only, trimming one frame length from each
    end to exclude overlap-add edge effects.
    """
    n = min(len(truth), len(estimate))
    evaluation = _Evaluation(n, (truth.sample_rate, estimate.sample_rate), layout, cfg)
    for block in frame_blocks(evaluation.n_frames, cfg):
        span = block[2]
        evaluation.add(block, truth.samples[span], estimate.samples[span])
    return evaluation.report()
