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
    consistency_project,
    frame_blocks,
    stft_array,
)
from .errors import DomainError, LengthError, ShapeError
from .phase import _consistency_residual

LSD_POWER_FLOOR = 1e-10
SNR_RATIO_FLOOR = 1e-12

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


def snr(truth: Waveform, estimate: Waveform) -> float:
    """Signal-to-noise ratio in dB, capped at 120 dB for a zero residual."""
    if len(truth) != len(estimate):
        raise ShapeError(f"lengths differ: {len(truth)} vs {len(estimate)}")
    if truth.sample_rate != estimate.sample_rate:
        raise ShapeError(
            f"sample rates differ: {truth.sample_rate} vs {estimate.sample_rate}"
        )
    signal_energy = float(np.sum(truth.samples * truth.samples))
    if signal_energy == 0.0:
        raise DomainError("SNR undefined for an all-zero reference")
    residual = truth.samples - estimate.samples
    noise_energy = float(np.sum(residual * residual))
    noise_energy = max(noise_energy, SNR_RATIO_FLOOR * signal_energy)
    return float(10.0 * np.log10(signal_energy / noise_energy))


def consistency_residual(X: ComplexSpectrogram) -> float:
    """||X - P_C(X)||_F / max(||X||_F, 1e-12); zero exactly for consistent X."""
    return _consistency_residual(X.data, consistency_project(X).data)


@dataclass
class EvalReport:
    """One evaluated truth/estimate pair over a band layout."""

    lsd_hf: float
    lsd_full: float
    snr: float
    frames_compared: int
    band: BandLayout

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


def evaluate(
    truth: Waveform,
    estimate: Waveform,
    layout: BandLayout,
    cfg: StftConfig,
    full_range: tuple[int, int] | None = None,
) -> EvalReport:
    """Build an EvalReport for a waveform pair.

    LSD-HF covers [k_lo, k_hi); the "full" range defaults to [0, k_hi) and can
    be overridden. SNR is computed on interior samples only, trimming one
    frame length from each end to exclude overlap-add edge effects.
    """
    n = min(len(truth), len(estimate))
    if n <= 2 * cfg.frame_len:
        raise LengthError(
            f"signals of {n} samples are too short to evaluate with frame_len {cfg.frame_len}"
        )
    t = truth.samples[:n]
    e = estimate.samples[:n]

    hf_bins = (layout.k_lo, layout.k_hi)
    full_bins = full_range or (0, layout.k_hi)
    for bins in (hf_bins, full_bins):
        _check_bins(bins, cfg.n_bins)
    # Per-frame LSD values, block by block; one mean over all of them after.
    top = max(hf_bins[1], full_bins[1])
    n_frames = cfg.frame_count(n)
    hf = np.empty(n_frames)
    full = np.empty(n_frames)
    for f0, f1, span in frame_blocks(n_frames, cfg):
        mt = np.abs(stft_array(t[span], cfg)[:, :top])
        me = np.abs(stft_array(e[span], cfg)[:, :top])
        hf[f0:f1] = _lsd_per_frame(mt, me, hf_bins)
        full[f0:f1] = _lsd_per_frame(mt, me, full_bins)

    trim = slice(cfg.frame_len, n - cfg.frame_len)
    snr_db = snr(
        Waveform(t[trim], truth.sample_rate),
        Waveform(e[trim], estimate.sample_rate),
    )
    return EvalReport(float(np.mean(hf)), float(np.mean(full)), snr_db, n_frames, layout)
