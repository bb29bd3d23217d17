"""High-band magnitude predictors.

Three sources for the missing magnitudes: the ground-truth recording
(oracle), a non-neural band-replication baseline, or an external predictor's
output imported through the BWXSPEC interchange format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsp import BandLayout, MagnitudeSpectrogram, StftConfig, Waveform, stft_array
from .errors import FileFormatError, PayloadValueError, ShapeError
from .specio import SpecKind, spec_read

GAIN_DENOMINATOR_FLOOR = 1e-12


@dataclass(frozen=True)
class OracleSpec:
    """Take magnitudes from the ground-truth high-resolution file."""

    reference_path: str


@dataclass(frozen=True)
class BandReplicationSpec:
    """Copy low-band magnitudes upward with a continuity gain at the cutoff.

    ``gain_anchor_bins`` sets how many bins on each side of the cutoff form
    the gain estimate; ``tilt_per_bin`` applies a per-bin spectral tilt to the
    replicated block.
    """

    gain_anchor_bins: int = 4
    tilt_per_bin: float = 1.0

    def __post_init__(self) -> None:
        if self.gain_anchor_bins < 1:
            raise ShapeError(f"gain_anchor_bins must be >= 1, got {self.gain_anchor_bins}")
        if self.tilt_per_bin <= 0:
            raise ShapeError(f"tilt_per_bin must be > 0, got {self.tilt_per_bin}")


@dataclass(frozen=True)
class ImportSpec:
    """Load magnitudes produced by an external predictor from a BWXSPEC file."""

    path: str


MagnitudePredictorSpec = Union[OracleSpec, BandReplicationSpec, ImportSpec]


def predict_oracle(
    hr_reference: Waveform, cfg: StftConfig, layout: BandLayout
) -> MagnitudeSpectrogram:
    """|STFT| of the reference restricted to the high band."""
    mags = np.abs(stft_array(hr_reference.samples, cfg))
    return MagnitudeSpectrogram(
        mags[:, layout.k_lo : layout.k_hi], cfg, hr_reference.sample_rate
    )


def predict_band_replication(
    lfc_mag: MagnitudeSpectrogram,
    layout: BandLayout,
    spec: BandReplicationSpec = BandReplicationSpec(),
) -> MagnitudeSpectrogram:
    """Replicate low-band magnitudes into the high band.

    Per frame, bin k copies M[k - k_lo], scaled by the ratio of the mean of
    the last ``gain_anchor_bins`` low-band magnitudes to the mean of the first
    ``gain_anchor_bins`` copied ones (denominator floored at 1e-12), then
    tilted by ``tilt_per_bin ** (k - k_lo)``.
    """
    if lfc_mag.n_bins != layout.lfc_width:
        raise ShapeError(
            f"low band has {lfc_mag.n_bins} bins, layout expects {layout.lfc_width}"
        )
    width = layout.hfc_width
    if width > layout.lfc_width:
        raise ShapeError(
            f"high band ({width} bins) wider than low band ({layout.lfc_width}); "
            "replication source undefined"
        )
    anchors = spec.gain_anchor_bins
    m = lfc_mag.data
    copied = m[:, :width]
    top_mean = np.mean(m[:, layout.lfc_width - anchors :], axis=1)
    bottom_mean = np.mean(copied[:, :anchors], axis=1)
    gain = top_mean / np.maximum(bottom_mean, GAIN_DENOMINATOR_FLOOR)
    tilt = spec.tilt_per_bin ** np.arange(width)
    data = copied * gain[:, None] * tilt[None, :]
    return MagnitudeSpectrogram(data, lfc_mag.config, lfc_mag.sample_rate)


def load_magnitude(
    path,
    expected: tuple[int, int],
    cfg: StftConfig | None = None,
    sample_rate: int | None = None,
) -> MagnitudeSpectrogram:
    """Read a magnitude band from a BWXSPEC file and validate it.

    ``expected`` is the required (frames, band width) shape. When ``cfg`` or
    ``sample_rate`` are given, the stored STFT fields must agree. Negative or
    NaN entries are rejected rather than clamped.
    """
    data, header = spec_read(path)
    if header.kind is not SpecKind.MAGNITUDE:
        raise FileFormatError(f"{path}: expected a magnitude file, found kind {header.kind.name}")
    if data.shape != tuple(expected):
        raise ShapeError(
            f"{path}: stored shape {data.shape} does not match expected {tuple(expected)}"
        )
    if np.any(data < 0):
        raise PayloadValueError(f"{path}: magnitude payload contains negative entries")
    if cfg is not None and (header.frame_len, header.hop) != (cfg.frame_len, cfg.hop):
        raise ShapeError(
            f"{path}: stored STFT config ({header.frame_len}, {header.hop}) "
            f"does not match ({cfg.frame_len}, {cfg.hop})"
        )
    if sample_rate is not None and header.sample_rate != sample_rate:
        raise ShapeError(
            f"{path}: stored sample rate {header.sample_rate} does not match {sample_rate}"
        )
    out_cfg = cfg or StftConfig(frame_len=header.frame_len, hop=header.hop)
    return MagnitudeSpectrogram(data.astype(np.float64), out_cfg, header.sample_rate)
