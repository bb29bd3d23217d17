"""High-band magnitude predictors.

Three sources for the missing magnitudes: the ground-truth recording
(oracle), a non-neural band-replication baseline, or an external predictor's
output imported through the BWXSPEC interchange format. Each takes and
returns plain arrays; every magnitude array has shape (frames, bins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsp import BandLayout, StftConfig
from .errors import FileFormatError, PayloadValueError, ShapeError
from .specio import SpecKind, spec_read

GAIN_DENOMINATOR_FLOOR = 1e-12
# Bins on each side of the cutoff whose mean magnitudes set the SBR gain.
GAIN_ANCHOR_BINS = 4


@dataclass(frozen=True)
class OracleSpec:
    """Take magnitudes from the ground-truth high-resolution file."""

    reference_path: str


@dataclass(frozen=True)
class BandReplicationSpec:
    """Copy low-band magnitudes upward with a continuity gain at the cutoff."""


@dataclass(frozen=True)
class ImportSpec:
    """Load magnitudes produced by an external predictor from a BWXSPEC file."""

    path: str


MagnitudePredictorSpec = Union[OracleSpec, BandReplicationSpec, ImportSpec]


def predict_oracle(reference: np.ndarray, layout: BandLayout) -> np.ndarray:
    """High-band magnitudes of ``reference``, the complex STFT of the
    ground-truth recording: |X| over bins [k_lo, k_hi)."""
    return np.abs(reference[:, layout.k_lo : layout.k_hi])


def predict_band_replication(lfc_mag: np.ndarray, layout: BandLayout) -> np.ndarray:
    """Replicate low-band magnitudes ``lfc_mag``, shape (frames, k_lo), into
    the high band.

    Per frame, bin k copies M[k - k_lo], scaled by the ratio of the mean of
    the last ``GAIN_ANCHOR_BINS`` low-band magnitudes to the mean of the
    first ``GAIN_ANCHOR_BINS`` copied ones (denominator floored at 1e-12).
    """
    if lfc_mag.shape[1] != layout.lfc_width:
        raise ShapeError(
            f"low band has {lfc_mag.shape[1]} bins, layout expects {layout.lfc_width}"
        )
    width = layout.hfc_width
    if width > layout.lfc_width:
        raise ShapeError(
            f"high band ({width} bins) wider than low band ({layout.lfc_width}); "
            "replication source undefined"
        )
    copied = lfc_mag[:, :width]
    top_mean = np.mean(lfc_mag[:, layout.lfc_width - GAIN_ANCHOR_BINS :], axis=1)
    bottom_mean = np.mean(copied[:, :GAIN_ANCHOR_BINS], axis=1)
    gain = top_mean / np.maximum(bottom_mean, GAIN_DENOMINATOR_FLOOR)
    return copied * gain[:, None]


def load_magnitude(
    path, expected: tuple[int, int], cfg: StftConfig, sample_rate: int
) -> np.ndarray:
    """Read a magnitude band from a BWXSPEC file and validate it.

    ``expected`` is the required (frames, band width) shape, and the stored
    frame length, hop and sample rate must equal ``cfg``'s and
    ``sample_rate``. Negative or NaN entries are rejected rather than clamped.
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
    if (header.frame_len, header.hop) != (cfg.frame_len, cfg.hop):
        raise ShapeError(
            f"{path}: stored STFT config ({header.frame_len}, {header.hop}) "
            f"does not match ({cfg.frame_len}, {cfg.hop})"
        )
    if header.sample_rate != sample_rate:
        raise ShapeError(
            f"{path}: stored sample rate {header.sample_rate} does not match {sample_rate}"
        )
    return data.astype(np.float64)
