"""High-band magnitude predictors.

Three sources for the missing magnitudes: the ground-truth recording
(oracle), a non-neural band-replication baseline (the SBR copy-up patch,
which tiles the low band's top octave upward, unscaled), or an external
predictor's output imported through the BWXSPEC interchange format. Each
takes and returns plain arrays; every magnitude array has shape (frames,
bins).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsp import BandLayout, StftConfig
from .errors import FileFormatError, PayloadValueError, ShapeError
from .specio import SpecKind, spec_read


@dataclass(frozen=True)
class OracleSpec:
    """Take magnitudes from the ground-truth high-resolution file."""

    reference_path: str


@dataclass(frozen=True)
class BandReplicationSpec:
    """Tile the low band's top octave upward, unscaled (the SBR copy-up patch)."""


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
    the high band: bin k_lo + i copies bin k_lo // 2 + i mod (k_lo - k_lo // 2),
    unscaled, so the low band's top octave is tiled as far up as the high band
    reaches (the SBR copy-up patch of Dietz et al., "Spectral Band
    Replication, a novel approach in audio coding", AES 112, 2002)."""
    if lfc_mag.shape[1] != layout.lfc_width:
        raise ShapeError(
            f"low band has {lfc_mag.shape[1]} bins, layout expects {layout.lfc_width}"
        )
    octave = layout.k_lo // 2
    return lfc_mag[:, octave + np.arange(layout.hfc_width) % (layout.k_lo - octave)]


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
