"""High-band phase estimators.

Three strategies produce phase for the bins above the cutoff. None of them
goes through angles: phase is carried as unit phasors, or as complex values
that already hold the right magnitudes.

* ``flip_phase`` mirrors the low band about the cutoff and conjugates it,
  returning unit phasors.
* ``gla_reconstruct`` runs an alternating-projection loop (Griffin-Lim) that
  re-imposes the supplied magnitudes on every bin from the cutoff up while
  pinning the low band to its known complex values; its high band is the
  complex result itself.
* ``extract_reference_phase`` reads unit phasors straight off a reference's
  complex STFT, e.g. the original recording's or an external synthesiser's.

A zero bin, and a frame the reference does not reach, get the phasor 1, that
is phase zero (as ``np.angle(0) == 0``). ``FlipPhaseSpec``, ``GlaConfig`` and
``ReferencePhaseSpec`` name the strategies in a ``ReconstructSpec``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    StftConfig,
    _checked_magnitude,
    consistency_project_array,
)
from .errors import DomainError, NumericalError, ShapeError

RESIDUAL_NORM_FLOOR = 1e-12


class GlaInit(enum.Enum):
    """Initial high-band phase for the Griffin-Lim loop."""

    ZERO_PHASE = "zero"
    FLIP_PHASE = "flip"


@dataclass(frozen=True)
class FlipPhaseSpec:
    """Mirror the low band's phasors about the cutoff, conjugated."""


@dataclass(frozen=True)
class GlaConfig:
    """Run Griffin-Lim for ``iterations`` from the ``init`` start."""

    iterations: int = 100
    init: GlaInit = GlaInit.ZERO_PHASE

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")


@dataclass(frozen=True)
class ReferencePhaseSpec:
    """Read the high band's phasors off the reference file at ``path``."""

    path: str


PhaseStrategySpec = Union[FlipPhaseSpec, GlaConfig, ReferencePhaseSpec]


def flip_source_bins(layout: BandLayout) -> np.ndarray:
    """Low-band source index for each high-band bin under the mirror rule."""
    k = np.arange(layout.k_lo, layout.k_hi)
    return layout.k_lo - 1 - ((k - layout.k_lo) % layout.k_lo)


def _unit_phasors(z: np.ndarray) -> np.ndarray:
    """``z / |z|``, with 1 where ``z`` is 0."""
    magnitude = np.abs(z)
    phasors = np.ones(z.shape, dtype=np.complex128)
    np.divide(z, magnitude, out=phasors, where=magnitude > 0)
    return phasors


def flip_phase(lfc: np.ndarray, layout: BandLayout) -> np.ndarray:
    """High-band unit phasors mirrored from the complex low band ``lfc``,
    shape (frames, k_lo), about the cutoff and conjugated (phase negated).

    Bin k of the output reads from bin k_lo - 1 - ((k - k_lo) mod k_lo), so the
    mirror repeats when the high band is wider than the low band.
    """
    if lfc.shape[1] != layout.lfc_width:
        raise ShapeError(
            f"low band has {lfc.shape[1]} bins, layout expects {layout.lfc_width}"
        )
    phasors = _unit_phasors(lfc[:, flip_source_bins(layout)])
    return np.conjugate(phasors, out=phasors)


def _consistency_residual(X: np.ndarray, projected: np.ndarray) -> float:
    num = np.linalg.norm(X - projected)
    den = max(np.linalg.norm(X), RESIDUAL_NORM_FLOOR)
    return float(num / den)


def gla_reconstruct(
    magnitude: np.ndarray,
    lfc: np.ndarray,
    cfg: GlaConfig,
    layout: BandLayout,
    stft: StftConfig,
    initial_hf: np.ndarray | None = None,
    *,
    record_trace: bool = True,
) -> tuple[ComplexSpectrogram, np.ndarray]:
    """Griffin-Lim with a pinned low band, split at ``layout``'s bins.

    ``magnitude``, shape (frames, n_bins - k_lo), holds the magnitudes of
    every bin from the cutoff up; ``lfc``, shape (frames, k_lo), is the
    complex low band. Both are checked once, on entry: shapes
    (`ShapeError`), finiteness and non-negative magnitudes (`DomainError`).

    The starting spectrogram copies ``lfc`` into bins [0, k_lo) and gives
    every remaining bin its magnitude with the configured initial phase.
    Each iteration projects onto consistent spectrograms under ``stft`` and
    re-imposes the magnitudes on bins k_lo and above only, as
    ``Y * (A / |Y|)`` with zero divided by zero defined as zero. The low band
    is never written after the start, so it survives bit for bit. The
    spectrogram and the magnitude-ratio buffer are allocated once; each
    iteration's NaN check covers only the re-imposed bins.

    ``initial_hf``, complex and shaped like ``magnitude``, overrides the
    configured init and warm-starts the loop: every bin at and above the
    cutoff starts at its magnitude times its ``initial_hf`` value, usually a
    unit phasor.

    Returns the final spectrogram and the per-iteration consistency
    residuals, ||X - P_C(X)||_F / max(||X||_F, 1e-12), as a float array
    (empty when ``record_trace`` is off). ``iterations == 0`` returns the
    starting spectrogram unchanged.
    """
    A_hi = _checked_magnitude(magnitude)
    lfc = np.asarray(lfc, dtype=np.complex128)
    k_lo, k_hi = layout.k_lo, layout.k_hi
    if layout.n_bins != stft.n_bins:
        raise ShapeError("layout is inconsistent with the STFT configuration")
    if A_hi.shape[1] != layout.n_bins - k_lo:
        raise ShapeError(
            f"magnitude has {A_hi.shape[1]} bins, layout expects {layout.n_bins - k_lo}"
        )
    if lfc.ndim != 2 or lfc.shape[1] != layout.lfc_width:
        raise ShapeError(
            f"low-band constraint has shape {lfc.shape}, layout expects {layout.lfc_width} bins"
        )
    if A_hi.shape[0] != lfc.shape[0]:
        raise ShapeError(
            f"frame counts differ: magnitude {A_hi.shape[0]}, low band {lfc.shape[0]}"
        )
    if not np.all(np.isfinite(lfc)):
        raise DomainError("low-band constraint contains non-finite entries")

    X = np.empty((A_hi.shape[0], layout.n_bins), dtype=np.complex128)
    X[:, :k_lo] = lfc
    X_hi = X[:, k_lo:]
    if initial_hf is not None:
        initial_hf = np.asarray(initial_hf, dtype=np.complex128)
        if initial_hf.shape != A_hi.shape:
            raise ShapeError(
                f"initial high band has shape {initial_hf.shape}, expected {A_hi.shape}"
            )
        X_hi[...] = A_hi * initial_hf
    else:
        X_hi[...] = A_hi  # zero phase
        if cfg.init is GlaInit.FLIP_PHASE:
            X_hi[:, : k_hi - k_lo] *= flip_phase(lfc, layout)
    scale = np.empty(A_hi.shape)

    residuals = np.empty(cfg.iterations if record_trace else 0)
    for m in range(cfg.iterations):
        Y = consistency_project_array(X, stft)
        if record_trace:
            residuals[m] = _consistency_residual(X, Y)
        Y_hi = Y[:, k_lo:]
        np.abs(Y_hi, out=scale)
        # A / |Y| where |Y| > 0; the rest of `scale` already holds |Y| = 0.
        np.divide(A_hi, scale, out=scale, where=scale > 0)
        np.multiply(Y_hi, scale, out=X_hi)
        if np.isnan(X_hi).any():
            raise NumericalError(f"NaN appeared at Griffin-Lim iteration {m}")

    return ComplexSpectrogram(X, stft), residuals


def extract_reference_phase(
    reference: np.ndarray, layout: BandLayout, target_frames: int
) -> np.ndarray:
    """High-band unit phasors read off ``reference``, a reference's complex
    STFT, over [k_lo, k_hi) for exactly ``target_frames`` frames: the
    reference's frames are cut or padded to that count. Missing frames and
    zero bins get the phasor 1.
    """
    n_copy = min(reference.shape[0], target_frames)
    phasors = np.ones((target_frames, layout.hfc_width), dtype=np.complex128)
    phasors[:n_copy] = _unit_phasors(reference[:n_copy, layout.k_lo : layout.k_hi])
    return phasors
