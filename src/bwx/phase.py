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
is phase zero (as ``np.angle(0) == 0``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    consistency_project_array,
)
from .errors import DomainError, NumericalError, ShapeError

RESIDUAL_NORM_FLOOR = 1e-12


class GlaInit(enum.Enum):
    """Initial high-band phase for the Griffin-Lim loop."""

    ZERO_PHASE = "zero"
    FLIP_PHASE = "flip"


@dataclass(frozen=True)
class GlaConfig:
    iterations: int = 100
    init: GlaInit = GlaInit.ZERO_PHASE
    record_trace: bool = True

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise DomainError(f"iterations must be >= 0, got {self.iterations}")


@dataclass
class GlaTrace:
    """Per-iteration consistency residuals, ||X - P_C(X)||_F / max(||X||_F, 1e-12)."""

    residuals: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self) -> None:
        self.residuals = np.asarray(self.residuals, dtype=np.float64)

    def __len__(self) -> int:
        return len(self.residuals)

    def to_csv(self, path) -> None:
        """Write `iteration,residual` rows, residuals in decimal notation with
        at least 9 significant digits."""
        with open(path, "w", encoding="ascii") as fh:
            fh.write("iteration,residual\n")
            for i, r in enumerate(self.residuals):
                fh.write(
                    f"{i},{np.format_float_positional(r, precision=9, unique=False, fractional=False)}\n"
                )


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
    full_magnitude: MagnitudeSpectrogram,
    lfc_complex: ComplexSpectrogram,
    cfg: GlaConfig,
    layout: BandLayout,
    initial_hf_phase: np.ndarray | None = None,
) -> tuple[ComplexSpectrogram, GlaTrace]:
    """Griffin-Lim with a pinned low band, split at ``layout``'s bins.

    The starting spectrogram copies ``lfc_complex`` into bins [0, k_lo) and
    gives every remaining bin the supplied magnitude with the configured
    initial phase. Each iteration projects onto consistent spectrograms and
    re-imposes the magnitudes on bins k_lo and above only, as
    ``Y * (A / |Y|)`` with zero divided by zero defined as zero. The low band
    is never written after the start, so it survives bit for bit. The
    spectrogram and the magnitude-ratio buffer are allocated once; each
    iteration's NaN check covers only the re-imposed bins.

    ``initial_hf_phase``, shape (frames, n_bins - k_lo), overrides the
    configured init and warm-starts the loop with explicit phases for every
    bin at and above the cutoff.

    Returns the final spectrogram and the residual trace (empty when
    ``cfg.record_trace`` is off). ``iterations == 0`` returns the starting
    spectrogram unchanged.
    """
    if full_magnitude.n_bins != layout.n_bins:
        raise ShapeError(
            f"full magnitude has {full_magnitude.n_bins} bins, layout expects {layout.n_bins}"
        )
    if lfc_complex.n_bins != layout.lfc_width:
        raise ShapeError(
            f"low-band constraint has {lfc_complex.n_bins} bins, layout expects {layout.lfc_width}"
        )
    if full_magnitude.n_frames != lfc_complex.n_frames:
        raise ShapeError(
            f"frame counts differ: magnitude {full_magnitude.n_frames}, "
            f"low band {lfc_complex.n_frames}"
        )
    if full_magnitude.config.n_bins != layout.n_bins:
        raise ShapeError("layout is inconsistent with the STFT configuration")

    A = full_magnitude.data
    lfc = lfc_complex.data
    stft_cfg = full_magnitude.config
    k_lo, k_hi = layout.k_lo, layout.k_hi

    A_hi = A[:, k_lo:]
    X = np.empty(A.shape, dtype=np.complex128)
    X[:, :k_lo] = lfc
    X_hi = X[:, k_lo:]
    if initial_hf_phase is not None:
        init_phase = np.asarray(initial_hf_phase, dtype=np.float64)
        if init_phase.shape != A_hi.shape:
            raise ShapeError(
                f"initial phase has shape {init_phase.shape}, expected {A_hi.shape}"
            )
        X_hi[...] = A_hi * np.exp(1j * init_phase)
    else:
        X_hi[...] = A_hi  # zero phase
        if cfg.init is GlaInit.FLIP_PHASE:
            X_hi[:, : k_hi - k_lo] *= flip_phase(lfc, layout)
    scale = np.empty(A_hi.shape)

    residuals = np.empty(cfg.iterations) if cfg.record_trace else None
    for m in range(cfg.iterations):
        Y = consistency_project_array(X, stft_cfg)
        if residuals is not None:
            residuals[m] = _consistency_residual(X, Y)
        Y_hi = Y[:, k_lo:]
        np.abs(Y_hi, out=scale)
        # A / |Y| where |Y| > 0; the rest of `scale` already holds |Y| = 0.
        np.divide(A_hi, scale, out=scale, where=scale > 0)
        np.multiply(Y_hi, scale, out=X_hi)
        if np.isnan(X_hi).any():
            raise NumericalError(f"NaN appeared at Griffin-Lim iteration {m}")

    result = ComplexSpectrogram(X, stft_cfg, full_magnitude.sample_rate)
    trace = GlaTrace(residuals if residuals is not None else np.empty(0))
    return result, trace


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
