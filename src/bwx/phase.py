"""High-band phase estimators.

Three strategies produce phase for the bins above the cutoff:

* ``flip_phase`` mirrors the low-band phase about the cutoff and negates it.
* ``gla_reconstruct`` runs an alternating-projection loop (Griffin-Lim) that
  re-imposes the supplied magnitudes on every bin from the cutoff up while
  pinning the low band to its known complex values.
* ``extract_reference_phase`` reads phase straight off a reference waveform,
  e.g. the original recording or an external synthesiser's output.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    PhaseSpectrogram,
    StftConfig,
    Waveform,
    consistency_project_array,
    stft_array,
    wrap_phase,
)
from .errors import DomainError, NumericalError, ShapeError

RESIDUAL_NORM_FLOOR = 1e-12


class GlaInit(enum.Enum):
    """Initial high-band phase for the Griffin-Lim loop."""

    ZERO_PHASE = "zero"
    FLIP_PHASE = "flip"


@dataclass(frozen=True)
class GlaConfig:
    layout: BandLayout
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


def flip_phase(lfc_phase: PhaseSpectrogram, layout: BandLayout) -> PhaseSpectrogram:
    """Mirror the low-band phase about the cutoff, negate, and wrap.

    Bin k of the output reads from bin k_lo - 1 - ((k - k_lo) mod k_lo), so the
    mirror repeats when the high band is wider than the low band.
    """
    if lfc_phase.n_bins != layout.lfc_width:
        raise ShapeError(
            f"low-band phase has {lfc_phase.n_bins} bins, layout expects {layout.lfc_width}"
        )
    src = flip_source_bins(layout)
    data = wrap_phase(-lfc_phase.data[:, src])
    return PhaseSpectrogram(data, lfc_phase.config, lfc_phase.sample_rate)


def _consistency_residual(X: np.ndarray, projected: np.ndarray) -> float:
    num = np.linalg.norm(X - projected)
    den = max(np.linalg.norm(X), RESIDUAL_NORM_FLOOR)
    return float(num / den)


def gla_reconstruct(
    full_magnitude: MagnitudeSpectrogram,
    lfc_complex: ComplexSpectrogram,
    cfg: GlaConfig,
    initial_hf_phase: np.ndarray | None = None,
) -> tuple[ComplexSpectrogram, GlaTrace]:
    """Griffin-Lim with a pinned low band.

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
    layout = cfg.layout
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

    if initial_hf_phase is not None:
        init_phase = np.asarray(initial_hf_phase, dtype=np.float64)
        if init_phase.shape != (A.shape[0], layout.n_bins - k_lo):
            raise ShapeError(
                f"initial phase has shape {init_phase.shape}, "
                f"expected {(A.shape[0], layout.n_bins - k_lo)}"
            )
    else:
        init_phase = np.zeros((A.shape[0], layout.n_bins - k_lo))
        if cfg.init is GlaInit.FLIP_PHASE:
            src = flip_source_bins(layout)
            init_phase[:, : k_hi - k_lo] = wrap_phase(-np.angle(lfc[:, src]))

    A_hi = A[:, k_lo:]
    X = np.empty(A.shape, dtype=np.complex128)
    X[:, :k_lo] = lfc
    X_hi = X[:, k_lo:]
    X_hi[...] = A_hi * np.exp(1j * init_phase)
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
    reference: Waveform,
    cfg: StftConfig,
    layout: BandLayout,
    target_frames: int,
) -> tuple[PhaseSpectrogram, bool]:
    """High-band phase read off a reference waveform.

    Returns the phase slice over [k_lo, k_hi) for exactly ``target_frames``
    frames plus a flag that is set whenever the reference's own frame count
    had to be truncated or padded (missing frames are zero-phase). The
    argument of a zero bin is zero.
    """
    X = stft_array(reference.samples, cfg)
    ref_frames = X.shape[0]
    hfc_angle = wrap_phase(np.angle(X[:, layout.k_lo : layout.k_hi]))

    data = np.zeros((target_frames, layout.hfc_width))
    n_copy = min(ref_frames, target_frames)
    data[:n_copy] = hfc_angle[:n_copy]
    adjusted = ref_frames != target_frames
    return PhaseSpectrogram(data, cfg, reference.sample_rate), adjusted
