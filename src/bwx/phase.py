"""High-band phase estimators.

Three strategies produce phase for the bins above the cutoff. None of them
goes through angles: phase is carried as unit phasors, or as complex values
that already hold the right magnitudes.

* ``flip_phase`` mirrors the low band about the cutoff and conjugates it,
  returning unit phasors.
* ``gla_reconstruct`` runs an alternating-projection loop (Griffin-Lim) in
  place on the caller's spectrogram: it re-imposes the supplied magnitudes on
  the high band [k_lo, k_hi) only and pins every other bin, the known low
  band and whatever lies above the high band, to its start value. The
  caller's array is the result, so it returns only each iteration's
  consistency residual. ``sr`` and the phase study, which hold
  only the high band, run the same loop through ``_gla_band``, onto the
  pinned bins' overlap-add, computed once.
* ``extract_reference_phase`` reads unit phasors straight off a reference's
  complex STFT, e.g. the original recording's or an external synthesiser's.

A zero bin, and a frame the reference does not reach, get the phasor 1, that
is phase zero (as ``np.angle(0) == 0``). ``FlipPhaseSpec``, ``GlaConfig`` and
``ReferencePhaseSpec`` name the strategies in a ``ReconstructSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dsp import BandLayout, StftConfig, _checked_magnitude, _project_rows
from .errors import DomainError, NumericalError, ShapeError

RESIDUAL_NORM_FLOOR = 1e-12


@dataclass(frozen=True)
class FlipPhaseSpec:
    """Mirror the low band's phasors about the cutoff, conjugated."""


@dataclass(frozen=True)
class GlaConfig:
    """Run Griffin-Lim for ``iterations`` on the high band; the pipeline
    starts it from zero high-band phase, with every other bin pinned."""

    iterations: int = 100

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


def _squared_norm(z: np.ndarray) -> float:
    # numpy's own loop, not BLAS: after a threaded BLAS dot the worker threads
    # spin, which doubled the CPU time of a traced Griffin-Lim run.
    v = z.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", v, v))


def gla_reconstruct(
    magnitude: np.ndarray,
    X: np.ndarray,
    cfg: GlaConfig,
    layout: BandLayout,
    stft: StftConfig,
) -> np.ndarray:
    """Griffin-Lim on the high band [k_lo, k_hi) of ``layout``, in place.

    ``X``, complex128 of shape (frames, n_bins), is the start and is
    overwritten with the result; ``magnitude``, shape (frames, k_hi - k_lo),
    holds the magnitudes re-imposed on the high band. Both are checked once,
    on entry: ``X``'s dtype and shape and ``magnitude``'s shape (`ShapeError`;
    ``X`` is not converted, since a copy would not be written in place),
    finite magnitudes and pinned bins, and non-negative magnitudes
    (`DomainError`).

    Each iteration streams the projection onto consistent spectrograms under
    ``stft`` (`dsp._project_rows`) and, block by block, re-imposes the
    magnitudes on the high band only, as ``Y * (A / |Y|)`` with zero divided
    by zero defined as zero, writing into ``X``. Every bin outside the high
    band is pinned: never written, it keeps its start value bit for bit.
    Besides ``X``, an iteration holds only block-sized arrays; each block's
    NaN check covers only the re-imposed bins.

    Returns the per-iteration consistency residuals over every bin,
    ||X - P_C(X)||_F / max(||X||_F, 1e-12), as a float array.
    ``iterations == 0`` leaves the start unchanged.
    """
    A = _checked_magnitude(magnitude)
    k_lo, k_hi = layout.k_lo, layout.k_hi
    if layout.n_bins != stft.n_bins:
        raise ShapeError("layout is inconsistent with the STFT configuration")
    if A.shape[1] != layout.hfc_width:
        raise ShapeError(f"magnitude has {A.shape[1]} bins, layout expects {layout.hfc_width}")
    if not isinstance(X, np.ndarray) or X.dtype != np.complex128:
        raise ShapeError("Griffin-Lim start must be a complex128 array, updated in place")
    if X.shape != (A.shape[0], layout.n_bins):
        raise ShapeError(
            f"Griffin-Lim start has shape {X.shape}, expected {(A.shape[0], layout.n_bins)}"
        )
    for name, pinned in (("low-band constraint", X[:, :k_lo]), ("residual band", X[:, k_hi:])):
        if not np.all(np.isfinite(pinned)):
            raise DomainError(f"{name} contains non-finite entries")

    rows = lambda f0, f1: X[f0:f1]
    return _reimpose(A, X[:, k_lo:k_hi], rows, cfg, layout, stft, trace_rows=rows)


def _gla_band(
    magnitude: np.ndarray,
    band: np.ndarray,
    pinned: np.ndarray,
    cfg: GlaConfig,
    layout: BandLayout,
    stft: StftConfig,
    trace_rows=None,
) -> np.ndarray:
    """Griffin-Lim on the high band alone: `gla_reconstruct` for a caller
    that holds only the band of the spectrogram.

    ``band``, complex128 of shape (frames, k_hi - k_lo), is the high band's
    start and is overwritten; ``magnitude``, of the same shape, is checked as
    `gla_reconstruct` checks it. Every bin outside the band is pinned, and
    ``pinned`` holds their unnormalised overlap-add, output_length(frames)
    samples, added once (`dsp._project_rows`): each block of the projection
    overlap-adds the band's rows, in one reused block of zeros outside the
    band, onto it. Returns the per-iteration consistency residuals over every
    bin when ``trace_rows(a0, a1)`` gives the whole rows a0..a1-1 of the
    spectrogram as it stands (empty without)."""
    A = _checked_magnitude(magnitude)
    if band.shape != A.shape or A.shape[1] != layout.hfc_width:
        raise ShapeError(f"band {band.shape} and magnitude {A.shape} do not fit the layout")
    if not np.all(np.isfinite(pinned)):
        raise DomainError("pinned bins contain non-finite entries")
    k_lo, k_hi = layout.k_lo, layout.k_hi
    scratch = np.zeros((0, layout.n_bins), dtype=np.complex128)

    def rows(f0, f1):
        nonlocal scratch
        if len(scratch) < f1 - f0:
            scratch = np.zeros((f1 - f0, layout.n_bins), dtype=np.complex128)
        scratch[: f1 - f0, k_lo:k_hi] = band[f0:f1]
        return scratch[: f1 - f0]

    return _reimpose(A, band, rows, cfg, layout, stft, signal=pinned, trace_rows=trace_rows)


def _reimpose(A, band, rows, cfg, layout, stft, *, signal=None, trace_rows=None) -> np.ndarray:
    """GLA's loop, shared by `gla_reconstruct` and `_gla_band`: each
    iteration streams the projection of the spectrogram whose blocks
    ``rows(f0, f1)`` gives, onto ``signal`` (`dsp._project_rows`), and writes
    ``Y * (A / |Y|)`` over each block's high band into ``band``, its rows of
    the spectrogram. Returns the residuals when ``trace_rows`` is given."""
    k_lo, k_hi = layout.k_lo, layout.k_hi
    ratio = np.empty((0, A.shape[1]))  # |Y|, then A / |Y|, for one block
    residuals = np.empty(cfg.iterations if trace_rows is not None else 0)
    for m in range(cfg.iterations):
        change = total = 0.0  # squared norms of X - P_C(X) and of X
        for a0, a1, Y in _project_rows(rows, len(A), stft, signal):
            if trace_rows is not None:
                X_rows = trace_rows(a0, a1)
                change += _squared_norm(X_rows - Y)
                total += _squared_norm(X_rows)
                del X_rows
            if len(ratio) < a1 - a0:
                ratio = np.empty((a1 - a0, A.shape[1]))
            scale, Y_band, X_block = ratio[: a1 - a0], Y[:, k_lo:k_hi], band[a0:a1]
            np.abs(Y_band, out=scale)
            # A / |Y| where |Y| > 0; the rest of `scale` already holds |Y| = 0.
            np.divide(A[a0:a1], scale, out=scale, where=scale > 0)
            np.multiply(Y_band, scale, out=X_block)
            if np.isnan(X_block).any():
                raise NumericalError(f"NaN appeared at Griffin-Lim iteration {m}")
            del Y, Y_band  # free this block before the next one is computed
        if trace_rows is not None:
            residuals[m] = np.sqrt(change) / max(np.sqrt(total), RESIDUAL_NORM_FLOOR)
    return residuals


def extract_reference_phase(reference: np.ndarray, layout: BandLayout) -> np.ndarray:
    """High-band unit phasors read off ``reference``, a reference's complex
    STFT, over [k_lo, k_hi), one row per frame. Zero bins, such as those of a
    frame past the reference's end, get the phasor 1."""
    return _unit_phasors(reference[:, layout.k_lo : layout.k_hi])
