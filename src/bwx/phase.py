"""High-band phase estimators.

Three strategies produce phase for the bins above the cutoff. None of them
goes through angles: phase is carried as unit phasors, or as complex values
that already hold the right magnitudes.

* ``flip_phase`` mirrors the low band about the cutoff and conjugates it,
  returning unit phasors.
* ``gla_reconstruct`` runs an alternating-projection loop (Griffin-Lim) in
  place on the caller's spectrogram: it re-imposes the supplied magnitudes on
  the high band [k_lo, k_hi) only and pins every other bin, the known low
  band and whatever lies above the high band, to its start value, and
  returns each iteration's consistency residual. The loop is ``_gla_band``'s,
  which ``sr`` and the phase study run on the high band alone, onto the
  pinned bins' overlap-add, through half-length complex FFTs
  (``dsp._project_band``); the residual comes from the projection's frames.
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

from .dsp import BandLayout, StftConfig, _checked_magnitude, _project_band
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
    (`DomainError`). Every bin outside the high band is pinned: never
    written, it keeps its start value bit for bit.

    The loop is `_gla_band`'s, on the view ``X[:, k_lo:k_hi]``, projecting
    ``X``'s whole rows block by block, so besides ``X`` an iteration holds
    only block-sized arrays. Returns the per-iteration consistency residuals
    over every bin, ||X - P_C(X)||_F / max(||X||_F, 1e-12), as a float
    array; ``iterations == 0`` leaves the start unchanged.
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
    return _gla_band(A, X[:, k_lo:k_hi], X, cfg, layout, stft, _pinned_sums(X, layout))


def _pinned_sums(X: np.ndarray, layout: BandLayout) -> np.ndarray:
    """Per row of ``X`` (frames, n_bins), the pinned bins' constants that
    `_gla_band`'s residual reads: the squared norm of the bins outside
    [k_lo, k_hi) and the real parts of bins 0 and N / 2, 0 for one inside."""
    parts = (X[:, : layout.k_lo].view(np.float64), X[:, layout.k_hi :].view(np.float64))
    energy = sum(np.einsum("ij,ij->i", v, v) for v in parts)
    return np.stack([energy, X[:, 0].real, X[:, -1].real * (layout.k_hi < layout.n_bins)], axis=1)


def _gla_band(
    magnitude: np.ndarray,
    band: np.ndarray,
    pinned: np.ndarray,
    cfg: GlaConfig,
    layout: BandLayout,
    stft: StftConfig,
    pinned_sums: np.ndarray | None = None,
) -> np.ndarray:
    """Griffin-Lim's loop: each iteration writes Y * (A / |Y|), 0 / 0 being 0,
    into ``band``, complex128 (frames, k_hi - k_lo), the high band's start,
    block by block as the projection (`dsp._project_band`) yields them; a NaN
    there raises `NumericalError`. ``magnitude``, A, is checked as
    `gla_reconstruct` checks it. ``pinned`` holds every other bin: the whole
    spectrogram that ``band`` views, or, for ``sr`` and the study, which hold
    only the band, their unnormalised overlap-add, checked finite here.

    Given ``pinned_sums`` (`_pinned_sums` of the start), returns each
    iteration's consistency residual over every bin, else an empty array.
    P_C is a least-squares projection (Griffin and Lim, IEEE TASSP 32(2),
    1984), so Pythagoras over the two-sided spectra that irfft reads gives it
    from the projection's own frames x_t, with N = frame_len:
    ||X - Y||^2 = ||X||^2 - N/2 sum_t ||w x_t||^2
    + 1/2 sum_t sum_(k = 0, N/2) Y_tk (Y_tk - 2 Re X_tk), Y_tk being real.
    That cancels: the relative error grows as about 2e-16 / residual^2, to a
    floor near 1e-8 at a fixed point."""
    A = _checked_magnitude(magnitude)
    if band.shape != A.shape or A.shape[1] != layout.hfc_width:
        raise ShapeError(f"band {band.shape} and magnitude {A.shape} do not fit the layout")
    if pinned.ndim == 1 and not np.all(np.isfinite(pinned)):
        raise DomainError("pinned bins contain non-finite entries")
    trace = pinned_sums is not None
    band_nyquist = float(layout.k_hi == layout.n_bins)  # the band's last bin is N / 2
    ratio = np.empty((0, A.shape[1]))  # |Y|, then A / |Y|, for one block
    residuals = np.empty(cfg.iterations if trace else 0)
    for m in range(cfg.iterations):
        total = gap = 0.0  # ||X||^2, and 2 (||X - Y||^2 - ||X||^2)
        for a0, a1, Y_band, sums in _project_band(band, layout.k_lo, stft, pinned, trace):
            X_block = band[a0:a1]
            if trace:  # read before the block is overwritten
                edges = pinned_sums[a0:a1, 1:] + X_block[:, -1:].real * [0.0, band_nyquist]
                total += pinned_sums[a0:a1, 0].sum() + _squared_norm(X_block)
                Y_edges = sums[:, 1:]
                gap += np.sum(Y_edges * (Y_edges - 2 * edges)) - stft.frame_len * sums[:, 0].sum()
            if len(ratio) < a1 - a0:
                ratio = np.empty((a1 - a0, A.shape[1]))
            scale = ratio[: a1 - a0]
            np.abs(Y_band, out=scale)
            # A / |Y| where |Y| > 0; the rest of `scale` already holds |Y| = 0.
            np.divide(A[a0:a1], scale, out=scale, where=scale > 0)
            np.multiply(Y_band, scale, out=X_block)
            if np.isnan(X_block).any():
                raise NumericalError(f"NaN appeared at Griffin-Lim iteration {m}")
        if trace:
            change, norm = np.sqrt(max(total + gap / 2, 0.0)), np.sqrt(total)
            residuals[m] = change / max(norm, RESIDUAL_NORM_FLOOR)
    return residuals


def extract_reference_phase(reference: np.ndarray, layout: BandLayout) -> np.ndarray:
    """High-band unit phasors read off ``reference``, a reference's complex
    STFT, over [k_lo, k_hi), one row per frame. Zero bins, such as those of a
    frame past the reference's end, get the phasor 1."""
    return _unit_phasors(reference[:, layout.k_lo : layout.k_hi])
