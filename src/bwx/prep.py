"""Low-pass dataset preparation for the 2x bandwidth-extension task.

Brickwall mode zeroes spectrogram bins at and above the cutoff and
resynthesises, matching the band-split semantics of the pipeline exactly.
FirSinc mode applies a windowed-sinc FIR forward and backward (zero net group
delay), modelling a realistic acquisition chain. Both keep the original
sample rate and length.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
import scipy.signal

from .dsp import StftConfig, Waveform, bin_index, resynthesize
from .errors import DomainError
from .wavio import SampleDepth, wav_read, wav_write


# Window of the windowed-sinc FIR design.
FIR_WINDOW = "hamming"


class LowpassMode(enum.Enum):
    BRICKWALL = "brickwall"
    FIR_SINC = "fir"


@dataclass(frozen=True)
class LowpassSpec:
    mode: LowpassMode = LowpassMode.BRICKWALL
    cutoff_hz: float = 4000.0
    taps: int = 511

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff_hz}")
        if self.taps < 11 or self.taps % 2 == 0:
            raise DomainError(f"taps must be odd and >= 11, got {self.taps}")


def design_fir(spec: LowpassSpec, sample_rate: int) -> np.ndarray:
    """Windowed-sinc low-pass taps with unity DC gain."""
    return scipy.signal.firwin(spec.taps, spec.cutoff_hz, window=FIR_WINDOW, fs=sample_rate)


def _lowpass_brickwall(x: np.ndarray, sample_rate: int, cutoff_hz: float, cfg: StftConfig) -> np.ndarray:
    cutoff_bin = bin_index(cutoff_hz, sample_rate, cfg.frame_len)

    def zero_high_band(channel, X, block):
        X[:, cutoff_bin:] = 0.0

    pieces = resynthesize(lambda a, b: [x[a:b]], len(x), cfg, zero_high_band)
    # An empty signal yields no piece.
    return np.concatenate([np.zeros(0), *(channels[0] for channels in pieces)])


def _lowpass_fir(x: np.ndarray, sample_rate: int, spec: LowpassSpec) -> np.ndarray:
    taps = design_fir(spec, sample_rate)
    padlen = min(3 * spec.taps, len(x) - 1)
    return scipy.signal.filtfilt(taps, [1.0], x, padlen=padlen)


def lowpass(x: Waveform, spec: LowpassSpec, cfg: StftConfig = StftConfig()) -> Waveform:
    """Band-limit a waveform below the cutoff; output length equals input length."""
    nyquist = x.sample_rate / 2
    if spec.cutoff_hz >= nyquist:
        raise DomainError(f"cutoff {spec.cutoff_hz} Hz is not below Nyquist ({nyquist} Hz)")
    if spec.mode is LowpassMode.BRICKWALL:
        out = _lowpass_brickwall(x.samples, x.sample_rate, spec.cutoff_hz, cfg)
    else:
        out = _lowpass_fir(x.samples, x.sample_rate, spec)
    return Waveform(out, x.sample_rate)


def make_pair(hr_path, out_lr_path, spec: LowpassSpec = LowpassSpec(), cfg: StftConfig = StftConfig()) -> None:
    """Write the low-passed companion of a high-resolution file.

    Channels are processed independently; the output keeps the input's sample
    rate and length and is stored as float32.
    """
    channels, _depth = wav_read(hr_path)
    filtered = [lowpass(ch, spec, cfg) for ch in channels]
    wav_write(out_lr_path, filtered, SampleDepth.FLOAT32)
