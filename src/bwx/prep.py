"""Low-pass dataset preparation for the 2x bandwidth-extension task.

Brickwall mode zeroes spectrogram bins at and above the cutoff and
resynthesises, matching the band-split semantics of the pipeline exactly.
FirSinc mode applies a Hamming-windowed-sinc FIR forward and backward (zero
net group delay), modelling a realistic acquisition chain. The FIR follows
SciPy's ``filtfilt`` with odd extension, computed here by overlap-save FFT
convolution with numpy's FFT, so bwx needs no SciPy. Both modes keep the
original sample rate and length; an empty signal gives an empty one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .dsp import BAND_LO_HZ, StftConfig, Waveform, _whole_channels, bin_index, resynthesize
from .errors import DomainError
from .wavio import wav_read, wav_write


class LowpassMode(enum.Enum):
    BRICKWALL = "brickwall"
    FIR_SINC = "fir"


@dataclass(frozen=True)
class LowpassSpec:
    mode: LowpassMode = LowpassMode.BRICKWALL
    cutoff_hz: float = BAND_LO_HZ
    taps: int = 511

    def __post_init__(self) -> None:
        if self.cutoff_hz <= 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff_hz}")
        if self.taps < 11 or self.taps % 2 == 0:
            raise DomainError(f"taps must be odd and >= 11, got {self.taps}")


def design_fir(spec: LowpassSpec, sample_rate: int) -> np.ndarray:
    """Hamming-windowed-sinc low-pass taps with unity DC gain: SciPy's
    ``firwin(taps, cutoff, window="hamming", fs=sample_rate)``."""
    c = spec.cutoff_hz / (sample_rate / 2)
    m = np.arange(spec.taps) - (spec.taps - 1) / 2
    h = c * np.sinc(c * m) * np.hamming(spec.taps)
    return h / h.sum()


def _lowpass_brickwall(x: np.ndarray, sample_rate: int, cutoff_hz: float, cfg: StftConfig) -> np.ndarray:
    cutoff_bin = bin_index(cutoff_hz, sample_rate, cfg.frame_len)

    def zero_high_band(channel, X, block):
        X[:, cutoff_bin:] = 0.0

    pieces = resynthesize(lambda a, b: [x[a:b]], len(x), cfg, zero_high_band)
    return _whole_channels(pieces, 1, len(x))[0]


def _held_convolution(x: np.ndarray, taps_fft: np.ndarray, n_taps: int, n_fft: int) -> np.ndarray:
    """y[n] = sum_k taps[k] * x[n - k] with x held at x[0] before it starts,
    over len(x) outputs; ``taps_fft`` is rfft(taps, n_fft).

    Overlap-save: each FFT of length n_fft yields n_fft - n_taps + 1 outputs
    from the input samples they need, so the temporaries are block-sized
    whatever the signal's length, and every block reuses them."""
    history = n_taps - 1
    step = n_fft - history
    y = np.empty(len(x))
    segment = np.empty(n_fft)
    spectrum = np.empty(len(taps_fft), dtype=np.complex128)
    block = np.empty(n_fft)
    for start in range(0, len(x), step):
        count = min(step, len(x) - start)
        held = max(history - start, 0)  # step > history: the first block only
        segment[:held] = x[0]
        segment[held : history + count] = x[start + held - history : start + count]
        segment[history + count :] = 0.0
        np.fft.rfft(segment, out=spectrum)
        spectrum *= taps_fft
        np.fft.irfft(spectrum, n_fft, out=block)
        y[start : start + count] = block[history : history + count]
    return y


def _lowpass_fir(x: np.ndarray, sample_rate: int, spec: LowpassSpec) -> np.ndarray:
    """SciPy's ``filtfilt(taps, [1.0], x, padlen=min(3T, N - 1))``: odd
    extension by p samples at each end, a forward pass starting from the
    steady state of the first extended value (lfilter_zi), the same pass over
    the reversed output starting from its last value, then p samples cut from
    each end."""
    if len(x) == 0:
        return np.zeros(0)
    taps = design_fir(spec, sample_rate)
    n_fft = 1 << (8 * spec.taps - 1).bit_length()  # a power of two >= 8 * taps
    taps_fft = np.fft.rfft(taps, n_fft)
    p = min(3 * spec.taps, len(x) - 1)
    extended = np.concatenate([2 * x[0] - x[p:0:-1], x, 2 * x[-1] - x[-2 : -p - 2 : -1]])
    forward = _held_convolution(extended, taps_fft, spec.taps, n_fft)
    both = _held_convolution(forward[::-1], taps_fft, spec.taps, n_fft)[::-1]
    return both[p : len(both) - p]


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


def make_pair(hr_path, out_lr_path, spec: LowpassSpec = LowpassSpec()) -> None:
    """Write the low-passed companion of a high-resolution file.

    Channels are processed independently, the brickwall on the paper's
    2048/256 grid; the output keeps the input's sample rate and length and is
    stored as float32.
    """
    channels, _depth = wav_read(hr_path)
    filtered = [lowpass(ch, spec) for ch in channels]
    wav_write(out_lr_path, filtered)
