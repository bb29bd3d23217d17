"""Seeded music-like test signals for the benchmark.

The recipe follows the clips the test suite renders (chord pads, a melody an
octave or two up, band-limited noise hits, a low wideband noise floor, peak
normalised to 0.6), so the 4-8 kHz band is busy. Harmonic tones are read from
a one-period wavetable instead of summing sines partial by partial, which keeps
a 60 s stereo track to well under a second of synthesis.

The style (roots, hit rate, noise floor) is fixed; the seed draws every phase,
note, hit and noise sample. That keeps quality metrics comparable across seeds
while the inputs still differ.

The first and last ``EDGE_S`` seconds are the same on every seed. bwx's
reconstructions blow up in the first and last hop by an amount that depends
on the content there (a 6x spread over eight seeds), so with seeded edges the
edge-defect metrics would measure the seed, not the program. With fixed edges
the defect shows in full and reads the same on every run.
"""

from __future__ import annotations

import numpy as np

SAMPLE_RATE = 44100
PEAK = 0.6

_ROOTS = (110.0, 146.83, 164.81, 196.0)
_SCALE = (1.0, 9 / 8, 5 / 4, 3 / 2, 5 / 3, 2.0)
_TABLE = 4096
_HIT_RATE = 5.0
_NOISE_DB = -55.0
EDGE_S = 0.3
_FADE_S = 0.05
_EDGE_SEED = 0x5EED
_EDGE_PEAK = 0.5


def _tone(rng, n, sr, f0, amp, n_partials, rolloff, vibrato_cents):
    t = np.arange(n) / sr
    vibrato = 2.0 ** ((vibrato_cents / 1200.0) * np.sin(2 * np.pi * 5.0 * t + rng.uniform(0, 2 * np.pi)))
    cycles = f0 * np.cumsum(vibrato) / sr
    k = np.arange(1, min(n_partials, int(0.45 * sr / f0)) + 1)
    spectrum = np.zeros(_TABLE // 2 + 1, dtype=np.complex128)
    spectrum[k] = (amp / k**rolloff) * np.exp(1j * rng.uniform(0, 2 * np.pi, len(k))) * (_TABLE / 2)
    table = np.fft.irfft(spectrum, _TABLE)
    out = np.interp((cycles % 1.0) * _TABLE, np.arange(_TABLE + 1), np.append(table, table[0]))
    attack = min(int(0.01 * sr), n)
    env = np.exp(-t / (0.6 + rng.uniform(0, 0.8)))
    env[:attack] *= np.linspace(0.0, 1.0, attack)
    return out * env


def _noise_burst(rng, n, sr, lo_hz, hi_hz, amp):
    spectrum = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n, 1.0 / sr)
    spectrum[(freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    burst = np.fft.irfft(spectrum, n) * np.exp(-np.arange(n) / (0.025 * sr))
    return burst * (amp / np.max(np.abs(burst)))


def _render(rng, n, channels, sr):
    # Pads and melody get a random pan per part; hits and noise differ per channel.
    mix = np.zeros((n, channels))

    def place(part, start):
        pan = rng.uniform(0.6, 1.0, channels)
        mix[start : start + len(part)] += part[:, None] * pan[None, :]

    section = max(min(n // 4, int(2.5 * sr)), 1)
    n_sections = -(-n // section)
    for s in range(n_sections):
        root = _ROOTS[s % len(_ROOTS)]
        start = s * section
        length = min(int(section * 1.25), n - start)
        for ratio in (1.0, 1.5, 2.0, 3.0):
            place(_tone(rng, length, sr, root * ratio, 0.12, 60, 1.05, 6.0), start)

    note_len = int(0.25 * sr)
    for start in range(0, n - note_len + 1, note_len):
        f0 = _ROOTS[(start // section) % len(_ROOTS)] * 4 * _SCALE[int(rng.integers(len(_SCALE)))]
        place(_tone(rng, note_len, sr, f0, 0.08, 24, 0.9, 10.0), start)

    hit_period = int(sr / _HIT_RATE)
    hit_len = int(0.09 * sr)
    for start in range(hit_period // 2, n - sr // 10, hit_period):
        for c in range(channels):
            bright = rng.uniform() < 0.6
            lo, hi = (3000.0, 14000.0) if bright else (800.0, 9000.0)
            length = min(hit_len, n - start)
            mix[start : start + length, c] += _noise_burst(
                rng, length, sr, lo, hi, 0.10 if bright else 0.14
            )

    mix += 10 ** (_NOISE_DB / 20.0) * rng.standard_normal((n, channels))
    return mix


def music(seed: int, duration_s: float, channels: int = 1, sr: int = SAMPLE_RATE) -> np.ndarray:
    """Render a (samples, channels) float64 clip with peak exactly ``PEAK``.

    The seed sets the body; the first and last ``EDGE_S`` seconds come from a
    fixed seed, peak ``_EDGE_PEAK``, crossfaded into the body over ``_FADE_S``.
    The body is normalised where it is not faded, so the peak is always there.
    """
    n = int(round(duration_s * sr))
    edge, fade = int(EDGE_S * sr), int(_FADE_S * sr)
    body = _render(np.random.default_rng(seed), n, channels, sr)
    body *= PEAK / np.max(np.abs(body[edge + fade : n - edge - fade]))
    edges = np.random.default_rng(_EDGE_SEED)
    weight = np.zeros(n)
    weight[:edge] = 1.0
    weight[edge : edge + fade] = np.linspace(1.0, 0.0, fade)
    weight[n - edge - fade : n - edge] = np.linspace(0.0, 1.0, fade)
    weight[n - edge :] = 1.0
    fixed = np.zeros_like(body)
    for part in (slice(0, edge + fade), slice(n - edge - fade, n)):
        piece = _render(edges, part.stop - part.start, channels, sr)
        fixed[part] = piece * (_EDGE_PEAK / np.max(np.abs(piece)))
    w = weight[:, None]
    return w * fixed + (1.0 - w) * body


def brickwall(x: np.ndarray, cutoff_hz: float, sr: int = SAMPLE_RATE) -> np.ndarray:
    """Zero-phase whole-signal FFT low-pass, used to make clean LR inputs."""
    spectrum = np.fft.rfft(x, axis=0)
    spectrum[np.fft.rfftfreq(len(x), 1.0 / sr) >= cutoff_hz] = 0.0
    return np.fft.irfft(spectrum, len(x), axis=0)
