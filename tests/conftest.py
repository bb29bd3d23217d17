"""Shared fixtures: deterministic synthetic music clips.

The bundled evaluation set is generated here rather than checked in as
binary data: five ~10 s, 44.1 kHz clips mixing harmonic chords, melodic
lines and noise-burst percussion, with enough 4-8 kHz content to make the
phase comparison meaningful.
"""

import struct
from pathlib import Path

import numpy as np
import pytest

from bwx import SampleDepth, StftConfig, Waveform, istft_array, stft_array, wav_write
from bwx.dsp import padded_grid

SAMPLE_RATE = 44100

# Root frequencies (Hz) per clip, pentatonic-ish so the mixes stay musical.
_CLIP_STYLES = [
    dict(seed=11, roots=[110.0, 146.83, 164.81, 196.0], percussion_rate=4.0, noise_db=-55.0),
    dict(seed=23, roots=[130.81, 174.61, 196.0, 220.0], percussion_rate=6.0, noise_db=-60.0),
    dict(seed=37, roots=[98.0, 123.47, 146.83, 185.0], percussion_rate=3.0, noise_db=-50.0),
    dict(seed=51, roots=[220.0, 164.81, 130.81, 110.0], percussion_rate=8.0, noise_db=-58.0),
    dict(seed=77, roots=[155.56, 207.65, 233.08, 155.56], percussion_rate=5.0, noise_db=-52.0),
]


def _tone(rng, n, sr, f0, amp, n_partials=40, rolloff=1.1, vibrato_cents=6.0):
    t = np.arange(n) / sr
    vib_phase = rng.uniform(0, 2 * np.pi)
    rate = 2.0 ** ((vibrato_cents / 1200.0) * np.sin(2 * np.pi * 5.0 * t + vib_phase))
    base_phase = 2 * np.pi * f0 * np.cumsum(rate) / sr
    out = np.zeros(n)
    for h in range(1, n_partials + 1):
        if f0 * h >= 0.45 * sr:
            break
        out += (amp / h**rolloff) * np.sin(h * base_phase + rng.uniform(0, 2 * np.pi))
    attack = min(int(0.01 * sr), n)
    env = np.ones(n)
    env[:attack] = np.linspace(0.0, 1.0, attack)
    env *= np.exp(-t / (0.6 + rng.uniform(0, 0.8)))
    return out * env


def _noise_burst(rng, n, sr, lo_hz, hi_hz, amp, decay_s):
    burst = rng.standard_normal(n)
    spectrum = np.fft.rfft(burst)
    freqs = np.fft.rfftfreq(n, 1.0 / sr)
    spectrum[(freqs < lo_hz) | (freqs > hi_hz)] = 0.0
    burst = np.fft.irfft(spectrum, n)
    env = np.exp(-np.arange(n) / (decay_s * sr))
    burst *= env
    peak = np.max(np.abs(burst))
    return burst * (amp / peak) if peak > 0 else burst


def synth_clip(seed, duration=10.0, sr=SAMPLE_RATE, roots=None, percussion_rate=5.0, noise_db=-55.0):
    """Render one deterministic music-like clip as a float64 array."""
    rng = np.random.default_rng(seed)
    n = int(duration * sr)
    mix = np.zeros(n)
    roots = roots or [110.0, 146.83, 164.81, 196.0]

    # Chord pads: one root per section, stacked fifths/octaves.
    section = n // len(roots)
    for i, root in enumerate(roots):
        start = i * section
        length = min(int(section * 1.25), n - start)
        for ratio in (1.0, 1.5, 2.0, 3.0):
            mix[start : start + length] += _tone(
                rng, length, sr, root * ratio, amp=0.12, n_partials=60, rolloff=1.05
            )

    # Melody: short notes an octave or two up, brighter rolloff.
    note_len = int(0.25 * sr)
    scale = [1.0, 9 / 8, 5 / 4, 3 / 2, 5 / 3, 2.0]
    pos = 0
    while pos + note_len <= n:
        root = roots[(pos // section) % len(roots)]
        f0 = root * 4 * scale[int(rng.integers(len(scale)))]
        mix[pos : pos + note_len] += _tone(
            rng, note_len, sr, f0, amp=0.08, n_partials=24, rolloff=0.9, vibrato_cents=10.0
        )
        pos += note_len

    # Percussion: band-limited noise hits, hi-hat-ish and snare-ish.
    hit_period = int(sr / percussion_rate)
    pos = int(0.5 * hit_period)
    while pos < n - sr // 10:
        length = int(0.09 * sr)
        bright = rng.uniform() < 0.6
        lo, hi = (3000.0, 14000.0) if bright else (800.0, 9000.0)
        mix[pos : pos + length] += _noise_burst(
            rng, length, sr, lo, hi, amp=0.10 if bright else 0.14, decay_s=0.025
        )
        pos += hit_period

    # Low-level wideband noise floor keeps every bin busy.
    mix += 10 ** (noise_db / 20.0) * rng.standard_normal(n)

    return 0.6 * mix / np.max(np.abs(mix))


def interior_slice(n_samples: int, cfg: StftConfig) -> slice:
    """Index range of an unpadded grid (frames from sample 0) where every
    sample is covered by a full set of overlapping frames, i.e. where the
    round trip is exact."""
    margin = cfg.frame_len - cfg.hop
    return slice(margin, n_samples - margin)


def padded_round_trip(x: np.ndarray, cfg: StftConfig, edit=None) -> np.ndarray:
    """Whole-array model of reconstruction on the padded grid: pad ``x`` as
    the grid does, analyse, let ``edit(X)`` change the whole spectrogram in
    place, resynthesise with `istft_array` and cut back to ``x``'s samples."""
    lead, n_frames = padded_grid(cfg, len(x))
    padded = np.zeros(cfg.output_length(n_frames))
    padded[lead : lead + len(x)] = x
    X = stft_array(padded, cfg)
    if edit is not None:
        edit(X)
    return istft_array(X, cfg)[lead : lead + len(x)]


def whole_window_sum(cfg, n_frames):
    """The floored window-square sum over every sample, with the frames added
    in ascending order, as the synthesis adds its frames."""
    wsq = cfg.window_values() ** 2
    wsum = np.zeros(cfg.output_length(n_frames))
    for i in range(n_frames):
        wsum[i * cfg.hop : i * cfg.hop + cfg.frame_len] += wsq
    return np.maximum(wsum, 1e-12)


def write_pcm24(path, channels, sr=SAMPLE_RATE):
    """Write float channels in [-1, 1) as a 24-bit PCM WAV, which `wav_write`
    does not produce."""
    stored = np.clip(np.round(np.stack(channels, axis=1) * (1 << 23)), -(1 << 23), (1 << 23) - 1)
    payload = stored.astype("<i4").view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    n_channels = len(channels)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        1, n_channels, sr, sr * 3 * n_channels, 3 * n_channels, 24, b"data", len(payload),
    )
    Path(path).write_bytes(header + payload + b"\0" * (len(payload) & 1))


@pytest.fixture(scope="session")
def clip_dir(tmp_path_factory):
    """Directory with the five bundled evaluation clips as float32 wav."""
    out = tmp_path_factory.mktemp("clips")
    for i, style in enumerate(_CLIP_STYLES):
        samples = synth_clip(
            style["seed"],
            roots=style["roots"],
            percussion_rate=style["percussion_rate"],
            noise_db=style["noise_db"],
        )
        wav_write(out / f"clip{i:02d}.wav", Waveform(samples, SAMPLE_RATE), SampleDepth.FLOAT32)
    return out


@pytest.fixture(scope="session")
def clip_paths(clip_dir):
    return sorted(clip_dir.glob("*.wav"))


@pytest.fixture(scope="session")
def short_music():
    """A 2 s music-like waveform for unit tests that need realistic content."""
    return Waveform(synth_clip(5, duration=2.0), SAMPLE_RATE)
