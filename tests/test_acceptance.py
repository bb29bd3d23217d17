"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. The bundled evaluation set is five ~10 s synthetic music clips at
44.1 kHz (see conftest).
"""

import math
import struct
import time

import numpy as np
import pytest

from bwx import (
    BandLayout,
    GlaConfig,
    SpecKind,
    StftConfig,
    Waveform,
    flip_phase,
    gla_reconstruct,
    istft_array,
    lsd,
    snr,
    spec_read,
    spec_write,
    stft_array,
    wav_read,
    wav_write,
)
from bwx.cli import main as cli_main
from bwx.dsp import hann_window
from bwx.errors import (
    BadMagicError,
    MalformedHeaderError,
    PayloadMismatchError,
    TruncatedDataError,
)
from bwx.phase import _unit_phasors, flip_source_bins
from bwx.pipeline import run_phase_study

from conftest import interior_slice

CFG = StftConfig()
SR = 44100
LAYOUT = BandLayout(186, 372, CFG.n_bins)
# Griffin-Lim re-imposing every bin from the cutoff up, the problem criteria 02
# and 03 were set on.
GLA_LAYOUT = BandLayout(LAYOUT.k_lo, CFG.n_bins, CFG.n_bins)


def _ok(n, message):
    print(f"[criterion {n:2d}] PASS: {message}")


@pytest.fixture(scope="module")
def phase_study(clip_paths, tmp_path_factory):
    out = tmp_path_factory.mktemp("study") / "phase_study.csv"
    result = run_phase_study([str(p) for p in clip_paths], out)
    return result, out


@pytest.fixture(scope="module")
def gla_runs(clip_paths):
    """Oracle-magnitude, zero-phase-init GLA on every bundled clip, timed in
    this process's CPU seconds (every FFT worker, no other process)."""
    runs = []
    for path in clip_paths:
        wave = wav_read(path)[0][0]
        X = stft_array(wave.samples, CFG)
        magnitude = np.abs(X[:, LAYOUT.k_lo :])
        X[:, LAYOUT.k_lo :] = magnitude  # zero phase
        started = time.process_time()
        residuals = gla_reconstruct(magnitude, X, GlaConfig(iterations=100), GLA_LAYOUT, CFG)
        elapsed = time.process_time() - started
        runs.append((str(path), residuals, elapsed, wave.duration))
    return runs


def test_criterion_01_stft_round_trip_and_oracle():
    rng = np.random.default_rng(2024)
    durations = []
    for trial in range(3):
        x = rng.standard_normal(2 * SR) * 0.25
        started = time.perf_counter()
        rebuilt = istft_array(stft_array(x, CFG), CFG)
        durations.append(time.perf_counter() - started)

        n = len(rebuilt)
        sel = interior_slice(n, CFG)
        err = np.linalg.norm(x[:n][sel] - rebuilt[sel]) / np.linalg.norm(x[:n][sel])
        assert err < 1e-6

    # Direct-DFT oracle, every frame of a 2 s signal.
    x = rng.standard_normal(2 * SR) * 0.25
    X = stft_array(x, CFG)
    window = hann_window(CFG.frame_len)
    k = np.arange(CFG.n_bins)[:, None]
    n_idx = np.arange(CFG.frame_len)[None, :]
    dft = np.exp(-2j * np.pi * k * n_idx / CFG.frame_len)
    for i in range(X.shape[0]):
        frame = x[i * CFG.hop : i * CFG.hop + CFG.frame_len] * window
        oracle = dft @ frame
        assert np.linalg.norm(X[i] - oracle) / np.linalg.norm(oracle) < 1e-9

    assert max(durations) < 1.0
    _ok(1, f"round trip < 1e-6, DFT oracle < 1e-9, {max(durations):.3f} s per clip")


def test_criterion_02_gla_fixed_point(clip_paths):
    wave = wav_read(clip_paths[0])[0][0]
    X = stft_array(wave.samples, CFG)
    magnitude = np.abs(X[:, LAYOUT.k_lo :])
    # Start from the true phasors, 1 at a zero bin.
    X[:, LAYOUT.k_lo :] = magnitude * _unit_phasors(X[:, LAYOUT.k_lo :])
    residuals = gla_reconstruct(magnitude, X, GlaConfig(iterations=100), GLA_LAYOUT, CFG)
    assert len(residuals) == 100
    assert np.all(residuals < 1e-6)
    _ok(2, f"fixed point held for 100 iterations, max residual {residuals.max():.2e}")


def test_criterion_03_gla_progress(gla_runs):
    for path, residuals, elapsed, duration in gla_runs:
        assert residuals[99] < residuals[0], path
        assert elapsed < 30.0, f"{path}: {elapsed:.1f} s CPU for 100 iterations"
    slowest = max(r[2] for r in gla_runs)
    _ok(3, f"residual(100) < residual(1) on all {len(gla_runs)} clips, slowest {slowest:.1f} s CPU")


def test_criterion_04_phase_study_ordering(phase_study):
    result, _ = phase_study
    means = result.means
    assert means["reference"].lsd_hf < means["gla"].lsd_hf
    assert means["gla"].lsd_hf < means["flip"].lsd_hf
    assert means["flip"].lsd_hf < means["lr"].lsd_hf
    improvement = (means["flip"].lsd_hf - means["gla"].lsd_hf) / means["flip"].lsd_hf
    assert improvement >= 0.15
    _ok(
        4,
        "mean LSD-HF "
        f"ref {means['reference'].lsd_hf:.2f} < gla {means['gla'].lsd_hf:.2f} "
        f"< flip {means['flip'].lsd_hf:.2f} < lr {means['lr'].lsd_hf:.2f}; "
        f"GLA beats FLIP by {improvement * 100:.0f}%",
    )


def test_criterion_05_snr_anomaly_flagged(phase_study):
    result, out = phase_study
    assert result.means["lr"].snr >= result.means["gla"].snr
    assert result.snr_anomaly
    assert any(line.startswith("# snr_anomaly") for line in out.read_text().splitlines())
    _ok(
        5,
        f"LR mean SNR {result.means['lr'].snr:.2f} dB >= "
        f"GLA {result.means['gla'].snr:.2f} dB, flagged in report",
    )


def test_criterion_06_metric_identities():
    rng = np.random.default_rng(99)

    m = rng.random((9, CFG.n_bins))
    assert lsd(m, m, (0, CFG.n_bins)) == 0.0

    for _ in range(100):
        a = rng.random((2, CFG.n_bins))
        b = rng.random((2, CFG.n_bins))
        assert lsd(a, b, (0, 372)) == lsd(b, a, (0, 372))

    x = rng.standard_normal(4000)
    truth = Waveform(x, SR)
    assert snr(truth, Waveform(np.zeros(4000), SR)) == pytest.approx(0.0, abs=1e-12)
    assert snr(truth, Waveform(0.5 * x, SR)) == pytest.approx(6.02, abs=0.01)

    n_frames, width = 25, 186
    t = np.ones((n_frames, CFG.n_bins))
    e = np.ones((n_frames, CFG.n_bins))
    t[7, 42] = math.sqrt(10.0)
    value = lsd(t, e, (0, width))
    assert abs(value - (10.0 / math.sqrt(width)) / n_frames) < 1e-9
    _ok(6, "LSD identity/symmetry, SNR closed forms, single-perturbation closed form")


def test_criterion_07_flip_mapping():
    rng = np.random.default_rng(7)
    data = rng.uniform(-np.pi + 1e-9, np.pi, size=(4, 186))
    lfc = rng.uniform(0.1, 2.0, size=data.shape) * np.exp(1j * data)
    out = flip_phase(lfc, LAYOUT)
    src = flip_source_bins(LAYOUT)
    for k in range(186, 372):
        expected_src = 186 - 1 - ((k - 186) % 186)
        assert src[k - 186] == expected_src
        np.testing.assert_allclose(
            np.angle(out[:, k - 186]), -data[:, expected_src], atol=1e-12
        )
    np.testing.assert_allclose(np.abs(out), 1.0, rtol=0, atol=1e-12)
    _ok(7, "mirror indices match the closed form on all 186 high-band bins")


def test_criterion_08_full_oracle_reconstruction(clip_paths, tmp_path):
    worst = 0.0
    for path in clip_paths:
        out = tmp_path / f"oracle_{path.stem}.wav"
        code = cli_main(
            ["sr", "--in", str(path), "--out", str(out),
             "--mag", f"oracle:{path}", "--phase", f"ref:{path}"]
        )
        assert code == 0
        truth = wav_read(path)[0][0].samples
        rebuilt = wav_read(out)[0][0].samples
        n = len(rebuilt)
        sel = interior_slice(n, CFG)
        err = np.linalg.norm(truth[:n][sel] - rebuilt[sel]) / np.linalg.norm(truth[:n][sel])
        assert err < 1e-6, path
        # On the padded grid the identity holds on every sample too.
        assert n == len(truth)
        whole = np.linalg.norm(truth - rebuilt) / np.linalg.norm(truth)
        assert whole < 1e-6, path
        worst = max(worst, err, whole)
    _ok(8, f"oracle magnitude + reference phase: worst RMS {worst:.2e}")


def test_criterion_09_io_round_trips(tmp_path):
    rng = np.random.default_rng(5)

    samples = rng.uniform(-1, 1, 4096).astype(np.float32).astype(np.float64)
    wav_path = tmp_path / "rt.wav"
    wav_write(wav_path, Waveform(samples, SR))
    assert np.array_equal(wav_read(wav_path)[0][0].samples, samples)

    mag = rng.random((11, 33)).astype(np.float32)
    mag_path = tmp_path / "m.bwx"
    spec_write(mag_path, mag, SpecKind.MAGNITUDE, SR, 2048, 256)
    assert np.array_equal(spec_read(mag_path)[0], mag)
    assert mag_path.stat().st_size == 29 + 4 * 11 * 33

    cplx = (rng.standard_normal((6, 20)) + 1j * rng.standard_normal((6, 20))).astype(
        np.complex64
    )
    cplx_path = tmp_path / "c.bwx"
    spec_write(cplx_path, cplx, SpecKind.COMPLEX, SR, 2048, 256)
    assert np.array_equal(spec_read(cplx_path)[0], cplx)
    assert cplx_path.stat().st_size == 29 + 4 * 6 * 20 * 2

    bad_magic = tmp_path / "bad.bwx"
    raw = bytearray(mag_path.read_bytes())
    raw[:8] = b"WHATEVER"
    bad_magic.write_bytes(bytes(raw))
    with pytest.raises(BadMagicError):
        spec_read(bad_magic)

    short = tmp_path / "short.bwx"
    short.write_bytes(b"BWXSPEC1")
    with pytest.raises(TruncatedDataError):
        spec_read(short)

    cut = tmp_path / "cut.bwx"
    cut.write_bytes(mag_path.read_bytes()[:-4])
    with pytest.raises(PayloadMismatchError):
        spec_read(cut)

    not_wave = tmp_path / "nw.wav"
    not_wave.write_bytes(b"RIFF" + struct.pack("<I", 40) + b"JUNK" + b"\x00" * 40)
    with pytest.raises(MalformedHeaderError):
        wav_read(not_wave)

    _ok(9, "WAV/BWXSPEC round trips bit-exact, sizes match 29 + 4*f*b*(1|2), errors distinct")


def test_criterion_10_cli_determinism(clip_paths, tmp_path):
    clip = clip_paths[0]
    lr = tmp_path / "lr.wav"
    assert cli_main(["prepare", "--in", str(clip), "--out", str(lr)]) == 0
    out1, out2 = tmp_path / "a.wav", tmp_path / "b.wav"
    flags = ["--mag", f"oracle:{clip}", "--phase", "gla", "--gla-iters", "10"]
    assert cli_main(["sr", "--in", str(lr), "--out", str(out1)] + flags) == 0
    assert cli_main(["sr", "--in", str(lr), "--out", str(out2)] + flags) == 0
    assert out1.read_bytes() == out2.read_bytes()
    _ok(10, "identical sr invocations produced byte-identical files")
