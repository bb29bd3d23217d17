"""Frame-block processing: every frame-local flow gives the same result in
blocks of any size as in one block, and its memory does not grow with the
input's length."""

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

import bwx.dsp
import bwx.pipeline
from bwx import (
    BandLayout,
    BandReplicationSpec,
    FlipPhaseSpec,
    ImportSpec,
    LowpassSpec,
    OracleSpec,
    ReferencePhaseSpec,
    ReconstructSpec,
    ResidualBand,
    SampleDepth,
    SpecKind,
    StftConfig,
    Waveform,
    evaluate,
    lowpass,
    lsd,
    make_pair,
    predict_band_replication,
    reconstruct,
    spec_write,
    super_resolve,
    wav_read,
    wav_write,
)
from bwx.cli import main
from bwx.dsp import frame_blocks, istft_array, overlap_add, stft_array
from bwx.errors import LengthError, PipelineError, ShapeError

from conftest import synth_clip

CFG = StftConfig()
SR = 44100
LAYOUT = BandLayout(186, 372, CFG.n_bins)
ONE_BLOCK = 10**9  # more frames than any input here: the whole signal is one block
BLOCK_SIZES = (1, 3)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Mono and stereo HR/LR pairs of about 0.7 s (122 frames) and a BWXSPEC
    band of the mono HR's magnitudes."""
    d = tmp_path_factory.mktemp("blocks")
    left = synth_clip(5, duration=0.7)
    right = synth_clip(6, duration=0.7)
    paths = {}
    for name, channels in (("mono", [left]), ("stereo", [left, right])):
        hr = [Waveform(c, SR) for c in channels]
        lr = [lowpass(w, LowpassSpec(cutoff_hz=4000.0), CFG) for w in hr]
        paths[name] = (d / f"{name}_hr.wav", d / f"{name}_lr.wav")
        wav_write(paths[name][0], hr, SampleDepth.FLOAT32)
        wav_write(paths[name][1], lr, SampleDepth.FLOAT32)
    band = d / "band.bwx"
    mags = np.abs(stft_array(left, CFG))[:, LAYOUT.k_lo : LAYOUT.k_hi]
    spec_write(band, mags.astype(np.float32), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
    paths["band"] = band
    return paths


def _predictor(name, hr, band):
    return {
        "oracle": OracleSpec(str(hr)),
        "sbr": BandReplicationSpec(),
        "import": ImportSpec(str(band)),
    }[name]


def _sr(monkeypatch, tmp_path, block, lr, predictor, phase, residual):
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
    out = tmp_path / f"out_{block}.wav"
    spec = ReconstructSpec(predictor, phase, LAYOUT, stft=CFG, residual_band=residual)
    super_resolve(spec, lr, out)
    return reconstruct(spec, wav_read(lr)[0])[0].samples, out.read_bytes()


@pytest.mark.parametrize("residual", list(ResidualBand))
@pytest.mark.parametrize("phase", ["flip", "ref"])
@pytest.mark.parametrize(
    "channels, mag",
    [("mono", "oracle"), ("mono", "sbr"), ("mono", "import"),
     ("stereo", "oracle"), ("stereo", "sbr")],
)
def test_super_resolve_blocked_equals_one_block(
    monkeypatch, tmp_path, files, channels, mag, phase, residual
):
    hr, lr = files[channels]
    predictor = _predictor(mag, hr, files["band"])
    strategy = FlipPhaseSpec() if phase == "flip" else ReferencePhaseSpec(str(hr))
    whole, whole_bytes = _sr(monkeypatch, tmp_path, ONE_BLOCK, lr, predictor, strategy, residual)
    for block in BLOCK_SIZES:
        samples, written = _sr(monkeypatch, tmp_path, block, lr, predictor, strategy, residual)
        assert written == whole_bytes
        np.testing.assert_allclose(samples, whole, rtol=1e-12, atol=0)


def test_evaluate_blocked_equals_one_block(monkeypatch, files):
    hr, lr = files["mono"]
    truth, estimate = wav_read(hr)[0][0], wav_read(lr)[0][0]
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK)
    whole = evaluate(truth, estimate, LAYOUT, CFG)
    mt, me = (np.abs(stft_array(w.samples, CFG)) for w in (truth, estimate))
    np.testing.assert_allclose(
        [whole.lsd_hf, whole.lsd_full],
        [lsd(mt, me, (LAYOUT.k_lo, LAYOUT.k_hi)), lsd(mt, me, (0, LAYOUT.k_hi))],
        rtol=1e-12,
        atol=0,
    )
    for block in BLOCK_SIZES:
        monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
        report = evaluate(truth, estimate, LAYOUT, CFG)
        np.testing.assert_allclose(
            [report.lsd_hf, report.lsd_full], [whole.lsd_hf, whole.lsd_full], rtol=1e-12, atol=0
        )
        assert report.snr == whole.snr
        assert report.frames_compared == whole.frames_compared


def test_brickwall_prepare_blocked_equals_one_block(monkeypatch, tmp_path, files):
    # Stereo, and an odd length so the last frame is zero-padded.
    hr = tmp_path / "odd.wav"
    channels = [Waveform(c.samples[:-77], SR) for c in wav_read(files["stereo"][0])[0]]
    wav_write(hr, channels, SampleDepth.FLOAT32)
    written = {}
    for block in (ONE_BLOCK,) + BLOCK_SIZES:
        monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
        out = tmp_path / f"lr_{block}.wav"
        make_pair(hr, out)
        written[block] = out.read_bytes()
    for block in BLOCK_SIZES:
        assert written[block] == written[ONE_BLOCK]


@settings(max_examples=40, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([4, 8, 16, 32]), st.integers(1, 64)),
    extra=st.integers(0, 700),
    block=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_match_whole_signal_transforms(hop, extra, block, seed):
    # Any hop (dividing frame_len 64 or not), any length, any block size: each
    # block's STFT is exactly its rows of the whole STFT, and overlap-adding
    # the blocks in order gives exactly istft_array of the whole spectrogram.
    cfg = StftConfig(frame_len=64, hop=hop)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cfg.frame_len + extra)
    X = stft_array(x, cfg)
    n_frames = X.shape[0]
    Y = X * np.exp(1j * rng.uniform(-np.pi, np.pi, X.shape))  # inconsistent, as after an edit

    out = np.zeros(cfg.output_length(n_frames))
    covered = []
    for f0, f1, span in frame_blocks(n_frames, cfg, block):
        assert np.array_equal(stft_array(x[span], cfg), X[f0:f1])
        overlap_add(Y[f0:f1], out, f0, cfg)
        covered.extend(range(f0, f1))
    assert covered == list(range(n_frames))
    out /= bwx.dsp._synthesis_denominator(cfg, n_frames)
    assert np.array_equal(out, istft_array(Y, cfg))


@settings(max_examples=15, deadline=None)
@given(
    hop=st.sampled_from([16, 24, 40, 64]),
    n=st.integers(10, 900),
    block=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_brickwall_lowpass_block_size_invariant(hop, n, block, seed):
    cfg = StftConfig(frame_len=64, hop=hop)
    x = Waveform(np.random.default_rng(seed).uniform(-1, 1, n), 8000)
    spec = LowpassSpec(cutoff_hz=1500.0)
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK):
        whole = lowpass(x, spec, cfg).samples
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", block):
        blocked = lowpass(x, spec, cfg).samples
    assert len(blocked) == n
    np.testing.assert_allclose(blocked, whole, rtol=1e-12, atol=0)


def _whole_array_reference_phase_sr(lr, ref):
    """SBR magnitudes with reference phase computed on whole arrays: frames
    past the reference's end take zero phase."""
    X = stft_array(lr, CFG)
    mag = predict_band_replication(np.abs(X[:, : LAYOUT.k_lo]), LAYOUT)
    phase = np.zeros_like(mag)
    ref_phase = np.angle(stft_array(ref, CFG)[:, LAYOUT.k_lo : LAYOUT.k_hi])
    n = min(len(ref_phase), len(phase))
    phase[:n] = ref_phase[:n]
    X[:, LAYOUT.k_lo : LAYOUT.k_hi] = mag * np.exp(1j * phase)
    return istft_array(X, CFG)


@pytest.mark.parametrize("frame_delta", [-21, 5])
def test_reference_length_mismatch(monkeypatch, tmp_path, files, caplog, frame_delta):
    # With 8-frame blocks, a reference 21 frames short leaves two whole blocks
    # and part of a third without reference frames; a longer one is cut.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["stereo"]
    ref = tmp_path / "ref.wav"
    hr_channels = wav_read(hr)[0]
    keep = len(hr_channels[0].samples) + frame_delta * CFG.hop
    if frame_delta > 0:
        ref_channels = [
            np.concatenate([c.samples, c.samples[: keep - len(c.samples)]]) for c in hr_channels
        ]
    else:
        ref_channels = [c.samples[:keep] for c in hr_channels]
    wav_write(ref, [Waveform(c, SR) for c in ref_channels], SampleDepth.FLOAT32)
    out = tmp_path / "out.wav"
    spec = ReconstructSpec(BandReplicationSpec(), ReferencePhaseSpec(str(ref)), LAYOUT, stft=CFG)
    with caplog.at_level(logging.WARNING, logger="bwx"):
        super_resolve(spec, lr, out)
    adjusted = [r for r in caplog.records if "reference frame count adjusted" in r.getMessage()]
    assert len(adjusted) == 2  # once per channel

    written = wav_read(out)[0]
    for channel, lr_channel, ref_channel in zip(written, wav_read(lr)[0], ref_channels):
        expected = _whole_array_reference_phase_sr(lr_channel.samples, ref_channel)
        assert np.array_equal(channel.samples, expected.astype(np.float32))


def test_oracle_reference_too_short_is_length_error(monkeypatch, tmp_path, files):
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["mono"]
    short = tmp_path / "short.wav"
    samples = wav_read(hr)[0][0].samples
    wav_write(short, Waveform(samples[: len(samples) - 20 * CFG.hop], SR), SampleDepth.FLOAT32)
    out = tmp_path / "out.wav"
    spec = ReconstructSpec(OracleSpec(str(short)), FlipPhaseSpec(), LAYOUT, stft=CFG)
    with pytest.raises(PipelineError, match="magnitude") as info:
        super_resolve(spec, lr, out)
    assert isinstance(info.value.cause, LengthError)
    assert "reference yields" in str(info.value.cause)
    assert not out.exists()
    assert main(["sr", "--in", str(lr), "--out", str(out), "--mag", f"oracle:{short}",
                 "--phase", "flip"]) == 1


@pytest.mark.parametrize("which", ["oracle", "ref"])
def test_reference_channel_mismatch_is_shape_error(tmp_path, files, which):
    mono_hr, _ = files["mono"]
    _, stereo_lr = files["stereo"]
    if which == "oracle":
        predictor, phase, stage = OracleSpec(str(mono_hr)), FlipPhaseSpec(), "magnitude"
    else:
        predictor, phase, stage = BandReplicationSpec(), ReferencePhaseSpec(str(mono_hr)), "phase"
    spec = ReconstructSpec(predictor, phase, LAYOUT, stft=CFG)
    with pytest.raises(PipelineError, match=stage) as info:
        super_resolve(spec, stereo_lr, tmp_path / "out.wav")
    assert isinstance(info.value.cause, ShapeError)
    assert "has 1 channels, input has 2" in str(info.value.cause)


def test_reference_read_once_per_block(monkeypatch, tmp_path, files):
    # Oracle magnitudes and reference phase from one file, spelled two ways:
    # each block reads its span of the input and of the reference once and
    # analyses each once per channel, and the reference's tail past the
    # input's last frame is checked once after.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["stereo"]
    monkeypatch.chdir(hr.parent)
    reads, analyses = [], []
    original, original_rfft = bwx.pipeline.wav_read, scipy.fft.rfft

    def counting(path, *args):
        reads.append(str(path))
        return original(path, *args)

    def counting_rfft(*args, **kwargs):
        analyses.append(1)
        return original_rfft(*args, **kwargs)

    monkeypatch.setattr(bwx.pipeline, "wav_read", counting)
    monkeypatch.setattr(scipy.fft, "rfft", counting_rfft)
    spec = ReconstructSpec(OracleSpec(hr.name), ReferencePhaseSpec(str(hr)), LAYOUT, stft=CFG)
    super_resolve(spec, lr, tmp_path / "out.wav")
    n_frames = CFG.frame_count(len(wav_read(lr)[0][0]))
    assert len(wav_read(hr)[0][0]) > CFG.output_length(n_frames)
    assert reads == [str(lr), hr.name] * -(-n_frames // 8) + [hr.name]
    assert len(analyses) == 2 * 2 * -(-n_frames // 8)  # input and reference, two channels


# A 30 s mono oracle+flip super_resolve peaked at 396 MB of traced heap with
# whole-signal spectrograms (complex128 STFTs of input and reference) and at
# 52 MB in blocks: the input, reference and output signals, the cached
# window-sum denominator and one block's arrays, all growing far slower
# with length than the spectrograms did.
PEAK_BOUND_MB = 100


def test_super_resolve_peak_memory_is_bounded(tmp_path):
    n = 30 * SR
    x = 0.1 * np.random.default_rng(0).standard_normal(n)
    hr, lr = tmp_path / "hr.wav", tmp_path / "lr.wav"
    wav_write(hr, Waveform(x, SR), SampleDepth.FLOAT32)
    wav_write(lr, Waveform(x, SR), SampleDepth.FLOAT32)
    spec = ReconstructSpec(OracleSpec(str(hr)), FlipPhaseSpec(), LAYOUT, stft=CFG)
    tracemalloc.start()
    try:
        super_resolve(spec, lr, tmp_path / "out.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < PEAK_BOUND_MB
