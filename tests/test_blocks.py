"""Frame-block processing: every frame-local flow gives the same result in
blocks of any size as in one block, and its memory does not grow with the
input's length."""

import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bwx.dsp
import bwx.pipeline
import bwx.wavio
from bwx import (
    BandLayout,
    BandReplicationSpec,
    FlipPhaseSpec,
    GlaConfig,
    ImportSpec,
    LowpassSpec,
    OracleSpec,
    ReferencePhaseSpec,
    ReconstructSpec,
    SpecKind,
    StftConfig,
    Waveform,
    evaluate,
    gla_reconstruct,
    lowpass,
    lsd,
    make_pair,
    predict_band_replication,
    predict_oracle,
    reconstruct,
    spec_write,
    super_resolve,
    wav_read,
    wav_write,
)
from bwx.cli import main
from bwx.dsp import (
    _project_band,
    consistency_project_array,
    frame_blocks,
    istft_array,
    overlap_add,
    padded_grid,
    read_padded,
    stft_array,
)
from bwx.errors import LengthError, PipelineError, ShapeError
from bwx.phase import _gla_band

from conftest import padded_round_trip, synth_clip, whole_window_sum

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
        wav_write(paths[name][0], hr)
        wav_write(paths[name][1], lr)
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


def _sr(monkeypatch, tmp_path, block, lr, predictor, phase):
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
    out = tmp_path / f"out_{block}.wav"
    spec = ReconstructSpec(predictor, phase, LAYOUT, stft=CFG)
    super_resolve(spec, lr, out)
    return reconstruct(spec, wav_read(lr)[0])[0].samples, out.read_bytes()


@pytest.mark.parametrize("phase", ["flip", "ref"])
@pytest.mark.parametrize(
    "channels, mag",
    [("mono", "oracle"), ("mono", "sbr"), ("mono", "import"),
     ("stereo", "oracle"), ("stereo", "sbr")],
)
def test_super_resolve_blocked_equals_one_block(
    monkeypatch, tmp_path, files, channels, mag, phase
):
    hr, lr = files[channels]
    predictor = _predictor(mag, hr, files["band"])
    strategy = FlipPhaseSpec() if phase == "flip" else ReferencePhaseSpec(str(hr))
    whole, whole_bytes = _sr(monkeypatch, tmp_path, ONE_BLOCK, lr, predictor, strategy)
    for block in BLOCK_SIZES:
        samples, written = _sr(monkeypatch, tmp_path, block, lr, predictor, strategy)
        assert written == whole_bytes
        np.testing.assert_allclose(samples, whole, rtol=1e-12, atol=0)


def test_evaluate_blocked_equals_one_block(monkeypatch, files):
    hr, lr = files["mono"]
    truth, estimate = wav_read(hr)[0][0], wav_read(lr)[0][0]
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK)
    whole = evaluate(truth, estimate)
    mt, me = (np.abs(stft_array(w.samples, CFG)) for w in (truth, estimate))
    np.testing.assert_allclose(
        [whole.lsd_hf, whole.lsd_full],
        [lsd(mt, me, (LAYOUT.k_lo, LAYOUT.k_hi)), lsd(mt, me, (0, LAYOUT.k_hi))],
        rtol=1e-12,
        atol=0,
    )
    for block in BLOCK_SIZES:
        monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
        report = evaluate(truth, estimate)
        np.testing.assert_allclose(
            [report.lsd_hf, report.lsd_full], [whole.lsd_hf, whole.lsd_full], rtol=1e-12, atol=0
        )
        assert report.snr == whole.snr
        assert report.frames_compared == whole.frames_compared


def test_brickwall_prepare_blocked_equals_one_block(monkeypatch, tmp_path, files):
    # Stereo, and an odd length so the last frame is zero-padded.
    hr = tmp_path / "odd.wav"
    channels = [Waveform(c.samples[:-77], SR) for c in wav_read(files["stereo"][0])[0]]
    wav_write(hr, channels)
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
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", block):
        for f0, f1, span in frame_blocks(n_frames, cfg):
            assert np.array_equal(stft_array(x[span], cfg), X[f0:f1])
            overlap_add(Y[f0:f1], out, f0, cfg)
            covered.extend(range(f0, f1))
    assert covered == list(range(n_frames))
    out /= bwx.dsp._synthesis_denominator(cfg, n_frames)
    assert np.array_equal(out, istft_array(Y, cfg))


def _whole_projection(Y, cfg, signal=None):
    """stft(istft(Y)), with istft divided by a whole-length window-square sum
    added frame by frame; given ``signal``, an unnormalised overlap-add of
    output_length(frames) samples, Y's frames are added onto it."""
    out = np.zeros(cfg.output_length(Y.shape[0])) if signal is None else signal.copy()
    overlap_add(Y, out, 0, cfg)
    out /= whole_window_sum(cfg, Y.shape[0])
    return stft_array(out, cfg)


@settings(max_examples=60, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([1, 16, 24, 40, 63, 64]), st.integers(1, 64)),
    side=st.sampled_from(["below", "at", "above"]),
    where=st.floats(0.0, 1.0, exclude_max=True),
    block=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(hop=64, side="above", where=0.5, block=1, seed=0)  # hop == frame_len
@example(hop=24, side="at", where=0.0, block=3, seed=1)
@example(hop=1, side="above", where=0.0, block=5, seed=2)
def test_projections_equal_whole_projection(hop, side, where, block, seed):
    # Any hop, dividing the frame or not, and a frame count below, at or above
    # the short grid of 2 * ceil(frame_len / hop) + 1 frames whose window-square
    # sum the projection divides by: consistency_project_array is
    # stft(istft(Y)) bit for bit, and so are the band columns that Griffin-Lim's
    # stream yields from whole rows, block by block from frame 0.
    cfg = StftConfig(frame_len=64, hop=hop)
    short = 2 * -(-cfg.frame_len // hop) + 1
    n_frames = {
        "below": 1 + int(where * (short - 1)),
        "at": short,
        "above": short + 1 + int(where * 2 * short),
    }[side]
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((n_frames, cfg.n_bins)) + 1j * rng.standard_normal(
        (n_frames, cfg.n_bins)
    )
    k_lo = int(rng.integers(1, cfg.n_bins))
    k_hi = int(rng.integers(k_lo + 1, cfg.n_bins + 1))
    expected = _whole_projection(Y, cfg)
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", block):
        assert np.array_equal(consistency_project_array(Y, cfg), expected)
        blocks = [(a0, a1, Y_band.copy()) for a0, a1, Y_band, _ in
                  _project_band(Y[:, k_lo:k_hi], k_lo, cfg, Y)]
    assert [a0 for a0, _, _ in blocks] == [0] + [a1 for _, a1, _ in blocks[:-1]]
    assert blocks[-1][1] == n_frames
    assert np.array_equal(np.concatenate([b for _, _, b in blocks]), expected[:, k_lo:k_hi])


@settings(max_examples=80, deadline=None)
@given(
    hop=st.one_of(st.sampled_from([16, 24, 40, 64]), st.integers(1, 64)),
    bins=st.lists(st.integers(1, 33), min_size=2, max_size=2, unique=True).map(sorted),
    n_frames=st.integers(1, 40),
    block=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
@example(hop=16, bins=[10, 20], n_frames=9, block=4, seed=0)  # meets its mirror at bin 16
@example(hop=24, bins=[20, 33], n_frames=9, block=4, seed=1)  # reaches Nyquist
@example(hop=40, bins=[5, 33], n_frames=20, block=3, seed=2)  # both
@example(hop=64, bins=[32, 33], n_frames=3, block=1, seed=3)  # Nyquist alone
def test_band_projection_equals_the_full_projections_band(hop, bins, n_frames, block, seed):
    # The band kernel's rows are the band columns of the whole-array
    # projection of the same spectrogram, zero outside the band, added onto
    # the same signal, to rounding; with the trace's sums asked for too, the
    # band's are the same bits and the sums are the whole projection's
    # frames': N times the windowed frame's squared norm is its two-sided
    # spectrum's energy (Parseval), beside its bins 0 and N / 2. Given the
    # whole spectrogram instead of a signal, it projects whole rows as
    # consistency_project_array does, bit for bit. The band's Nyquist bin has
    # an imaginary part, which irfft does not read.
    k_lo, k_hi = bins
    cfg = StftConfig(frame_len=64, hop=hop)
    rng = np.random.default_rng(seed)
    band = rng.standard_normal((n_frames, k_hi - k_lo)) + 1j * rng.standard_normal(
        (n_frames, k_hi - k_lo)
    )
    signal = rng.standard_normal(cfg.output_length(n_frames))
    X = np.zeros((n_frames, cfg.n_bins), dtype=np.complex128)
    X[:, k_lo:k_hi] = band
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", block):
        runs = [
            [(a0, a1, Y_band.copy(), sums if sums is None else sums.copy())
             for a0, a1, Y_band, sums in _project_band(band, k_lo, cfg, signal, trace)]
            for trace in (False, True)
        ]
        plain = consistency_project_array(X, cfg)
        rows = [Y_band.copy() for _, _, Y_band, _ in _project_band(X[:, k_lo:k_hi], k_lo, cfg, X)]
    Y = _whole_projection(X, cfg, signal)
    tolerance = 1e-12 * np.max(np.abs(Y))
    for run, trace in zip(runs, (False, True)):
        assert [a0 for a0, _, _, _ in run] == [0] + [a1 for _, a1, _, _ in run[:-1]]
        assert run[-1][1] == n_frames
        Y_band = np.concatenate([b for _, _, b, _ in run])
        assert np.max(np.abs(Y_band - Y[:, k_lo:k_hi])) <= tolerance
        if trace:
            sums = np.concatenate([s for _, _, _, s in run])
            energy = 2 * np.sum(np.abs(Y) ** 2, axis=1) - Y[:, 0].real ** 2 - Y[:, -1].real ** 2
            np.testing.assert_allclose(cfg.frame_len * sums[:, 0], energy, rtol=1e-12)
            assert np.max(np.abs(sums[:, 1:] - Y[:, [0, -1]].real)) <= tolerance
        else:
            assert all(s is None for _, _, _, s in run)
    assert all(np.array_equal(a[2], b[2]) for a, b in zip(*runs))
    assert np.array_equal(np.concatenate(rows), plain[:, k_lo:k_hi])


# Bins of a 64-sample frame: [8, 20) re-imposed, [0, 8) and [20, 33) pinned.
SMALL_LAYOUT = BandLayout(8, 20, 33)


@settings(max_examples=20, deadline=None)
@given(
    hop=st.sampled_from([16, 24, 40]),  # 24 and 40 do not divide the frame
    n_frames=st.sampled_from([1, 6, 7, 8, 9, 14, 15, 16, 17, 55, 56, 57]),
    seed=st.integers(0, 2**32 - 1),
)
def test_transforms_and_gla_block_size_invariant(hop, n_frames, seed):
    # Whatever BLOCK_FRAMES is, every transform, the streamed projection in
    # both modes and a 3-iteration GLA from zero phase and from a warm start,
    # on the whole spectrogram and on the band alone, give the same bits as
    # one block.
    cfg = StftConfig(frame_len=64, hop=hop)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(cfg.output_length(n_frames) + int(rng.integers(hop)))
    X = stft_array(x, cfg)
    Y = X * np.exp(1j * rng.uniform(-np.pi, np.pi, X.shape))
    magnitude = np.abs(X[:, 8:20])
    warm = np.exp(1j * rng.uniform(-np.pi, np.pi, magnitude.shape))
    Y_others = Y.copy()
    Y_others[:, 8:20] = 0.0
    Y_pinned = np.zeros(cfg.output_length(n_frames))
    overlap_add(Y_others, Y_pinned, 0, cfg)

    def start(band):
        X0 = X.copy()
        X0[:, 8:20] = band
        return X0

    def spoiled_projection(whole_rows, block):
        # The rows below a1 are never read again: spoiling them after each
        # block leaves every later block unchanged.
        Z = Y.copy()
        band, pinned = (Z[:, 8:20], Z) if whole_rows else (Z[:, 8:20].copy(), Y_pinned)
        got, rows = [], []
        for a0, a1, Y_band, _ in _project_band(band, 8, cfg, pinned):
            assert 0 < a1 - a0 <= block
            got.append(Y_band.copy())
            (pinned if whole_rows else band)[a0:a1] = np.nan
            rows.extend(range(a0, a1))
        assert rows == list(range(n_frames))
        return np.concatenate(got)

    def run(block):
        glas, bands = [], []
        for band in (magnitude, magnitude * warm):
            X0 = start(band)
            glas.append((X0, gla_reconstruct(magnitude, X0, GlaConfig(3), SMALL_LAYOUT, cfg)))
            others = start(0.0)
            pinned = np.zeros(cfg.output_length(n_frames))
            overlap_add(others, pinned, 0, cfg)
            bands.append(band.astype(np.complex128))
            _gla_band(magnitude, bands[-1], pinned, GlaConfig(3), SMALL_LAYOUT, cfg)
        arrays = [stft_array(x, cfg), istft_array(Y, cfg), consistency_project_array(Y, cfg)]
        arrays += [spoiled_projection(whole_rows, block) for whole_rows in (True, False)]
        return arrays + [X0 for X0, _ in glas] + bands, [residuals for _, residuals in glas]

    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK):
        whole, whole_residuals = run(ONE_BLOCK)
    assert np.array_equal(whole[3], whole[2][:, 8:20])
    for block in (1, 7, 8):
        with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", block):
            arrays, residuals = run(block)
        for got, expected in zip(arrays, whole):
            assert np.array_equal(got, expected)
        # Residual norms are summed per block, so only their rounding moves.
        np.testing.assert_allclose(residuals, whole_residuals, rtol=1e-12, atol=0)


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
    """SBR magnitudes with reference phase computed on whole arrays of the
    padded grid. The reference is padded as the input is and cut at the
    grid's end, so frames past its end read zeros and take zero phase."""
    lead, n_frames = padded_grid(CFG, len(lr))
    padded_ref = np.zeros(CFG.output_length(n_frames))
    kept = ref[: len(padded_ref) - lead]
    padded_ref[lead : lead + len(kept)] = kept
    ref_phase = np.angle(stft_array(padded_ref, CFG)[:, LAYOUT.k_lo : LAYOUT.k_hi])

    def edit(X):
        mag = predict_band_replication(np.abs(X[:, : LAYOUT.k_lo]), LAYOUT)
        X[:, LAYOUT.k_lo : LAYOUT.k_hi] = mag * np.exp(1j * ref_phase)

    return padded_round_trip(lr, CFG, edit)


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
    wav_write(ref, [Waveform(c, SR) for c in ref_channels])
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
    wav_write(short, Waveform(samples[: len(samples) - 20 * CFG.hop], SR))
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


def _count_reads_and_analyses(monkeypatch):
    """Lists that record the path of each span read from a WAV source and
    each `np.fft.rfft` call, one per block analysis in 8-frame blocks."""
    reads, analyses = [], []
    original, original_rfft = bwx.wavio._WavSource.read, np.fft.rfft

    def counting(source, *args):
        reads.append(str(source.path))
        return original(source, *args)

    def counting_rfft(*args, **kwargs):
        analyses.append(1)
        return original_rfft(*args, **kwargs)

    monkeypatch.setattr(bwx.wavio._WavSource, "read", counting)
    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return reads, analyses


def test_reference_read_once_per_block(monkeypatch, tmp_path, files):
    # Oracle magnitudes and reference phase from one file, spelled two ways,
    # and then from two files: each block reads its span of the input and of
    # each reference once and analyses each once per channel. The padded
    # grid's blocks read all of a reference as long as the input, so no tail
    # is left to check after.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["stereo"]
    other = tmp_path / "other.wav"
    wav_write(other, wav_read(hr)[0][::-1])
    monkeypatch.chdir(hr.parent)
    n = len(wav_read(lr)[0][0])
    assert len(wav_read(hr)[0][0]) == n
    blocks = -(-padded_grid(CFG, n)[1] // 8)
    for phase_path, files_read in (
        (str(hr), [str(lr), hr.name]),
        (str(other), [str(lr), hr.name, str(other)]),
    ):
        reads, analyses = _count_reads_and_analyses(monkeypatch)
        phase = ReferencePhaseSpec(phase_path)
        spec = ReconstructSpec(OracleSpec(hr.name), phase, LAYOUT, stft=CFG)
        super_resolve(spec, lr, tmp_path / "out.wav")
        assert reads == files_read * blocks
        assert len(analyses) == len(files_read) * 2 * blocks  # each file, two channels


def test_gla_reads_its_input_once_per_block(monkeypatch, tmp_path, files):
    # Griffin-Lim finishes each channel on the signal its one pass over the
    # input overlap-added, so the input is read once, block by block, as its
    # oracle reference is, and never again for the output.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["stereo"]
    blocks = -(-padded_grid(CFG, len(wav_read(lr)[0][0]))[1] // 8)
    reads, _ = _count_reads_and_analyses(monkeypatch)
    spec = ReconstructSpec(OracleSpec(str(hr)), GlaConfig(iterations=1), LAYOUT, stft=CFG)
    super_resolve(spec, lr, tmp_path / "out.wav")
    assert reads == [str(lr), str(hr)] * blocks


@pytest.mark.parametrize("block", [1, 3, 8])
def test_oracle_sub_blocks_equal_whole_grid_magnitudes(monkeypatch, block):
    # Griffin-Lim's first pass hands the oracle step the grid's frames block
    # by block; joined, its magnitudes are predict_oracle of the reference's
    # whole-grid STFT, bit for bit, on every channel.
    n = int(0.3 * SR)
    hr = [Waveform(synth_clip(seed, duration=0.3), SR) for seed in (5, 6)]
    _, grid_frames = padded_grid(CFG, n)
    with mock.patch.object(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK):
        whole = next(frame_blocks(grid_frames, CFG))
        expected = [
            predict_oracle(stft_array(x, CFG), LAYOUT)
            for x in read_padded(lambda a, b: [w.samples[a:b] for w in hr], n, CFG, 0, whole[2].stop)
        ]
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
    spec = ReconstructSpec(OracleSpec("hr.wav"), GlaConfig(), LAYOUT, stft=CFG)
    inputs = bwx.dsp._ArraySource(hr)
    step = bwx.pipeline._magnitude_step(
        spec, CFG.frame_count(n), inputs, bwx.pipeline._References(CFG, {"hr.wav": hr})
    )
    for channel, magnitude in enumerate(expected):
        parts = [step(channel, None, b) for b in frame_blocks(grid_frames, CFG)]
        assert np.array_equal(np.concatenate(parts), magnitude)


# With oracle magnitudes, Griffin-Lim peaked at 2.75x the grid's complex
# spectrogram of traced heap while the oracle step analysed the whole
# reference into a second spectrogram beside the grid's own. Analysed block
# by block, only the high band's magnitudes are kept.
GLA_ORACLE_PEAK_SPECTROGRAMS = 2.25


def test_gla_with_oracle_holds_no_second_spectrogram():
    n = CFG.output_length(4 * bwx.dsp.BLOCK_FRAMES)
    rng = np.random.default_rng(0)
    hr, lr = ([Waveform(rng.standard_normal(n), SR)] for _ in range(2))
    spec = ReconstructSpec(OracleSpec("hr.wav"), GlaConfig(iterations=1), LAYOUT, stft=CFG)
    grid_bytes = padded_grid(CFG, n)[1] * CFG.n_bins * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        reconstruct(spec, lr, references={"hr.wav": hr})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= GLA_ORACLE_PEAK_SPECTROGRAMS * grid_bytes


# Griffin-Lim in `reconstruct` held the grid's complex spectrogram through
# every iteration: on 16 blocks of 64 frames its traced heap peaked at 1.25x
# of it. Keeping only the high band's magnitudes and complex values and the
# pinned bins' overlap-add, a signal over the grid, it peaks at 0.57x at
# 2048/256 with a 186-bin band, output included.
def test_gla_holds_no_grid_spectrogram():
    n = CFG.output_length(16 * bwx.dsp.BLOCK_FRAMES)
    rng = np.random.default_rng(0)
    hr, lr = ([Waveform(rng.standard_normal(n), SR)] for _ in range(2))
    spec = ReconstructSpec(OracleSpec("hr.wav"), GlaConfig(iterations=1), LAYOUT, stft=CFG)
    grid_bytes = padded_grid(CFG, n)[1] * CFG.n_bins * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        reconstruct(spec, lr, references={"hr.wav": hr})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grid_bytes


# Stereo Griffin-Lim made every channel's complex zero-phase start in its
# first pass, so channel 1's band sat idle through channel 0's GLA: on 16
# blocks of 64 frames its traced heap peaked at 2.68x one channel's GLA state
# (its magnitudes and band, 24 B per band entry, and its pinned signal).
# Making each start just before that channel's GLA, it peaks at 2.06x.
def test_stereo_gla_makes_each_start_when_its_channel_begins(tmp_path):
    n = CFG.output_length(16 * bwx.dsp.BLOCK_FRAMES)
    rng = np.random.default_rng(0)
    hr, lr = tmp_path / "hr.wav", tmp_path / "lr.wav"
    for path in (hr, lr):
        channels = [Waveform(rng.standard_normal(n), SR) for _ in range(2)]
        wav_write(path, channels)
    spec = ReconstructSpec(OracleSpec(str(hr)), GlaConfig(iterations=1), LAYOUT, stft=CFG)
    grid_frames = padded_grid(CFG, n)[1]
    state_bytes = grid_frames * LAYOUT.hfc_width * 24 + 8 * CFG.output_length(grid_frames)
    tracemalloc.start()
    try:
        super_resolve(spec, lr, tmp_path / "out.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.4 * state_bytes


def test_super_resolve_walks_each_file_once(monkeypatch, tmp_path, files):
    # Griffin-Lim reads its input and its oracle reference once each, block
    # by block, through the one file it opened for each.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", 8)
    hr, lr = files["stereo"]
    opened = []

    def counting_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(bwx.wavio, "open", counting_open, raising=False)
    spec = ReconstructSpec(OracleSpec(str(hr)), GlaConfig(iterations=1), LAYOUT, stft=CFG)
    super_resolve(spec, lr, tmp_path / "out.wav")
    assert sorted(file for file, mode in opened if mode == "rb") == sorted([str(hr), str(lr)])


# A 30 s mono oracle+flip super_resolve peaked at 396 MB of traced heap with
# whole-signal spectrograms (complex128 STFTs of input and reference), at
# 10.2 MB in blocks of 256 frames and at 2.7 MB in blocks of 64 frames: one
# block's arrays and carries, with nothing that grows with the input's length.
PEAK_BOUND_MB = 5


def test_super_resolve_peak_memory_is_bounded(tmp_path):
    n = 30 * SR
    x = 0.1 * np.random.default_rng(0).standard_normal(n)
    hr, lr = tmp_path / "hr.wav", tmp_path / "lr.wav"
    wav_write(hr, Waveform(x, SR))
    wav_write(lr, Waveform(x, SR))
    spec = ReconstructSpec(OracleSpec(str(hr)), FlipPhaseSpec(), LAYOUT, stft=CFG)
    tracemalloc.start()
    try:
        super_resolve(spec, lr, tmp_path / "out.wav")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < PEAK_BOUND_MB


def _gla_growth(n_frames):
    """Traced heap growth of two GLA iterations on ``n_frames`` frames, beyond
    the spectrogram and magnitudes handed in."""
    x = np.random.default_rng(0).standard_normal(CFG.output_length(n_frames))
    X = stft_array(x, CFG)
    magnitude = np.abs(X[:, LAYOUT.k_lo : LAYOUT.k_hi])
    X[:, LAYOUT.k_lo : LAYOUT.k_hi] = magnitude
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gla_reconstruct(magnitude, X, GlaConfig(iterations=2), LAYOUT, CFG)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# Two GLA iterations over four blocks of frames grew the traced heap by 4.66x
# the complex spectrogram when each iteration projected the whole spectrogram
# at once (frames, spectra and signal all whole-file), by 1.85x streamed with
# a second spectrogram, and by 0.77x in place on the caller's spectrogram with
# blocks of 256 frames (the magnitudes of every bin from the cutoff up, one
# output-length signal and its window-sum denominator, and one block's
# arrays). With the projection's workspace sized by the block and blocks of
# 64 frames it grows by 0.58x: under one spectrogram, so GLA holds no copy of
# it.
def test_gla_heap_growth_is_bounded():
    n_frames = 4 * bwx.dsp.BLOCK_FRAMES
    assert _gla_growth(n_frames) <= n_frames * CFG.n_bins * np.dtype(np.complex128).itemsize


def test_gla_heap_growth_beyond_the_spectrogram_is_flat():
    # Beside the caller's spectrogram, GLA holds only block-sized arrays, so
    # four times the frames grows the heap by less than one block of complex
    # spectrogram more. With an output-length signal and window-sum
    # denominator in the projection, twelve more blocks of frames grew it by
    # 12 MB or more at 2048/256, about three blocks' worth.
    block_bytes = bwx.dsp.BLOCK_FRAMES * CFG.n_bins * np.dtype(np.complex128).itemsize
    growths = [_gla_growth(blocks * bwx.dsp.BLOCK_FRAMES) for blocks in (4, 16)]
    assert abs(growths[1] - growths[0]) < block_bytes


# Brickwall `lowpass` joined its streamed pieces with np.concatenate and kept
# one block's spectrogram while analysing the next, so a 10 s mono clip grew
# the traced heap by 2.12x its float64 samples. Filling one output, with one
# block spectrogram at a time, it grows by 1.42x.
def test_brickwall_lowpass_heap_growth_is_one_output():
    x = Waveform(np.random.default_rng(0).uniform(-0.5, 0.5, 10 * SR), SR)
    lowpass(x, LowpassSpec(), CFG)  # sizes the per-thread frame buffer every later call reuses
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        lowpass(x, LowpassSpec(), CFG)
        growth = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert growth <= 1.5 * x.samples.nbytes
