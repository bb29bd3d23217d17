"""Streamed WAV flows: `sr` and `eval` read their inputs and references one
block span at a time and append their output as they go. Whatever the block
size, they write what the whole-array core writes, their memory does not grow
with the input's length, and a failure leaves no partial output."""

import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest

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
    ReconstructSpec,
    ReferencePhaseSpec,
    SpecKind,
    StftConfig,
    Waveform,
    evaluate,
    evaluate_batch,
    lowpass,
    reconstruct,
    spec_write,
    super_resolve,
    wav_read,
    wav_write,
)
from bwx.cli import main
from bwx.dsp import stft_array
from bwx.errors import DomainError, PipelineError
from bwx.pipeline import _mean_report
from bwx.wavio import _atomic_output

from conftest import synth_clip, write_pcm16, write_pcm24

CFG = StftConfig()
SR = 44100
LAYOUT = BandLayout(186, 372, CFG.n_bins)
ONE_BLOCK = 10**9
CODECS = ("pcm16", "pcm24", "float32")


def _plant_nan(path, index):
    """Overwrite sample ``index`` of a mono float32 WAV with NaN."""
    raw = bytearray(path.read_bytes())
    struct.pack_into("<f", raw, 44 + 4 * index, np.nan)
    path.write_bytes(bytes(raw))


def _longer_copy(path, src, extra):
    """``src`` (mono) followed by ``extra`` zeros, its last sample NaN."""
    samples = wav_read(src)[0][0].samples
    wav_write(path, Waveform(np.concatenate([samples, np.zeros(extra)]), SR))
    _plant_nan(path, len(samples) + extra - 1)


def _write(path, channels, codec):
    if codec == "float32":
        wav_write(path, [Waveform(c, SR) for c in channels])
    else:
        (write_pcm16 if codec == "pcm16" else write_pcm24)(path, channels)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Per codec, mono and stereo HR/LR pairs of an odd length (about 0.5 s,
    79 frames and a 111-sample tail), plus a BWXSPEC band of the mono HR as
    decoded."""
    d = tmp_path_factory.mktemp("streaming")
    n = 22127
    hr = [0.5 * synth_clip(seed, duration=0.6)[:n] for seed in (12, 13)]
    lr = [np.clip(lowpass(Waveform(c, SR), LowpassSpec(cutoff_hz=4000.0), CFG).samples, -1, 0.99)
          for c in hr]
    paths = {}
    for codec in CODECS:
        for name, count in (("mono", 1), ("stereo", 2)):
            pair = (d / f"{codec}_{name}_hr.wav", d / f"{codec}_{name}_lr.wav")
            _write(pair[0], hr[:count], codec)
            _write(pair[1], lr[:count], codec)
            paths[codec, name] = pair
        mono_hr = wav_read(paths[codec, "mono"][0])[0][0].samples
        band = d / f"{codec}_band.bwx"
        mags = np.abs(stft_array(mono_hr, CFG))[:, LAYOUT.k_lo : LAYOUT.k_hi]
        spec_write(band, mags.astype(np.float32), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
        paths[codec, "band"] = band
    return paths


@pytest.mark.parametrize("phase", ["flip", "ref", "gla"])
@pytest.mark.parametrize("mag", ["oracle", "sbr", "import"])
@pytest.mark.parametrize("codec", CODECS)
def test_streamed_flows_equal_whole_array_core(monkeypatch, tmp_path, inputs, codec, mag, phase):
    channels = "mono" if mag == "import" else "stereo"
    hr, lr = inputs[codec, channels]
    predictor = {
        "oracle": OracleSpec(str(hr)),
        "sbr": BandReplicationSpec(),
        "import": ImportSpec(str(inputs[codec, "band"])),
    }[mag]
    strategy = {
        "flip": FlipPhaseSpec(),
        "ref": ReferencePhaseSpec(str(hr)),
        "gla": GlaConfig(iterations=3),
    }[phase]

    spec = ReconstructSpec(predictor, strategy, LAYOUT, stft=CFG)

    # The whole-array core: whole decoded input and reference, one block.
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", ONE_BLOCK)
    truth = wav_read(hr)[0]
    whole = reconstruct(spec, wav_read(lr)[0], {hr: truth})
    expected = tmp_path / "whole.wav"
    wav_write(expected, whole)
    expected_report = _mean_report(
        [evaluate(t, e, LAYOUT) for t, e in zip(truth, wav_read(expected)[0])]
    )

    for block in (1, 3, ONE_BLOCK):
        monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)
        out = tmp_path / f"out_{block}.wav"
        super_resolve(spec, lr, out)
        assert out.read_bytes() == expected.read_bytes()
        csv = tmp_path / f"eval_{block}.csv"
        rows = evaluate_batch([(str(hr), str(expected))], LAYOUT, csv)
        assert rows[0] == expected_report.csv_row(str(expected), "eval")
        if block != 1:
            assert csv.read_text() == (tmp_path / "eval_1.csv").read_text()


@pytest.mark.parametrize("from_end", [CFG.frame_len // 2, 1])
def test_non_finite_input_in_last_block_leaves_no_output(monkeypatch, tmp_path, inputs, from_end):
    # Three blocks; the NaN sits where only the last block reads: under its
    # last frame, or in the tail past the last frame, which no frame covers.
    hr, lr = inputs["float32", "mono"]
    n = len(wav_read(lr)[0][0])
    n_frames = CFG.frame_count(n)
    block = -(-n_frames // 3)
    nan_at = n - from_end
    assert nan_at >= (2 * block - 1) * CFG.hop + CFG.frame_len
    bad = tmp_path / "bad.wav"
    bad.write_bytes(lr.read_bytes())
    _plant_nan(bad, nan_at)
    monkeypatch.setattr(bwx.dsp, "BLOCK_FRAMES", block)

    out = tmp_path / "out.wav"
    out.write_bytes(b"an earlier output")
    spec = ReconstructSpec(OracleSpec(str(hr)), FlipPhaseSpec(), LAYOUT, stft=CFG)
    with pytest.raises(PipelineError, match="read-input") as info:
        super_resolve(spec, bad, out)
    assert isinstance(info.value.cause, DomainError)
    assert out.read_bytes() == b"an earlier output"

    fresh = tmp_path / "fresh.wav"
    argv = ["sr", "--in", str(bad), "--out", str(fresh), "--mag", f"oracle:{hr}", "--phase", "flip"]
    assert main(argv) == 1
    assert not fresh.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.wav", "out.wav"]


@pytest.mark.parametrize(
    "mag, phase, stage",
    [
        ("oracle", "flip", "magnitude"),
        ("sbr", "ref", "phase"),
        ("oracle", "ref", "magnitude"),
        ("oracle", "gla", "magnitude"),
    ],
)
def test_non_finite_reference_past_the_input_fails_the_job(
    monkeypatch, tmp_path, inputs, mag, phase, stage
):
    # No block reads the reference past the input's last frame; its tail is
    # still checked, a few pieces at a time, as a whole read would check it,
    # and before Griffin-Lim's first iteration.
    hr, lr = inputs["float32", "mono"]
    ref = tmp_path / "ref.wav"
    _longer_copy(ref, hr, 5000)
    monkeypatch.setattr(bwx.wavio, "_PIECE_BYTES", 4 * 1500)  # 1500 float32 mono frames
    iterated = []
    monkeypatch.setattr(bwx.pipeline, "_gla_band", lambda *args: iterated.append(args))
    predictor = OracleSpec(str(ref)) if mag == "oracle" else BandReplicationSpec()
    strategy = {
        "flip": FlipPhaseSpec(), "ref": ReferencePhaseSpec(str(ref)), "gla": GlaConfig(iterations=5)
    }[phase]
    out = tmp_path / "out.wav"
    with pytest.raises(PipelineError) as info:
        super_resolve(ReconstructSpec(predictor, strategy, LAYOUT, stft=CFG), lr, out)
    assert info.value.stage == stage
    assert isinstance(info.value.cause, DomainError)
    assert iterated == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ref.wav"]


def test_no_source_holds_a_span_through_griffin_lim(monkeypatch, tmp_path, inputs):
    # The reading is over before the first iteration: neither the input nor
    # the oracle reference keeps samples, nor the references a block.
    hr, lr = inputs["float32", "stereo"]
    sources, references, held = [], [], []
    open_source, open_references = bwx.wavio._WavSource.__init__, bwx.pipeline._References.__init__
    gla_band = bwx.pipeline._gla_band

    def recording_source(self, *args):
        open_source(self, *args)
        sources.append(self)

    def recording_references(self, *args):
        open_references(self, *args)
        references.append(self)

    def checking(*args):
        kept = [sum(len(k) for k in source._kept) for source in sources]
        held.append(kept + [len(files._blocks) for files in references])
        return gla_band(*args)

    monkeypatch.setattr(bwx.wavio._WavSource, "__init__", recording_source)
    monkeypatch.setattr(bwx.pipeline._References, "__init__", recording_references)
    monkeypatch.setattr(bwx.pipeline, "_gla_band", checking)
    spec = ReconstructSpec(OracleSpec(str(hr)), GlaConfig(iterations=2), LAYOUT, stft=CFG)
    super_resolve(spec, lr, tmp_path / "out.wav")
    assert held == [[0, 0, 0]] * 2  # both channels' Griffin-Lim


def test_non_finite_sample_past_the_shorter_file_fails_the_pair(tmp_path, inputs):
    hr, lr = inputs["float32", "mono"]
    longer = tmp_path / "longer.wav"
    _longer_copy(longer, hr, 3000)
    csv = tmp_path / "eval.csv"
    failing = [(str(longer), str(lr)), (str(lr), str(longer))]
    rows = evaluate_batch([*failing, (str(hr), str(hr))], LAYOUT, csv)
    assert rows[:2] == [f"{lr},error,,,,", f"{longer},error,,,,"]
    assert rows[2].startswith(f"{hr},eval,")
    # With no pair left to score, the first failure is raised and no CSV written.
    csv.unlink()
    with pytest.raises(DomainError):
        evaluate_batch(failing, LAYOUT, csv)
    assert not csv.exists()


def test_atomic_output_replaces_only_on_success(tmp_path):
    target = tmp_path / "out.wav"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with _atomic_output(target) as fh:
            fh.write(b"partial")
            raise RuntimeError("mid-write")
    assert target.read_bytes() == b"old"
    with _atomic_output(target) as fh:
        fh.write(b"new")
    assert target.read_bytes() == b"new"
    assert [p.name for p in tmp_path.iterdir()] == ["out.wav"]


def test_atomic_output_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target = tmp_path / "real.wav"
    target.write_bytes(b"old")
    target.chmod(0o640)
    link = tmp_path / "link.wav"
    link.symlink_to(target)
    with _atomic_output(link) as fh:
        fh.write(b"new")
    assert link.is_symlink()
    assert target.read_bytes() == b"new"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.wav", "real.wav"]
    # `wav_write` given a file name writes through the same helper.
    wave = Waveform(np.linspace(-0.5, 0.5, 64), SR)
    wav_write(link, wave)
    assert link.is_symlink()
    assert np.array_equal(wav_read(target)[0][0].samples, wave.samples.astype(np.float32))
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.wav", "real.wav"]


def _fifo_with_reader(path):
    """Make a FIFO at ``path`` and open its read end without blocking, so a
    writer's open returns at once; the pipe buffer (64 KiB on Linux) holds
    what is written until `_drain` reads it."""
    os.mkfifo(path)
    return os.open(path, os.O_RDONLY | os.O_NONBLOCK)


def _drain(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def test_atomic_output_writes_a_fifo_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    reader = _fifo_with_reader(fifo)
    link = tmp_path / "link"
    link.symlink_to(fifo)
    with _atomic_output(link) as fh:
        fh.write(b"whole")
    with _atomic_output(fifo) as fh:
        fh.write(b" file")
    assert _drain(reader) == b"whole file"
    assert stat.S_ISFIFO(fifo.stat().st_mode) and link.is_symlink()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link", "out.fifo"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_atomic_output_writes_a_pipe_named_by_a_descriptor_path(tmp_path):
    # As /dev/stdout does when stdout is piped, the path names a pipe that
    # resolves to no file ("pipe:[...]"), so it is written where it is.
    read_end, write_end = os.pipe()
    with _atomic_output(f"/proc/self/fd/{write_end}") as fh:
        fh.write(b"piped")
    os.close(write_end)
    assert os.read(read_end, 16) == b"piped"
    os.close(read_end)


def test_sr_delivers_the_whole_file_to_a_fifo(tmp_path):
    # 0.25 s of float32 mono: the WAV fits the FIFO's buffer.
    lr = tmp_path / "lr.wav"
    wav_write(lr, lowpass(Waveform(synth_clip(3, duration=0.25), SR), LowpassSpec(4000.0)))
    regular = tmp_path / "regular.wav"
    argv = ["sr", "--in", str(lr), "--mag", "sbr", "--phase", "flip", "--out"]
    assert main([*argv, str(regular)]) == 0
    fifo = tmp_path / "out.fifo"
    reader = _fifo_with_reader(fifo)
    assert main([*argv, str(fifo)]) == 0
    assert _drain(reader) == regular.read_bytes()
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lr.wav", "out.fifo", "regular.wav"]


def _noise_wav(path, seconds, seed):
    """A stereo float32 WAV of noise, written in blocks."""
    n = int(seconds * SR)
    rng = np.random.default_rng(seed)
    step = 1 << 18
    with open(path, "wb") as fh:
        for start in range(0, n, step):
            k = min(step, n - start)
            channels = [Waveform(0.1 * rng.standard_normal(k), SR) for _ in range(2)]
            wav_write(fh, channels, total_frames=n if start == 0 else None)


def _traced_peak(run) -> float:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# Flat memory: only block-sized arrays and per-frame LSD values (8 bytes per
# frame and channel) remain, so 10 s and 60 s stereo inputs peak alike.
FLAT_BOUND_MB = 5


def test_streamed_memory_does_not_grow_with_length(tmp_path):
    peaks = {}
    for seconds in (10, 60):
        hr, lr = tmp_path / f"hr{seconds}.wav", tmp_path / f"lr{seconds}.wav"
        _noise_wav(hr, seconds, 1)
        _noise_wav(lr, seconds, 2)
        out = tmp_path / f"out{seconds}.wav"
        spec = ReconstructSpec(OracleSpec(str(hr)), ReferencePhaseSpec(str(hr)), LAYOUT, stft=CFG)
        peaks["sr", seconds] = _traced_peak(lambda: super_resolve(spec, lr, out))
        pairs = [(str(hr), str(out))]
        csv = tmp_path / f"eval{seconds}.csv"
        peaks["eval", seconds] = _traced_peak(lambda: evaluate_batch(pairs, LAYOUT, csv))
        for path in (hr, lr, out):
            path.unlink()
    for flow in ("sr", "eval"):
        assert abs(peaks[flow, 60] - peaks[flow, 10]) < FLAT_BOUND_MB, peaks
