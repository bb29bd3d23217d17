"""Short and silent inputs through the CLI: each either works, with finite
output, or fails with a typed error, the right exit code and no output."""

import numpy as np
import pytest

from bwx import SampleDepth, Waveform, wav_read, wav_write
from bwx.cli import main

SR = 44100


@pytest.fixture()
def short_wav(tmp_path):
    """1000 samples: shorter than one 2048-sample frame."""
    path = tmp_path / "short.wav"
    wav_write(path, Waveform(0.1 * np.sin(np.arange(1000) / 7.0), SR), SampleDepth.FLOAT32)
    return path


@pytest.fixture()
def silent_wav(tmp_path):
    """1 s of digital silence."""
    path = tmp_path / "silent.wav"
    wav_write(path, Waveform(np.zeros(SR), SR), SampleDepth.FLOAT32)
    return path


@pytest.mark.parametrize("phase", ["flip", "ref", "gla"])
def test_sr_on_input_shorter_than_a_frame_fails_in_analyze(tmp_path, short_wav, capsys, phase):
    out = tmp_path / "out.wav"
    phase_arg = f"ref:{short_wav}" if phase == "ref" else phase
    argv = ["sr", "--in", str(short_wav), "--out", str(out), "--mag", "sbr",
            "--phase", phase_arg, *(["--gla-iters", "3"] if phase == "gla" else [])]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "stage 'analyze'" in err
    assert "shorter than one frame" in err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["short.wav"]


@pytest.mark.parametrize("mag, phase", [("sbr", "flip"), ("sbr", "gla"), ("oracle", "ref")])
def test_sr_on_silence_writes_finite_output(tmp_path, silent_wav, mag, phase):
    out = tmp_path / "out.wav"
    mag_arg = f"oracle:{silent_wav}" if mag == "oracle" else mag
    phase_arg = f"ref:{silent_wav}" if phase == "ref" else phase
    argv = ["sr", "--in", str(silent_wav), "--out", str(out), "--mag", mag_arg,
            "--phase", phase_arg, *(["--gla-iters", "3"] if phase == "gla" else [])]
    assert main(argv) == 0
    channels, _ = wav_read(out)
    assert len(channels) == 1
    assert len(channels[0]) > 0
    assert np.all(np.isfinite(channels[0].samples))


@pytest.mark.parametrize("which", ["silent", "short"])
def test_eval_on_unscorable_pair_fails(tmp_path, short_wav, silent_wav, which, capsys):
    path = silent_wav if which == "silent" else short_wav
    csv = tmp_path / "eval.csv"
    argv = ["eval", "--truth", str(path), "--est", str(path), "--out", str(csv)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not csv.exists()


def test_phase_study_on_a_short_clip_fails(tmp_path, short_wav, capsys):
    out = tmp_path / "study.csv"
    assert main(["phase-study", "--clips", str(short_wav), "--out", str(out)]) == 1
    assert "all clips failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("filter_name", ["brickwall", "fir"])
def test_prepare_on_an_empty_wav_writes_an_empty_wav(tmp_path, filter_name):
    path = tmp_path / "empty.wav"
    wav_write(path, Waveform(np.zeros(0), SR), SampleDepth.FLOAT32)
    out = tmp_path / "lr.wav"
    assert main(["prepare", "--in", str(path), "--out", str(out), "--filter", filter_name]) == 0
    channels, _ = wav_read(out)
    assert len(channels) == 1
    assert len(channels[0]) == 0
    assert channels[0].sample_rate == SR
