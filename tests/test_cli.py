"""Command-line interface: subcommands and exit codes."""

import errno
import logging
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bwx.cli
import bwx.wavio
from bwx import GlaConfig, StftConfig, Waveform, istft_array, wav_read, wav_write
from bwx.cli import main
from bwx.errors import DomainError
from bwx.specio import SpecKind, spec_read, spec_write

CFG = StftConfig()
SR = 44100


@pytest.fixture()
def hr_path(tmp_path, short_music):
    path = tmp_path / "hr.wav"
    wav_write(path, short_music)
    return path


@pytest.fixture()
def lr_path(tmp_path, hr_path):
    path = tmp_path / "lr.wav"
    assert main(["prepare", "--in", str(hr_path), "--out", str(path)]) == 0
    return path


class TestPrepare:
    def test_writes_output(self, tmp_path, hr_path):
        out = tmp_path / "lr.wav"
        code = main(["prepare", "--in", str(hr_path), "--out", str(out), "--cutoff-hz", "4000"])
        assert code == 0
        channels, _ = wav_read(out)
        assert len(channels[0].samples) == len(wav_read(hr_path)[0][0].samples)

    def test_fir_filter_mode(self, tmp_path, hr_path):
        out = tmp_path / "lr_fir.wav"
        code = main(
            ["prepare", "--in", str(hr_path), "--out", str(out), "--filter", "fir", "--taps", "255"]
        )
        assert code == 0

    def test_missing_input_is_io_error(self, tmp_path):
        code = main(["prepare", "--in", str(tmp_path / "no.wav"), "--out", str(tmp_path / "o.wav")])
        assert code == 2

    def test_bad_cutoff_is_usage_error(self, tmp_path, hr_path):
        code = main(
            ["prepare", "--in", str(hr_path), "--out", str(tmp_path / "o.wav"),
             "--cutoff-hz", "30000"]
        )
        assert code == 1

    def test_unknown_flag_is_usage_error(self, hr_path):
        assert main(["prepare", "--in", str(hr_path), "--nope", "x"]) == 1


class TestSr:
    def test_oracle_flip(self, tmp_path, hr_path, lr_path):
        out = tmp_path / "sr.wav"
        code = main(
            ["sr", "--in", str(lr_path), "--out", str(out),
             "--mag", f"oracle:{hr_path}", "--phase", "flip"]
        )
        assert code == 0
        assert out.exists()

    def test_gla_with_trace(self, tmp_path, hr_path, lr_path):
        out = tmp_path / "sr.wav"
        trace = tmp_path / "trace.csv"
        code = main(
            ["sr", "--in", str(lr_path), "--out", str(out),
             "--mag", f"oracle:{hr_path}", "--phase", "gla",
             "--gla-iters", "5", "--trace", str(trace)]
        )
        assert code == 0
        assert trace.read_text().startswith("iteration,residual")

    @pytest.mark.parametrize("with_trace", [True, False])
    def test_gla_records_trace_only_when_written(
        self, tmp_path, hr_path, lr_path, monkeypatch, with_trace
    ):
        # super_resolve records the residuals exactly when it gets a trace path.
        calls = []
        monkeypatch.setattr(
            bwx.cli,
            "_super_resolve",
            lambda spec, source, output, trace_path: calls.append((spec.phase, trace_path)),
        )
        trace = str(tmp_path / "trace.csv")
        argv = ["sr", "--in", str(lr_path), "--out", str(tmp_path / "sr.wav"),
                "--mag", f"oracle:{hr_path}", "--phase", "gla", "--gla-iters", "7"]
        if with_trace:
            argv += ["--trace", trace]
        assert main(argv) == 0
        assert calls == [(GlaConfig(iterations=7), trace if with_trace else None)]

    def test_reference_phase(self, tmp_path, hr_path, lr_path):
        out = tmp_path / "sr.wav"
        code = main(
            ["sr", "--in", str(lr_path), "--out", str(out),
             "--mag", f"oracle:{hr_path}", "--phase", f"ref:{hr_path}"]
        )
        assert code == 0

    def test_deterministic_byte_identical(self, tmp_path, hr_path, lr_path):
        a, b = tmp_path / "a.wav", tmp_path / "b.wav"
        args = ["--mag", f"oracle:{hr_path}", "--phase", "gla", "--gla-iters", "8"]
        assert main(["sr", "--in", str(lr_path), "--out", str(a)] + args) == 0
        assert main(["sr", "--in", str(lr_path), "--out", str(b)] + args) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_mag_spec_is_usage_error(self, tmp_path, lr_path):
        # A bad --phase spec, or a negative GLA iteration count, is rejected
        # the same way.
        out = tmp_path / "o.wav"
        for spec in (
            ["--mag", "magic", "--phase", "flip"],
            ["--mag", "sbr", "--phase", "bogus"],
            ["--mag", "sbr", "--phase", "gla", "--gla-iters", "-1"],
        ):
            code = main(["sr", "--in", str(lr_path), "--out", str(out)] + spec)
            assert code == 1, spec
            assert not out.exists(), spec

    def test_import_on_stereo_input_is_usage_error(self, tmp_path, short_music, capsys):
        from bwx import spec_write

        stereo = tmp_path / "stereo.wav"
        wav_write(stereo, [short_music, short_music])
        frames = CFG.frame_count(len(short_music.samples))
        mag_file = tmp_path / "hfc.bwx"
        spec_write(mag_file, np.zeros((frames, 186)), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
        out = tmp_path / "o.wav"
        code = main(
            ["sr", "--in", str(stereo), "--out", str(out),
             "--mag", f"import:{mag_file}", "--phase", "flip"]
        )
        assert code == 1
        assert "stage 'magnitude'" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_without_gla_is_usage_error(self, tmp_path, hr_path, lr_path):
        code = main(
            ["sr", "--in", str(lr_path), "--out", str(tmp_path / "o.wav"),
             "--mag", f"oracle:{hr_path}", "--phase", "flip", "--trace", "t.csv"]
        )
        assert code == 1

    def test_gla_iters_without_gla_is_usage_error(self, tmp_path, hr_path, lr_path):
        # As with --trace, an iteration count means nothing to another
        # strategy, not even one that GlaConfig would reject.
        out = tmp_path / "o.wav"
        for phase in ("flip", f"ref:{hr_path}"):
            for iters in ("5", "-1"):
                code = main(
                    ["sr", "--in", str(lr_path), "--out", str(out),
                     "--mag", f"oracle:{hr_path}", "--phase", phase, "--gla-iters", iters]
                )
                assert code == 1, (phase, iters)
        assert not out.exists()

    def test_trace_reads_the_files_as_often_as_an_untraced_run(
        self, tmp_path, short_music, monkeypatch
    ):
        # The residuals are summed from the projection's own frames, so a
        # traced GLA reads no file again, at any iteration count.
        n = 3 * 64 * 256
        hr, lr = tmp_path / "hr.wav", tmp_path / "lr.wav"
        wav_write(hr, Waveform(short_music.samples[:n], SR))
        assert main(["prepare", "--in", str(hr), "--out", str(lr)]) == 0
        reads = []
        original = bwx.wavio._WavSource.read
        monkeypatch.setattr(
            bwx.wavio._WavSource, "read", lambda *args: reads.append(1) or original(*args)
        )

        def count(iters, *trace):
            reads.clear()
            assert main(
                ["sr", "--in", str(lr), "--out", str(tmp_path / "o.wav"), "--mag",
                 f"oracle:{hr}", "--phase", "gla", "--gla-iters", iters, *trace]
            ) == 0
            return len(reads)

        untraced = count("2")
        trace = ["--trace", str(tmp_path / "t.csv")]
        assert count("2", *trace) == untraced
        assert count("6", *trace) == untraced

    @pytest.mark.parametrize("option", [["--frame", "1024"], ["--hop", "128"],
                                        ["--residual", "zero"]])
    def test_removed_stft_and_residual_options_are_usage_errors(self, tmp_path, lr_path,
                                                                 capsys, option):
        # Every command runs at 2048/256 and keeps the bins above the band.
        out = tmp_path / "o.wav"
        code = main(["sr", "--in", str(lr_path), "--out", str(out),
                     "--mag", "sbr", "--phase", "flip", *option])
        assert code == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_oracle_file_is_io_error(self, tmp_path, lr_path):
        code = main(
            ["sr", "--in", str(lr_path), "--out", str(tmp_path / "o.wav"),
             "--mag", f"oracle:{tmp_path / 'no.wav'}", "--phase", "flip"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "mag, phase, stage",
        [("oracle", "flip", "magnitude"), ("sbr", "ref", "phase"), ("oracle", "ref", "magnitude")],
    )
    def test_reference_at_another_rate_is_usage_error(
        self, tmp_path, short_music, lr_path, mag, phase, stage, capsys
    ):
        ref = tmp_path / "ref22k.wav"
        wav_write(ref, Waveform(short_music.samples, 22050))
        out = tmp_path / "o.wav"
        argv = ["sr", "--in", str(lr_path), "--out", str(out),
                "--mag", f"oracle:{ref}" if mag == "oracle" else mag,
                "--phase", f"ref:{ref}" if phase == "ref" else phase]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err
        assert f"{ref}: sample rate 22050 Hz, input has 44100 Hz" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hr.wav", "lr.wav", "ref22k.wav"]

    def test_output_over_input_is_usage_error(self, tmp_path, lr_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = lr_path.read_bytes()
        code = main(
            ["sr", "--in", lr_path.name, "--out", f"./{lr_path.name}",
             "--mag", "sbr", "--phase", "flip"]
        )
        assert code == 1
        assert lr_path.read_bytes() == before

    @pytest.mark.parametrize("command", ["sr", "eval", "prepare", "spec-export"])
    def test_malformed_input_is_io_error(self, tmp_path, hr_path, command, capsys):
        good = hr_path.read_bytes()
        rate_at = good.index(b"fmt ") + 12  # the fmt chunk's sample-rate field
        damaged = {
            "truncated": good[:-100],  # data chunk cut short
            "zero-rate": good[:rate_at] + bytes(4) + good[rate_at + 4 :],
        }
        for name, data in damaged.items():
            bad = tmp_path / f"{name}.wav"
            bad.write_bytes(data)
            out = str(tmp_path / "out")
            argv = {
                "sr": ["sr", "--in", str(bad), "--out", out, "--mag", "sbr", "--phase", "flip"],
                "eval": ["eval", "--truth", str(bad), "--est", str(hr_path), "--out", out],
                "prepare": ["prepare", "--in", str(bad), "--out", out],
                "spec-export": ["spec", "export", "--in", str(bad), "--out", out],
            }[command]
            assert main(argv) == 2, name
            assert str(bad) in capsys.readouterr().err


class TestEval:
    def test_self_comparison(self, tmp_path, hr_path, capsys):
        out = tmp_path / "report.csv"
        code = main(["eval", "--truth", str(hr_path), "--est", str(hr_path), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "file,method,lsd_hf_db,lsd_full_db,snr_db,frames"
        assert len(lines) == 3
        assert capsys.readouterr().out.count(",eval,") == 2

    def test_missing_estimate_is_io_error(self, tmp_path, hr_path, capsys):
        out = tmp_path / "report.csv"
        missing = tmp_path / "missing.wav"
        argv = ["eval", "--truth", str(hr_path), "--est", str(missing), "--out", str(out)]
        assert main(argv) == 2
        assert str(missing) in capsys.readouterr().err
        assert not out.exists()

    def test_failing_pair_reported_once(self, tmp_path, hr_path, capsys, caplog):
        # With every pair failing, the CLI's error line is the whole report:
        # the batch does not also log the pair whose error it raises.
        missing = tmp_path / "missing.wav"
        argv = ["eval", "--truth", str(hr_path), "--est", str(missing), "--out", str(tmp_path / "r.csv")]
        with caplog.at_level(logging.WARNING, logger="bwx"):
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count(str(missing)) == 1
        assert str(missing) not in caplog.text

    def test_channel_mismatch_is_usage_error(self, tmp_path, hr_path, short_music, capsys):
        out = tmp_path / "report.csv"
        stereo = tmp_path / "stereo.wav"
        wav_write(stereo, [short_music, short_music])
        argv = ["eval", "--truth", str(hr_path), "--est", str(stereo), "--out", str(out)]
        assert main(argv) == 1
        assert "channel counts differ: 1 vs 2" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_rate_mismatch_is_usage_error(self, tmp_path, hr_path, short_music, capsys):
        out = tmp_path / "report.csv"
        est = tmp_path / "est48k.wav"
        wav_write(est, Waveform(short_music.samples, 48000))
        argv = ["eval", "--truth", str(hr_path), "--est", str(est), "--out", str(out)]
        assert main(argv) == 1
        assert "sample rates differ: 44100 vs 48000" in capsys.readouterr().err
        assert not out.exists()


class TestPhaseStudy:
    def test_directory_input(self, tmp_path, short_music, capsys):
        clips = tmp_path / "clips"
        clips.mkdir()
        from conftest import synth_clip

        for i, seed in enumerate((5, 6)):
            wav_write(clips / f"c{i}.wav", Waveform(synth_clip(seed, duration=2.0), SR))
        # keep the nested GLA cheap by monkey-free explicit low iteration count:
        out = tmp_path / "study.csv"
        code = main(["phase-study", "--clips", str(clips), "--out", str(out), "--jobs", "2"])
        assert code == 0
        text = out.read_text()
        assert text.count("mean,") == 4
        printed = capsys.readouterr().out
        assert "mean gla" in printed

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_is_usage_error(self, tmp_path, hr_path, jobs, capsys):
        out = tmp_path / "s.csv"
        argv = ["phase-study", "--clips", str(hr_path), "--out", str(out), "--jobs", jobs]
        assert main(argv) == 1
        assert f"jobs must be >= 1, got {jobs}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_clips_is_usage_error(self, tmp_path, hr_path, monkeypatch, capsys):
        # "" is no list of clips, and not the current directory, which holds a WAV.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(bwx.cli, "run_phase_study", None)  # a call would fail
        assert main(["phase-study", "--clips", "", "--out", "s.csv"]) == 1
        assert "usage error: --clips is empty" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_empty_directory_is_usage_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(["phase-study", "--clips", str(empty), "--out", str(tmp_path / "s.csv")]) == 1


class TestSpecFiles:
    def test_export_magnitude(self, tmp_path, hr_path):
        out = tmp_path / "m.bwx"
        code = main(["spec", "export", "--in", str(hr_path), "--out", str(out)])
        assert code == 0
        data, header = spec_read(out)
        assert header.kind is SpecKind.MAGNITUDE
        assert header.frames == CFG.frame_count(len(wav_read(hr_path)[0][0].samples))

    def test_export_stereo_is_usage_error(self, tmp_path, short_music, capsys):
        stereo = tmp_path / "stereo.wav"
        wav_write(stereo, [short_music, short_music])
        out = tmp_path / "m.bwx"
        assert main(["spec", "export", "--in", str(stereo), "--out", str(out)]) == 1
        assert "2 channels" in capsys.readouterr().err
        assert not out.exists()

    def test_export_refuses_stereo_before_decoding(self, tmp_path, short_music, monkeypatch):
        # The channel count is in the header: no frame of a stereo input is
        # decoded before it is refused.
        stereo = tmp_path / "stereo.wav"
        wav_write(stereo, [short_music, short_music])
        decoded = []
        decode = bwx.wavio._WavSource._decode

        def counting(source, keep, frames):
            decoded.append(frames)
            return decode(source, keep, frames)

        monkeypatch.setattr(bwx.wavio._WavSource, "_decode", counting)
        assert main(["spec", "export", "--in", str(stereo), "--out", str(tmp_path / "m.bwx")]) == 1
        assert decoded == []

    def test_import_beyond_float32_is_io_error_writing_nothing(self, tmp_path, capsys):
        # Every frame finite in complex64, but eight of them put an impulse
        # at output sample 2560 whose sum float32 cannot hold.
        spec, out = tmp_path / "huge.bwx", tmp_path / "huge.wav"
        at, k = 2560, np.arange(CFG.n_bins)
        data = np.zeros((20, CFG.n_bins), dtype=np.complex128)
        for f in range(20):
            if 0 <= at - f * CFG.hop < CFG.frame_len:
                data[f] = 3.3e38 * np.exp(-2j * np.pi * k * (at - f * CFG.hop) / CFG.frame_len)
        spec_write(spec, data, SpecKind.COMPLEX, SR, CFG.frame_len, CFG.hop)
        assert main(["spec", "import", "--in", str(spec), "--out", str(out)]) == 2
        assert "beyond float32's range" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.bwx"]

    def test_export_complex_then_import(self, tmp_path, hr_path):
        spec = tmp_path / "c.bwx"
        back = tmp_path / "back.wav"
        assert main(["spec", "export", "--in", str(hr_path), "--out", str(spec),
                     "--kind", "complex"]) == 0
        assert main(["spec", "import", "--in", str(spec), "--out", str(back)]) == 0
        original = wav_read(hr_path)[0][0].samples
        rebuilt = wav_read(back)[0][0].samples
        inner = slice(CFG.frame_len, -CFG.frame_len)
        err = np.linalg.norm(original[: len(rebuilt)][inner] - rebuilt[inner])
        err /= np.linalg.norm(original[: len(rebuilt)][inner])
        assert err < 1e-3  # float32 storage limits the round trip

    @pytest.mark.parametrize("option", [["--frame", "1024"], ["--hop", "128"]])
    def test_export_stft_options_are_usage_errors(self, tmp_path, hr_path, capsys, option):
        out = tmp_path / "c.bwx"
        code = main(["spec", "export", "--in", str(hr_path), "--out", str(out), *option])
        assert code == 1
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("hop, code", [(32, 0), (33, 1), (64, 1)])
    def test_import_hop_over_half_a_frame_is_usage_error(self, tmp_path, capsys, hop, code):
        # The hop comes from the file's header.
        spec, out = tmp_path / "c.bwx", tmp_path / "x.wav"
        data = np.ones((6, 33), dtype=np.complex64)
        spec_write(spec, data, SpecKind.COMPLEX, 8000, 64, hop)
        assert main(["spec", "import", "--in", str(spec), "--out", str(out)]) == code
        assert out.exists() == (code == 0)
        if code:
            message = f"{spec}: hop must be at most frame / 2 (32), got {hop}"
            assert message in capsys.readouterr().err

    def test_import_magnitude_is_usage_error(self, tmp_path, hr_path):
        spec = tmp_path / "m.bwx"
        assert main(["spec", "export", "--in", str(hr_path), "--out", str(spec)]) == 0
        assert main(["spec", "import", "--in", str(spec), "--out", str(tmp_path / "x.wav")]) == 1

    def test_import_garbage_is_io_error(self, tmp_path):
        bad = tmp_path / "junk.bwx"
        bad.write_bytes(b"definitely not a spectrogram")
        assert main(["spec", "import", "--in", str(bad), "--out", str(tmp_path / "x.wav")]) == 2

    def test_import_bad_header_field_is_io_error(self, tmp_path, hr_path, capsys):
        spec = tmp_path / "c.bwx"
        assert main(["spec", "export", "--in", str(hr_path), "--out", str(spec),
                     "--kind", "complex"]) == 0
        _zero_sample_rate(spec)
        capsys.readouterr()
        assert main(["spec", "import", "--in", str(spec), "--out", str(tmp_path / "x.wav")]) == 2
        assert f"{spec}: sample rate" in capsys.readouterr().err


def _coverage_extremes(cfg):
    """The largest window sum and the smallest squared-window sum over the
    offsets into a hop, under a full set of frames."""
    w = cfg.window_values()
    sums = [(w[r :: cfg.hop].sum(), (w[r :: cfg.hop] ** 2).sum()) for r in range(cfg.hop)]
    return max(s for s, _ in sums), min(s2 for _, s2 in sums)


@settings(max_examples=40, deadline=None)
@given(
    n_frames=st.integers(1, 40),
    hop=st.integers(1, 32),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
    seed=st.integers(0, 2**32 - 1),
)
def test_spec_import_bounds_every_sample(n_frames, hop, scale, seed):
    # Frames no signal has, edges included: every sample is at most the
    # largest inverse-transformed frame value times the largest window sum
    # over the smallest squared-window sum. Where the file's frames cover a
    # sample fully, it is istft_array's, bit for bit.
    cfg = StftConfig(frame_len=64, hop=hop)
    rng = np.random.default_rng(seed)
    shape = (n_frames, cfg.n_bins)
    data = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "c.bwx", Path(tmp) / "out.wav"
        spec_write(spec, data, SpecKind.COMPLEX, 8000, cfg.frame_len, hop)
        stored = spec_read(spec)[0].astype(np.complex128)
        assert main(["spec", "import", "--in", str(spec), "--out", str(out)]) == 0
        y = wav_read(out)[0][0].samples
    assert len(y) == cfg.output_length(n_frames)
    window_sum, square_sum = _coverage_extremes(cfg)
    frame_peak = np.abs(np.fft.irfft(stored, n=cfg.frame_len, axis=1)).max()
    # The WAV holds float32, so allow its rounding.
    assert np.abs(y).max() <= frame_peak * window_sum / square_sum * (1 + 1e-6)
    interior = slice(cfg.frame_len - hop, n_frames * hop)
    expected = istft_array(stored, cfg).astype(np.float32)
    assert np.array_equal(y[interior], expected[interior])


def test_exit_code_classification():
    from bwx.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_USAGE, _classify
    from bwx.errors import (
        BadMagicError,
        DomainError,
        NumericalError,
        PipelineError,
    )

    assert _classify(NumericalError("nan")) == EXIT_NUMERICAL
    assert _classify(BadMagicError("x")) == EXIT_IO
    assert _classify(FileNotFoundError("x")) == EXIT_IO
    assert _classify(DomainError("x")) == EXIT_USAGE
    # pipeline wrappers classify by their cause
    assert _classify(PipelineError("phase", NumericalError("nan"))) == EXIT_NUMERICAL
    assert _classify(PipelineError("read-input", FileNotFoundError("x"))) == EXIT_IO


def test_import_used_for_sr(tmp_path, hr_path, lr_path):
    # Export the oracle high band via the interchange format, feed it back in.
    from bwx import BandLayout, spec_write
    from bwx.dsp import stft_array

    hr_wave = wav_read(hr_path)[0][0]
    lr_wave = wav_read(lr_path)[0][0]
    frames = CFG.frame_count(len(lr_wave.samples))
    layout = BandLayout(186, 372, CFG.n_bins)
    oracle = np.abs(stft_array(hr_wave.samples, CFG))[:frames, 186:372]
    mag_file = tmp_path / "hfc.bwx"
    spec_write(mag_file, oracle.astype(np.float32), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)

    out = tmp_path / "sr.wav"
    code = main(
        ["sr", "--in", str(lr_path), "--out", str(out),
         "--mag", f"import:{mag_file}", "--phase", "flip"]
    )
    assert code == 0
    assert out.exists()


def _zero_sample_rate(path):
    """Overwrite the sample-rate field of the BWXSPEC header at ``path`` with 0."""
    raw = bytearray(path.read_bytes())
    raw[17:21] = bytes(4)
    path.write_bytes(bytes(raw))


def test_import_bad_header_field_for_sr_is_io_error(tmp_path, lr_path, capsys):
    from bwx import spec_write

    frames = CFG.frame_count(len(wav_read(lr_path)[0][0].samples))
    mag_file = tmp_path / "hfc.bwx"
    spec_write(mag_file, np.zeros((frames, 186)), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
    _zero_sample_rate(mag_file)
    out = tmp_path / "sr.wav"
    code = main(
        ["sr", "--in", str(lr_path), "--out", str(out),
         "--mag", f"import:{mag_file}", "--phase", "flip"]
    )
    assert code == 2
    assert f"{mag_file}: sample rate" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_import_is_io_error(tmp_path, lr_path, capsys, bad):
    from bwx import spec_write
    from bwx.specio import HEADER_SIZE

    frames = CFG.frame_count(len(wav_read(lr_path)[0][0].samples))
    mag_file = tmp_path / "hfc.bwx"
    spec_write(mag_file, np.zeros((frames, 186)), SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop)
    raw = bytearray(mag_file.read_bytes())
    raw[HEADER_SIZE : HEADER_SIZE + 4] = np.float32(bad).tobytes()
    mag_file.write_bytes(bytes(raw))

    out = tmp_path / "sr.wav"
    code = main(
        ["sr", "--in", str(lr_path), "--out", str(out),
         "--mag", f"import:{mag_file}", "--phase", "flip"]
    )
    assert code == 2
    assert str(mag_file) in capsys.readouterr().err
    assert not out.exists()


# Every command compares the files it reads with the files it writes, by
# resolved path, before it opens any: a clash is a usage error naming both.
_CLASHES = {
    "sr-out-is-in": (
        "sr --in lr.wav --out ./lr.wav --mag sbr --phase flip", ("--out", "--in")),
    "sr-out-is-oracle": (
        "sr --in lr.wav --out hr.wav --mag oracle:hr.wav --phase flip",
        ("--out", "--mag oracle:")),
    "sr-out-is-reference": (
        "sr --in lr.wav --out sub/../hr.wav --mag sbr --phase ref:hr.wav",
        ("--out", "--phase ref:")),
    "sr-out-is-import": (
        "sr --in lr.wav --out m.bwx --mag import:m.bwx --phase flip",
        ("--out", "--mag import:")),
    "sr-trace-is-in": (
        "sr --in lr.wav --out out.wav --mag sbr --phase gla --trace lr.wav",
        ("--trace", "--in")),
    "sr-trace-is-out": (
        "sr --in lr.wav --out out.wav --mag sbr --phase gla --trace ./out.wav",
        ("--trace", "--out")),
    "prepare": ("prepare --in hr.wav --out hr.wav", ("--out", "--in")),
    "prepare-through-a-symlink": ("prepare --in hr.wav --out link.wav", ("--out", "--in")),
    "eval-out-is-truth": (
        "eval --truth hr.wav --est lr.wav --out hr.wav", ("--out", "--truth")),
    "eval-out-is-estimate": (
        "eval --truth hr.wav --est lr.wav --out ./lr.wav", ("--out", "--est")),
    "spec-export": ("spec export --in hr.wav --out hr.wav", ("--out", "--in")),
    "spec-import": ("spec import --in m.bwx --out m.bwx", ("--out", "--in")),
    "phase-study-list": (
        "phase-study --clips hr.wav,lr.wav --out lr.wav", ("--out", "--clips")),
    "phase-study-directory": (
        "phase-study --clips clips --out clips/c.wav", ("--out", "--clips")),
}


def _snapshot(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("case", _CLASHES)
def test_no_command_writes_over_a_file_it_reads(tmp_path, hr_path, lr_path, monkeypatch,
                                                 capsys, case):
    argv, flags = _CLASHES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    (tmp_path / "clips").mkdir()
    (tmp_path / "clips" / "c.wav").write_bytes(hr_path.read_bytes())
    (tmp_path / "link.wav").symlink_to(hr_path)
    (tmp_path / "m.bwx").write_bytes(b"BWXSPEC1 stands in for a spectrogram")
    before = _snapshot(tmp_path)
    assert main(argv.split()) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and all(flag in err for flag in flags), err
    assert _snapshot(tmp_path) == before


class _FullDisk:
    """A file open for writing whose second ``write`` fails as on a full disk."""

    def __init__(self, fh):
        self._fh, self._writes = fh, 0

    def write(self, data):
        self._writes += 1
        if self._writes == 2:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


@pytest.mark.parametrize(
    "command, target",
    [
        pytest.param("prepare --in hr.wav --out {target}", "lr2.wav", id="prepare"),
        pytest.param("spec export --in hr.wav --out {target} --kind complex", "m.bwx",
                     id="spec-export"),
        pytest.param("spec import --in c.bwx --out {target}", "back.wav", id="spec-import"),
        pytest.param("eval --truth hr.wav --est lr.wav --out {target}", "report.csv", id="eval"),
        pytest.param("phase-study --clips short.wav --out {target}", "study.csv",
                     id="phase-study"),
        pytest.param("sr --in lr.wav --out out.wav --mag oracle:hr.wav --phase gla "
                     "--gla-iters 2 --trace {target}", "trace.csv", id="sr-trace"),
    ],
)
def test_a_failed_write_keeps_the_old_file(tmp_path, hr_path, lr_path, monkeypatch, capsys,
                                            command, target):
    from conftest import synth_clip

    monkeypatch.chdir(tmp_path)
    wav_write("short.wav", Waveform(synth_clip(7, duration=0.5), SR))
    assert main(["spec", "export", "--in", "hr.wav", "--out", "c.bwx", "--kind", "complex"]) == 0
    old = tmp_path / target
    old.write_bytes(b"old content")
    real_open = open

    def full_disk_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        writing = "w" in mode or "x" in mode
        return _FullDisk(fh) if writing and target in Path(file).name else fh

    # `bwx.wavio` holds the one writer every file bwx writes goes through.
    monkeypatch.setattr(bwx.wavio, "open", full_disk_open, raising=False)
    assert main(command.format(target=target).split()) == 2
    assert "No space left on device" in capsys.readouterr().err
    assert old.read_bytes() == b"old content"
    assert not [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]


def _bwx(args, **kwargs):
    """The CLI run in a fresh interpreter, with stdout and stderr piped."""
    src = str(Path(bwx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from bwx.cli import main; sys.exit(main())"
    return subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env,
                          **kwargs)


PIPED_COMMANDS = [
    pytest.param(["prepare"], id="prepare"),
    pytest.param(["sr", "--mag", "sbr", "--phase", "flip"], id="sr"),
]


@pytest.fixture()
def quarter_second(tmp_path):
    from conftest import synth_clip

    path = tmp_path / "in.wav"
    wav_write(path, Waveform(synth_clip(3, duration=0.25), SR))
    return path


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize("command", PIPED_COMMANDS)
def test_out_to_piped_stdout_is_the_file_alone(tmp_path, quarter_second, command):
    # The status line goes to stderr, so the pipe gets the bytes that a run
    # to a regular file writes, and nothing after them.
    regular = tmp_path / "out.wav"
    assert _bwx([*command, "--in", str(quarter_second), "--out", str(regular)]).returncode == 0
    piped = _bwx([*command, "--in", str(quarter_second), "--out", "/dev/stdout"])
    assert piped.returncode == 0
    assert piped.stdout == regular.read_bytes()
    assert b"wrote /dev/stdout" in piped.stderr


def _piped(*commands):
    """``commands`` run as a shell pipeline, the last command's result. Each
    is an argv list: ``cat`` and its file, or the CLI's arguments."""
    src = str(Path(bwx.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys; from bwx.cli import main; sys.exit(main())"
    stdin, runs = None, []
    for i, args in enumerate(commands):
        argv = args if args[0] == "cat" else [sys.executable, "-c", code, *args]
        stderr = subprocess.PIPE if i == len(commands) - 1 else None
        runs.append(subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr,
                                     env=env))
        if stdin is not None:
            stdin.close()  # the command just started owns the pipe now
        stdin = runs[-1].stdout
    out, err = runs[-1].communicate()
    for run in runs[:-1]:
        run.wait()
    return subprocess.CompletedProcess(runs[-1].args, runs[-1].returncode, out, err)


PIPED_RUNS = [
    pytest.param(["prepare"], "hr.wav", id="prepare"),
    pytest.param(["spec", "export", "--kind", "complex"], "hr.wav", id="spec-export"),
    pytest.param(["sr", "--mag", "oracle:hr.wav", "--phase", "flip"], "lr.wav", id="sr-flip"),
    pytest.param(["sr", "--mag", "oracle:hr.wav", "--phase", "gla", "--gla-iters", "5",
                  "--trace", "{run}.csv"], "lr.wav", id="sr-gla-trace"),
]


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("command, given", PIPED_RUNS)
def test_piped_input_writes_what_a_file_input_does(tmp_path, hr_path, lr_path, monkeypatch,
                                                   command, given):
    # Each input is read front to back, so a pipe reads as its file does:
    # the outputs, and the GLA trace, are the same bytes.
    monkeypatch.chdir(tmp_path)
    for run, feed, source in (("file", [], given), ("pipe", [["cat", given]], "/dev/stdin")):
        args = [part.format(run=run) for part in command]
        done = _piped(*feed, [*args, "--in", source, "--out", f"{run}.out"])
        assert done.returncode == 0, done.stderr
    assert Path("pipe.out").read_bytes() == Path("file.out").read_bytes()
    if "--trace" in command:
        assert Path("pipe.csv").read_bytes() == Path("file.csv").read_bytes()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
def test_commands_chained_by_pipes_equal_their_file_runs(tmp_path, hr_path, lr_path, monkeypatch):
    # prepare | sr equals sr of the prepared file, and sr | eval gives the
    # file run's CSV, but for the estimate's name.
    monkeypatch.chdir(tmp_path)
    sr = ["sr", "--mag", "oracle:hr.wav", "--phase", "gla", "--gla-iters", "5"]
    assert main([*sr, "--in", "lr.wav", "--out", "file.wav"]) == 0
    assert main(["eval", "--truth", "hr.wav", "--est", "file.wav", "--out", "file.csv"]) == 0
    done = _piped(["cat", "hr.wav"], ["prepare", "--in", "/dev/stdin", "--out", "/dev/stdout"],
                  [*sr, "--in", "/dev/stdin", "--out", "piped.wav"])
    assert done.returncode == 0, done.stderr
    assert Path("piped.wav").read_bytes() == Path("file.wav").read_bytes()
    done = _piped([*sr, "--in", "lr.wav", "--out", "/dev/stdout"],
                  ["eval", "--truth", "hr.wav", "--est", "/dev/stdin", "--out", "piped.csv"])
    assert done.returncode == 0, done.stderr
    piped = Path("piped.csv").read_text().replace("/dev/stdin,", "file.wav,")
    assert piped == Path("file.csv").read_text()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
@pytest.mark.parametrize("command", PIPED_COMMANDS)
@pytest.mark.parametrize("fault", ["truncated", "placeholder"])
def test_a_faulty_piped_input_is_an_io_error(tmp_path, quarter_second, command, fault):
    # A pipe that ends inside its data chunk, or whose header gives the
    # placeholder size 0xFFFFFFFF for a length, writes nothing.
    raw = quarter_second.read_bytes()
    if fault == "truncated":
        raw, message = raw[: len(raw) // 2], b"data chunk ends before"
    else:
        raw, message = raw[:40] + struct.pack("<I", 0xFFFFFFFF) + raw[44:], b"placeholder"
    out = tmp_path / "out.wav"
    done = _bwx([*command, "--in", "/dev/stdin", "--out", str(out)], input=raw)
    assert done.returncode == 2
    assert message in done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.wav"]


def test_float32_signalling_nan_is_a_domain_error(tmp_path):
    # Casting the NaN with bits 0x7F800001 to float64 makes numpy warn; the
    # cast runs silenced, so the finiteness check raises the typed error.
    stored = np.zeros(100, dtype=np.float32)
    stored.view(np.uint32)[40] = 0x7F800001
    payload = stored.tobytes()
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE", b"fmt ", 16,
        3, 1, SR, 4 * SR, 4, 32, b"data", len(payload),
    )
    path = tmp_path / "snan.wav"
    path.write_bytes(header + payload)
    with pytest.raises(DomainError, match="non-finite"):
        wav_read(path)
    done = _bwx(["prepare", "--in", str(path), "--out", str(tmp_path / "lr.wav")], text=True)
    assert done.returncode == 1
    assert "RuntimeWarning" not in done.stderr
    assert "non-finite" in done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["snan.wav"]
