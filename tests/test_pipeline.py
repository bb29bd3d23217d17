"""End-to-end reconstruction pipeline and batch drivers."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bwx.dsp
import bwx.phase
import bwx.pipeline
from bwx import (
    BandLayout,
    BandReplicationSpec,
    FlipPhaseSpec,
    GlaConfig,
    ImportSpec,
    OracleSpec,
    ReconstructSpec,
    ReferencePhaseSpec,
    SampleDepth,
    SpecKind,
    StftConfig,
    Waveform,
    evaluate,
    evaluate_batch,
    reconstruct,
    run_phase_study,
    spec_write,
    super_resolve,
    wav_read,
    wav_write,
)
from bwx.dsp import istft_array, overlap_add, padded_grid, stft_array
from bwx.errors import DomainError, PipelineError, ShapeError
from bwx.metrics import EVAL_CSV_HEADER
from bwx.pipeline import PHASE_STUDY_METHODS

from conftest import interior_slice, padded_round_trip, whole_window_sum

CFG = StftConfig()
SR = 44100
LAYOUT = BandLayout(186, 372, CFG.n_bins)


@pytest.fixture()
def hr_lr_paths(tmp_path, short_music):
    from bwx import LowpassSpec, lowpass

    hr = tmp_path / "hr.wav"
    lr = tmp_path / "lr.wav"
    wav_write(hr, short_music, SampleDepth.FLOAT32)
    wav_write(lr, lowpass(short_music, LowpassSpec(cutoff_hz=4000.0), CFG), SampleDepth.FLOAT32)
    return hr, lr


def _spec(predictor, phase):
    return ReconstructSpec(predictor, phase, LAYOUT, stft=CFG)


def _rebuild(lr, spec):
    """First output channel of ``spec`` on the file ``lr`` from the in-memory
    core, in float64."""
    return reconstruct(spec, wav_read(lr)[0])[0]


class TestSuperResolve:
    def test_full_oracle_identity(self, tmp_path, hr_lr_paths):
        # With full information in (the HR file also supplies the low band and
        # residual band), the pipeline is an interior-exact identity.
        hr, _ = hr_lr_paths
        rebuilt = _rebuild(hr, _spec(OracleSpec(str(hr)), ReferencePhaseSpec(str(hr))))

        truth = wav_read(hr)[0][0].samples
        n = len(rebuilt.samples)
        sel = interior_slice(n, CFG)
        err = np.linalg.norm(truth[:n][sel] - rebuilt.samples[sel]) / np.linalg.norm(
            truth[:n][sel]
        )
        assert err < 1e-6
        # On the padded grid every sample is interior.
        assert n == len(truth)
        assert np.linalg.norm(truth - rebuilt.samples) / np.linalg.norm(truth) < 1e-6

    def test_full_oracle_from_lr_restores_high_band(self, tmp_path, hr_lr_paths):
        # From the band-limited input the restored high band matches the truth
        # to leakage level; the low band is the LR's own, so time-domain
        # equality is bounded by the lowpass redistribution (~1e-3), not 1e-6.
        hr, lr = hr_lr_paths
        rebuilt = _rebuild(lr, _spec(OracleSpec(str(hr)), ReferencePhaseSpec(str(hr))))
        truth = wav_read(hr)[0][0]
        report = evaluate(truth, rebuilt, LAYOUT)
        assert report.lsd_hf < 0.5

    def test_zero_magnitude_import_gives_lfc_only(self, tmp_path, hr_lr_paths):
        # A zero high band nullifies whatever phase the strategy produces; the
        # output is exactly the resynthesis with the band zeroed.
        _, lr = hr_lr_paths
        lr_wave = wav_read(lr)[0][0]
        frames = CFG.frame_count(len(lr_wave.samples))
        zeros = tmp_path / "zeros.bwx"
        spec_write(
            zeros, np.zeros((frames, 186), dtype=np.float32),
            SpecKind.MAGNITUDE, SR, CFG.frame_len, CFG.hop,
        )
        rebuilt = _rebuild(lr, _spec(ImportSpec(str(zeros)), FlipPhaseSpec()))

        def zero_high_band(X):
            X[:, 186:372] = 0

        expected = padded_round_trip(lr_wave.samples, CFG, zero_high_band)
        assert np.array_equal(rebuilt.samples, expected)
        # and its interior is close to the plain round trip of the band-limited
        # input; on the padded grid so is every sample
        plain = istft_array(stft_array(lr_wave.samples, CFG), CFG)
        sel = interior_slice(len(plain), CFG)
        rel = np.linalg.norm(rebuilt.samples[sel] - plain[sel]) / np.linalg.norm(plain[sel])
        assert rel < 0.05
        whole = lr_wave.samples
        assert np.linalg.norm(rebuilt.samples - whole) / np.linalg.norm(whole) < 0.05

    def test_gla_beats_flip_on_lsd_hf(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        truth = wav_read(hr)[0][0]
        results = {}
        for name, phase in (
            ("flip", FlipPhaseSpec()),
            ("gla", GlaConfig(iterations=30)),
        ):
            rebuilt = _rebuild(lr, _spec(OracleSpec(str(hr)), phase))
            results[name] = evaluate(truth, rebuilt, LAYOUT)
        assert results["gla"].lsd_hf < results["flip"].lsd_hf

    def test_lfc_band_is_passed_through_unaltered(self, tmp_path, hr_lr_paths):
        # The synthesis input carries the analysed low band verbatim, so the
        # output's re-analysed low band matches the plain round trip's to
        # within the cross-band leakage of overlapped Hann analysis (~1e-3);
        # exact equality is impossible once new high-band content is added.
        hr, lr = hr_lr_paths
        rebuilt = _rebuild(lr, _spec(OracleSpec(str(hr)), FlipPhaseSpec()))
        lr_wave = wav_read(lr)[0][0]
        reference = stft_array(
            istft_array(stft_array(lr_wave.samples, CFG), CFG), CFG
        )[:, :186]
        actual = stft_array(rebuilt.samples, CFG)[:, :186]
        frames = min(reference.shape[0], actual.shape[0])
        rel = np.linalg.norm(actual[:frames] - reference[:frames]) / np.linalg.norm(
            reference[:frames]
        )
        assert rel < 1e-2

    def test_deterministic_output_files(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out1 = tmp_path / "a.wav"
        out2 = tmp_path / "b.wav"
        phase = GlaConfig(iterations=10)
        super_resolve(_spec(OracleSpec(str(hr)), phase), lr, out1)
        super_resolve(_spec(OracleSpec(str(hr)), phase), lr, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_sbr_predictor_runs(self, tmp_path, hr_lr_paths):
        _, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        spec = _spec(BandReplicationSpec(), FlipPhaseSpec())
        rebuilt = _rebuild(lr, spec)
        super_resolve(spec, lr, out)
        assert np.all(np.isfinite(rebuilt.samples))
        assert out.exists()

    def test_stage_label_on_missing_reference(self, tmp_path, hr_lr_paths):
        _, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        spec = _spec(OracleSpec(str(tmp_path / "nope.wav")), FlipPhaseSpec())
        with pytest.raises(PipelineError, match="magnitude"):
            super_resolve(spec, lr, out)

    @pytest.mark.parametrize(
        "predictor, phase, stage",
        [
            (OracleSpec("missing.wav"), FlipPhaseSpec(), "magnitude"),
            (BandReplicationSpec(), ReferencePhaseSpec("missing.wav"), "phase"),
            (OracleSpec("missing.wav"), GlaConfig(iterations=2), "magnitude"),
        ],
    )
    def test_checks_run_before_output_is_opened(
        self, tmp_path, hr_lr_paths, monkeypatch, predictor, phase, stage
    ):
        _, lr = hr_lr_paths
        monkeypatch.chdir(tmp_path)
        opened = []
        monkeypatch.setattr(bwx.pipeline, "_atomic_output", opened.append)
        with pytest.raises(PipelineError) as info:
            super_resolve(_spec(predictor, phase), lr, tmp_path / "out.wav")
        assert info.value.stage == stage
        assert opened == []

    def test_stage_label_on_missing_input(self, tmp_path):
        spec = _spec(BandReplicationSpec(), FlipPhaseSpec())
        with pytest.raises(PipelineError, match="read-input"):
            super_resolve(spec, tmp_path / "missing.wav", tmp_path / "out.wav")

    def test_identical_paths_rejected(self, tmp_path):
        # Rejected as such before any stage opens a file (x.wav does not exist).
        spec = _spec(BandReplicationSpec(), FlipPhaseSpec())
        with pytest.raises(ShapeError, match="distinct"):
            super_resolve(spec, tmp_path / "x.wav", tmp_path / "x.wav")

    @pytest.mark.parametrize(
        "spelling", ["./x.wav", "sub/../x.wav", "{tmp}/x.wav", "{tmp}/./x.wav"]
    )
    def test_equivalent_path_spellings_rejected(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        spec = _spec(BandReplicationSpec(), FlipPhaseSpec())
        with pytest.raises(ShapeError, match="distinct"):
            super_resolve(spec, "x.wav", spelling.format(tmp=tmp_path))

    def test_gla_trace_written(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        trace = tmp_path / "trace.csv"
        spec = _spec(OracleSpec(str(hr)), GlaConfig(iterations=5))
        super_resolve(spec, lr, out, trace_path=trace)
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 6

    def test_residuals_computed_only_when_written(self, tmp_path, hr_lr_paths, monkeypatch):
        hr, lr = hr_lr_paths
        calls = []
        squared_norm = bwx.phase._squared_norm
        monkeypatch.setattr(
            bwx.phase, "_squared_norm", lambda z: calls.append(1) or squared_norm(z)
        )
        spec = _spec(OracleSpec(str(hr)), GlaConfig(iterations=4))
        super_resolve(spec, lr, tmp_path / "a.wav")
        assert calls == []
        trace = tmp_path / "trace.csv"
        super_resolve(spec, lr, tmp_path / "b.wav", trace_path=trace)
        assert calls  # the traced run does reach the residual's norms
        assert len(trace.read_text().splitlines()) == 4 + 1
        assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()

    def test_trace_csv_format(self, tmp_path, hr_lr_paths, monkeypatch):
        hr, lr = hr_lr_paths
        kernel = []

        def recording(*args, **kwargs):
            residuals = bwx.phase._gla_band(*args, **kwargs)
            kernel.append(residuals)
            return residuals

        monkeypatch.setattr(bwx.pipeline, "_gla_band", recording)
        trace = tmp_path / "trace.csv"
        spec = _spec(OracleSpec(str(hr)), GlaConfig(iterations=4))
        super_resolve(spec, lr, tmp_path / "out.wav", trace_path=trace)
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 5
        for i, line in enumerate(lines[1:]):
            idx, value = line.split(",")
            assert int(idx) == i
            assert "e" not in value.lower()  # decimal notation
            # The loop's residual, rounded to 9 significant digits.
            assert float(value) == float(f"{kernel[0][i]:.9g}")

    def test_gla_runs_in_place_and_pins_the_residual_band(self, tmp_path, hr_lr_paths, monkeypatch):
        # The HR file as input has content above hi_hz, which reconstruction
        # keeps: GLA iterates in place on the high band alone, onto the
        # overlap-add of every other bin the input's analysis gave, the
        # residual band among them, bit for bit; the output is that signal
        # with the band's rows added, normalised.
        hr, _ = hr_lr_paths
        bands, pinned = [], []

        def recording(magnitude, band, signal, *args, **kwargs):
            pinned.append(signal.copy())  # the finish adds to it in place
            residuals = bwx.phase._gla_band(magnitude, band, signal, *args, **kwargs)
            bands.append(band)
            return residuals

        monkeypatch.setattr(bwx.pipeline, "_gla_band", recording)
        out = tmp_path / "out.wav"
        super_resolve(_spec(OracleSpec(str(hr)), GlaConfig(iterations=3)), hr, out)
        [band], [signal] = bands, pinned
        x = wav_read(hr)[0][0].samples
        lead, n_frames = padded_grid(CFG, len(x))
        padded = np.zeros(CFG.output_length(n_frames))
        padded[lead : lead + len(x)] = x
        X = stft_array(padded, CFG)
        assert band.shape == (n_frames, LAYOUT.hfc_width)  # no whole-grid spectrogram
        assert np.any(X[:, LAYOUT.k_hi :] != 0)  # a residual band to keep
        X[:, LAYOUT.k_lo : LAYOUT.k_hi] = 0.0
        expected = np.zeros_like(padded)
        overlap_add(X, expected, 0, CFG)
        assert np.array_equal(signal, expected)

        X[:] = 0.0
        X[:, LAYOUT.k_lo : LAYOUT.k_hi] = band
        overlap_add(X, signal, 0, CFG)
        signal /= whole_window_sum(CFG, n_frames)
        [written] = wav_read(out)[0]
        assert np.array_equal(written.samples, signal[lead : lead + len(x)].astype(np.float32))

    def test_stereo_identity(self, tmp_path, short_music):
        hr = tmp_path / "hr2.wav"
        other = Waveform(short_music.samples[::-1].copy(), SR)
        wav_write(hr, [short_music, other], SampleDepth.FLOAT32)
        out = tmp_path / "out2.wav"
        super_resolve(_spec(OracleSpec(str(hr)), ReferencePhaseSpec(str(hr))), hr, out)
        channels, _ = wav_read(out)
        assert len(channels) == 2
        truths = wav_read(hr)[0]
        for truth, ch in zip(truths, channels):
            n = len(ch.samples)
            sel = interior_slice(n, CFG)
            err = np.linalg.norm(
                truth.samples[:n][sel] - ch.samples[sel]
            ) / np.linalg.norm(truth.samples[:n][sel])
            assert err < 1e-6
            assert n == len(truth.samples)
            whole = np.linalg.norm(truth.samples - ch.samples) / np.linalg.norm(truth.samples)
            assert whole < 1e-6


def test_stereo_gla_equals_each_channel_alone(monkeypatch):
    # Griffin-Lim estimates each channel's band on its own: run together, the
    # channels of an odd-length input give the bits they give one at a time,
    # and the first channel's residuals are its mono residuals.
    traces = []
    core = bwx.pipeline._reconstruct_blocks
    monkeypatch.setattr(
        bwx.pipeline, "_reconstruct_blocks",
        lambda spec, source, references: core(spec, source, references, traces),
    )
    rng = np.random.default_rng(7)
    hr, lr = ([Waveform(rng.standard_normal(40_001), SR) for _ in range(2)] for _ in range(2))
    spec = _spec(OracleSpec("hr.wav"), GlaConfig(iterations=3))
    both = reconstruct(spec, lr, references={"hr.wav": hr})
    alone = [reconstruct(spec, [x], references={"hr.wav": [ref]})[0] for x, ref in zip(lr, hr)]
    for channel, mono in zip(both, alone):
        assert len(channel.samples) == 40_001
        assert np.array_equal(channel.samples, mono.samples)
    assert len(traces[0]) == 3
    assert np.array_equal(traces[0], traces[1])


class TestInMemoryChannels:
    """Channels handed over in memory, as input or as a reference, must share
    length and sample rate, as the channels of a WAV file do."""

    FIRST = Waveform(np.zeros(44_100), SR)

    @pytest.mark.parametrize(
        "second",
        [Waveform(np.zeros(40_000), SR), Waveform(np.zeros(44_100), 48_000)],
        ids=["length", "rate"],
    )
    def test_unequal_channels_are_shape_errors(self, second):
        with pytest.raises(ShapeError, match="share length and sample rate"):
            reconstruct(_spec(BandReplicationSpec(), FlipPhaseSpec()), [self.FIRST, second])
        with pytest.raises(ShapeError, match="share length and sample rate"):
            reconstruct(
                _spec(OracleSpec("hr.wav"), FlipPhaseSpec()),
                [self.FIRST, self.FIRST],
                references={"hr.wav": [self.FIRST, second]},
            )

    def test_no_channels_is_shape_error(self):
        with pytest.raises(ShapeError, match="at least one channel"):
            reconstruct(_spec(BandReplicationSpec(), FlipPhaseSpec()), [])


class TestEvaluateBatch:
    def test_truth_vs_itself(self, tmp_path, hr_lr_paths):
        hr, _ = hr_lr_paths
        out = tmp_path / "report.csv"
        rows = evaluate_batch([(str(hr), str(hr))], LAYOUT, out)
        assert len(rows) == 2  # pair row + mean row
        fields = rows[0].split(",")
        assert float(fields[2]) == 0.0
        assert float(fields[4]) == pytest.approx(120.0)
        # single pair: mean row equals the pair row in the metric columns
        assert rows[1].split(",")[2:] == fields[2:]
        assert out.read_text().startswith(EVAL_CSV_HEADER)

    def test_failed_pair_reported(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "report.csv"
        rows = evaluate_batch(
            [(str(hr), str(tmp_path / "missing.wav")), (str(hr), str(lr))],
            LAYOUT,
            out,
        )
        assert len(rows) == 3
        assert ",error," in rows[0]
        assert rows[1].split(",")[1] == "eval"

    def test_rows_keep_input_order(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "report.csv"
        rows = evaluate_batch([(str(hr), str(lr)), (str(hr), str(hr))], LAYOUT, out)
        assert rows[0].startswith(str(lr))
        assert rows[1].startswith(str(hr))


class TestRunPhaseStudy:
    def test_report_structure_and_ordering(self, tmp_path, short_music):
        clips = []
        for i, seed in enumerate((5, 6)):
            from conftest import synth_clip

            clip = tmp_path / f"tiny{i}.wav"
            wav_write(clip, Waveform(synth_clip(seed, duration=2.0), SR), SampleDepth.FLOAT32)
            clips.append(str(clip))
        out = tmp_path / "study.csv"
        result = run_phase_study(clips, out, gla_iterations=12)
        # 4 method rows per clip plus 4 mean rows
        assert len(result.rows) == 4 * len(clips) + 4
        text = out.read_text().splitlines()
        assert text[0] == EVAL_CSV_HEADER
        means = result.means
        assert means["reference"].lsd_hf < means["gla"].lsd_hf
        assert means["gla"].lsd_hf < means["flip"].lsd_hf
        assert means["flip"].lsd_hf < means["lr"].lsd_hf
        if result.snr_anomaly:
            assert any(line.startswith("# snr_anomaly") for line in text)

    def test_unreadable_clis_skipped(self, tmp_path, short_music):
        good = tmp_path / "good.wav"
        wav_write(good, short_music, SampleDepth.FLOAT32)
        out = tmp_path / "study.csv"
        result = run_phase_study(
            [str(tmp_path / "missing.wav"), str(good)], out, gla_iterations=4
        )
        assert result.skipped == [str(tmp_path / "missing.wav")]
        assert len(result.rows) == 4 + 4

    @pytest.fixture()
    def two_clips(self, tmp_path):
        from conftest import synth_clip

        mono = tmp_path / "mono.wav"
        stereo = tmp_path / "stereo.wav"
        wav_write(mono, Waveform(synth_clip(7, duration=1.5), SR), SampleDepth.FLOAT32)
        wav_write(
            stereo,
            [Waveform(synth_clip(seed, duration=1.2), SR) for seed in (8, 9)],
            SampleDepth.PCM16,
        )
        return [str(mono), str(stereo)]

    def test_rows_equal_file_chain(self, tmp_path, two_clips):
        """Every row and mean equals prepare -> sr -> eval through files."""
        from bwx import LowpassSpec, make_pair

        result = run_phase_study(two_clips, tmp_path / "study.csv", gla_iterations=6)

        expected_rows, per_clip = [], []
        for clip in two_clips:
            layout = BandLayout.from_frequencies(4000.0, 8000.0, SR, CFG)
            lr = tmp_path / "chain_lr.wav"
            make_pair(clip, lr, LowpassSpec(cutoff_hz=4000.0))
            estimates = {"lr": lr}
            phases = {
                "flip": FlipPhaseSpec(),
                "gla": GlaConfig(iterations=6),
                "reference": ReferencePhaseSpec(clip),
            }
            for method, phase in phases.items():
                estimates[method] = tmp_path / f"chain_{method}.wav"
                spec = ReconstructSpec(OracleSpec(clip), phase, layout, stft=CFG)
                super_resolve(spec, lr, estimates[method])
            reports = {}
            for method, path in estimates.items():
                pairs = zip(wav_read(clip)[0], wav_read(path)[0])
                channel_reports = [evaluate(t, e, layout) for t, e in pairs]
                reports[method] = [
                    float(np.mean([getattr(r, name) for r in channel_reports]))
                    for name in ("lsd_hf", "lsd_full", "snr")
                ]
                expected_rows.append(
                    f"{clip},{method},{reports[method][0]:.4f},{reports[method][1]:.4f},"
                    f"{reports[method][2]:.4f},{channel_reports[0].frames_compared}"
                )
            per_clip.append(reports)

        assert result.rows[: len(expected_rows)] == expected_rows
        for method, report in result.means.items():
            expected = np.mean([reports[method] for reports in per_clip], axis=0)
            assert [report.lsd_hf, report.lsd_full, report.snr] == expected.tolist()

    def test_reads_block_spans_and_writes_outputs_whole(self, tmp_path, monkeypatch, two_clips):
        # The clip is read whole once, by make_pair, to write the LR; every
        # other read is one block span of a file. A pass decodes each frame of
        # a file once, though its 64-frame spans overlap by frame_len - hop:
        # 8x for the clip (the LR's making, the oracle of three
        # reconstructions, four scorings) and 4x for the LR (one pass each for
        # GLA, flip and reference, and its own scoring). A read per GLA
        # iteration would break the counts. Each of the four outputs is
        # written by one call, whole, as float32.
        import bwx.prep

        whole, decoded, largest, writes, making = [], {}, [], [], []
        span_read, decode = bwx.wavio._WavSource.read, bwx.wavio._WavSource._decode
        prep_read, write = bwx.prep.wav_read, bwx.wavio.wav_write

        def counting(source, start, stop):
            channels = span_read(source, start, stop)
            if not making:
                largest.append(len(channels[0]))
            return channels

        def decoding(source, keep, frames):
            decoded[str(source.path)] = decoded.get(str(source.path), 0) + frames
            return decode(source, keep, frames)

        def making_lr(path, *args, **kwargs):
            whole.append((str(path), args, kwargs))
            making.append(path)
            try:
                return prep_read(path, *args, **kwargs)
            finally:
                making.pop()

        def recording(path, channels, *args, **kwargs):
            writes.append((Path(path).name, len(channels), {len(ch) for ch in channels}, args))
            return write(path, channels, *args, **kwargs)

        monkeypatch.setattr(bwx.wavio._WavSource, "read", counting)
        monkeypatch.setattr(bwx.wavio._WavSource, "_decode", decoding)
        monkeypatch.setattr(bwx.prep, "wav_read", making_lr)
        monkeypatch.setattr(bwx.pipeline, "wav_write", recording)
        monkeypatch.setattr(bwx.prep, "wav_write", recording)
        run_phase_study(two_clips, tmp_path / "study.csv", gla_iterations=4)
        counts = dict(decoded)  # the study's, before this test's own reads
        assert whole == [(clip, (), {}) for clip in two_clips]
        assert max(largest) <= CFG.output_length(bwx.dsp.BLOCK_FRAMES)
        expected_writes = []
        for clip in two_clips:
            channels = wav_read(clip)[0]
            n = len(channels[0])
            lr = [path for path in counts if path.endswith(f"{Path(clip).stem}_lr.wav")]
            assert counts[clip] == 8 * n
            assert len(lr) == 1 and counts[lr[0]] == 4 * n
            expected_writes += [
                (f"{Path(clip).stem}_{method}.wav", len(channels), {n}, (SampleDepth.FLOAT32,))
                for method in PHASE_STUDY_METHODS
            ]
        assert writes == expected_writes

    def test_clip_peak_memory_is_gla_band_state(self, tmp_path, clip_paths):
        # Beside Griffin-Lim's band state (its magnitudes, complex band and
        # pinned signal over the padded grid) a study clip holds block
        # buffers and one output. Holding the decoded 10 s clip and its LR as
        # well, 7 MB of float64, broke this bound by over 4 MB.
        clip = clip_paths[0]
        channels = wav_read(clip)[0]
        layout = BandLayout.from_frequencies(4000.0, 8000.0, channels[0].sample_rate, CFG)
        _, grid_frames = padded_grid(CFG, len(channels[0]))
        band_state = grid_frames * layout.hfc_width * (8 + 16) + 8 * CFG.output_length(grid_frames)
        block_margin = 5 * bwx.dsp.BLOCK_FRAMES * CFG.n_bins * 16
        tracemalloc.start()
        try:
            bwx.pipeline._study_one_clip(clip, tmp_path, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= band_state + block_margin

    def test_all_skipped_raises(self, tmp_path):
        from bwx.errors import BwxError

        with pytest.raises(BwxError, match="failed"):
            run_phase_study([str(tmp_path / "missing.wav")], tmp_path / "s.csv")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, tmp_path, monkeypatch, jobs):
        def no_tempdir(*args, **kwargs):
            raise AssertionError("temporary directory created")

        monkeypatch.setattr(bwx.pipeline.tempfile, "TemporaryDirectory", no_tempdir)
        with pytest.raises(DomainError, match="jobs must be >= 1"):
            run_phase_study(["clip.wav"], tmp_path / "s.csv", jobs=jobs)

