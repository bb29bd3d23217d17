"""End-to-end reconstruction pipeline and batch drivers."""

import numpy as np
import pytest

from bwx import (
    BandLayout,
    BandReplicationSpec,
    FlipPhaseSpec,
    GlaConfig,
    GlaPhaseSpec,
    ImportSpec,
    OracleSpec,
    ReferencePhaseSpec,
    ResidualBand,
    SampleDepth,
    SpecKind,
    SrJobSpec,
    StftConfig,
    Waveform,
    evaluate,
    evaluate_batch,
    run_phase_study,
    spec_write,
    super_resolve,
    wav_read,
    wav_write,
)
from bwx.dsp import interior_slice, istft_array, stft_array
from bwx.errors import PipelineError, ShapeError
from bwx.metrics import EVAL_CSV_HEADER
from bwx.pipeline import _reconstruct

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


def _job(lr, out, predictor, phase, residual=ResidualBand.PASSTHROUGH):
    return SrJobSpec(
        input_path=str(lr),
        output_path=str(out),
        predictor=predictor,
        phase=phase,
        stft=CFG,
        layout=LAYOUT,
        residual_band=residual,
    )


def _rebuild(job):
    """First output channel of ``job`` from the in-memory core, in float64."""
    return _reconstruct(job, wav_read(job.input_path)[0], {})[0][0]


class TestSuperResolve:
    def test_full_oracle_identity(self, tmp_path, hr_lr_paths):
        # With full information in (the HR file also supplies the low band and
        # residual band), the pipeline is an interior-exact identity.
        hr, _ = hr_lr_paths
        out = tmp_path / "out.wav"
        job = _job(hr, out, OracleSpec(str(hr)), ReferencePhaseSpec(str(hr)))
        rebuilt = _rebuild(job)

        truth = wav_read(hr)[0][0].samples
        n = len(rebuilt.samples)
        sel = interior_slice(n, CFG)
        err = np.linalg.norm(truth[:n][sel] - rebuilt.samples[sel]) / np.linalg.norm(
            truth[:n][sel]
        )
        assert err < 1e-6

    def test_full_oracle_from_lr_restores_high_band(self, tmp_path, hr_lr_paths):
        # From the band-limited input the restored high band matches the truth
        # to leakage level; the low band is the LR's own, so time-domain
        # equality is bounded by the lowpass redistribution (~1e-3), not 1e-6.
        hr, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        job = _job(lr, out, OracleSpec(str(hr)), ReferencePhaseSpec(str(hr)))
        rebuilt = _rebuild(job)
        truth = wav_read(hr)[0][0]
        report = evaluate(truth, rebuilt, LAYOUT, CFG)
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
        out = tmp_path / "out.wav"
        rebuilt = _rebuild(_job(lr, out, ImportSpec(str(zeros)), FlipPhaseSpec()))

        X = stft_array(lr_wave.samples, CFG)
        X[:, 186:372] = 0
        expected = istft_array(X, CFG)
        assert np.array_equal(
            rebuilt.samples.astype(np.float32), expected.astype(np.float32)
        )
        # and its interior is close to the plain round trip of the band-limited
        # input (the extreme edge samples sit on the window-sum floor and are
        # excluded, as everywhere else)
        plain = istft_array(stft_array(lr_wave.samples, CFG), CFG)
        sel = interior_slice(len(plain), CFG)
        rel = np.linalg.norm(rebuilt.samples[sel] - plain[sel]) / np.linalg.norm(plain[sel])
        assert rel < 0.05

    def test_gla_beats_flip_on_lsd_hf(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        truth = wav_read(hr)[0][0]
        results = {}
        for name, phase in (
            ("flip", FlipPhaseSpec()),
            ("gla", GlaPhaseSpec(GlaConfig(layout=LAYOUT, iterations=30, record_trace=False))),
        ):
            out = tmp_path / f"{name}.wav"
            rebuilt = _rebuild(_job(lr, out, OracleSpec(str(hr)), phase))
            results[name] = evaluate(truth, rebuilt, LAYOUT, CFG)
        assert results["gla"].lsd_hf < results["flip"].lsd_hf

    def test_lfc_band_is_passed_through_unaltered(self, tmp_path, hr_lr_paths):
        # The synthesis input carries the analysed low band verbatim, so the
        # output's re-analysed low band matches the plain round trip's to
        # within the cross-band leakage of overlapped Hann analysis (~1e-3);
        # exact equality is impossible once new high-band content is added.
        hr, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        rebuilt = _rebuild(
            _job(lr, out, OracleSpec(str(hr)), FlipPhaseSpec())
        )
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

    def test_residual_zero_bandlimits_output(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        rebuilt = _rebuild(
            _job(lr, out, OracleSpec(str(hr)), ReferencePhaseSpec(str(hr)), ResidualBand.ZERO)
        )
        X = stft_array(rebuilt.samples, CFG)
        ratio = np.linalg.norm(X[:, 372:]) / np.linalg.norm(X)
        assert ratio < 1e-2

    def test_deterministic_output_files(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out1 = tmp_path / "a.wav"
        out2 = tmp_path / "b.wav"
        phase = GlaPhaseSpec(GlaConfig(layout=LAYOUT, iterations=10, record_trace=False))
        super_resolve(_job(lr, out1, OracleSpec(str(hr)), phase))
        super_resolve(_job(lr, out2, OracleSpec(str(hr)), phase))
        assert out1.read_bytes() == out2.read_bytes()

    def test_sbr_predictor_runs(self, tmp_path, hr_lr_paths):
        _, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        job = _job(lr, out, BandReplicationSpec(), FlipPhaseSpec())
        rebuilt = _rebuild(job)
        super_resolve(job)
        assert np.all(np.isfinite(rebuilt.samples))
        assert out.exists()

    def test_stage_label_on_missing_reference(self, tmp_path, hr_lr_paths):
        _, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        job = _job(lr, out, OracleSpec(str(tmp_path / "nope.wav")), FlipPhaseSpec())
        with pytest.raises(PipelineError, match="magnitude"):
            super_resolve(job)

    def test_stage_label_on_missing_input(self, tmp_path):
        job = _job(tmp_path / "missing.wav", tmp_path / "out.wav",
                   BandReplicationSpec(), FlipPhaseSpec())
        with pytest.raises(PipelineError, match="read-input"):
            super_resolve(job)

    def test_identical_paths_rejected(self, tmp_path):
        with pytest.raises(ShapeError, match="distinct"):
            _job(tmp_path / "x.wav", tmp_path / "x.wav", BandReplicationSpec(), FlipPhaseSpec())

    @pytest.mark.parametrize(
        "spelling", ["./x.wav", "sub/../x.wav", "{tmp}/x.wav", "{tmp}/./x.wav"]
    )
    def test_equivalent_path_spellings_rejected(self, tmp_path, monkeypatch, spelling):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        with pytest.raises(ShapeError, match="distinct"):
            _job("x.wav", spelling.format(tmp=tmp_path), BandReplicationSpec(), FlipPhaseSpec())

    def test_gla_trace_written(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "out.wav"
        trace = tmp_path / "trace.csv"
        phase = GlaPhaseSpec(GlaConfig(layout=LAYOUT, iterations=5))
        super_resolve(
            _job(lr, out, OracleSpec(str(hr)), phase), trace_path=trace
        )
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == 6

    def test_stereo_identity(self, tmp_path, short_music):
        hr = tmp_path / "hr2.wav"
        other = Waveform(short_music.samples[::-1].copy(), SR)
        wav_write(hr, [short_music, other], SampleDepth.FLOAT32)
        out = tmp_path / "out2.wav"
        super_resolve(_job(hr, out, OracleSpec(str(hr)), ReferencePhaseSpec(str(hr))))
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


class TestEvaluateBatch:
    def test_truth_vs_itself(self, tmp_path, hr_lr_paths):
        hr, _ = hr_lr_paths
        out = tmp_path / "report.csv"
        rows = evaluate_batch([(str(hr), str(hr))], LAYOUT, out, CFG)
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
            CFG,
        )
        assert len(rows) == 3
        assert ",error," in rows[0]
        assert rows[1].split(",")[1] == "eval"

    def test_rows_keep_input_order(self, tmp_path, hr_lr_paths):
        hr, lr = hr_lr_paths
        out = tmp_path / "report.csv"
        rows = evaluate_batch(
            [(str(hr), str(lr)), (str(hr), str(hr))], LAYOUT, out, CFG
        )
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
            make_pair(clip, lr, LowpassSpec(cutoff_hz=4000.0), CFG)
            estimates = {"lr": lr}
            phases = {
                "flip": FlipPhaseSpec(),
                "gla": GlaPhaseSpec(GlaConfig(layout=layout, iterations=6, record_trace=False)),
                "reference": ReferencePhaseSpec(clip),
            }
            for method, phase in phases.items():
                estimates[method] = tmp_path / f"chain_{method}.wav"
                super_resolve(SrJobSpec(str(lr), str(estimates[method]), OracleSpec(clip),
                                        phase, layout, stft=CFG))
            reports = {}
            for method, path in estimates.items():
                pairs = zip(wav_read(clip)[0], wav_read(path)[0])
                channel_reports = [evaluate(t, e, layout, CFG) for t, e in pairs]
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

    def test_each_clip_decoded_once(self, tmp_path, monkeypatch, two_clips):
        import bwx.pipeline
        import bwx.prep

        decoded = []
        original = bwx.pipeline.wav_read

        def counting(path, *args, **kwargs):
            decoded.append(str(path))
            return original(path, *args, **kwargs)

        monkeypatch.setattr(bwx.pipeline, "wav_read", counting)
        monkeypatch.setattr(bwx.prep, "wav_read", counting)
        run_phase_study(two_clips, tmp_path / "study.csv", gla_iterations=2)
        assert decoded == two_clips

    def test_all_skipped_raises(self, tmp_path):
        from bwx.errors import BwxError

        with pytest.raises(BwxError, match="failed"):
            run_phase_study([str(tmp_path / "missing.wav")], tmp_path / "s.csv")
