"""End-to-end spectrogram-recombination pipeline and batch drivers.

``_reconstruct`` is the in-memory core: it analyses the band-limited input
channels, predicts high-band magnitudes, estimates high-band phase,
recombines the bands and resynthesises. ``super_resolve`` wraps it with file
I/O. ``run_phase_study`` reruns the oracle-magnitude phase comparison over a
clip set, decoding each clip once; ``evaluate_batch`` scores truth/estimate
file pairs.
"""

from __future__ import annotations

import enum
import logging
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .dsp import (
    BandLayout,
    ComplexSpectrogram,
    MagnitudeSpectrogram,
    StftConfig,
    Waveform,
    _synthesis_denominator,
    frame_blocks,
    overlap_add,
    stft_array,
)
from .errors import BwxError, LengthError, PipelineError, ShapeError
from .magnitude import (
    BandReplicationSpec,
    ImportSpec,
    MagnitudePredictorSpec,
    OracleSpec,
    load_magnitude,
    predict_band_replication,
    predict_oracle,
)
from .metrics import EVAL_CSV_HEADER, EvalReport, evaluate
from .phase import GlaConfig, GlaTrace, extract_reference_phase, flip_phase, gla_reconstruct
from .prep import LowpassSpec, lowpass
from .wavio import SampleDepth, wav_read, wav_write

logger = logging.getLogger("bwx")

PHASE_STUDY_METHODS = ("lr", "flip", "gla", "reference")


class ResidualBand(enum.Enum):
    """What to do with bins above the high band: keep the input's or zero them."""

    PASSTHROUGH = "pass"
    ZERO = "zero"


@dataclass(frozen=True)
class FlipPhaseSpec:
    pass


@dataclass(frozen=True)
class GlaPhaseSpec:
    config: GlaConfig


@dataclass(frozen=True)
class ReferencePhaseSpec:
    path: str


PhaseStrategySpec = Union[FlipPhaseSpec, GlaPhaseSpec, ReferencePhaseSpec]


@dataclass
class SrJobSpec:
    input_path: str
    output_path: str
    predictor: MagnitudePredictorSpec
    phase: PhaseStrategySpec
    layout: BandLayout
    stft: StftConfig = StftConfig()
    residual_band: ResidualBand = ResidualBand.PASSTHROUGH

    def __post_init__(self) -> None:
        if Path(self.input_path).resolve() == Path(self.output_path).resolve():
            raise ShapeError("input and output paths must be distinct")
        if self.layout.n_bins != self.stft.n_bins:
            raise ShapeError(
                f"layout covers {self.layout.n_bins} bins, STFT config has {self.stft.n_bins}"
            )
        if isinstance(self.phase, GlaPhaseSpec) and self.phase.config.layout != self.layout:
            raise ShapeError("GLA config layout disagrees with the job layout")


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _read_references(path, n_channels: int, references: dict) -> list[np.ndarray]:
    """Samples of every channel of a reference file, decoded once per job:
    ``references`` maps resolved paths to channels already read."""
    key = Path(path).resolve()
    if key not in references:
        channels, _ = wav_read(path)
        if len(channels) != n_channels:
            raise ShapeError(
                f"{path}: has {len(channels)} channels, input has {n_channels}"
            )
        references[key] = [ch.samples for ch in channels]
    return references[key]


def _magnitude_steps(
    job: SrJobSpec, n_frames: int, n_channels: int, rate: int, references: dict
) -> list:
    """One step per channel mapping a block of frames (its analysis ``x`` and
    its ``frame_blocks`` triple f0, f1, sample span) to the block's high-band
    magnitudes. Everything that can reject the job is checked here, before
    any block."""
    predictor, cfg, layout = job.predictor, job.stft, job.layout
    if isinstance(predictor, OracleSpec):
        samples = _read_references(predictor.reference_path, n_channels, references)
        ref_frames = cfg.frame_count(len(samples[0]))
        if ref_frames < n_frames:
            raise LengthError(f"reference yields {ref_frames} frames, {n_frames} required")

        def oracle(source):
            return lambda x, block: predict_oracle(
                Waveform(source[block[2]], rate), cfg, layout
            ).data

        return [oracle(source) for source in samples]
    if isinstance(predictor, BandReplicationSpec):

        def replicate(x, block):
            lfc_mag = MagnitudeSpectrogram(np.abs(x[:, : layout.k_lo]), cfg, rate)
            return predict_band_replication(lfc_mag, layout, predictor).data

        return [replicate] * n_channels
    if isinstance(predictor, ImportSpec):
        if n_channels != 1:
            raise ShapeError("imported magnitudes only support mono inputs")
        imported = load_magnitude(
            predictor.path, (n_frames, layout.hfc_width), cfg=cfg, sample_rate=rate
        ).data
        return [lambda x, block: imported[block[0] : block[1]]]
    raise ShapeError(f"unknown predictor spec {predictor!r}")


def _phase_steps(
    job: SrJobSpec, n_frames: int, n_channels: int, rate: int, references: dict
) -> list:
    """One step per channel mapping a block of frames (its analysis ``x``, its
    high-band magnitudes ``mag`` and its ``frame_blocks`` triple) to the
    block's complex high band and GLA trace (None for the other strategies).
    The reference strategy warns here, once per channel, when the
    reference's frame count differs from the input's."""
    strategy, cfg, layout = job.phase, job.stft, job.layout
    k_lo, k_hi = layout.k_lo, layout.k_hi
    if isinstance(strategy, FlipPhaseSpec):
        return [lambda x, mag, block: (mag * flip_phase(x[:, :k_lo], layout), None)] * n_channels
    if isinstance(strategy, GlaPhaseSpec):

        def gla(x, mag, block):
            full = np.hstack([np.abs(x[:, :k_lo]), mag, np.abs(x[:, k_hi:])])
            result, trace = gla_reconstruct(
                MagnitudeSpectrogram(full, cfg, rate),
                ComplexSpectrogram(x[:, :k_lo], cfg, rate),
                strategy.config,
            )
            # The loop has already re-imposed ``mag`` on these bins.
            return result.data[:, k_lo:k_hi], trace

        return [gla] * n_channels
    if isinstance(strategy, ReferencePhaseSpec):
        samples = _read_references(strategy.path, n_channels, references)
        if cfg.frame_count(len(samples[0])) != n_frames:
            for _ in range(n_channels):
                logger.warning(
                    "%s: reference frame count adjusted to %d", strategy.path, n_frames
                )

        def reference(source):
            ref_frames = cfg.frame_count(len(source))

            def step(x, mag, block):
                # Frames past the reference's end keep zero phase.
                f0, f1, _ = block
                last = min(f1, ref_frames)
                if last <= f0:
                    return mag.astype(np.complex128), None
                span = slice(f0 * cfg.hop, (last - 1) * cfg.hop + cfg.frame_len)
                phasors, _ = extract_reference_phase(
                    Waveform(source[span], rate), cfg, layout, target_frames=f1 - f0
                )
                return mag * phasors, None

            return step

        return [reference(source) for source in samples]
    raise ShapeError(f"unknown phase spec {strategy!r}")


def _process_channel(
    job: SrJobSpec, x_lr: Waveform, n_frames: int, magnitude_step, phase_step
) -> tuple[Waveform, GlaTrace | None]:
    """Reconstruct one channel block by block: analyse, predict, estimate,
    recombine and overlap-add each block of frames, then normalise once.
    Griffin-Lim is not frame-local, so it runs as one block of every frame."""
    cfg, layout, rate = job.stft, job.layout, x_lr.sample_rate
    block_frames = n_frames if isinstance(job.phase, GlaPhaseSpec) else None
    out = np.zeros(cfg.output_length(n_frames))
    trace = None
    for block in frame_blocks(n_frames, cfg, block_frames):
        f0, _, span = block
        with _stage("analyze"):
            x = stft_array(x_lr.samples[span], cfg)
            if job.residual_band is ResidualBand.ZERO:
                x[:, layout.k_hi :] = 0.0

        with _stage("magnitude"):
            hfc_mag = magnitude_step(x, block)

        with _stage("phase"):
            hfc, trace = phase_step(x, hfc_mag, block)

        with _stage("recombine"):
            x[:, layout.k_lo : layout.k_hi] = hfc

        with _stage("synthesize"):
            overlap_add(x, out, f0, cfg)
    with _stage("synthesize"):
        out /= _synthesis_denominator(cfg, n_frames)
    return Waveform(out, rate), trace


def _reconstruct(
    job: SrJobSpec, channels: list[Waveform], references: dict
) -> tuple[list[Waveform], GlaTrace | None]:
    """Reconstruct every channel of ``job``'s band-limited input ``channels``.

    ``references`` maps resolved paths to the channel samples of reference
    files already decoded; a reference the job names that is not there yet is
    read and added. Returns the output channels and the first channel's GLA
    trace (None without one).
    """
    rate = channels[0].sample_rate
    with _stage("analyze"):
        n_frames = job.stft.frame_count(len(channels[0]))
    with _stage("magnitude"):
        magnitude_steps = _magnitude_steps(job, n_frames, len(channels), rate, references)
    with _stage("phase"):
        phase_steps = _phase_steps(job, n_frames, len(channels), rate, references)

    outputs: list[Waveform] = []
    first_trace: GlaTrace | None = None
    for index, ch in enumerate(channels):
        wave, trace = _process_channel(
            job, ch, n_frames, magnitude_steps[index], phase_steps[index]
        )
        outputs.append(wave)
        if index == 0:
            first_trace = trace
    return outputs, first_trace


def super_resolve(job: SrJobSpec, trace_path=None) -> Waveform:
    """Run the reconstruction pipeline on a file and write the result.

    Channels are processed independently and written together as float32.
    Each reference file is decoded once per call. Returns the first
    channel's reconstructed waveform. With ``trace_path`` set and a GLA
    phase strategy, the first channel's residual trace is written as CSV.
    """
    with _stage("read-input"):
        channels, _ = wav_read(job.input_path)
    outputs, trace = _reconstruct(job, channels, {})
    with _stage("write-output"):
        wav_write(job.output_path, outputs, SampleDepth.FLOAT32)
        if trace_path is not None and trace is not None:
            trace.to_csv(trace_path)
    return outputs[0]


# ---------------------------------------------------------------------------
# Batch drivers
# ---------------------------------------------------------------------------


def _mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    return EvalReport(
        lsd_hf=float(np.mean([r.lsd_hf for r in reports])),
        lsd_full=float(np.mean([r.lsd_full for r in reports])),
        snr=float(np.mean([r.snr for r in reports])),
        frames_compared=int(round(np.mean([r.frames_compared for r in reports]))),
        band=reports[0].band,
    )


def _evaluate_channels(
    truth_channels: list[Waveform], est_channels: list[Waveform], layout, cfg
) -> EvalReport:
    if len(truth_channels) != len(est_channels):
        raise ShapeError(
            f"channel counts differ: {len(truth_channels)} vs {len(est_channels)}"
        )
    reports = [
        evaluate(t, e, layout, cfg) for t, e in zip(truth_channels, est_channels)
    ]
    return _mean_report(reports)


@dataclass
class PhaseStudyResult:
    rows: list[str]
    means: dict[str, EvalReport]
    snr_anomaly: bool
    skipped: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(EVAL_CSV_HEADER + "\n")
            for row in self.rows:
                fh.write(row + "\n")
            if self.snr_anomaly:
                fh.write(
                    "# snr_anomaly: zero-filled LR baseline mean SNR >= GLA mean SNR "
                    f"({self.means['lr'].snr:.4f} dB vs {self.means['gla'].snr:.4f} dB); "
                    "expected for this task\n"
                )


def _write_float32(path, channels: list[Waveform]) -> list[Waveform]:
    """Write ``channels`` as a float32 WAV and return the samples it holds."""
    wav_write(path, channels, SampleDepth.FLOAT32)
    return [Waveform(ch.samples.astype(np.float32), ch.sample_rate) for ch in channels]


def _study_one_clip(
    clip_path: str,
    workdir: Path,
    cfg: StftConfig,
    lo_hz: float,
    hi_hz: float,
    gla_iterations: int,
) -> dict[str, EvalReport]:
    """Score one clip under every study method. The clip is decoded once, and
    each method scores the float32 samples it writes, exactly what
    ``prepare``, ``sr`` and ``eval`` would read back from those files."""
    workdir.mkdir(parents=True, exist_ok=True)
    stem = Path(clip_path).stem
    truth, _ = wav_read(clip_path)
    layout = BandLayout.from_frequencies(lo_hz, hi_hz, truth[0].sample_rate, cfg)
    lr_path = workdir / f"{stem}_lr.wav"
    lr = _write_float32(lr_path, [lowpass(ch, LowpassSpec(cutoff_hz=lo_hz), cfg) for ch in truth])

    phase_specs: dict[str, PhaseStrategySpec] = {
        "flip": FlipPhaseSpec(),
        "gla": GlaPhaseSpec(
            GlaConfig(layout=layout, iterations=gla_iterations, record_trace=False)
        ),
        "reference": ReferencePhaseSpec(str(clip_path)),
    }
    # The oracle predictor and the reference phase read the clip itself.
    references = {Path(clip_path).resolve(): [ch.samples for ch in truth]}

    reports = {"lr": _evaluate_channels(truth, lr, layout, cfg)}
    for method, phase_spec in phase_specs.items():
        est_path = workdir / f"{stem}_{method}.wav"
        job = SrJobSpec(
            input_path=str(lr_path),
            output_path=str(est_path),
            predictor=OracleSpec(str(clip_path)),
            phase=phase_spec,
            stft=cfg,
            layout=layout,
        )
        # Not bound to a name, so each output is freed before the next method.
        reports[method] = _evaluate_channels(
            truth, _write_float32(est_path, _reconstruct(job, lr, references)[0]), layout, cfg
        )
    return reports


def run_phase_study(
    clips: Sequence[str],
    out,
    cfg: StftConfig = StftConfig(),
    lo_hz: float = 4000.0,
    hi_hz: float = 8000.0,
    gla_iterations: int = 100,
    jobs: int = 1,
) -> PhaseStudyResult:
    """Compare phase strategies with oracle magnitudes over a clip set.

    Each clip is decoded once, band-limited with a brickwall lowpass,
    reconstructed under the flip, Griffin-Lim and reference-phase strategies
    (plus the zero-filled LR baseline) and scored against the original. Writes
    per-clip and mean rows to ``out``; unreadable clips are skipped with a
    warning.
    """
    if not clips:
        raise BwxError("phase study needs at least one clip")

    clips = [str(clip) for clip in clips]
    with tempfile.TemporaryDirectory(prefix="bwx-study-") as tmp:

        def _run(index: int, clip: str) -> dict[str, EvalReport] | None:
            try:
                # One sub-directory per clip so parallel runs cannot collide.
                return _study_one_clip(
                    clip, Path(tmp) / str(index), cfg, lo_hz, hi_hz, gla_iterations
                )
            except Exception as exc:
                logger.warning("skipping clip %s: %s", clip, exc)
                return None

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                results = list(pool.map(_run, range(len(clips)), clips))
        else:
            results = [_run(i, clip) for i, clip in enumerate(clips)]

    per_clip = [(clip, r) for clip, r in zip(clips, results) if r is not None]
    skipped = [clip for clip, r in zip(clips, results) if r is None]
    if not per_clip:
        raise BwxError("all clips failed; nothing to report")

    rows = []
    for clip, reports in per_clip:
        for method in PHASE_STUDY_METHODS:
            rows.append(reports[method].csv_row(clip, method))
    means = {
        method: _mean_report([reports[method] for _, reports in per_clip])
        for method in PHASE_STUDY_METHODS
    }
    for method in PHASE_STUDY_METHODS:
        rows.append(means[method].csv_row("mean", method))

    anomaly = means["lr"].snr >= means["gla"].snr
    if anomaly:
        logger.info(
            "SNR anomaly: LR baseline (%.2f dB) >= GLA (%.2f dB); "
            "time-domain SNR undervalues bandwidth extension here",
            means["lr"].snr,
            means["gla"].snr,
        )
    result = PhaseStudyResult(rows=rows, means=means, snr_anomaly=anomaly, skipped=skipped)
    result.to_csv(out)
    return result


def evaluate_batch(
    pairs: Sequence[tuple[str, str]],
    layout: BandLayout,
    out,
    cfg: StftConfig = StftConfig(),
) -> list[str]:
    """Score (truth, estimate) file pairs; one CSV row per pair plus a mean row.

    Failing pairs are logged and reported as rows with empty metric fields;
    the mean covers the successes. Rows keep the input order.
    """
    rows: list[str] = []
    successes: list[EvalReport] = []
    for truth_path, estimate_path in pairs:
        try:
            report = _evaluate_channels(
                wav_read(truth_path)[0], wav_read(estimate_path)[0], layout, cfg
            )
        except Exception as exc:
            logger.warning("pair (%s, %s) failed: %s", truth_path, estimate_path, exc)
            rows.append(f"{estimate_path},error,,,,")
            continue
        successes.append(report)
        rows.append(report.csv_row(str(estimate_path), "eval"))
    if successes:
        rows.append(_mean_report(successes).csv_row("mean", "eval"))

    with open(out, "w", encoding="utf-8") as fh:
        fh.write(EVAL_CSV_HEADER + "\n")
        for row in rows:
            fh.write(row + "\n")
    return rows
