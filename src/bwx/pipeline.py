"""End-to-end spectrogram-recombination pipeline and batch drivers.

``super_resolve`` executes the seven-step reconstruction: analyse the
band-limited input, predict high-band magnitudes, estimate high-band phase,
recombine the bands and resynthesise. ``run_phase_study`` reruns the
oracle-magnitude phase comparison over a clip set; ``evaluate_batch`` scores
truth/estimate file pairs.
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
    PhaseSpectrogram,
    StftConfig,
    Waveform,
    _synthesis_denominator,
    frame_blocks,
    overlap_add,
    stft_array,
    wrap_phase,
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
from .prep import LowpassSpec, make_pair
from .wavio import SampleDepth, wav_read, wav_sample_rate, wav_write

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
    stft: StftConfig = StftConfig()
    layout: BandLayout | None = None
    residual_band: ResidualBand = ResidualBand.PASSTHROUGH

    def __post_init__(self) -> None:
        if Path(self.input_path).resolve() == Path(self.output_path).resolve():
            raise ShapeError("input and output paths must be distinct")
        if self.layout is not None and self.layout.n_bins != self.stft.n_bins:
            raise ShapeError(
                f"layout covers {self.layout.n_bins} bins, STFT config has {self.stft.n_bins}"
            )
        if isinstance(self.phase, GlaPhaseSpec) and self.layout is not None:
            if self.phase.config.layout != self.layout:
                raise ShapeError("GLA config layout disagrees with the job layout")


@contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


def _read_references(path, n_channels: int, cache: dict) -> list[np.ndarray]:
    """Samples of every channel of a reference file, decoded once per job:
    ``cache`` maps resolved paths to channels already read."""
    key = Path(path).resolve()
    if key not in cache:
        channels, _ = wav_read(path)
        if len(channels) != n_channels:
            raise ShapeError(
                f"{path}: has {len(channels)} channels, input has {n_channels}"
            )
        cache[key] = [ch.samples for ch in channels]
    return cache[key]


def _resolve_layout(job: SrJobSpec, sample_rate: int) -> BandLayout:
    if job.layout is not None:
        return job.layout
    return BandLayout.from_frequencies(4000.0, 8000.0, sample_rate, job.stft)


def _magnitude_sources(
    job: SrJobSpec,
    layout: BandLayout,
    n_frames: int,
    n_channels: int,
    sample_rate: int,
    cache: dict,
) -> list:
    """Per channel, what the predictor reads block by block: the reference
    samples (oracle), the imported magnitude rows (import) or nothing (SBR).
    Everything that can reject the job is checked here, before any block."""
    predictor = job.predictor
    if isinstance(predictor, OracleSpec):
        references = _read_references(predictor.reference_path, n_channels, cache)
        ref_frames = job.stft.frame_count(len(references[0]))
        if ref_frames < n_frames:
            raise LengthError(f"reference yields {ref_frames} frames, {n_frames} required")
        return references
    if isinstance(predictor, BandReplicationSpec):
        return [None] * n_channels
    if isinstance(predictor, ImportSpec):
        if n_channels != 1:
            raise ShapeError("imported magnitudes only support mono inputs")
        imported = load_magnitude(
            predictor.path,
            (n_frames, layout.hfc_width),
            cfg=job.stft,
            sample_rate=sample_rate,
        )
        return [imported.data]
    raise ShapeError(f"unknown predictor spec {predictor!r}")


def _phase_sources(job: SrJobSpec, n_frames: int, n_channels: int, cache: dict) -> list:
    """Per channel, the reference samples of the reference strategy, else
    nothing. Warns once per channel when the reference's frame count differs
    from the input's."""
    strategy = job.phase
    if not isinstance(strategy, ReferencePhaseSpec):
        return [None] * n_channels
    references = _read_references(strategy.path, n_channels, cache)
    if job.stft.frame_count(len(references[0])) != n_frames:
        for _ in range(n_channels):
            logger.warning(
                "%s: reference frame count adjusted to %d", strategy.path, n_frames
            )
    return references


def _predict_magnitude(
    job: SrJobSpec, x: np.ndarray, layout: BandLayout, source, block: tuple, sample_rate: int
) -> np.ndarray:
    """High-band magnitudes of one block of frames (``frame_blocks``' f0, f1
    and sample span), whose analysis is ``x``."""
    predictor = job.predictor
    f0, f1, span = block
    if isinstance(predictor, OracleSpec):
        return predict_oracle(Waveform(source[span], sample_rate), job.stft, layout).data
    if isinstance(predictor, BandReplicationSpec):
        lfc_mag = MagnitudeSpectrogram(np.abs(x[:, : layout.k_lo]), job.stft, sample_rate)
        return predict_band_replication(lfc_mag, layout, predictor).data
    return source[f0:f1]


def _estimate_phase(
    job: SrJobSpec,
    x: np.ndarray,
    hfc_mag: np.ndarray,
    layout: BandLayout,
    source,
    block: tuple,
    sample_rate: int,
) -> tuple[np.ndarray, GlaTrace | None]:
    """High-band phase of one block of frames, whose analysis is ``x``."""
    strategy = job.phase
    cfg = job.stft
    f0, f1, _ = block
    if isinstance(strategy, FlipPhaseSpec):
        lfc_phase = PhaseSpectrogram(
            wrap_phase(np.angle(x[:, : layout.k_lo])), cfg, sample_rate
        )
        return flip_phase(lfc_phase, layout).data, None
    if isinstance(strategy, GlaPhaseSpec):
        full = np.hstack(
            [np.abs(x[:, : layout.k_lo]), hfc_mag, np.abs(x[:, layout.k_hi :])]
        )
        full_mag = MagnitudeSpectrogram(full, cfg, sample_rate)
        lfc = ComplexSpectrogram(x[:, : layout.k_lo], cfg, sample_rate)
        result, trace = gla_reconstruct(full_mag, lfc, strategy.config)
        return wrap_phase(np.angle(result.data[:, layout.k_lo : layout.k_hi])), trace
    # Reference phase: frames past the reference's end keep zero phase.
    last = min(f1, cfg.frame_count(len(source)))
    if last <= f0:
        return np.zeros((f1 - f0, layout.hfc_width)), None
    span = slice(f0 * cfg.hop, (last - 1) * cfg.hop + cfg.frame_len)
    phase, _ = extract_reference_phase(
        Waveform(source[span], sample_rate), cfg, layout, target_frames=f1 - f0
    )
    return phase.data, None


def _process_channel(
    job: SrJobSpec,
    x_lr: Waveform,
    layout: BandLayout,
    n_frames: int,
    magnitude_source,
    phase_source,
) -> tuple[Waveform, GlaTrace | None]:
    """Reconstruct one channel block by block: analyse, predict, estimate,
    recombine and overlap-add each block of frames, then normalise once.
    Griffin-Lim is not frame-local, so it runs as one block of every frame."""
    cfg, rate = job.stft, x_lr.sample_rate
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
            hfc_mag = _predict_magnitude(job, x, layout, magnitude_source, block, rate)

        with _stage("phase"):
            hfc_phase, trace = _estimate_phase(
                job, x, hfc_mag, layout, phase_source, block, rate
            )

        with _stage("recombine"):
            x[:, layout.k_lo : layout.k_hi] = hfc_mag * np.exp(1j * hfc_phase)

        with _stage("synthesize"):
            overlap_add(x, out, f0, cfg)
    with _stage("synthesize"):
        out /= _synthesis_denominator(cfg, n_frames)
    return Waveform(out, rate), trace


def super_resolve(job: SrJobSpec, trace_path=None) -> Waveform:
    """Run the reconstruction pipeline on a file and write the result.

    Channels are processed independently and written together as float32.
    Each reference file is decoded once per call. Returns the first
    channel's reconstructed waveform. With ``trace_path`` set and a GLA
    phase strategy, the first channel's residual trace is written as CSV.
    """
    with _stage("read-input"):
        channels, _ = wav_read(job.input_path)
    rate = channels[0].sample_rate
    layout = _resolve_layout(job, rate)
    with _stage("analyze"):
        n_frames = job.stft.frame_count(len(channels[0]))
    references: dict = {}
    with _stage("magnitude"):
        magnitude_sources = _magnitude_sources(
            job, layout, n_frames, len(channels), rate, references
        )
    with _stage("phase"):
        phase_sources = _phase_sources(job, n_frames, len(channels), references)

    outputs: list[Waveform] = []
    first_trace: GlaTrace | None = None
    for index, ch in enumerate(channels):
        wave, trace = _process_channel(
            job, ch, layout, n_frames, magnitude_sources[index], phase_sources[index]
        )
        outputs.append(wave)
        if index == 0:
            first_trace = trace

    with _stage("write-output"):
        wav_write(job.output_path, outputs, SampleDepth.FLOAT32)
        if trace_path is not None and first_trace is not None:
            first_trace.to_csv(trace_path)
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


def _evaluate_channels(truth_path, estimate_path, layout, cfg) -> EvalReport:
    truth_channels, _ = wav_read(truth_path)
    est_channels, _ = wav_read(estimate_path)
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


def _study_one_clip(
    clip_path: str,
    workdir: Path,
    cfg: StftConfig,
    lo_hz: float,
    hi_hz: float,
    gla_iterations: int,
) -> dict[str, EvalReport]:
    workdir.mkdir(parents=True, exist_ok=True)
    stem = Path(clip_path).stem
    lr_path = workdir / f"{stem}_lr.wav"
    make_pair(clip_path, lr_path, LowpassSpec(cutoff_hz=lo_hz), cfg)

    sample_rate = wav_sample_rate(clip_path)
    layout = BandLayout.from_frequencies(lo_hz, hi_hz, sample_rate, cfg)

    phase_specs: dict[str, PhaseStrategySpec] = {
        "flip": FlipPhaseSpec(),
        "gla": GlaPhaseSpec(
            GlaConfig(layout=layout, iterations=gla_iterations, record_trace=False)
        ),
        "reference": ReferencePhaseSpec(str(clip_path)),
    }

    reports: dict[str, EvalReport] = {}
    reports["lr"] = _evaluate_channels(clip_path, lr_path, layout, cfg)
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
        super_resolve(job)
        reports[method] = _evaluate_channels(clip_path, est_path, layout, cfg)
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

    Each clip is band-limited with a brickwall lowpass, reconstructed under
    the flip, Griffin-Lim and reference-phase strategies (plus the zero-filled
    LR baseline) and scored against the original. Writes per-clip and mean
    rows to ``out``; unreadable clips are skipped with a warning.
    """
    if not clips:
        raise BwxError("phase study needs at least one clip")

    per_clip: list[tuple[str, dict[str, EvalReport]]] = []
    skipped: list[str] = []
    with tempfile.TemporaryDirectory(prefix="bwx-study-") as tmp:
        workdir = Path(tmp)

        def _run(index: int, clip: str):
            # One sub-directory per clip so parallel runs cannot collide.
            return _study_one_clip(
                clip, workdir / str(index), cfg, lo_hz, hi_hz, gla_iterations
            )

        if jobs > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [
                    (clip, pool.submit(_run, i, str(clip)))
                    for i, clip in enumerate(clips)
                ]
                for clip, future in futures:
                    try:
                        per_clip.append((str(clip), future.result()))
                    except Exception as exc:
                        logger.warning("skipping clip %s: %s", clip, exc)
                        skipped.append(str(clip))
        else:
            for i, clip in enumerate(clips):
                try:
                    per_clip.append((str(clip), _run(i, str(clip))))
                except Exception as exc:
                    logger.warning("skipping clip %s: %s", clip, exc)
                    skipped.append(str(clip))

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
            report = _evaluate_channels(truth_path, estimate_path, layout, cfg)
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
