"""End-to-end spectrogram-recombination pipeline and batch drivers.

``_reconstruct_blocks`` is the one reconstruction core: block by block it
analyses the band-limited input channels, predicts high-band magnitudes,
estimates high-band phase, recombines the bands and resynthesises, reading
samples from a source and returning the finished output stretch by stretch,
as a path-free ``ReconstructSpec`` says. ``reconstruct`` runs it on arrays
(for the phase study and library callers) and ``super_resolve`` on WAV files
read and written one block at a time. ``run_phase_study`` reruns the
oracle-magnitude phase comparison over a clip set, decoding each clip once;
``evaluate_batch`` scores truth/estimate file pairs, streaming them the same
way. Every CSV goes through ``_write_csv``.
"""

from __future__ import annotations

import contextlib
import enum
import logging
import os
import shutil
import tempfile
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dsp import (
    BandLayout,
    StftConfig,
    Waveform,
    _synthesis_denominator,
    frame_blocks,
    overlap_add,
    stft_array,
)
from .errors import BwxError, DomainError, LengthError, PipelineError, ShapeError
from .magnitude import (
    BandReplicationSpec,
    ImportSpec,
    MagnitudePredictorSpec,
    OracleSpec,
    load_magnitude,
    predict_band_replication,
    predict_oracle,
)
from .metrics import EVAL_CSV_HEADER, EvalReport, _Evaluation
from .phase import (
    FlipPhaseSpec,
    GlaConfig,
    PhaseStrategySpec,
    ReferencePhaseSpec,
    extract_reference_phase,
    flip_phase,
    gla_reconstruct,
)
from .prep import LowpassSpec, lowpass
from .wavio import SampleDepth, wav_header, wav_read, wav_write

logger = logging.getLogger("bwx")

PHASE_STUDY_METHODS = ("lr", "flip", "gla", "reference")


class ResidualBand(enum.Enum):
    """What to do with bins above the high band: keep the input's or zero them."""

    PASSTHROUGH = "pass"
    ZERO = "zero"


@dataclass(frozen=True)
class ReconstructSpec:
    """How to reconstruct: the high-band magnitude predictor and phase
    strategy, the band layout, the STFT and what happens to bins above the
    high band. The input and output are the caller's; only the predictor and
    the phase strategy may name (reference) files."""

    predictor: MagnitudePredictorSpec
    phase: PhaseStrategySpec
    layout: BandLayout
    stft: StftConfig = StftConfig()
    residual_band: ResidualBand = ResidualBand.PASSTHROUGH

    def __post_init__(self) -> None:
        if self.layout.n_bins != self.stft.n_bins:
            raise ShapeError(
                f"layout covers {self.layout.n_bins} bins, STFT config has {self.stft.n_bins}"
            )


@contextlib.contextmanager
def _stage(name: str):
    try:
        yield
    except PipelineError:
        raise
    except Exception as exc:
        raise PipelineError(name, exc) from exc


@contextlib.contextmanager
def _atomic_output(path):
    """Open a new temporary binary file beside ``path`` and move it over
    ``path`` once the block completes. A symlink at ``path`` is followed, so
    its target is replaced, and an existing file's permission bits carry over
    (its owner and other hard links do not). On an error the temporary file
    is removed, so no partial file appears and an existing ``path`` is
    untouched."""
    path = Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        if path.exists():
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# Sources give a flow its samples by range: arrays for the in-memory callers,
# WAV files for the CLI and batch.


class _ArraySource:
    """Channels held in memory, read by sample range without copying."""

    def __init__(self, channels: Sequence[Waveform]):
        self.channels = channels
        self.n_channels = len(channels)
        self.n_samples = len(channels[0])
        self.sample_rate = channels[0].sample_rate

    def read(self, start: int, stop: int) -> list[np.ndarray]:
        return [ch.samples[start:stop] for ch in self.channels]

    def check_unread(self) -> None:
        """Nothing to do: `Waveform` checked the samples when it was made."""


# Frames decoded per read when `_WavSource.check_unread` walks a file's tail.
_CHECK_FRAMES = 1 << 16


class _WavSource:
    """A WAV file read by sample range. Its header is read on construction;
    the last range read is kept, so steps that need the same range of one
    file in one block read it once. Flows read ranges in ascending, touching
    or overlapping order, so the samples read so far are one prefix of the
    file, ``[0, checked)``."""

    def __init__(self, path):
        self.path = path
        header = wav_header(path)
        self.n_channels = header.n_channels
        self.n_samples = header.frames
        self.sample_rate = header.sample_rate
        self._last: tuple[tuple[int, int], list[np.ndarray]] | None = None
        self.checked = 0

    def read(self, start: int, stop: int) -> list[np.ndarray]:
        if self._last is None or self._last[0] != (start, stop):
            channels, _ = wav_read(self.path, start, stop)
            self._last = ((start, stop), [ch.samples for ch in channels])
            if start <= self.checked:
                self.checked = max(self.checked, min(stop, self.n_samples))
        return self._last[1]

    def check_unread(self) -> None:
        """Decode the samples past ``checked`` a chunk at a time, so a
        non-finite sample anywhere in the file raises `DomainError` as a
        whole read would, though the flow had no use for it."""
        for start in range(self.checked, self.n_samples, _CHECK_FRAMES):
            wav_read(self.path, start, start + _CHECK_FRAMES)
        self.checked = self.n_samples


class _References:
    """The reference files a job reads, keyed by resolved path so each is
    opened once. For a file that two steps read (oracle magnitudes and
    reference phase), the STFT of a block span is kept from the first step's
    read to the second's, so each block and channel of it is analysed once.
    Nothing else is kept, so a whole-file analysis is not held through
    Griffin-Lim and no block's outlives its use."""

    def __init__(self, cfg: StftConfig, arrays: dict):
        self.cfg = cfg
        self.sources = {Path(path).resolve(): _ArraySource(chs) for path, chs in arrays.items()}
        self._stages: dict = {}  # source -> stages of the steps that opened it
        self._last: tuple[tuple, np.ndarray] | None = None

    def open(self, path, inputs, stage: str):
        """The source of reference ``path``, for the step of ``stage``: the
        channels given for it, or else the WAV file, opened on first use. Its
        channel count and sample rate must be those of the input source."""
        key = Path(path).resolve()
        if key not in self.sources:
            self.sources[key] = _WavSource(path)
        source = self.sources[key]
        if source.n_channels != inputs.n_channels:
            raise ShapeError(
                f"{path}: has {source.n_channels} channels, input has {inputs.n_channels}"
            )
        if source.sample_rate != inputs.sample_rate:
            raise ShapeError(
                f"{path}: sample rate {source.sample_rate} Hz, input has {inputs.sample_rate} Hz"
            )
        self._stages.setdefault(source, []).append(stage)
        return source

    def check_unread(self) -> None:
        """Check every opened source to its end, in its first opener's stage."""
        for source, stages in self._stages.items():
            with _stage(stages[0]):
                source.check_unread()

    def stft(self, source, channel: int, span: slice) -> np.ndarray:
        """STFT of one channel of ``source`` over a block's sample span, cut
        at the source's end."""
        key = (source, channel, span.start, span.stop)
        if self._last is not None and self._last[0] == key:
            X, self._last = self._last[1], None  # the second step's read is the last
            return X
        self._last = None  # freed before the next analysis is allocated
        samples = source.read(span.start, min(span.stop, source.n_samples))[channel]
        X = stft_array(samples, self.cfg)
        if len(self._stages[source]) > 1:
            self._last = (key, X)
        return X


def _magnitude_step(spec: ReconstructSpec, n_frames: int, inputs, references: _References):
    """The step mapping a channel's block of frames (the channel, its
    analysis ``x`` and its ``frame_blocks`` triple f0, f1, sample span) to the
    block's high-band magnitudes. Everything that can reject the job is
    checked here, before any block."""
    predictor, cfg, layout = spec.predictor, spec.stft, spec.layout
    if isinstance(predictor, OracleSpec):
        source = references.open(predictor.reference_path, inputs, "magnitude")
        ref_frames = cfg.frame_count(source.n_samples)
        if ref_frames < n_frames:
            raise LengthError(f"reference yields {ref_frames} frames, {n_frames} required")
        return lambda channel, x, block: predict_oracle(
            references.stft(source, channel, block[2]), layout
        )
    if isinstance(predictor, BandReplicationSpec):
        return lambda channel, x, block: predict_band_replication(
            np.abs(x[:, : layout.k_lo]), layout
        )
    if isinstance(predictor, ImportSpec):
        if inputs.n_channels != 1:
            raise ShapeError("imported magnitudes only support mono inputs")
        imported = load_magnitude(
            predictor.path, (n_frames, layout.hfc_width), cfg, inputs.sample_rate
        )
        return lambda channel, x, block: imported[block[0] : block[1]]
    raise ShapeError(f"unknown predictor spec {predictor!r}")


def _phase_step(
    spec: ReconstructSpec, n_frames: int, inputs, references: _References, traces: list | None
):
    """The step mapping a channel's block of frames (the channel, its
    analysis ``x``, its high-band magnitudes ``mag`` and its ``frame_blocks``
    triple) to the block's complex high band. Given a ``traces`` list, GLA
    records the first channel's residuals and appends them to it. The
    reference strategy warns here, once per channel, when the reference's
    frame count differs from the input's."""
    strategy, cfg, layout = spec.phase, spec.stft, spec.layout
    k_lo, k_hi = layout.k_lo, layout.k_hi
    if isinstance(strategy, FlipPhaseSpec):
        return lambda channel, x, mag, block: mag * flip_phase(x[:, :k_lo], layout)
    if isinstance(strategy, GlaConfig):

        def gla(channel, x, mag, block):
            # GLA's magnitudes, bins k_lo up, assembled in place: no |residual| temporary.
            magnitude = np.empty((len(x), layout.n_bins - k_lo))
            magnitude[:, : k_hi - k_lo] = mag
            np.abs(x[:, k_hi:], out=magnitude[:, k_hi - k_lo :])
            record = traces is not None and channel == 0
            result, residuals = gla_reconstruct(
                magnitude, x[:, :k_lo], strategy, layout, cfg, record_trace=record
            )
            if record:
                traces.append(residuals)
            # The loop has already re-imposed ``mag`` on these bins.
            return result.data[:, k_lo:k_hi]

        return gla
    if isinstance(strategy, ReferencePhaseSpec):
        source = references.open(strategy.path, inputs, "phase")
        ref_frames = cfg.frame_count(source.n_samples)
        if ref_frames != n_frames:
            for _ in range(inputs.n_channels):
                logger.warning(
                    "%s: reference frame count adjusted to %d", strategy.path, n_frames
                )

        def reference(channel, x, mag, block):
            # Frames past the reference's end keep zero phase; the span
            # cut at its end analyses into exactly the frames it has.
            f0, f1, span = block
            if ref_frames <= f0:
                return mag.astype(np.complex128)
            X = references.stft(source, channel, span)
            return mag * extract_reference_phase(X, layout, f1 - f0)

        return reference
    raise ShapeError(f"unknown phase spec {strategy!r}")


def _reconstruct_blocks(
    spec: ReconstructSpec, source, references: _References, traces: list | None = None
) -> tuple[int, Iterator[list[np.ndarray]]]:
    """The reconstruction core. Every check that can reject the job runs
    when it is called; it returns the output length and a generator that
    reads the band-limited input from ``source`` one block span at a time
    and, per channel, analyses, predicts, estimates, recombines and
    overlap-adds the block's frames. For each stretch of output that no
    later frame touches it yields the normalised float64 stretch of every
    channel, so no whole-length signal is held unless a source or the caller
    holds one.

    After the last block, the generator checks the samples of a reference
    that no block read (past the input's last frame) for non-finite values.
    Griffin-Lim is not frame-local, so it runs as one block of every frame.
    Given a ``traces`` list, the GLA strategy appends the first channel's
    residuals to it.
    """
    cfg, layout = spec.stft, spec.layout
    with _stage("analyze"):
        n_frames = cfg.frame_count(source.n_samples)
    with _stage("magnitude"):
        magnitude_step = _magnitude_step(spec, n_frames, source, references)
    with _stage("phase"):
        phase_step = _phase_step(spec, n_frames, source, references, traces)

    def blocks():
        block_frames = n_frames if isinstance(spec.phase, GlaConfig) else None
        # Per channel, the overlap-add sums already begun past the last stretch out.
        carries = [np.zeros(0)] * source.n_channels
        for block in frame_blocks(n_frames, cfg, block_frames):
            f0, f1, span = block
            last = f1 == n_frames
            # No later frame reaches below f1 * hop; the last block ends the output.
            done = span.stop if last else f1 * cfg.hop
            with _stage("read-input"):
                # The last block also reads the input's tail past its last frame
                # (under one hop), so every input sample is checked.
                inputs = source.read(span.start, source.n_samples if last else span.stop)
            with _stage("synthesize"):
                denominator = _synthesis_denominator(cfg, n_frames, span.start, done)
            pieces = []
            for channel in range(source.n_channels):
                with _stage("analyze"):
                    x = stft_array(inputs[channel], cfg)
                    if spec.residual_band is ResidualBand.ZERO:
                        x[:, layout.k_hi :] = 0.0

                with _stage("magnitude"):
                    hfc_mag = magnitude_step(channel, x, block)

                with _stage("phase"):
                    hfc = phase_step(channel, x, hfc_mag, block)

                with _stage("recombine"):
                    x[:, layout.k_lo : layout.k_hi] = hfc

                with _stage("synthesize"):
                    out = np.zeros(span.stop - span.start)
                    carry = carries[channel]
                    out[: len(carry)] = carry
                    overlap_add(x, out, 0, cfg)
                    carries[channel] = out[done - span.start :]
                    piece = out[: done - span.start]
                    piece /= denominator
                pieces.append(piece)
            yield pieces
        references.check_unread()

    return cfg.output_length(n_frames), blocks()


def reconstruct(
    spec: ReconstructSpec,
    channels: Sequence[Waveform],
    references: dict | None = None,
) -> list[Waveform]:
    """Reconstruct every channel of the band-limited input ``channels`` in
    memory and return the output channels.

    ``references`` maps a path that ``spec`` names (the oracle's or the
    reference phase's) to that file's channels, already in memory; a named
    path that is not there is read from its file one block span at a time.
    """
    _, blocks = _reconstruct_blocks(
        spec, _ArraySource(channels), _References(spec.stft, references or {})
    )
    rate = channels[0].sample_rate
    return [Waveform(np.concatenate(parts), rate) for parts in zip(*blocks)]


def super_resolve(spec: ReconstructSpec, input_path, output_path, trace_path=None) -> None:
    """Reconstruct the WAV file ``input_path`` into ``output_path``.

    Channels are processed independently and written together as float32.
    The input and every reference are read one block span at a time, and
    each finished stretch of output is appended to a temporary file beside
    the output, which replaces the output path only after the last block; a
    failure leaves no partial file. With ``trace_path`` set and a GLA phase
    strategy, the first channel's residuals are recorded and written there as
    ``iteration,residual`` CSV rows, each residual in decimal notation with at
    least 9 significant digits.
    """
    if Path(input_path).resolve() == Path(output_path).resolve():
        raise ShapeError("input and output paths must be distinct")
    with _stage("read-input"):
        source = _WavSource(input_path)
    traces = [] if trace_path is not None else None
    total, blocks = _reconstruct_blocks(spec, source, _References(spec.stft, {}), traces)
    with _stage("write-output"), _atomic_output(output_path) as fh:
        for pieces in blocks:
            channels = [Waveform(piece, source.sample_rate) for piece in pieces]
            wav_write(fh, channels, SampleDepth.FLOAT32, total_frames=total)
            total = None  # only the first write puts the header in front
    if traces:
        rows = (
            f"{i},{np.format_float_positional(r, precision=9, unique=False, fractional=False)}"
            for i, r in enumerate(traces[0])
        )
        with _stage("write-output"):
            _write_csv(trace_path, ["iteration,residual", *rows])


def _write_csv(path, lines) -> None:
    """Write ``lines``, the header first, each ended by a newline, as UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Batch drivers
# ---------------------------------------------------------------------------


def _mean_report(reports: Sequence[EvalReport]) -> EvalReport:
    return EvalReport(
        lsd_hf=float(np.mean([r.lsd_hf for r in reports])),
        lsd_full=float(np.mean([r.lsd_full for r in reports])),
        snr=float(np.mean([r.snr for r in reports])),
        frames_compared=int(round(np.mean([r.frames_compared for r in reports]))),
    )


def _evaluate_sources(truth, estimate, layout: BandLayout, cfg: StftConfig) -> EvalReport:
    """Score every channel of ``estimate`` against ``truth``, reading both one
    block span at a time, and average the channel reports."""
    if truth.n_channels != estimate.n_channels:
        raise ShapeError(
            f"channel counts differ: {truth.n_channels} vs {estimate.n_channels}"
        )
    n = min(truth.n_samples, estimate.n_samples)
    rates = (truth.sample_rate, estimate.sample_rate)
    evaluations = [_Evaluation(n, rates, layout, cfg) for _ in range(truth.n_channels)]
    n_frames = evaluations[0].n_frames
    for block in frame_blocks(n_frames, cfg):
        _, f1, span = block
        # The last block also reads the tail past the last frame, up to n.
        stop = n if f1 == n_frames else span.stop
        pairs = zip(truth.read(span.start, stop), estimate.read(span.start, stop))
        for evaluation, (t, e) in zip(evaluations, pairs):
            evaluation.add(block, t, e)
    # Past n only the longer file has samples; they are checked all the same.
    truth.check_unread()
    estimate.check_unread()
    return _mean_report([evaluation.report() for evaluation in evaluations])


@dataclass
class PhaseStudyResult:
    rows: list[str]
    means: dict[str, EvalReport]
    snr_anomaly: bool
    skipped: list[str] = field(default_factory=list)


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
        "gla": GlaConfig(iterations=gla_iterations),
        "reference": ReferencePhaseSpec(str(clip_path)),
    }
    # The oracle predictor and the reference phase read the clip itself.
    references = {clip_path: truth}
    clip = _ArraySource(truth)

    reports = {"lr": _evaluate_sources(clip, _ArraySource(lr), layout, cfg)}
    for method, phase_spec in phase_specs.items():
        est_path = workdir / f"{stem}_{method}.wav"
        spec = ReconstructSpec(OracleSpec(str(clip_path)), phase_spec, layout, cfg)
        # Not bound to a name, so each output is freed before the next method.
        reports[method] = _evaluate_sources(
            clip,
            _ArraySource(_write_float32(est_path, reconstruct(spec, lr, references))),
            layout,
            cfg,
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
    if jobs < 1:
        raise DomainError(f"jobs must be >= 1, got {jobs}")

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

    lines = [EVAL_CSV_HEADER, *rows]
    anomaly = means["lr"].snr >= means["gla"].snr
    if anomaly:
        logger.info(
            "SNR anomaly: LR baseline (%.2f dB) >= GLA (%.2f dB); "
            "time-domain SNR undervalues bandwidth extension here",
            means["lr"].snr,
            means["gla"].snr,
        )
        lines.append(
            "# snr_anomaly: zero-filled LR baseline mean SNR >= GLA mean SNR "
            f"({means['lr'].snr:.4f} dB vs {means['gla'].snr:.4f} dB); expected for this task"
        )
    _write_csv(out, lines)
    return PhaseStudyResult(rows=rows, means=means, snr_anomaly=anomaly, skipped=skipped)


def evaluate_batch(
    pairs: Sequence[tuple[str, str]],
    layout: BandLayout,
    out,
    cfg: StftConfig = StftConfig(),
) -> list[str]:
    """Score (truth, estimate) file pairs; one CSV row per pair plus a mean row.

    Failing pairs are logged and reported as rows with empty metric fields;
    the mean covers the successes. Rows keep the input order. When every pair
    fails, the first failure's exception is raised and no CSV is written.
    """
    rows: list[str] = []
    successes: list[EvalReport] = []
    first_failure: Exception | None = None
    for truth_path, estimate_path in pairs:
        try:
            report = _evaluate_sources(
                _WavSource(truth_path), _WavSource(estimate_path), layout, cfg
            )
        except Exception as exc:
            logger.warning("pair (%s, %s) failed: %s", truth_path, estimate_path, exc)
            first_failure = first_failure or exc
            rows.append(f"{estimate_path},error,,,,")
            continue
        successes.append(report)
        rows.append(report.csv_row(str(estimate_path), "eval"))
    if first_failure is not None and not successes:
        raise first_failure
    if successes:
        rows.append(_mean_report(successes).csv_row("mean", "eval"))
    _write_csv(out, [EVAL_CSV_HEADER, *rows])
    return rows
