"""End-to-end spectrogram-recombination pipeline and batch drivers.

``_reconstruct_blocks`` is the one reconstruction core: block by block it
analyses the band-limited input channels, predicts high-band magnitudes,
estimates high-band phase, recombines the bands and resynthesises, reading
samples from a source and handing finished output to a sink, as a path-free
``ReconstructSpec`` says. Sources and sinks are arrays (``reconstruct``, for
the phase study and library callers) or WAV files streamed one block at a
time (``super_resolve``). ``run_phase_study``
reruns the oracle-magnitude phase comparison over a clip set, decoding each
clip once; ``evaluate_batch`` scores truth/estimate file pairs, streaming
them the same way.
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
from typing import Sequence, Union

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
from .metrics import EVAL_CSV_HEADER, EvalReport, _Evaluation
from .phase import GlaConfig, GlaTrace, extract_reference_phase, flip_phase, gla_reconstruct
from .prep import LowpassSpec, lowpass
from .wavio import SampleDepth, wav_header, wav_read, wav_write

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


# Sources give a flow its samples by range, sinks take its output stretch by
# stretch: arrays for the in-memory callers, WAV files for the CLI and batch.


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


class _ArraySink:
    """Output stretches gathered in memory, one list per channel."""

    def begin(self, n_channels: int, n_samples: int) -> None:
        self.parts: list[list[np.ndarray]] = [[] for _ in range(n_channels)]

    def write(self, pieces: list[np.ndarray]) -> None:
        for parts, piece in zip(self.parts, pieces):
            parts.append(piece)

    def waveforms(self, sample_rate: int) -> list[Waveform]:
        return [
            Waveform(parts[0] if len(parts) == 1 else np.concatenate(parts), sample_rate)
            for parts in self.parts
        ]


class _WavSink(contextlib.ExitStack):
    """Float32 WAV output at ``path``, written stretch by stretch through
    `_atomic_output`: the file appears when the ``with`` block ends without
    an error. The first write puts the header in front."""

    def __init__(self, path, sample_rate: int):
        super().__init__()
        self.path = path
        self.sample_rate = sample_rate

    def begin(self, n_channels: int, n_samples: int) -> None:
        self._fh = self.enter_context(_atomic_output(self.path))
        self._header_frames: int | None = n_samples

    def write(self, pieces: list[np.ndarray]) -> None:
        channels = [Waveform(piece, self.sample_rate) for piece in pieces]
        wav_write(self._fh, channels, SampleDepth.FLOAT32, total_frames=self._header_frames)
        self._header_frames = None


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
        self._steps: dict = {}  # source -> number of steps that opened it
        self._last: tuple[tuple, np.ndarray] | None = None

    def open(self, path, n_channels: int):
        """The source of reference ``path``, for one step: the channels given
        for it, or else the WAV file, opened on first use."""
        key = Path(path).resolve()
        if key not in self.sources:
            self.sources[key] = _WavSource(path)
        source = self.sources[key]
        if source.n_channels != n_channels:
            raise ShapeError(
                f"{path}: has {source.n_channels} channels, input has {n_channels}"
            )
        self._steps[source] = self._steps.get(source, 0) + 1
        return source

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
        if self._steps[source] > 1:
            self._last = (key, X)
        return X


def _magnitude_steps(
    spec: ReconstructSpec, n_frames: int, n_channels: int, rate: int, references: _References
) -> list:
    """One step per channel mapping a block of frames (its analysis ``x`` and
    its ``frame_blocks`` triple f0, f1, sample span) to the block's high-band
    magnitudes. Everything that can reject the job is checked here, before
    any block."""
    predictor, cfg, layout = spec.predictor, spec.stft, spec.layout
    if isinstance(predictor, OracleSpec):
        source = references.open(predictor.reference_path, n_channels)
        ref_frames = cfg.frame_count(source.n_samples)
        if ref_frames < n_frames:
            raise LengthError(f"reference yields {ref_frames} frames, {n_frames} required")

        def oracle(channel):
            return lambda x, block: predict_oracle(
                references.stft(source, channel, block[2]), layout
            )

        return [oracle(c) for c in range(n_channels)]
    if isinstance(predictor, BandReplicationSpec):

        def replicate(x, block):
            return predict_band_replication(np.abs(x[:, : layout.k_lo]), layout)

        return [replicate] * n_channels
    if isinstance(predictor, ImportSpec):
        if n_channels != 1:
            raise ShapeError("imported magnitudes only support mono inputs")
        imported = load_magnitude(predictor.path, (n_frames, layout.hfc_width), cfg, rate)
        return [lambda x, block: imported[block[0] : block[1]]]
    raise ShapeError(f"unknown predictor spec {predictor!r}")


def _phase_steps(
    spec: ReconstructSpec, n_frames: int, n_channels: int, references: _References
) -> list:
    """One step per channel mapping a block of frames (its analysis ``x``, its
    high-band magnitudes ``mag`` and its ``frame_blocks`` triple) to the
    block's complex high band and GLA trace (None for the other strategies).
    The reference strategy warns here, once per channel, when the
    reference's frame count differs from the input's."""
    strategy, cfg, layout = spec.phase, spec.stft, spec.layout
    k_lo, k_hi = layout.k_lo, layout.k_hi
    if isinstance(strategy, FlipPhaseSpec):
        return [lambda x, mag, block: (mag * flip_phase(x[:, :k_lo], layout), None)] * n_channels
    if isinstance(strategy, GlaPhaseSpec):

        def gla(x, mag, block):
            # GLA's magnitudes, bins k_lo up, assembled in place: no |residual| temporary.
            magnitude = np.empty((len(x), layout.n_bins - k_lo))
            magnitude[:, : k_hi - k_lo] = mag
            np.abs(x[:, k_hi:], out=magnitude[:, k_hi - k_lo :])
            result, trace = gla_reconstruct(magnitude, x[:, :k_lo], strategy.config, layout, cfg)
            # The loop has already re-imposed ``mag`` on these bins.
            return result.data[:, k_lo:k_hi], trace

        return [gla] * n_channels
    if isinstance(strategy, ReferencePhaseSpec):
        source = references.open(strategy.path, n_channels)
        ref_frames = cfg.frame_count(source.n_samples)
        if ref_frames != n_frames:
            for _ in range(n_channels):
                logger.warning(
                    "%s: reference frame count adjusted to %d", strategy.path, n_frames
                )

        def reference(channel):
            def step(x, mag, block):
                # Frames past the reference's end keep zero phase; the span
                # cut at its end analyses into exactly the frames it has.
                f0, f1, span = block
                if ref_frames <= f0:
                    return mag.astype(np.complex128), None
                X = references.stft(source, channel, span)
                return mag * extract_reference_phase(X, layout, f1 - f0), None

            return step

        return [reference(c) for c in range(n_channels)]
    raise ShapeError(f"unknown phase spec {strategy!r}")


def _reconstruct_blocks(
    spec: ReconstructSpec, source, sink, references: _References
) -> GlaTrace | None:
    """The reconstruction core: read the band-limited input from
    ``source`` one block span at a time and, per channel, analyse, predict,
    estimate, recombine and overlap-add the block's frames. Each stretch of
    output that no later frame touches is normalised and handed to ``sink``
    for every channel at once, so no whole-length signal is held unless a
    source or sink holds one.

    Every check that can reject the job runs before the first block, except
    that the samples of a reference that no block reads (past the input's
    last frame) are checked for non-finite values after the last block.
    Griffin-Lim is not frame-local, so it runs as one block of every frame.
    Returns the first channel's GLA trace (None without one).
    """
    cfg, layout = spec.stft, spec.layout
    n_channels, rate = source.n_channels, source.sample_rate
    with _stage("analyze"):
        n_frames = cfg.frame_count(source.n_samples)
    with _stage("magnitude"):
        magnitude_steps = _magnitude_steps(spec, n_frames, n_channels, rate, references)
    with _stage("phase"):
        phase_steps = _phase_steps(spec, n_frames, n_channels, references)

    with _stage("write-output"):
        sink.begin(n_channels, cfg.output_length(n_frames))
    block_frames = n_frames if isinstance(spec.phase, GlaPhaseSpec) else None
    # Per channel, the overlap-add sums already begun past the last stretch out.
    carries = [np.zeros(0)] * n_channels
    first_trace: GlaTrace | None = None
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
        for channel in range(n_channels):
            with _stage("analyze"):
                x = stft_array(inputs[channel], cfg)
                if spec.residual_band is ResidualBand.ZERO:
                    x[:, layout.k_hi :] = 0.0

            with _stage("magnitude"):
                hfc_mag = magnitude_steps[channel](x, block)

            with _stage("phase"):
                hfc, trace = phase_steps[channel](x, hfc_mag, block)
                if channel == 0:
                    first_trace = trace

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
        with _stage("write-output"):
            sink.write(pieces)
    # Each reference is checked to its end, in the stage that opened it.
    with _stage("magnitude"):
        if isinstance(spec.predictor, OracleSpec):
            references.open(spec.predictor.reference_path, n_channels).check_unread()
    with _stage("phase"):
        if isinstance(spec.phase, ReferencePhaseSpec):
            references.open(spec.phase.path, n_channels).check_unread()
    return first_trace


def reconstruct(
    spec: ReconstructSpec,
    channels: Sequence[Waveform],
    references: dict | None = None,
) -> tuple[list[Waveform], GlaTrace | None]:
    """Reconstruct every channel of the band-limited input ``channels`` in
    memory.

    ``references`` maps a path that ``spec`` names (the oracle's or the
    reference phase's) to that file's channels, already in memory; a named
    path that is not there is read from its file one block span at a time.
    Returns the output channels and the first channel's GLA trace (None
    without one).
    """
    sink = _ArraySink()
    trace = _reconstruct_blocks(
        spec, _ArraySource(channels), sink, _References(spec.stft, references or {})
    )
    return sink.waveforms(channels[0].sample_rate), trace


def super_resolve(spec: ReconstructSpec, input_path, output_path, trace_path=None) -> None:
    """Reconstruct the WAV file ``input_path`` into ``output_path``.

    Channels are processed independently and written together as float32.
    The input and every reference are read one block span at a time, and
    each finished stretch of output is appended to a temporary file beside
    the output, which replaces the output path only after the last block; a
    failure leaves no partial file. With ``trace_path`` set and a GLA phase
    strategy, the first channel's residual trace is written as CSV.
    """
    if Path(input_path).resolve() == Path(output_path).resolve():
        raise ShapeError("input and output paths must be distinct")
    with _stage("read-input"):
        source = _WavSource(input_path)
    with _WavSink(output_path, source.sample_rate) as sink:
        trace = _reconstruct_blocks(spec, source, sink, _References(spec.stft, {}))
    if trace_path is not None and trace is not None:
        with _stage("write-output"):
            trace.to_csv(trace_path)


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
        "gla": GlaPhaseSpec(GlaConfig(iterations=gla_iterations, record_trace=False)),
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
            _ArraySource(_write_float32(est_path, reconstruct(spec, lr, references)[0])),
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
            report = _evaluate_sources(
                _WavSource(truth_path), _WavSource(estimate_path), layout, cfg
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
