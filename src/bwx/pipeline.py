"""End-to-end spectrogram-recombination pipeline and batch drivers.

``_reconstruct_blocks`` is the one reconstruction core: block by block of
the padded frame grid (``dsp.resynthesize``) it analyses the band-limited
input channels, predicts high-band magnitudes, estimates high-band phase,
recombines the bands and resynthesises, as a path-free ``ReconstructSpec``
says, and returns the finished output stretch by stretch, exactly as long as
the input. Only the high band is rebuilt: the low band and the bins above it
keep the input's analysis. Griffin-Lim is not frame-local, so
``_gla_channels`` runs it instead: one pass over the blocks keeps each
channel's high-band magnitudes and the overlap-add of every other bin, and
GLA re-estimates each channel's band alone onto that signal, from a
zero-phase start made only when that channel's GLA begins, so no grid-sized
complex spectrogram is held.

The core and the scoring walk read each source in one forward pass of block
spans: arrays (``dsp._ArraySource``) for ``reconstruct``, WAV files
(``wavio._WavSource``) for ``super_resolve``, ``evaluate_batch`` and
``run_phase_study``, which reruns the oracle-magnitude phase comparison over
a clip set, at the paper's 4-8 kHz band and 2048/256 STFT, through the files
the CLI flows write. Every CSV goes through ``_write_csv``, and every file,
WAV or CSV, through ``wavio._atomic_output``, so it appears whole or not at
all.
"""

from __future__ import annotations

import contextlib
import logging
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dsp import (
    BAND_HI_HZ,
    BAND_LO_HZ,
    BandLayout,
    StftConfig,
    Waveform,
    _ArraySource,
    _normalise,
    _whole_channels,
    frame_blocks,
    overlap_add,
    padded_grid,
    read_padded,
    resynthesize,
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
from .metrics import EVAL_CSV_HEADER, EvalReport, _evaluate_sources, _mean_report
from .phase import (
    FlipPhaseSpec,
    GlaConfig,
    PhaseStrategySpec,
    ReferencePhaseSpec,
    _gla_band,
    _pinned_sums,
    extract_reference_phase,
    flip_phase,
)
from .prep import make_pair
from .wavio import SampleDepth, _atomic_output, _WavSource, wav_write

logger = logging.getLogger("bwx")

PHASE_STUDY_METHODS = ("lr", "flip", "gla", "reference")


@dataclass(frozen=True)
class ReconstructSpec:
    """How to reconstruct: the high-band magnitude predictor and phase
    strategy, the band layout and the STFT. The bins above the high band keep
    the input's analysis. The input and output are the caller's; only the
    predictor and the phase strategy may name (reference) files."""

    predictor: MagnitudePredictorSpec
    phase: PhaseStrategySpec
    layout: BandLayout
    stft: StftConfig = StftConfig()

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


class _References(contextlib.ExitStack):
    """The reference files a job reads, keyed by resolved path so each is
    opened once, and closed with the context. A block span of a source is
    read once and each of its channels analysed once; the last analysis is
    kept for the other step that reads the file (oracle magnitudes and
    reference phase) and freed before the next is made, so no whole-file
    analysis is held through Griffin-Lim."""

    def __init__(self, cfg: StftConfig, arrays: dict):
        super().__init__()
        self.cfg = cfg
        self.sources = {Path(path).resolve(): _ArraySource(chs) for path, chs in arrays.items()}
        self._stages: dict = {}  # source -> the stage of the first step that opened it
        self._blocks: dict = {}  # source -> (span, its samples, {channel: analysis})

    def open(self, path, inputs, stage: str):
        """The source of reference ``path``, for the step of ``stage``: the
        channels given for it, or else the WAV file, opened on first use. Its
        channel count and sample rate must be those of the input source."""
        key = Path(path).resolve()
        if key not in self.sources:
            self.sources[key] = self.enter_context(_WavSource(path))
        source = self.sources[key]
        if source.n_channels != inputs.n_channels:
            raise ShapeError(
                f"{path}: has {source.n_channels} channels, input has {inputs.n_channels}"
            )
        if source.sample_rate != inputs.sample_rate:
            raise ShapeError(
                f"{path}: sample rate {source.sample_rate} Hz, input has {inputs.sample_rate} Hz"
            )
        self._stages.setdefault(source, stage)
        return source

    def check_unread(self) -> None:
        """Check every opened source to its end, in its first opener's stage."""
        for source, stage in self._stages.items():
            with _stage(stage):
                source.check_unread()

    def stft(self, source, channel: int, span: slice) -> np.ndarray:
        """STFT of one channel of ``source`` over a block's span of the
        padded grid, which reads zeros outside the source's samples."""
        key = (span.start, span.stop)
        if self._blocks.get(source, (None,))[0] != key:
            samples = read_padded(source.read, source.n_samples, self.cfg, *key)
            self._blocks[source] = (key, samples, {})  # frees the last span's
        _, samples, analyses = self._blocks[source]
        if channel not in analyses:
            analyses.clear()  # freed before the next analysis is made
            analyses[channel] = stft_array(samples[channel], self.cfg)
        return analyses[channel]


def _magnitude_step(spec: ReconstructSpec, n_frames: int, inputs, references: _References):
    """The step mapping a channel's block of padded-grid frames (the channel,
    its analysis ``x`` and its ``frame_blocks`` triple f0, f1, sample span)
    to the block's high-band magnitudes. ``n_frames`` is the input's own
    frame count, L. Everything that can reject the job is checked here,
    before any block."""
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
        # The file's L rows are the input's own frames; the grid's other
        # frames get a zero high band.
        lead, grid_frames = padded_grid(cfg, inputs.n_samples)
        imported = np.zeros((grid_frames, layout.hfc_width))
        imported[lead // cfg.hop : lead // cfg.hop + n_frames] = load_magnitude(
            predictor.path, (n_frames, layout.hfc_width), cfg, inputs.sample_rate
        )
        return lambda channel, x, block: imported[block[0] : block[1]]
    raise ShapeError(f"unknown predictor spec {predictor!r}")


def _phase_step(spec: ReconstructSpec, n_frames: int, inputs, references: _References):
    """The step mapping a channel's block of padded-grid frames (the channel,
    its analysis ``x``, its high-band magnitudes ``mag`` and its
    ``frame_blocks`` triple) to the block's complex high band; None for
    Griffin-Lim, which is not frame-local (see `_gla_channels`). The reference
    strategy warns here, once per channel, when the reference's frame count
    differs from the input's, L = ``n_frames``."""
    strategy, cfg, layout = spec.phase, spec.stft, spec.layout
    if isinstance(strategy, FlipPhaseSpec):
        return lambda channel, x, mag, block: mag * flip_phase(x[:, : layout.k_lo], layout)
    if isinstance(strategy, GlaConfig):
        return None
    if isinstance(strategy, ReferencePhaseSpec):
        source = references.open(strategy.path, inputs, "phase")
        ref_frames = cfg.frame_count(source.n_samples)
        if ref_frames != n_frames:
            for _ in range(inputs.n_channels):
                logger.warning(
                    "%s: reference frame count adjusted to %d", strategy.path, n_frames
                )

        return lambda channel, x, mag, block: mag * extract_reference_phase(
            references.stft(source, channel, block[2]), layout
        )
    raise ShapeError(f"unknown phase spec {strategy!r}")


def _gla_channels(
    spec: ReconstructSpec, source, analyse, magnitude_step, traces: list | None
) -> list[np.ndarray]:
    """Griffin-Lim's output: each channel of ``source``, finished in float64
    over the input's samples, without any whole-grid spectrogram held.

    One pass over the padded grid's `frame_blocks` takes each channel's
    block spectrogram from ``analyse(span)``, keeps its high-band magnitudes,
    zeroes the band and overlap-adds the other bins as analysed, the low band
    and the bins above the band alike, unnormalised, into one pinned signal
    over the grid. GLA then runs on each channel's band alone, onto its
    pinned signal (`phase._gla_band`), from a zero-phase start made just
    before it begins; the band's rows, zero elsewhere, are overlap-added onto
    that signal and let go before the next channel's start is made, and the
    signal's stretch under the input, normalised in place, is the channel's
    output. Given a ``traces`` list, the first channel's residuals are
    appended to it (the pass keeps its `phase._pinned_sums` for them)."""
    cfg, layout = spec.stft, spec.layout
    k_lo, k_hi = layout.k_lo, layout.k_hi
    lead, n_frames = padded_grid(cfg, source.n_samples)
    shape = (n_frames, layout.hfc_width)
    channels = range(source.n_channels)
    magnitudes = [np.empty(shape) for _ in channels]
    pinned = [np.zeros(cfg.output_length(n_frames)) for _ in channels]
    sums = None if traces is None else np.empty((n_frames, 3))
    for block in frame_blocks(n_frames, cfg):
        f0, f1, span = block
        for channel, x in enumerate(analyse(span)):
            with _stage("magnitude"):
                magnitudes[channel][f0:f1] = magnitude_step(channel, x, block)
            if channel == 0 and sums is not None:
                sums[f0:f1] = _pinned_sums(x, layout)
            x[:, k_lo:k_hi] = 0.0
            overlap_add(x, pinned[channel], f0, cfg)

    finished, longest = [], next(frame_blocks(n_frames, cfg))[1]  # the first block's length
    with _stage("phase"):
        for channel in channels:
            band = magnitudes[channel].astype(np.complex128)
            residuals = _gla_band(
                magnitudes[channel], band, pinned[channel], spec.phase, layout, cfg,
                sums if channel == 0 else None,
            )
            magnitudes[channel] = None
            if sums is not None and channel == 0:
                traces.append(residuals)
            rows = np.zeros((longest, cfg.n_bins), dtype=np.complex128)
            for f0, f1, _ in frame_blocks(n_frames, cfg):
                rows[: f1 - f0, k_lo:k_hi] = band[f0:f1]
                overlap_add(rows[: f1 - f0], pinned[channel], f0, cfg)
            del band, rows  # not held while the next channel's start is made
            signal, pinned[channel] = pinned[channel][lead : lead + source.n_samples], None
            _normalise(signal, lead, n_frames, cfg)
            finished.append(signal)
    return finished


def _reconstruct_blocks(
    spec: ReconstructSpec, source, references: _References, traces: list | None = None
) -> Iterator[list[np.ndarray]]:
    """The reconstruction core. Every check that can reject the job runs
    when it is called; it returns a generator that reads the band-limited
    input from ``source`` one block span of the padded grid at a time and,
    per channel, analyses, predicts, estimates, recombines and overlap-adds
    the block's frames (`dsp.resynthesize`). For each stretch of output that
    no later frame touches it yields the normalised float64 stretch of every
    channel; the stretches join into exactly the input's length, and no
    whole-length signal is held unless a source or the caller holds one.

    Griffin-Lim is not frame-local: `_gla_channels` reads the input once,
    block by block, and finishes every channel, which the generator yields
    as one stretch; given a ``traces`` list, it appends the first channel's
    residuals. After the last stretch, the generator checks the rest of each
    reference (`_References.check_unread`).
    """
    cfg, layout = spec.stft, spec.layout
    with _stage("analyze"):
        n_frames = cfg.frame_count(source.n_samples)
    with _stage("magnitude"):
        magnitude_step = _magnitude_step(spec, n_frames, source, references)
    with _stage("phase"):
        phase_step = _phase_step(spec, n_frames, source, references)

    def read(start, stop):
        with _stage("read-input"):
            return source.read(start, stop)

    def analyse(span):
        for samples in read_padded(read, source.n_samples, cfg, span.start, span.stop):
            yield stft_array(samples, cfg)

    def edit(channel, x, block):
        with _stage("magnitude"):
            hfc_mag = magnitude_step(channel, x, block)
        with _stage("phase"):
            x[:, layout.k_lo : layout.k_hi] = phase_step(channel, x, hfc_mag, block)

    def blocks():
        if phase_step is None:
            yield _gla_channels(spec, source, analyse, magnitude_step, traces)
        else:
            yield from resynthesize(read, source.n_samples, cfg, edit)
        references.check_unread()

    return blocks()


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
    source = _ArraySource(channels)
    with _References(spec.stft, references or {}) as files:
        blocks = _reconstruct_blocks(spec, source, files)
        out = _whole_channels(blocks, source.n_channels, source.n_samples)
    return [Waveform(row, source.sample_rate) for row in out]


def super_resolve(spec: ReconstructSpec, input_path, output_path, trace_path=None) -> None:
    """Reconstruct the WAV file ``input_path`` into ``output_path``, every
    channel, as float32. The input and every reference are read in one
    forward pass of block spans, and each finished stretch of output is
    appended through `_atomic_output`, so a failure leaves no partial file (a
    FIFO or a device is written in place). With ``trace_path`` set and a GLA
    phase strategy, the first channel's residuals are written there as
    ``iteration,residual`` CSV rows, each residual in decimal notation with
    at least 9 significant digits."""
    if Path(input_path).resolve() == Path(output_path).resolve():
        raise ShapeError("input and output paths must be distinct")
    with _stage("read-input"):
        source = _WavSource(input_path)
    with source:
        _super_resolve(spec, source, output_path, trace_path)


def _super_resolve(spec: ReconstructSpec, source, output_path, trace_path) -> None:
    """`super_resolve` of the open input ``source``, which the CLI opens
    itself to take the band layout's sample rate from it."""
    traces = [] if trace_path is not None else None
    total = source.n_samples  # the output's length is the input's
    with _References(spec.stft, {}) as files:
        blocks = _reconstruct_blocks(spec, source, files, traces)
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
    """Write ``lines``, the header first, each ended by a newline, as UTF-8,
    through `_atomic_output`."""
    with _atomic_output(path) as fh:
        for line in lines:
            fh.write(f"{line}\n".encode("utf-8"))


# ---------------------------------------------------------------------------
# Batch drivers
# ---------------------------------------------------------------------------


@dataclass
class PhaseStudyResult:
    rows: list[str]
    means: dict[str, EvalReport]
    snr_anomaly: bool
    skipped: list[str] = field(default_factory=list)


def _study_one_clip(clip_path: str, workdir: Path, gla_iterations: int) -> dict[str, EvalReport]:
    """Score one clip under every study method, through the files the CLI
    flows would write and read: ``make_pair`` writes the LR (the clip is
    decoded whole only inside that call), each method reconstructs from the
    LR file with the oracle magnitudes and reference phase read from the clip
    file, and every row scores the clip file against the estimate file, as
    ``evaluate_batch`` does. Beside Griffin-Lim's band state, only block spans
    of these files and, once GLA is done, one method's output are held.

    Each output is written whole by one ``wav_write`` call, not appended block
    by block as ``super_resolve`` does: the study deletes its files, so the
    benchmark's study check (``perfbench``) sees an output only in that call
    and reads its length and peak from it."""
    workdir.mkdir(parents=True, exist_ok=True)
    stem = Path(clip_path).stem
    with _WavSource(clip_path) as clip:
        layout = BandLayout.from_frequencies(BAND_LO_HZ, BAND_HI_HZ, clip.sample_rate, StftConfig())
    lr_path = workdir / f"{stem}_lr.wav"
    make_pair(clip_path, lr_path)

    phase_specs: dict[str, PhaseStrategySpec] = {
        "flip": FlipPhaseSpec(),
        "gla": GlaConfig(iterations=gla_iterations),
        "reference": ReferencePhaseSpec(str(clip_path)),
    }

    def score(path) -> EvalReport:
        with _WavSource(clip_path) as truth, _WavSource(path) as estimate:
            return _evaluate_sources(truth, estimate, layout)

    reports = {"lr": score(lr_path)}
    for method, phase_spec in phase_specs.items():
        est_path = workdir / f"{stem}_{method}.wav"
        spec = ReconstructSpec(OracleSpec(str(clip_path)), phase_spec, layout)
        with _WavSource(lr_path) as lr, _References(spec.stft, {}) as files:
            blocks = _reconstruct_blocks(spec, lr, files)
            out = _whole_channels(blocks, lr.n_channels, lr.n_samples)
        wav_write(est_path, [Waveform(row, lr.sample_rate) for row in out], SampleDepth.FLOAT32)
        del out  # not held through the next method's Griffin-Lim
        reports[method] = score(est_path)
    return reports


def run_phase_study(
    clips: Sequence[str], out, gla_iterations: int = 100, jobs: int = 1
) -> PhaseStudyResult:
    """Compare phase strategies with oracle magnitudes over a clip set.

    Each clip is band-limited at 4 kHz by the brickwall into an LR file,
    reconstructed from it under the flip, Griffin-Lim and reference-phase
    strategies (plus the zero-filled LR baseline) and scored against the
    original, all through files in a temporary directory (see
    `_study_one_clip`). Writes per-clip and mean rows to ``out``;
    unreadable clips are skipped with a warning.
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
                return _study_one_clip(clip, Path(tmp) / str(index), gla_iterations)
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


def evaluate_batch(pairs: Sequence[tuple[str, str]], layout: BandLayout, out) -> list[str]:
    """Score (truth, estimate) file pairs at the paper's STFT, as `evaluate`
    does; one CSV row per pair plus a mean row.

    Failing pairs are logged and reported as rows with empty metric fields;
    the mean covers the successes. Rows keep the input order. When every pair
    fails, the first failure's exception is raised (and not logged, since the
    caller reports it), the others are logged, and no CSV is written.
    """

    def score(truth_path, estimate_path) -> EvalReport:
        with _WavSource(truth_path) as truth, _WavSource(estimate_path) as estimate:
            return _evaluate_sources(truth, estimate, layout)

    return _score_pairs(pairs, score, out)


def _score_pairs(pairs, score, out) -> list[str]:
    """`evaluate_batch`'s rows and CSV, each pair scored by ``score(truth,
    estimate)``; the CLI scores its one pair from sources it opened."""
    rows: list[str] = []
    successes: list[EvalReport] = []
    failures: list[tuple[str, str, Exception]] = []
    for truth_path, estimate_path in pairs:
        try:
            report = score(truth_path, estimate_path)
        except Exception as exc:
            failures.append((truth_path, estimate_path, exc))
            rows.append(f"{estimate_path},error,,,,")
            continue
        successes.append(report)
        rows.append(report.csv_row(str(estimate_path), "eval"))
    raised = failures[0] if failures and not successes else None
    for failure in failures:
        if failure is not raised:
            logger.warning("pair (%s, %s) failed: %s", *failure)
    if raised is not None:
        raise raised[2]
    if successes:
        rows.append(_mean_report(successes).csv_row("mean", "eval"))
    _write_csv(out, [EVAL_CSV_HEADER, *rows])
    return rows
