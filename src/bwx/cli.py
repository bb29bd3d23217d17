"""Command-line interface.

Subcommands: ``prepare`` (make a band-limited companion file), ``sr`` (run
the reconstruction pipeline), ``eval`` (score a truth/estimate pair),
``phase-study`` (oracle-magnitude phase comparison over a clip set) and
``spec export``/``spec import`` for BWXSPEC spectrogram files.

Exit codes: 0 success, 1 usage error, 2 I/O error, 3 numerical error.
Status lines (``wrote <path>``, a BWXSPEC header) go to stderr, so an
``--out /dev/stdout`` stream holds the file alone; ``eval``'s rows and
``phase-study``'s means are results and go to stdout.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from .dsp import (
    StftConfig,
    Waveform,
    _checked_spectrogram,
    _normalise,
    _paper_layout,
    overlap_add,
    padded_grid,
    stft_array,
)
from .errors import BwxError, FileFormatError, NumericalError, PipelineError, ShapeError
from .magnitude import BandReplicationSpec, ImportSpec, OracleSpec
from .phase import FlipPhaseSpec, GlaConfig, ReferencePhaseSpec
from .pipeline import ReconstructSpec, _super_resolve, evaluate_batch, run_phase_study
from .prep import LowpassMode, LowpassSpec, make_pair
from .specio import SpecKind, spec_read, spec_write
from .wavio import _WavSource, wav_write

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="bwx", description="Music bandwidth extension toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("prepare", help="write a low-passed companion file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--filter", choices=["brickwall", "fir"], default="brickwall")
    p.add_argument("--taps", type=int, default=511)

    p = sub.add_parser("sr", help="reconstruct high-band content")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--mag", required=True, help="oracle:<path> | sbr | import:<path>")
    p.add_argument("--phase", required=True, help="flip | gla | ref:<path>")
    p.add_argument("--gla-iters", type=int, default=None, help="GLA iterations (default 100)")
    p.add_argument("--trace", default=None, help="write the GLA residual trace CSV here")

    p = sub.add_parser("eval", help="score an estimate against ground truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--est", required=True)
    p.add_argument("--out", dest="output", required=True)

    p = sub.add_parser("phase-study", help="compare phase strategies with oracle magnitudes")
    p.add_argument("--clips", required=True, help="directory of wav files or comma-separated list")
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("spec", help="BWXSPEC spectrogram files")
    spec_sub = p.add_subparsers(dest="spec_command", required=True, parser_class=_Parser)

    pe = spec_sub.add_parser("export", help="write a wav's spectrogram as BWXSPEC")
    pe.add_argument("--in", dest="input", required=True)
    pe.add_argument("--out", dest="output", required=True)
    pe.add_argument("--kind", choices=["magnitude", "complex"], default="magnitude")

    pi = spec_sub.add_parser("import", help="resynthesise a complex BWXSPEC file as wav")
    pi.add_argument("--in", dest="input", required=True)
    pi.add_argument("--out", dest="output", required=True)
    return parser


def _parse_mag(text: str):
    if text == "sbr":
        return BandReplicationSpec()
    if text.startswith("oracle:") and len(text) > 7:
        return OracleSpec(text[7:])
    if text.startswith("import:") and len(text) > 7:
        return ImportSpec(text[7:])
    raise UsageError(f"--mag must be oracle:<path>, sbr or import:<path>, got {text!r}")


def _parse_phase(text: str, iters: int | None):
    if text == "flip":
        return FlipPhaseSpec()
    if text == "gla":
        return GlaConfig() if iters is None else GlaConfig(iterations=iters)
    if text.startswith("ref:") and len(text) > 4:
        return ReferencePhaseSpec(text[4:])
    raise UsageError(f"--phase must be flip, gla or ref:<path>, got {text!r}")


def _collect_clips(arg: str) -> list[str]:
    if not arg:
        raise UsageError("--clips is empty")
    path = Path(arg)
    if path.is_dir():
        clips = sorted(str(p) for p in path.glob("*.wav"))
        if not clips:
            raise UsageError(f"no .wav files in directory {arg}")
        return clips
    return [part for part in arg.split(",") if part]


def _check_writes(reads, writes) -> None:
    """Usage error when a command would write over a file it reads or writes
    twice. ``reads`` and ``writes`` are (option, path) pairs, compared by
    resolved path before any file is opened; a None path is not written."""
    seen = [(flag, Path(path).resolve()) for flag, path in reads]
    for flag, path in writes:
        if path is None:
            continue
        resolved = Path(path).resolve()
        for other, known in seen:
            if resolved == known:
                raise UsageError(f"{flag} and {other} name the same file {path}")
        seen.append((flag, resolved))


def _cmd_prepare(args) -> int:
    _check_writes([("--in", args.input)], [("--out", args.output)])
    mode = LowpassMode.BRICKWALL if args.filter == "brickwall" else LowpassMode.FIR_SINC
    spec = LowpassSpec(mode=mode, taps=args.taps)
    make_pair(args.input, args.output, spec)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_sr(args) -> int:
    predictor, phase = _parse_mag(args.mag), _parse_phase(args.phase, args.gla_iters)
    for flag, value in (("--gla-iters", args.gla_iters), ("--trace", args.trace)):
        if value is not None and not isinstance(phase, GlaConfig):
            raise UsageError(f"{flag} is only meaningful with --phase gla")
    reads = [("--in", args.input)]
    for flag, text in (("--mag", args.mag), ("--phase", args.phase)):
        kind, _, path = text.partition(":")
        if path:  # oracle:, import: or ref:
            reads.append((f"{flag} {kind}:", path))
    _check_writes(reads, [("--out", args.output), ("--trace", args.trace)])
    with _WavSource(args.input) as source:
        spec = ReconstructSpec(predictor, phase, _paper_layout(source.sample_rate))
        _super_resolve(spec, source, args.output, args.trace)
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


def _cmd_eval(args) -> int:
    _check_writes([("--truth", args.truth), ("--est", args.est)], [("--out", args.output)])
    for row in evaluate_batch([(args.truth, args.est)], args.output):
        print(row)
    return EXIT_OK


def _cmd_phase_study(args) -> int:
    clips = _collect_clips(args.clips)
    _check_writes([("--clips", clip) for clip in clips], [("--out", args.output)])
    result = run_phase_study(clips, args.output, jobs=args.jobs)
    for method, report in result.means.items():
        print(
            f"mean {method}: lsd_hf={report.lsd_hf:.4f} dB "
            f"lsd_full={report.lsd_full:.4f} dB snr={report.snr:.4f} dB"
        )
    if result.snr_anomaly:
        print("flag: LR baseline SNR >= GLA SNR (time-domain SNR undervalues this task)")
    return EXIT_OK


def _cmd_spec(args) -> int:
    _check_writes([("--in", args.input)], [("--out", args.output)])
    if args.spec_command == "export":
        cfg = StftConfig()
        with _WavSource(args.input) as source:
            if source.n_channels != 1:
                raise ShapeError(
                    f"{args.input}: spec export takes mono input, found {source.n_channels} channels"
                )
            (samples,) = source.read(0, source.n_samples)
        spectrogram = stft_array(samples, cfg)
        if args.kind == "magnitude":
            data, kind = np.abs(spectrogram), SpecKind.MAGNITUDE
        else:
            data, kind = spectrogram, SpecKind.COMPLEX
        spec_write(args.output, data, kind, source.sample_rate, cfg.frame_len, cfg.hop)
        print(f"wrote {args.output}", file=sys.stderr)
        return EXIT_OK

    data, header = spec_read(args.input)
    print(
        f"{args.input}: {header.frames}x{header.bins} {header.kind.name.lower()} "
        f"@ {header.sample_rate} Hz, frame {header.frame_len}, hop {header.hop}",
        file=sys.stderr,
    )
    if header.kind is not SpecKind.COMPLEX:
        raise UsageError("only complex BWXSPEC files can be resynthesised to wav")
    cfg = StftConfig(frame_len=header.frame_len, hop=header.hop)
    if 2 * cfg.hop > cfg.frame_len:
        # Past half a frame the full-coverage window-square sum dips towards
        # zero between frame centres, which would magnify the file's frames.
        raise UsageError(
            f"{args.input}: hop must be at most frame / 2 ({cfg.frame_len // 2}), got {cfg.hop}"
        )
    data = _checked_spectrogram(data, cfg)
    # Frames that no signal has can add up to anything where few frames
    # overlap, so every sample is divided by the full-coverage window-square
    # sum, as if the frames lay on their own output's padded grid: the first
    # and last frame_len - hop samples fade instead of being magnified.
    out = np.zeros(cfg.output_length(len(data)))
    overlap_add(data, out, 0, cfg)
    lead, n_frames = padded_grid(cfg, len(out))
    _normalise(out, lead, n_frames, cfg)
    wav_write(args.output, Waveform(out, header.sample_rate))
    print(f"wrote {args.output}", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {
    "prepare": _cmd_prepare,
    "sr": _cmd_sr,
    "eval": _cmd_eval,
    "phase-study": _cmd_phase_study,
    "spec": _cmd_spec,
}


def _classify(exc: BaseException) -> int:
    if isinstance(exc, PipelineError):
        return _classify(exc.cause)
    if isinstance(exc, NumericalError):
        return EXIT_NUMERICAL
    if isinstance(exc, (FileFormatError, OSError)):
        return EXIT_IO
    return EXIT_USAGE


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (BwxError, ValueError, OSError) as exc:
        code = _classify(exc)
        label = {EXIT_IO: "i/o error", EXIT_NUMERICAL: "numerical error"}.get(code, "error")
        print(f"{label}: {exc}", file=sys.stderr)
        return code


def entry() -> None:
    sys.exit(main())
