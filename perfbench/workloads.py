"""Workload definitions: inputs made from the seed, the CLI calls of one pass
and the outputs each call must leave behind.

Every workload runs the real CLI (``bwx.cli.main``) in one process with
``--jobs 1``; only scipy.fft's own workers (``workers=-1``) run beside it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import audio
import synth

STUDY_S = 10.0
LONG_S = 60.0
PREP_S = 5.0
PREP_CLIPS = 12
PROBE_S = 1.0


@dataclass
class Output:
    """A file an operation must write, with the clip it derives from."""

    path: str
    channels: int
    source: str  # key into the manifest's clips
    kind: str = "wav"  # "wav", "eval-csv" or "study-csv"
    truth: str | None = None  # for eval CSVs: the file scored against
    estimate: str | None = None


@dataclass
class Op:
    name: str
    argv: list[str]
    outputs: list[Output] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Inputs. Made once per (workload, seed), cached, never timed.
# ---------------------------------------------------------------------------


def _clip_record(path: Path) -> dict:
    stored = audio.read_wav(path)
    return {
        "path": str(path),
        "frames": len(stored),
        "channels": stored.shape[1],
        "peak": float(np.max(np.abs(stored))),
        "stft_shape": [audio.n_frames(len(stored)), audio.FRAME_LEN // 2 + 1],
    }


def make_inputs(workload: str, seed: int, directory: Path) -> dict:
    """Synthesise the workload's input files and return their manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    clips = {}

    def clip(key, x, pcm16=False):
        path = directory / f"{key}.wav"
        audio.write_wav(path, x, pcm16=pcm16)
        clips[key] = _clip_record(path)
        return path

    # A short clip for the warm-up call and the set-up probes.
    clip("probe", synth.music(seed, PROBE_S))
    if workload == "study":
        clip("clip", synth.music(seed, STUDY_S))
    elif workload == "long-stereo":
        hr = synth.music(seed, LONG_S, channels=2)
        clip("hr", hr)
        clip("lr", synth.brickwall(hr, audio.LO_HZ))
    elif workload == "prep-batch":
        # bwx.specio is imported only here: the external model's output is a
        # BWXSPEC file, and spec_write is the documented way to make one.
        from bwx.specio import SpecKind, spec_write

        for i in range(PREP_CLIPS):
            x = synth.music(seed * 1000 + i, PREP_S)
            path = clip(f"hr{i:02d}", x, pcm16=True)
            band = audio.band_magnitude(audio.read_wav(path)[:, 0])
            spec_write(
                directory / f"band{i:02d}.bwx", band, SpecKind.MAGNITUDE,
                audio.SAMPLE_RATE, audio.FRAME_LEN, audio.HOP,
            )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    manifest = {"workload": workload, "seed": seed, "dir": str(directory), "clips": clips}
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1))
    return manifest


# ---------------------------------------------------------------------------
# Operations of one pass. ``out`` is a fresh directory for the pass.
# ---------------------------------------------------------------------------


def warmup_op(manifest: dict, out: Path) -> Op:
    probe = manifest["clips"]["probe"]["path"]
    return Op("warmup", ["sr", "--in", probe, "--out", str(out / "warmup.wav"),
                         "--mag", "sbr", "--phase", "flip"])


def _study(manifest, out):
    # The paper's main experiment: oracle magnitudes, flip / 100-iteration GLA
    # from zero phase / reference phase against the zero-filled LR baseline.
    # GLA is about 90% of the time, so a GLA or STFT-kernel change shows here.
    clip = manifest["clips"]["clip"]["path"]
    csv = str(out / "study.csv")
    return [Op("phase-study", ["phase-study", "--clips", clip, "--out", csv, "--jobs", "1"],
               [Output(csv, 1, "clip", kind="study-csv")])]


def _long_stereo(manifest, out):
    # One long stereo track and no GLA: WAV I/O, one-shot STFT/ISTFT of large
    # arrays, container validation scans, oracle re-reads per channel and the
    # channel loop carry the time. Pipeline and memory work shows here; a
    # GLA-only change should leave it flat.
    hr, lr = manifest["clips"]["hr"]["path"], manifest["clips"]["lr"]["path"]
    ops = []
    for name, mag, phase in (
        ("sr-oracle-flip", f"oracle:{hr}", "flip"),
        ("sr-sbr-flip", "sbr", "flip"),
        ("sr-oracle-ref", f"oracle:{hr}", f"ref:{hr}"),
    ):
        path = str(out / f"{name}.wav")
        ops.append(Op(name, ["sr", "--in", lr, "--out", path, "--mag", mag, "--phase", phase],
                      [Output(path, 2, "hr")]))
    csv = str(out / "eval-flip.csv")
    flip = str(out / "sr-oracle-flip.wav")
    ops.append(Op("eval-flip", ["eval", "--truth", hr, "--est", flip, "--out", csv],
                  [Output(csv, 2, "hr", kind="eval-csv", truth=hr, estimate=flip)]))
    return ops


def _prep_batch(manifest, out):
    # Many short PCM16 clips through dataset preparation, scoring and an
    # imported-magnitude reconstruction: per-call overhead, the PCM16 decode,
    # writes next to reads, prep and specio all weigh in.
    ops = []
    for i in range(PREP_CLIPS):
        key = f"hr{i:02d}"
        hr = manifest["clips"][key]["path"]
        band = str(Path(manifest["dir"]) / f"band{i:02d}.bwx")
        lr = {f: str(out / f"{key}_lr_{f}.wav") for f in ("brickwall", "fir")}
        for f, path in lr.items():
            ops.append(Op(f"prepare-{f}", ["prepare", "--in", hr, "--out", path, "--filter", f],
                          [Output(path, 1, key)]))
        for f, path in lr.items():
            csv = str(out / f"{key}_eval_{f}.csv")
            ops.append(Op(f"eval-{f}", ["eval", "--truth", hr, "--est", path, "--out", csv],
                          [Output(csv, 1, key, kind="eval-csv", truth=hr, estimate=path)]))
        rebuilt = str(out / f"{key}_sr.wav")
        ops.append(Op("sr-import-flip", ["sr", "--in", lr["brickwall"], "--out", rebuilt,
                                         "--mag", f"import:{band}", "--phase", "flip"],
                      [Output(rebuilt, 1, key)]))
    return ops


PASSES = {"study": _study, "long-stereo": _long_stereo, "prep-batch": _prep_batch}


def pass_ops(manifest: dict, out: Path) -> list[Op]:
    return PASSES[manifest["workload"]](manifest, out)
