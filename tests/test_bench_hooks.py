"""perfbench's trace hooks still fit bwx: every function it wraps resolves,
and its WAV byte counters accept what ``wav_read`` returns and what bwx's
flows hand to ``wav_write``. The untraced benchmark would not notice either
break, and a traced run fails on both."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import bwx.wavio
from bwx import SampleDepth, Waveform, run_phase_study, wav_read, wav_write
from bwx.cli import main

from conftest import synth_clip

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SR = 44100


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves(spans):
    unresolved = [
        f"{module}.{attr}"
        for _, module, attr in spans.Tracer.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []


@pytest.mark.parametrize("depth, width", [(SampleDepth.PCM16, 2), (SampleDepth.FLOAT32, 4)])
def test_wav_read_bytes_accepts_a_real_read(spans, tmp_path, depth, width):
    path = tmp_path / "x.wav"
    x = np.linspace(-0.5, 0.5, 1000)
    wav_write(path, [Waveform(x, SR), Waveform(-x, SR)], depth)
    result = wav_read(path)
    assert spans._wav_read_bytes((path,), {}, result, None) == {"bytes": 2 * 1000 * width}


def test_wav_write_bytes_accepts_what_bwx_writes(spans, tmp_path):
    # Every flow's writes go through the benchmark's own wrapper, patched in
    # where bwx looks the name up, as a traced run patches it.
    tracer = spans.Tracer()
    original = bwx.wavio.wav_write
    wrapper = tracer.wrap("wavio.write", original, after=spans._wav_write_bytes)
    hr, lr, out = tmp_path / "hr.wav", tmp_path / "lr.wav", tmp_path / "out.wav"
    wav_write(hr, Waveform(synth_clip(3, duration=1.0), SR), SampleDepth.FLOAT32)
    n = len(wav_read(hr)[0][0])
    spans.patch_everywhere(original, wrapper)
    try:
        assert main(["prepare", "--in", str(hr), "--out", str(lr)]) == 0
        assert main(["sr", "--in", str(lr), "--out", str(out), "--mag", "sbr", "--phase", "flip"]) == 0
        assert main(["spec", "export", "--in", str(hr), "--out", str(tmp_path / "c.bwx"),
                     "--kind", "complex"]) == 0
        assert main(["spec", "import", "--in", str(tmp_path / "c.bwx"),
                     "--out", str(tmp_path / "back.wav")]) == 0
        flows = len(tracer.spans)
        run_phase_study([str(hr)], tmp_path / "study.csv", gla_iterations=1)
    finally:
        spans.patch_everywhere(wrapper, original)
    written = [extras["bytes"] for *_, extras in tracer.spans]
    files = (lr, out, tmp_path / "back.wav")
    assert sum(written[:flows]) == sum(4 * len(wav_read(f)[0][0]) for f in files)
    # The study writes its LR and three outputs whole, one call each.
    assert written[flows:] == [4 * n] * 4
