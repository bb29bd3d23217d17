"""Spans around bwx's public functions, recorded from outside the program.

``Tracer.install`` replaces each target function at every ``bwx`` module
attribute that refers to it, so callers that look the name up (for example
``bwx.phase.consistency_project_array`` or ``bwx.magnitude.stft_array``) reach the
wrapper. scipy.fft's ``rfft``/``irfft`` are wrapped where bwx reaches them
through a proxy of ``scipy`` and ``scipy.fft``. Spans stay in memory; the
summary and the raw spans are written out when the run ends.

Self time is a span's duration minus the durations of its direct children.
Byte counts are computed from array sizes (input plus output), not measured.
Anything a wrapper computes for itself (byte counts, the GLA heap peak and
final residual) happens outside the span and shows up as tracing overhead.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np
import scipy
import scipy.fft


def _fft_bytes(args, kwargs, result, _):
    return {"bytes": np.asarray(args[0]).nbytes + result.nbytes}


def _wav_read_bytes(args, kwargs, result, _):
    channels, depth = result
    return {"bytes": sum(len(ch.samples) for ch in channels) * depth // 8}


def _wav_write_bytes(args, kwargs, result, _):
    x = args[1] if len(args) > 1 else kwargs["x"]
    depth = args[2] if len(args) > 2 else kwargs.get("depth")
    channels = [x] if hasattr(x, "samples") else list(x)
    width = 2 if getattr(depth, "name", "") == "PCM16" else 4
    return {"bytes": sum(len(ch.samples) for ch in channels) * width}


def _gla_before(args, kwargs):
    tracemalloc.start()
    return tracemalloc.get_traced_memory()[0]


def _gla_after(project):
    def after(args, kwargs, result, start_bytes):
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        spectrogram = result[0]
        X = spectrogram.data
        residual = np.linalg.norm(X - project(X, spectrogram.config)) / max(np.linalg.norm(X), 1e-12)
        return {
            "iterations": cfg.iterations,
            "heap_growth_bytes": peak - start_bytes,
            "final_residual": float(residual),
        }

    return after


def patch_everywhere(original, replacement) -> None:
    """Point every bwx module attribute that refers to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "bwx" or module_name.startswith("bwx.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


class _Proxy:
    """Forwards attribute reads to ``target`` except for the overrides."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    # (span name, module, function) of every wrapped public function.
    TARGETS = (
        ("cli.main", "bwx.cli", "main"),
        ("pipeline.phase_study", "bwx.pipeline", "run_phase_study"),
        ("pipeline.evaluate_batch", "bwx.pipeline", "evaluate_batch"),
        ("pipeline.super_resolve", "bwx.pipeline", "super_resolve"),
        ("prep.lowpass", "bwx.prep", "lowpass"),
        ("metrics.evaluate", "bwx.metrics", "evaluate"),
        ("magnitude.oracle", "bwx.magnitude", "predict_oracle"),
        ("magnitude.sbr", "bwx.magnitude", "predict_band_replication"),
        ("magnitude.import", "bwx.magnitude", "load_magnitude"),
        ("phase.gla", "bwx.phase", "gla_reconstruct"),
        ("phase.flip", "bwx.phase", "flip_phase"),
        ("phase.reference", "bwx.phase", "extract_reference_phase"),
        ("dsp.project", "bwx.dsp", "consistency_project_array"),
        ("dsp.stft", "bwx.dsp", "stft_array"),
        ("dsp.istft", "bwx.dsp", "istft_array"),
        ("wavio.read", "bwx.wavio", "wav_read"),
        ("wavio.write", "bwx.wavio", "wav_write"),
        ("specio.read", "bwx.specio", "spec_read"),
        ("specio.write", "bwx.specio", "spec_write"),
    )

    def __init__(self):
        # Each span: [name, start, end, parent index, extras dict].
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []  # open spans; the benchmark runs bwx on one thread

    def wrap(self, name, fn, after=None, before=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before else None
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after:
                span[4] = after(args, kwargs, result, state)
            return result

        return wrapper

    def install(self) -> None:
        originals = {}
        for name, module_name, attr in self.TARGETS:
            fn = getattr(importlib.import_module(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            originals[name] = fn
        hooks = {
            "dsp.stft": {"after": _fft_bytes},
            "dsp.istft": {"after": _fft_bytes},
            "wavio.read": {"after": _wav_read_bytes},
            "wavio.write": {"after": _wav_write_bytes},
        }
        if "dsp.project" in originals:
            hooks["phase.gla"] = {"before": _gla_before, "after": _gla_after(originals["dsp.project"])}
        for name, fn in originals.items():
            patch_everywhere(fn, self.wrap(name, fn, **hooks.get(name, {})))

        rfft = self.wrap("dsp.rfft", scipy.fft.rfft, after=_fft_bytes)
        irfft = self.wrap("dsp.irfft", scipy.fft.irfft, after=_fft_bytes)
        fft = _Proxy(scipy.fft, rfft=rfft, irfft=irfft)
        patch_everywhere(scipy.fft.rfft, rfft)
        patch_everywhere(scipy.fft.irfft, irfft)
        patch_everywhere(scipy.fft, fft)
        patch_everywhere(scipy, _Proxy(scipy, fft=fft))

    def summary(self) -> dict:
        """Per-name calls, total and self seconds, bytes and extras, summed
        over every recorded span."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            child_time[parent] += end - start
        out = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, parent, extras) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            for key, value in (extras or {}).items():
                entry[key] += value
        return {name: dict(values) for name, values in out.items()}

    def inside_gla(self) -> dict:
        """Total seconds per span name, counting only spans inside GLA calls."""
        inside = [False] * len(self.spans)
        totals = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            inside[i] = name == "phase.gla" or (parent >= 0 and inside[parent])
            if inside[i]:
                totals[name] += end - start
        return dict(totals)
