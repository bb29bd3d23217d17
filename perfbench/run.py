"""bwx benchmark: drives the real CLI on seeded inputs, checks every output and
prints each metric with its unit.

Usage, from the repository root:

    python3 perfbench/run.py --workload study|long-stereo|prep-batch \\
        --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` for why each exists):

* ``study``: ``bwx phase-study`` on one 10 s mono clip, paper settings
  (brickwall at 4 kHz, 2048/256, 100-iteration GLA from zero phase).
* ``long-stereo``: ``bwx sr`` three ways and ``bwx eval`` on a 60 s stereo
  track; no GLA.
* ``prep-batch``: ``prepare`` (brickwall and FIR), ``eval`` and
  ``sr --mag import:`` over twelve 5 s PCM16 clips.

A run synthesises (or reuses) the seed's inputs under ``.bench_cache/``, runs
passes of the workload for ``--seconds``, each in a fresh process
(``worker.py``) that first times importing bwx plus one warm-up call (the
set-up time; processes without a pass top the samples up to three), and then
checks every output with the benchmark's own WAV reader and LSD scorer
(``audio.py``). Scratch files go
to ``.bench_run/`` and are removed; traced runs leave their spans in
``.bench_out/``. The last line of standard output is the JSON result; the
metric names and units come from ``BENCHMARK.json``.

``--trace 0`` reports the end-to-end metrics. Time is gated as the CPU time
of a pass (``cpu_s``): on a shared host, steal time moves wall time by 20%
between minutes while CPU time moves a few percent. Every pass's wall time is
still printed on the ``env`` line, and traced runs report the untraced pass's
wall time among the per-layer metrics. ``--trace 1`` reports the
per-layer metrics from spans the benchmark records around bwx's public
functions (``spans.py``); their byte counts are computed from array sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import audio
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".bench_cache"
RUNS = ROOT / ".bench_run"
TRACES = ROOT / ".bench_out"
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 3
CACHED_SEEDS = 4
LSD_TOLERANCE_DB = 1e-4
GLA_MARGIN = 0.15  # criterion 04: GLA at least 15% below flip on mean LSD-HF
COVERAGE = 0.9  # dsp + phase self time should cover 90% of a traced study pass

# ROADMAP re-anchor measurement of one GLA iteration on a 10 s clip, in ms
# (2 cores, Python 3.11.7, numpy 2.4.6, scipy 1.17.1, residual trace on).
ROADMAP_GLA_MS = {"projection": 58.0, "re-imposition": 39.0, "norm": 10.0, "nan check": 3.0}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["study", "long-stereo", "prep-batch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)  # the phase study's temporary files stay in the checkout
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # only scipy.fft's own workers run beside the main thread
    return env


def _inputs(workload: str, seed: int) -> dict:
    directory = CACHE / workload / f"seed-{seed}"
    manifest_path = directory / "manifest.json"
    if manifest_path.is_file():
        os.utime(directory)
        return json.loads(manifest_path.read_text())
    shutil.rmtree(directory, ignore_errors=True)
    manifest = workloads.make_inputs(workload, seed, directory)
    others = sorted((d for d in directory.parent.iterdir() if d != directory),
                    key=lambda d: d.stat().st_mtime)
    for stale in others[: max(0, len(others) - CACHED_SEEDS + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    return manifest


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


class Scorer:
    """LSD-HF of an estimate file against a truth file, cached by content."""

    def __init__(self):
        self._truth: dict[str, list] = {}
        self._scores: dict[tuple, float] = {}

    def lsd_hf(self, truth_path: str, estimate_path: str, estimate=None) -> float:
        key = (truth_path, hashlib.sha1(Path(estimate_path).read_bytes()).hexdigest())
        if key not in self._scores:
            if truth_path not in self._truth:
                truth = audio.read_wav(truth_path)
                self._truth[truth_path] = [audio.band_log_power(truth[:, c]) for c in range(truth.shape[1])]
            est = audio.read_wav(estimate_path) if estimate is None else estimate
            truth_bands = self._truth[truth_path]
            values = [audio.lsd(t, audio.band_log_power(est[:, c])) for c, t in enumerate(truth_bands)]
            self._scores[key] = float(np.mean(values))
        return self._scores[key]


def _csv_rows(path: str) -> list[list[str]]:
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].split(",")[:3] != ["file", "method", "lsd_hf_db"]:
        raise ValueError(f"{path}: not an evaluation CSV")
    return [line.split(",") for line in lines[1:] if line and not line.startswith("#")]


def _wav_problems(channels: int, finite: bool, expected_channels: int) -> list[str]:
    problems = []
    if channels != expected_channels:
        problems.append(f"{channels} channels, expected {expected_channels}")
    if not finite:
        problems.append("non-finite samples")
    return problems


def _check_study_csv(path: str, printed: str) -> tuple[list[str], float | None]:
    means = {row[1]: float(row[2]) for row in _csv_rows(path) if row[0] == "mean"}
    if set(means) != {"lr", "flip", "gla", "reference"}:
        return [f"study CSV mean rows are {sorted(means)}"], None
    problems = []
    if not means["reference"] < means["gla"] < means["flip"] < means["lr"]:
        problems.append(f"LSD-HF ordering reference < gla < flip < lr broken: {means}")
    if (means["flip"] - means["gla"]) / means["flip"] < GLA_MARGIN:
        problems.append(f"GLA less than {GLA_MARGIN:.0%} below flip: {means}")
    shown = [line for line in printed.splitlines() if line.startswith("mean gla:")]
    shown_value = float(shown[0].split("lsd_hf=")[1].split()[0]) if shown else None
    if shown_value is None or abs(shown_value - means["gla"]) > LSD_TOLERANCE_DB:
        problems.append(f"printed GLA mean {shown_value} differs from the CSV's {means['gla']}")
    return problems, means["gla"]


def check_pass(manifest: dict, record: dict, scorer: Scorer) -> dict:
    """Check every output of one pass. Returns per-op problems, the LSD-HF
    values the workload reports and (peak ratio, length delta) per written WAV."""
    ops = workloads.pass_ops(manifest, Path(record["dir"]))
    clips = manifest["clips"]
    problems: list[list[str]] = [[] for _ in ops]
    quality: dict[int, float] = {}  # op index -> LSD-HF of its output
    written: list[tuple[float, int]] = []
    for i, (op, result) in enumerate(zip(ops, record["ops"])):
        if result["code"] != 0:
            problems[i].append(f"exit code {result['code']}: {result['stderr'].strip()[-300:]}")
        for out in op.outputs:
            source = clips[out.source]
            try:
                if out.kind == "wav":
                    x = audio.read_wav(out.path)
                    problems[i] += _wav_problems(x.shape[1], bool(np.isfinite(x).all()), out.channels)
                    written.append((float(np.max(np.abs(x))) / source["peak"], abs(len(x) - source["frames"])))
                    if op.name.startswith("sr-"):
                        quality[i] = scorer.lsd_hf(source["path"], out.path, x)
                elif out.kind == "eval-csv":
                    reported = float(_csv_rows(out.path)[0][2])
                    expected = scorer.lsd_hf(out.truth, out.estimate)
                    if abs(reported - expected) > LSD_TOLERANCE_DB:
                        problems[i].append(f"eval reports LSD-HF {reported}, the benchmark scores {expected:.6f}")
                else:
                    found, gla = _check_study_csv(out.path, result["stdout"])
                    problems[i] += found
                    if gla is not None:
                        quality[i] = gla
            except (OSError, ValueError, IndexError) as exc:
                problems[i].append(f"{out.path}: unreadable ({exc})")
    if manifest["workload"] == "study":
        # The study deletes its WAVs; the worker saw them as they were written.
        writes = record["writes"]
        if len(writes) != 4:
            problems[0].append(f"study wrote {len(writes)} WAVs, expected 4 (LR and 3 reconstructions)")
        source = clips["clip"]
        for w in writes:
            problems[0] += _wav_problems(w["channels"], w["finite"], source["channels"])
            written.append((w["peak"] / source["peak"], abs(w["frames"] - source["frames"])))
    if manifest["workload"] == "long-stereo":
        index = {op.name: i for i, op in enumerate(ops)}
        flip, ref = quality.get(index["sr-oracle-flip"]), quality.get(index["sr-oracle-ref"])
        if flip is not None and ref is not None and not ref < flip:
            problems[index["sr-oracle-ref"]].append(f"reference phase LSD-HF {ref:.4f} not below flip {flip:.4f}")
    return {"problems": problems, "quality": list(quality.values()), "written": written}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


def _worker(job: dict, run_dir: Path, env: dict, deadline: float) -> dict | None:
    """Run worker.py on ``job``; its result, or None if it died."""
    index = len(list(run_dir.glob("job*.json")))
    job = job | {"result": str(run_dir / f"result{index}.json")}
    job_path = run_dir / f"job{index}.json"
    job_path.write_text(json.dumps(job))
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=max(1.0, deadline - time.time() - 10.0))
    if done.returncode != 0:
        print(f"worker failed ({done.returncode}): {done.stderr.strip()[-2000:]}", file=sys.stderr)
        return None
    return json.loads(Path(job["result"]).read_text())


def _environment(args, manifest) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_workers": os.cpu_count(),  # bwx.dsp calls scipy.fft with workers=-1
        "clips": {k: {"frames": c["frames"], "channels": c["channels"], "stft_shape": c["stft_shape"]}
                  for k, c in manifest["clips"].items()},
    }


def _merge(dicts: list[dict]) -> dict:
    """Sum nested {name: {key: number}} dicts (or flat {name: number} ones)."""
    out: dict = {}
    for d in dicts:
        for name, value in d.items():
            if isinstance(value, dict):
                entry = out.setdefault(name, {})
                for key, v in value.items():
                    entry[key] = entry.get(key, 0.0) + v
            else:
                out[name] = out.get(name, 0.0) + value
    return out


def _layer_metrics(summary: dict, n_traced: int, untraced_wall: float, traced_walls: list) -> dict:
    values = {}
    for name, entry in summary.items():
        for key in ("calls", "self_s", "bytes"):
            values[f"{name}.{key}"] = entry.get(key, 0.0) / n_traced
    gla = summary.get("phase.gla", {})
    calls, iterations = gla.get("calls", 0.0), gla.get("iterations", 0.0)
    values["phase.gla.iterations"] = iterations / n_traced
    values["phase.gla.s_per_iter"] = gla.get("total_s", 0.0) / iterations if iterations else 0.0
    values["phase.gla.rss_growth_mb"] = gla.get("heap_growth_bytes", 0.0) / calls / 2**20 if calls else 0.0
    values["phase.gla.final_residual"] = gla.get("final_residual", 0.0) / calls if calls else 0.0
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_s"] = statistics.median(traced_walls) - untraced_wall
    return values


def _trace_report(summary: dict, inside: dict, n_traced: int, traced_wall: float, env: dict) -> None:
    covered = sum(e["self_s"] for n, e in summary.items() if n.startswith(("dsp.", "phase."))) / n_traced
    share = covered / traced_wall
    verdict = ("ok" if share >= COVERAGE else "BELOW") if env["workload"] == "study" else "not checked"
    print(f"trace: dsp+phase self time {covered:.3f} s of a {traced_wall:.3f} s traced pass "
          f"({share:.1%}; study check >= {COVERAGE:.0%}: {verdict})")
    iterations = summary.get("phase.gla", {}).get("iterations", 0.0)
    if not iterations:
        return
    ms = {name: 1e3 * total / iterations for name, total in inside.items()}
    outside = 1e3 * summary["phase.gla"]["self_s"] / iterations
    base = ROADMAP_GLA_MS
    print(f"GLA per iteration: {ms['phase.gla']:.1f} ms with the trace on (ROADMAP: 142 ms on, 106 ms off)")
    print(f"  projection {ms.get('dsp.project', 0):.1f} ms (ROADMAP {base['projection']:.0f}): "
          f"stft {ms.get('dsp.stft', 0):.1f} of which rfft {ms.get('dsp.rfft', 0):.1f}; "
          f"istft {ms.get('dsp.istft', 0):.1f} of which irfft {ms.get('dsp.irfft', 0):.1f}, "
          f"overlap-add and normalisation {ms.get('dsp.istft', 0) - ms.get('dsp.irfft', 0):.1f}")
    print(f"  outside the projection {outside:.1f} ms: re-imposition and NaN check (ROADMAP "
          f"{base['re-imposition']:.0f} + {base['nan check']:.0f}); the study runs GLA without the "
          f"residual trace, so the ROADMAP's {base['norm']:.0f} ms norm is not part of it here")
    print(f"  machine: {env['nproc']} x {env['cpu'] or 'unknown CPU'}, load average {env['loadavg'][0]:.2f}, "
          f"Python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}; ROADMAP: 2 cores, "
          f"Python 3.11.7, numpy 2.4.6, scipy 1.17.1. With equal versions and cores, gaps are "
          f"contention from other load on the host")


def main(argv=None) -> int:
    args = _parse_args(argv)
    deadline = time.time() + RUN_LIMIT_S
    if not (SRC / "bwx" / "cli.py").is_file():
        print(f"no bwx sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))

    manifest = _inputs(args.workload, args.seed)
    run_dir = RUNS / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    env = _child_env(run_dir / "tmp")
    job = {"manifest": manifest, "run_dir": str(run_dir), "trace": False,
           "observe_writes": args.workload == "study", "pass_dir": None}
    workers: list[dict] = []
    try:
        # Passes until the next one would end after --seconds; at least one.
        # With --trace 1 the first pass is untraced, for the overhead.
        walls: list[float] = []
        while not walls or sum(walls) + statistics.median(walls) <= args.seconds:
            traced = bool(args.trace) and bool(workers)
            pass_dir = str(run_dir / f"pass{len(workers)}")
            result = _worker(job | {"pass_dir": pass_dir, "trace": traced}, run_dir, env, deadline)
            if result is None:
                return 1
            result["pass"]["traced"] = traced
            workers.append(result)
            if traced or not args.trace:
                walls.append(result["pass"]["wall_s"])
        # Every worker gives one set-up sample; top up to SETUP_SAMPLES.
        while not args.trace and len(workers) < SETUP_SAMPLES:
            result = _worker(job, run_dir, env, deadline)
            if result is None:
                return 1
            workers.append(result)
    except subprocess.TimeoutExpired as exc:
        print(f"timed out after {exc.timeout:.0f} s: {exc.cmd}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 1

    try:
        passes = [w["pass"] for w in workers if "pass" in w]
        scorer = Scorer()
        checks = [check_pass(manifest, record, scorer) for record in passes]
        problems = [p for c in checks for p in c["problems"]]
        for record, c in zip(passes, checks):
            for op, op_problems in zip(record["ops"], c["problems"]):
                for problem in op_problems:
                    print(f"FAILED ({op['seconds']:.2f} s): {problem}", file=sys.stderr)
        warmups_failed = sum(w["warmup"]["code"] != 0 for w in workers)
        attempted = len(problems) + len(workers)
        failed = sum(1 for p in problems if p) + warmups_failed

        env_record = _environment(args, manifest)
        env_record["passes_s"] = [p["wall_s"] for p in passes]
        env_record["passes_cpu_s"] = [p.get("cpu_s") for p in passes]
        print("env " + json.dumps(env_record))
        if args.trace:
            traced = [w for w in workers if w["pass"]["traced"]]
            summary = _merge([w["summary"] for w in traced])
            inside = _merge([w["inside_gla"] for w in traced])
            traced_walls = [w["pass"]["wall_s"] for w in traced]
            for name in sorted({m for w in traced for m in w["missing_targets"]}):
                print(f"trace: {name} not found, so not traced")
            values = _layer_metrics(summary, len(traced), passes[0]["wall_s"], traced_walls)
            _trace_report(summary, inside, len(traced), statistics.median(traced_walls), env_record)
            TRACES.mkdir(exist_ok=True)
            (TRACES / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
                "env": env_record, "summary": summary, "inside_gla": inside,
                "span_fields": ["name", "start", "end", "parent", "extras"],
                "spans_per_pass": [w["spans"] for w in traced],
            }))
            wanted = spec["per_layer"]
        else:
            quality = [q for c in checks for q in c["quality"]]
            written = [c["written"] for c in checks]
            values = {
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "setup_s": statistics.median(w["setup_s"] for w in workers),
                "peak_rss_mb": statistics.median(w["maxrss_mb"] for w in workers if "pass" in w),
                "ok_ratio": (attempted - failed) / attempted,
                "lsd_hf_db": float(np.mean(quality)) if quality else float("nan"),
                "out_peak_ratio": statistics.median(max((r for r, _ in w), default=0.0) for w in written),
                "len_delta_samples": statistics.median(sum(d for _, d in w) for w in written),
            }
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
        print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
