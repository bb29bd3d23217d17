"""Record same-session benchmark pairs of the working tree against a baseline
revision, and write them as a ``BENCH_<n>.json``.

Usage, from the repository root:

    python3 tools/bench_record.py --baseline REV --out BENCH_<n>.json \\
        WORKLOAD:FIRST-LAST [WORKLOAD:FIRST-LAST ...]

for example ``study:101-110 long-stereo:111-113``. Each ``WORKLOAD:FIRST-LAST``
runs ``perfbench/run.py --workload WORKLOAD --seed S --seconds SECONDS`` once
per seed S in FIRST..LAST, SECONDS being ``BENCHMARK.json``'s ``run_seconds``,
on each side: the working tree as it is, and the
committed files of REV, exported with ``git archive`` into a temporary
directory that is removed at the end. Before a seed's pair, both sides
synthesise that seed's inputs in a separate process, so every timed run has
a warm ``.bench_cache/`` and its ``peak_rss_mb`` is the worker's own. The
two sides alternate which runs first from one seed to the next.

The file holds, per workload, every pair's end-to-end metrics, pass wall and
CPU times and CPU steal (from ``/proc/stat`` deltas over the run), and per
side how many runs failed or failed their output check. Only pairs whose two
runs both passed their output check are compared. Per ``BENCHMARK.json``
end-to-end metric it gives each side's median and quartiles, how many pairs
the working tree won, lost and tied, and three verdicts:

* ``gain_shown``: at least ten pairs were compared, the working tree is
  better in at least nine of every ten, and its median is better than the
  baseline's by more than the baseline's interquartile range.
* ``within_bound``: the working tree's median is not worse than the
  baseline's by more than the metric's ``bound``, read as a fraction of the
  baseline's median.
* ``resolved``: the runs are steady enough to tell the sides apart at that
  bound: neither side's interquartile range exceeds ``bound`` times the
  baseline's median, or else every working-tree run beats every baseline
  run. When it is false, neither verdict above says anything.

It also records which benchmark each side ran: the sha256 of every
git-tracked file under ``perfbench/`` and of ``BENCHMARK.json``, per side,
and ``same_harness``, whether the two sets match. When they do not, it
prints a warning, since the pairs then compare the harnesses as well as
bwx. Per side it records the source's size, the four numbers the
simplicity work is measured by: ``source_lines``, the newlines in
``src/bwx/*.py`` (what ``cat src/bwx/*.py | wc -l`` prints), ``types``,
their module-level ``class`` statements, ``public_names``, the length of
``bwx.__all__``, and ``cli_options``, the ``add_argument`` calls in
``src/bwx/cli.py`` whose first argument starts with ``--``; the last three
are read with ``ast``, so nothing is imported from either tree. It records both revisions, nproc, the library versions,
the load average, the session's total steal and a calibration taken in the
same session: the median time of ``numpy.fft.rfft`` over a 1715 x 2048
float64 array, at the start and at the end. The file is rewritten after
every pair, so a session that stops early leaves the pairs it finished.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
CALIBRATION_SHAPE = (1715, 2048)  # a 10 s clip's frames at 2048 / 256
CALIBRATION_REPEATS = 15
GAIN_MIN_PAIRS = 10  # fewer compared pairs never show a gain
HARNESS = ("perfbench", "BENCHMARK.json")  # the benchmark's own files, hashed per side

# Synthesises a seed's inputs into the checkout's .bench_cache/ (the
# benchmark's own cache), in a process of its own.
WARM = (
    "import sys; sys.path[:0] = ['perfbench', 'src']; import run; "
    "run._inputs(sys.argv[1], int(sys.argv[2]))"
)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare against")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("runs", nargs="+", metavar="WORKLOAD:FIRST-LAST")
    args = parser.parse_args(argv)
    args.plan = []
    for run in args.runs:
        workload, _, seeds = run.partition(":")
        first, _, last = seeds.partition("-")
        try:
            seed_range = range(int(first), int(last or first) + 1)
        except ValueError:
            parser.error(f"{run!r} is not WORKLOAD:FIRST-LAST")
        if not seed_range:
            parser.error(f"{run!r} names no seed")
        args.plan.append((workload, list(seed_range)))
    return args


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def _export(rev: str, directory: Path) -> None:
    """The committed files of ``rev`` under ``directory``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _harness(root: Path, names: list[str]) -> dict:
    """sha256 of each file that ``names`` lists, relative to ``root``; None
    for one that is not there."""
    return {
        name: hashlib.sha256((root / name).read_bytes()).hexdigest() if (root / name).is_file() else None
        for name in names
    }


def _source_size(root: Path) -> dict:
    """The newlines in ``root``'s ``src/bwx/*.py``, as ``wc -l`` counts them,
    their module-level ``class`` statements, the number of names in the
    ``__all__`` list of its ``src/bwx/__init__.py`` and the number of
    ``add_argument("--...")`` calls in its ``src/bwx/cli.py``, parsed, not
    imported."""
    package = root / "src" / "bwx"
    lines = sum(path.read_bytes().count(b"\n") for path in package.glob("*.py"))
    types = sum(
        isinstance(node, ast.ClassDef)
        for path in package.glob("*.py")
        for node in ast.parse(path.read_text()).body
    )
    names = next(
        ast.literal_eval(node.value)
        for node in ast.parse((package / "__init__.py").read_text()).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    options = sum(
        isinstance(node, ast.Call)
        and getattr(node.func, "attr", None) == "add_argument"
        and bool(node.args)
        and isinstance(node.args[0], ast.Constant)
        and str(node.args[0].value).startswith("--")
        for node in ast.walk(ast.parse((package / "cli.py").read_text()))
    )
    return {"source_lines": lines, "types": types, "public_names": len(names), "cli_options": options}


def _check_harness(record: dict) -> None:
    """Set ``record["same_harness"]`` from the two sides' harness hashes, and
    warn on stderr, naming the files that differ, when they do not match."""
    base, change = record["baseline"]["harness"], record["change"]["harness"]
    record["same_harness"] = base == change
    if not record["same_harness"]:
        shared = base.keys() & change.keys()
        differ = sorted((base.keys() ^ change.keys()) | {n for n in shared if base[n] != change[n]})
        print(f"warning: the two sides run different benchmarks ({', '.join(differ)} differ), "
              "so their pairs compare the harnesses as well as bwx", file=sys.stderr)


def _cpu_times() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat, in clock ticks (empty where
    there is none)."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return []


def _steal(before: list[int], after: list[int]) -> float | None:
    """Share of CPU time stolen between two /proc/stat readings."""
    if len(before) < 8 or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user .. steal; guest time is already in user
    return delta[7] / total if total else 0.0


def _calibrate() -> float:
    """Median seconds of one numpy rfft over CALIBRATION_SHAPE."""
    x = np.random.default_rng(0).standard_normal(CALIBRATION_SHAPE)
    times = []
    for _ in range(CALIBRATION_REPEATS):
        started = time.perf_counter()
        np.fft.rfft(x, axis=1)
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def _env() -> dict:
    return {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}  # each side runs its own src/


def _run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in checkout ``root``: its metrics, pass times and steal,
    or the error that stopped it."""
    warm = subprocess.run([sys.executable, "-c", WARM, workload, str(seed)], cwd=root, env=_env(),
                          capture_output=True, text=True)
    if warm.returncode != 0:
        return {"seed": seed, "error": f"input synthesis exit {warm.returncode}: {warm.stderr.strip()[-2000:]}"}
    before, started = _cpu_times(), time.time()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=root, env=_env(), capture_output=True, text=True)
    record = {"seed": seed, "started": started, "steal": _steal(before, _cpu_times())}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return record | {"error": f"exit {done.returncode}: {done.stderr.strip()[-2000:]}"}
    result = json.loads(lines[-1])
    env_line = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return record | {
        "correct": result["correct"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "passes_s": env_line.get("passes_s"),
        "passes_cpu_s": env_line.get("passes_cpu_s"),
        "loadavg": env_line.get("loadavg"),
    }


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def _compare(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per side, the runs that failed or failed their output check; per
    end-to-end metric, over the pairs whose two runs both passed: each side's
    median and quartiles, the working tree's wins, losses and ties against
    the baseline, and the gain, bound and resolution verdicts (see the module
    docstring)."""
    out = {
        side: {
            "failed": sum("error" in p[side] for p in pairs),
            "incorrect": sum(p[side].get("correct") is False for p in pairs),
        }
        for side in ("baseline", "change")
    }
    compared = [p for p in pairs if p["baseline"].get("correct") and p["change"].get("correct")]
    out["pairs_compared"] = len(compared)
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [p["baseline"]["metrics"][name] for p in compared]
        change = [p["change"]["metrics"][name] for p in compared]
        if not base:
            continue
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        sides = {"baseline": _quartiles(base), "change": _quartiles(change)}
        b_median, c_median = sides["baseline"]["median"], sides["change"]["median"]
        worse_by = (c_median - b_median) if lower else (b_median - c_median)
        spread = metric["bound"] * abs(b_median)
        apart = max(change) < min(base) if lower else min(change) > max(base)
        out[name] = sides | {
            "unit": metric["unit"],
            "better": metric["better"],
            "change_wins": wins,
            "change_losses": len(base) - wins - ties,
            "ties": ties,
            "gain_shown": len(base) >= GAIN_MIN_PAIRS
            and 10 * wins >= 9 * len(base)
            and -worse_by > sides["baseline"]["q3"] - sides["baseline"]["q1"],
            "bound": metric["bound"],
            "within_bound": worse_by <= spread,
            "resolved": apart or all(q["q3"] - q["q1"] <= spread for q in sides.values()),
        }
    return out


def _versions() -> dict:
    versions = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        import scipy
    except ImportError:
        versions["scipy"] = None
    else:
        versions["scipy"] = scipy.__version__
    return versions


def _write(path: Path, record: dict, session_start: list[int]) -> None:
    record["steal_session"] = _steal(session_start, _cpu_times())
    record["loadavg_end"] = os.getloadavg()
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = {w["name"] for w in spec["workloads"]}
    for workload, _ in args.plan:
        if workload not in known:
            print(f"unknown workload {workload!r}; BENCHMARK.json has {sorted(known)}", file=sys.stderr)
            return 2
    baseline_rev = _git("rev-parse", "--verify", f"{args.baseline}^{{commit}}")
    record = {
        "baseline": {"rev": baseline_rev},
        # The working tree: its HEAD, and whether it differs from it.
        "change": {"head": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain"))},
        "seconds": spec["run_seconds"],
        "nproc": os.cpu_count(),
        "versions": _versions(),
        "loadavg_start": os.getloadavg(),
        "calibration_rfft_s": {"shape": list(CALIBRATION_SHAPE), "start": _calibrate()},
        "workloads": {},
    }
    session_start = _cpu_times()
    tmp = Path(tempfile.mkdtemp(prefix="bwx-bench-"))
    try:
        baseline_root = tmp / "baseline"
        _export(baseline_rev, baseline_root)
        tracked = _git("ls-tree", "-r", "--name-only", baseline_rev, "--", *HARNESS).splitlines()
        record["baseline"]["harness"] = _harness(baseline_root, tracked)
        record["change"]["harness"] = _harness(ROOT, _git("ls-files", "--", *HARNESS).splitlines())
        for side, root in (("baseline", baseline_root), ("change", ROOT)):
            record[side] |= _source_size(root)
        _check_harness(record)
        sides = {"baseline": baseline_root, "change": ROOT}
        for workload, seeds in args.plan:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ["baseline", "change"] if i % 2 == 0 else ["change", "baseline"]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(sides[side], workload, seed, spec["run_seconds"])
                    print(f"{workload} seed {seed} {side}: "
                          f"{pair[side].get('metrics', pair[side].get('error'))}", file=sys.stderr)
                pairs.append(pair)
                record["workloads"][workload] = {
                    "pairs": pairs,
                    "summary": _compare(pairs, spec["end_to_end"]),
                }
                _write(args.out, record, session_start)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    record["calibration_rfft_s"]["end"] = _calibrate()
    _write(args.out, record, session_start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
