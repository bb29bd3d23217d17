"""One pass of a workload in a fresh process; ``run.py`` starts it.

Usage: python3 perfbench/worker.py JOB.json  (writes the result JSON the job
names). The worker first imports bwx and makes one warm-up call, timing both:
that is one set-up sample. Then it runs one pass of the workload, unless the
job asks for set-up only, traced if the job says so. Each pass gets a fresh
process because each CLI call a user makes does, so allocator state from an
earlier pass cannot make a later one cheaper, and ``ru_maxrss`` is the pass's
own peak. Outputs are checked afterwards by ``run.py``.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

_started = time.perf_counter()
import bwx.cli  # noqa: E402  (importing bwx is part of the set-up time)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, patch_everywhere  # noqa: E402

_KEEP_TEXT = 2000


class WriteObserver:
    """Records peak, length, channel count and finiteness of every WAV bwx
    writes. The study writes its reconstructions to a temporary directory it
    deletes, so this is the only way to see them."""

    def __init__(self):
        self.op = -1
        self.records: list[dict] = []

    def install(self) -> None:
        original = bwx.wavio.wav_write

        def observed(path, x, *args, **kwargs):
            channels = [getattr(c, "samples", c) for c in ([x] if hasattr(x, "samples") else x)]
            self.records.append({
                "op": self.op,
                "path": str(path),
                "channels": len(channels),
                "frames": len(channels[0]),
                "peak": float(max(np.max(np.abs(c)) for c in channels)),
                "finite": bool(all(np.isfinite(c).all() for c in channels)),
            })
            return original(path, x, *args, **kwargs)

        patch_everywhere(original, observed)


def _call(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = bwx.cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a dead run
        code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
    return {
        "seconds": time.perf_counter() - started,
        "code": code,
        "stdout": out.getvalue()[-_KEEP_TEXT:],
        "stderr": err.getvalue()[-_KEEP_TEXT:],
    }


def run_pass(manifest: dict, out: Path, observer: WriteObserver | None) -> dict:
    out.mkdir(parents=True)
    ops = workloads.pass_ops(manifest, out)
    results = []
    started, cpu_started = time.perf_counter(), time.process_time()
    for index, op in enumerate(ops):
        if observer:
            observer.op = index
        results.append(_call(op.argv))
    wall, cpu = time.perf_counter() - started, time.process_time() - cpu_started
    writes = observer.records if observer else []
    return {"dir": str(out), "wall_s": wall, "cpu_s": cpu, "ops": results, "writes": writes}

def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    manifest, run_dir = job["manifest"], Path(job["run_dir"])
    warmup = _call(workloads.warmup_op(manifest, run_dir).argv)
    result = {"setup_s": time.perf_counter() - _started, "warmup": warmup}
    if job["pass_dir"] is not None:
        observer = WriteObserver() if job["observe_writes"] else None
        if observer:
            observer.install()
        tracer = Tracer() if job["trace"] else None
        if tracer:
            tracer.install()
        result["pass"] = run_pass(manifest, Path(job["pass_dir"]), observer)
        if tracer:
            result["missing_targets"] = tracer.missing
            result["summary"] = tracer.summary()
            result["inside_gla"] = tracer.inside_gla()
            result["spans"] = tracer.spans
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
