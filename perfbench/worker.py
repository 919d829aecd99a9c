"""Runs one workload in-process through ``lambda_sta.cli.main(argv)``.

Reads a JSON spec on stdin and writes one JSON result on stdout.  Started by
run.py with ``src/`` of the checkout first on PYTHONPATH, so it times the
library in that checkout.  Order: a warm-up pass, timed passes with tracing
off for about ``seconds``, then (when asked) one traced pass and one
pass of the reference jobs.
"""

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from spans import Tracer


def run_pass(main, jobs, outdir):
    """Run each job into its own directory; returns (wall, per-job walls,
    failures)."""
    failures, job_walls = [], []
    sink = io.StringIO()
    start = time.perf_counter()
    for j, (name, argv) in enumerate(jobs):
        jobdir = outdir / f"{j}-{name}"
        job_start = time.perf_counter()
        err = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            try:
                status = main(["--outdir", str(jobdir), *argv])
            except SystemExit as exc:
                status = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash is a failed job, not a crashed benchmark
                status, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
        job_walls.append(time.perf_counter() - job_start)
        if status != 0:
            failures.append({"job": j, "status": status,
                             "stderr": err.getvalue()[-500:]})
        sink.seek(0)
        sink.truncate()
    return time.perf_counter() - start, job_walls, failures


def bytes_written(outdir):
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def main():
    spec = json.load(sys.stdin)
    out = Path(spec["outdir"])
    src = Path(spec["src"]).resolve()

    import lambda_sta
    if not Path(lambda_sta.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"lambda_sta imported from {lambda_sta.__file__}, "
                         f"not from {src}")
    from lambda_sta.cli import main as cli_main

    result = {"passes": [], "job_walls": [], "failures": []}
    run_pass(cli_main, spec["warmup"], out / "warmup")

    # Whole passes, as many as bring the measured time nearest to `seconds`:
    # stop once one more pass would overshoot by more than we now fall short.
    elapsed = 0.0
    while True:
        k = len(result["passes"])
        wall, job_walls, failures = run_pass(cli_main, spec["jobs"], out / f"pass{k}")
        result["passes"].append(wall)
        result["job_walls"].append(job_walls)
        result["failures"].append(failures)
        elapsed += wall
        if elapsed + wall / 2 >= spec["seconds"]:
            break
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if spec["trace"]:
        tracer = Tracer().install()
        try:
            wall, _, failures = run_pass(cli_main, spec["jobs"], out / "traced")
        finally:
            tracer.uninstall()
        tracer.dump(out / "spans.json")
        result["traced"] = {"wall_s": wall, "failures": failures,
                            "bytes_written": bytes_written(out / "traced")}
    if spec.get("reference_jobs"):
        _, _, failures = run_pass(cli_main, spec["reference_jobs"], out / "reference")
        result["reference_failures"] = failures

    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
