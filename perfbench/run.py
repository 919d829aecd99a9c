#!/usr/bin/env python3
"""Benchmark of the lambda-sta reproduction pipeline.

    python3 perfbench/run.py --workload sweeps --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
A run measures set-up (fresh-interpreter imports of ``lambda_sta.cli``), then
starts a worker process that drives ``lambda_sta.cli.main(argv)`` in-process
over the workload's job list: a warm-up pass, then whole timed passes whose
total is nearest to ``--seconds`` (at least one).  With ``--trace 1`` the
worker also makes one traced pass, and the run reports per-layer metrics
instead of end-to-end ones.  Every output is checked (checker.py); a job fails if it exits
non-zero or its outputs fail a check.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, the environment and the pass count.  The full record
(per-pass times, failures, environment) goes to
``.perfbench_out/<workload>-seed<n>-trace<t>/result.json``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import scipy

import checker
import spans
import workloads

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference"
SETUP_SAMPLES = 3
WORKER_TIMEOUT = 170
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    **{f"dynamics.{kind}.{k}": u
       for kind in ("schrodinger", "lindblad")
       for k, u in (("calls", "count"), ("steps", "count"), ("busy_s", "s"),
                    ("ns_per_step", "ns"))},
    "dynamics.calls": "count", "dynamics.self_s": "s",
    "analysis.calls": "count", "analysis.points": "count",
    "analysis.self_s": "s",
    "pulsefit.fit.calls": "count", "pulsefit.fit.busy_s": "s",
    "pulsefit.fit.nfev": "count", "pulsefit.fit.converged_ratio": "ratio",
    **{f"pulsefit.fit_s.m{w}": "s" for w in spans.WINDINGS},
    **{f"pulsefit.nfev.m{w}": "count" for w in spans.WINDINGS},
    "pulsefit.calls": "count", "pulsefit.self_s": "s",
    "protocol.calls": "count", "protocol.busy_s": "s",
    "cli.calls": "count", "cli.self_s": "s", "cli.bytes_written": "bytes",
    "setup.numpy_s": "s", "setup.scipy_s": "s", "setup.lambda_sta_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
    "output.max_abs_dev": "value", "output.mismatched_files": "count",
    "error_rate": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-reference", action="store_true",
                   help="store this run's outputs as the workload's reference "
                        "(default seed only)")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.write_reference and args.seed != workloads.DEFAULT_SEED:
        p.error("reference outputs are stored for the default seed only")
    return args


def nproc():
    return len(os.sched_getaffinity(0))


def pinned_env(root):
    """Environment for every child: the checkout's src/ first on the path,
    BLAS thread pools capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    cap = nproc()
    for var in BLAS_VARS:
        try:
            n = min(int(env[var]), cap)
        except (KeyError, ValueError):
            n = cap
        env[var] = str(max(n, 1))
    return env


def environment(root):
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit,
            "blas_threads": {v: pinned_env(root)[v] for v in BLAS_VARS}}


IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import lambda_sta.cli; "
                  "print(time.perf_counter() - t)")


def _importtime_split(stderr):
    """Self import time by top-level package from -X importtime output."""
    split = {"numpy": 0.0, "scipy": 0.0, "lambda_sta": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        try:
            us = int(fields[0])
        except ValueError:
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        if top in split:
            split[top] += us * 1e-6
    return split


def measure_setup(root, env, split):
    """Import time of lambda_sta.cli in SETUP_SAMPLES fresh interpreters;
    with split, also -X importtime samples attributed to numpy, scipy and
    lambda_sta."""
    totals, splits = [], []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, "-c", IMPORT_SNIPPET]
        r = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                           text=True, timeout=60, check=True)
        totals.append(float(r.stdout.strip().splitlines()[-1]))
        if split:
            r = subprocess.run([sys.executable, "-X", "importtime", "-c",
                                "import lambda_sta.cli"], cwd=root, env=env,
                               capture_output=True, text=True, timeout=60,
                               check=True)
            splits.append(_importtime_split(r.stderr))
    medians = {k: statistics.median(s[k] for s in splits) for k in splits[0]} if splits else {}
    return totals, medians


def run_worker(root, env, spec):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=root,
                          env=env, input=json.dumps(spec), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def check_pass(passdir, failures, jobs, problems):
    """Failed job indices of one pass: non-zero exits and failed checks."""
    failed = set()
    for f in failures:
        failed.add(f["job"])
        problems.append(f"{passdir.name} job {f['job']}: exit {f['status']}: "
                        f"{f['stderr'].strip()}")
    for j, (name, _) in enumerate(jobs):
        if j in failed:
            continue
        try:
            checker.check_job(passdir / f"{j}-{name}")
        except checker.CheckFailed as exc:
            failed.add(j)
            problems.append(f"{passdir.name} job {j}: {exc}")
    return failed


def write_reference(workload, passdir):
    dest = REFERENCE / workload
    shutil.rmtree(dest, ignore_errors=True)
    for path in passdir.rglob("*"):
        if path.is_file() and path.suffix in (".csv", ".json") \
                and path.name != "manifest.json":
            target = dest / path.relative_to(passdir)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(path, target)


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def check_outputs(args, jobs, inputs, out, res):
    """(attempted, failed, problems, spot-check record) over every timed and
    traced pass; spot checks run on the last timed pass."""
    problems, attempted, failed, spot_record = [], 0, 0, []
    passes = [(out / f"pass{k}", f) for k, f in enumerate(res["failures"])]
    if args.trace:
        passes.append((out / "traced", res["traced"]["failures"]))
    last = passes[len(res["passes"]) - 1][0]
    for passdir, failures in passes:
        bad = check_pass(passdir, failures, jobs, problems)
        if passdir == last and not bad:
            spot = checker.spot_checks(args.workload, jobs, inputs, passdir, args.seed)
            spot_record = [(j, what, str(o)) for j, what, o in spot]
            for j, what, outcome in spot:
                if isinstance(outcome, checker.CheckFailed):
                    bad.add(j)
                    problems.append(f"{passdir.name} job {j} spot check: {outcome}")
        attempted += len(jobs)
        failed += len(bad)
    return attempted, failed, problems, spot_record


def per_layer(args, out, res, split, compare_dir):
    trace = json.loads((out / "spans.json").read_text())
    m = spans.layer_metrics(trace["spans"])
    m["cli.bytes_written"] = res["traced"]["bytes_written"]
    m.update({f"setup.{k}_s": v for k, v in split.items()})
    traced = res["traced"]["wall_s"]
    m["trace.wall_s"] = traced
    m["trace.overhead_s"] = traced - statistics.median(res["passes"])
    m["trace.unattributed_s"] = traced - sum(m[k] for k in spans.LAYER_TOTALS)
    m["output.max_abs_dev"], m["output.mismatched_files"] = \
        checker.compare_with_reference(compare_dir, REFERENCE / args.workload)
    return m, trace["absent"]


def main(argv=None):
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lambda_sta" / "cli.py").is_file():
        print(f"error: {root} holds no src/lambda_sta/cli.py; run from the "
              f"root of a lambda-sta checkout", file=sys.stderr)
        return 2

    env = pinned_env(root)
    jobs = workloads.job_list(args.workload, args.seed)
    default_jobs = workloads.job_list(args.workload, workloads.DEFAULT_SEED)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment(root),
              "inputs": workloads.draw_inputs(args.seed), "jobs": jobs}

    out = root / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    setup, split = measure_setup(root, env, split=bool(args.trace))
    record["setup_samples"] = setup
    reference_pass = bool(args.trace) and jobs != default_jobs
    spec = {"src": str(root / "src"), "outdir": str(out), "jobs": jobs,
            "warmup": workloads.warmup_list(jobs), "seconds": args.seconds,
            "trace": bool(args.trace),
            "reference_jobs": default_jobs if reference_pass else None}
    try:
        res = run_worker(root, env, spec)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    record["worker"] = res

    attempted, failed, problems, record["spot_checks"] = check_outputs(
        args, jobs, record["inputs"], out, res)
    record["problems"] = problems
    walls = res["passes"]
    last = out / f"pass{len(walls) - 1}"

    if args.write_reference:
        if failed:
            print("error: not storing a reference from a run with failures",
                  file=sys.stderr)
            return 1
        write_reference(args.workload, last)

    if args.trace:
        m, record["absent"] = per_layer(args, out, res, split,
                                        out / "reference" if reference_pass else last)
        m["error_rate"] = failed / attempted
        metrics, units = {k: m[k] for k in PER_LAYER}, PER_LAYER
    else:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup),
                   "peak_rss_mb": res["maxrss_mb"]}
        units = END_TO_END
    record["metrics"] = metrics

    for path in out.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    (out / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    e = record["environment"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: closed loop, "
          f"1 client, {len(jobs)} jobs a pass, {len(walls)} timed passes")
    print(f"# nproc={e['nproc']} python={e['python']} numpy={e['numpy']} "
          f"scipy={e['scipy']} commit={e['commit']}")
    for name, value in metrics.items():
        note = f"  (median of {len(walls)} passes)" if name == "wall_s" else ""
        print(f"{name:32s} {fmt(value):>14s} {units[name]}{note}")
    if not args.trace:
        print(f"{'error_rate':32s} {fmt(failed / attempted):>14s} ratio"
              f"  ({failed}/{attempted} jobs)")
    for line in problems[:20]:
        print(f"# FAILED {line}")
    if args.trace and record["absent"]:
        print(f"# absent: {', '.join(record['absent'])}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
