#!/usr/bin/env python3
"""Run every workload untraced and traced, print every metric with its unit,
and record the numbers.

    python3 perfbench/baseline.py [--seed 0] [--seconds 20] [--out perfbench/baseline.json]

Run from the root of a checkout.  Each workload runs twice through run.py:
``--trace 0`` for the end-to-end metrics and ``--trace 1`` for the per-layer
ones.  The table shows one column per workload; ``error_rate`` is
failed/attempted jobs over both runs.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run
import spans
import workloads


def run_one(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=400)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--out", type=Path, default=None,
                   help="write the record here as JSON")
    args = p.parse_args()

    results = {}
    for w in workloads.WORKLOADS:
        plain = run_one(w, args.seed, args.seconds, 0)
        traced = run_one(w, args.seed, args.seconds, 1)
        m = {k: v["value"] for k, v in {**plain["metrics"], **traced["metrics"]}.items()}
        m["error_rate"] = ((plain["failed"] + traced["failed"])
                           / (plain["attempted"] + traced["attempted"]))
        results[w] = m
        print(f"# {w}: done", file=sys.stderr, flush=True)

    units = {**run.END_TO_END, **run.PER_LAYER}
    names = list(workloads.WORKLOADS)
    print(f"{'metric':32s} {'unit':6s} " + " ".join(f"{n:>13s}" for n in names))
    for metric, unit in units.items():
        cells = " ".join(f"{run.fmt(results[n][metric]):>13s}" for n in names)
        print(f"{metric:32s} {unit:6s} {cells}")
    print("# traced time by layer: sum of layer self/busy times, plus "
          "trace.unattributed_s, equals trace.wall_s")
    for n in names:
        m = results[n]
        layers = sum(m[k] for k in spans.LAYER_TOTALS)
        print(f"#   {n}: layers {layers:.4f} s + unattributed "
              f"{m['trace.unattributed_s']:.4f} s = traced {m['trace.wall_s']:.4f} s; "
              f"same run's untraced median "
              f"{m['trace.wall_s'] - m['trace.overhead_s']:.4f} s, "
              f"overhead {m['trace.overhead_s']:.4f} s")

    if args.out:
        env = run.environment(Path.cwd())
        record = {"seed": args.seed, "seconds": args.seconds,
                  "environment": env,
                  "units": units, "workloads": results}
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
