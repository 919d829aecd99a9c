#!/usr/bin/env python3
"""Regenerate every data artifact (figure CSVs and the amplitude table)
into results/, one subdirectory per command.

Each stage's wall time, and the total, go to stdout only, so that the
files under results/ stay byte-identical from run to run."""

import sys
import time
from pathlib import Path

from lambda_sta.cli import main

RUNS = [
    ("design", ["design", "--m", "1"]),
    ("fit", ["fit", "--m", "1"]),
    ("fig1", ["fig1"]),
    ("fig2", ["fig2"]),
    ("fig3", ["fig3"]),
    ("fig4", ["fig4"]),
    ("fig5", ["fig5", "--grid", "21"]),
    ("table1", ["table1", "--max-m", "7"]),
]


def run_all(root="results"):
    start = time.perf_counter()
    for name, argv in RUNS:
        outdir = Path(root) / name
        print(f"== {name} -> {outdir}")
        stage = time.perf_counter()
        status = main(["--outdir", str(outdir), *argv])
        print(f"== {name}: {time.perf_counter() - stage:.2f} s")
        if status != 0:
            return status
    print(f"== total: {time.perf_counter() - start:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(run_all(*sys.argv[1:]))
