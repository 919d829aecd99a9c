"""Workload job lists, drawn from a seed.

Every workload is a closed loop with one client: the jobs of a pass run one
after another through ``lambda_sta.cli.main(argv)``, each starting when the
previous one returns.  The seed draws only the inputs the physics leaves
free (interaction time T, sweep ranges, STIRAP amplitudes, decoherence
rates).  Job counts, step counts, grid sizes and windings are fixed, so the
amount of work in a pass does not depend on the seed.  Seed 0 is the default
seed: it uses the values ``scripts/reproduce_all.py`` uses, and the stored
reference outputs are for it.  Why each workload exists is in README.md and
BENCHMARK.json.
"""

import random

DEFAULT_SEED = 0

WORKLOADS = ("sweeps", "maps", "table", "trajectories")

# The decoherence-map grid per axis: 2 * 5 * 5 = 50 Lindblad runs, a few
# seconds a pass.  The full 21x21 maps take about a minute.
MAP_GRID = 5

# Sizes fixed for every seed.
SWEEP_POINTS = 41
STIRAP_POINTS = 50
MAX_M = 7

# Flags whose value sets the size of a job; the warm-up pass sets each to
# its smallest valid value so that it runs the same code paths cheaply.
SIZE_FLAGS = {"--points": "2", "--grid": "2", "--max-m": "2"}

CANONICAL = {
    "T": 1.0,
    "sweep_range": 0.1,
    "stirap_min": 1.0,
    "stirap_max": 80.0,
    "omega0": 45.0,
    "gamma1": 0.03,
    "gamma_phi1": 0.02,
}


def _num(x):
    return f"{x:.6g}"


def draw_inputs(seed):
    """Free physical inputs for a seed; seed 0 gives the canonical ones."""
    if seed == DEFAULT_SEED:
        return dict(CANONICAL)
    rng = random.Random(seed)
    T = float(_num(rng.uniform(0.5, 2.0)))
    return {
        "T": T,
        "sweep_range": float(_num(rng.uniform(0.05, 0.15))),
        "stirap_min": float(_num(rng.uniform(1.0, 5.0))),
        "stirap_max": float(_num(rng.uniform(60.0, 90.0))),
        "omega0": float(_num(rng.uniform(30.0, 60.0))),
        "gamma1": float(_num(rng.uniform(0.0, 0.05) / T)),
        "gamma_phi1": float(_num(rng.uniform(0.0, 0.05) / T)),
    }


def job_list(workload, seed):
    """[(job name, argv)] for one pass of a workload.  No job passes
    --jobs: its default is 1."""
    x = draw_inputs(seed)
    T = ["--T", _num(x["T"])]
    if workload == "sweeps":
        r = _num(x["sweep_range"])
        jobs = [("stirap-curve", ["stirap-curve", "--min", _num(x["stirap_min"]),
                                  "--max", _num(x["stirap_max"]),
                                  "--points", str(STIRAP_POINTS), *T])]
        for kind in ("timing-error", "amp1-error", "amp2-error"):
            jobs.append((kind, ["sweep", "--kind", kind, "--range", r,
                                "--points", str(SWEEP_POINTS), *T]))
        return jobs
    if workload == "maps":
        return [("fig5", ["fig5", "--grid", str(MAP_GRID), *T])]
    if workload == "table":
        return [("table1", ["table1", "--max-m", str(MAX_M)])]
    if workload == "trajectories":
        return [
            ("design", ["design", "--m", "1", *T]),
            ("fit", ["fit", "--m", "1", *T]),
            ("fig1", ["fig1", *T]),
            ("fig2", ["fig2", *T]),
            ("simulate-sta-fit", ["simulate", "--protocol", "sta-fit", *T]),
            ("simulate-stirap", ["simulate", "--protocol", "stirap",
                                 "--omega0", _num(x["omega0"]), *T]),
            ("lindblad-sta-ref", ["lindblad", "--protocol", "sta-ref",
                                  "--gamma1", _num(x["gamma1"]),
                                  "--gamma-phi1", _num(x["gamma_phi1"]), *T]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def warmup_list(jobs):
    """The same jobs at their smallest size."""
    out = []
    for name, argv in jobs:
        argv = list(argv)
        for i, a in enumerate(argv[:-1]):
            if a in SIZE_FLAGS:
                argv[i + 1] = SIZE_FLAGS[a]
        out.append((name, argv))
    return out
