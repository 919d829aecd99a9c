import json
from pathlib import Path

import pytest

import run
import workloads

SIZE_FLAGS = ("--points", "--grid", "--max-m", "--steps", "--m")


def sizes(jobs):
    """Job names, subcommands and size flags: what sets the work in a pass."""
    out = []
    for name, argv in jobs:
        flags = {a: argv[i + 1] for i, a in enumerate(argv[:-1]) if a in SIZE_FLAGS}
        out.append((name, argv[0], flags))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_is_deterministic_and_fixes_the_work(workload):
    base = workloads.job_list(workload, 0)
    for seed in (1, 2, 12345):
        jobs = workloads.job_list(workload, seed)
        assert jobs == workloads.job_list(workload, seed)
        assert sizes(jobs) == sizes(base)
        assert not any("--jobs" in argv for _, argv in jobs)
    if workload == "table":
        assert workloads.job_list(workload, 7) == base
    else:
        assert workloads.job_list(workload, 1) != workloads.job_list(workload, 2)


def test_default_seed_uses_the_reproduce_all_values():
    jobs = dict(workloads.job_list("sweeps", workloads.DEFAULT_SEED))
    assert jobs["stirap-curve"] == ["stirap-curve", "--min", "1", "--max", "80",
                                    "--points", "50", "--T", "1"]
    assert jobs["timing-error"][-4:] == ["--points", "41", "--T", "1"]
    assert "0.1" in jobs["timing-error"]


def test_warmup_shrinks_sizes_only():
    jobs = workloads.job_list("sweeps", 3)
    warm = workloads.warmup_list(jobs)
    assert [argv[0] for _, argv in warm] == [argv[0] for _, argv in jobs]
    assert all(argv[argv.index("--points") + 1] == "2" for _, argv in warm)
    assert all("--T" in argv for _, argv in warm)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_importtime_split():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1500 |       1500 |   numpy.core\n"
              "import time:       500 |       2000 | numpy\n"
              "import time:     20000 |      20000 |     scipy.optimize\n"
              "import time:       300 |        300 |   json\n"
              "import time:      4000 |      26300 | lambda_sta.cli\n")
    assert run._importtime_split(stderr) == pytest.approx(
        {"numpy": 0.002, "scipy": 0.02, "lambda_sta": 0.004})
