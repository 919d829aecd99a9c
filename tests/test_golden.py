"""Regression oracle: every subcommand at a reduced size against the
outputs stored under tests/golden/, and every stage of
scripts/reproduce_all.py at full size against tests/golden/full/.

Each CSV must keep its header exactly and every value to within 1e-12
(relative to the value for magnitudes above 1); each JSON document must
keep its structure and its numbers to the same tolerance.  Each
manifest.json, the fully resolved configuration of its run, must match
byte for byte.  The stored files were produced by the CLI itself;
regenerate them with the argv lists below (or reproduce_all's RUNS) only
when a numerical or configuration change is intended.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from lambda_sta.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPRODUCE_ALL = Path(__file__).parents[1] / "scripts" / "reproduce_all.py"
TOLERANCE = 1e-12

RUNS = {
    "design": ["design"],
    "fit": ["fit"],
    "fig1": ["fig1"],
    "fig2": ["fig2", "--steps", "2000"],
    "fig3": ["fig3", "--steps", "2000"],
    "fig4": ["fig4", "--points", "5", "--steps", "2000"],
    "fig5": ["fig5", "--grid", "3"],
    "table1": ["table1", "--max-m", "2"],
    "simulate": ["simulate", "--steps", "2000"],
    "lindblad": ["lindblad", "--steps", "2000"],
    "sweep": ["sweep", "--kind", "amp2-error", "--points", "3"],
    "stirap-curve": ["stirap-curve", "--points", "3"],
}


def _full_runs():
    """reproduce_all's stages, read from the script so the two cannot
    drift."""
    spec = importlib.util.spec_from_file_location("reproduce_all",
                                                  REPRODUCE_ALL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return dict(module.RUNS)


CASES = [(GOLDEN / name, argv) for name, argv in sorted(RUNS.items())]
CASES += [(GOLDEN / "full" / name, argv)
          for name, argv in sorted(_full_runs().items())]


def close(a, b):
    return abs(a - b) <= TOLERANCE * max(1.0, abs(b))


def assert_same_json(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, (int, float)) and close(got, want), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_same_csv(got, want, where):
    got, want = got.splitlines(), want.splitlines()
    assert got[0] == want[0], f"{where}: header"
    assert len(got) == len(want), f"{where}: row count"
    for n, (g, w) in enumerate(zip(got[1:], want[1:]), 2):
        g, w = [float(x) for x in g.split(",")], [float(x) for x in w.split(",")]
        assert len(g) == len(w) and all(map(close, g, w)), f"{where}:{n}"


@pytest.mark.parametrize("golden, argv", CASES,
                         ids=[str(g.relative_to(GOLDEN)) for g, _ in CASES])
def test_matches_golden_output(tmp_path, golden, argv):
    assert main(["--outdir", str(tmp_path), *argv]) == 0
    expected = sorted(p.name for p in golden.iterdir())
    produced = sorted(p.name for p in tmp_path.iterdir()
                      if p.suffix in (".csv", ".json"))
    assert produced == expected
    for filename in expected:
        got = (tmp_path / filename).read_text()
        want = (golden / filename).read_text()
        where = f"{golden.relative_to(GOLDEN)}/{filename}"
        if filename == "manifest.json":
            assert got == want, where
        elif filename.endswith(".json"):
            assert_same_json(json.loads(got), json.loads(want), where)
        else:
            assert_same_csv(got, want, where)
