"""Regression oracle: every stage of scripts/reproduce_all.py at full size
against the outputs stored under tests/golden/full/, and every other
subcommand, or a stage's at a reduced size, against tests/golden/.

Each CSV must keep its header exactly and every value to within 1e-12
(relative to the value for magnitudes above 1); each JSON document must
keep its structure and its numbers to the same tolerance.  Values are
compared as the exact decimals they are written as, so a printed
difference of 1e-12 passes however binary floats would round it.  Each
manifest.json, the fully resolved configuration of its run, must match
byte for byte.  The stored files were produced by the CLI itself;
regenerate them with the argv lists below (or reproduce_all's RUNS) only
when a numerical or configuration change is intended.
"""

import importlib.util
import json
from contextlib import nullcontext
from decimal import Decimal
from pathlib import Path

import pytest

from lambda_sta.cli import main

GOLDEN = Path(__file__).parent / "golden"
REPRODUCE_ALL = Path(__file__).parents[1] / "scripts" / "reproduce_all.py"
TOLERANCE = Decimal("1e-12")

RUNS = {
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
    return abs(a - b) <= TOLERANCE * max(1, abs(b))


def assert_same_json(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, Decimal):
        assert isinstance(got, (int, Decimal)) and close(got, want), \
            f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def assert_same_csv(got, want, where):
    got, want = got.splitlines(), want.splitlines()
    assert got[0] == want[0], f"{where}: header"
    assert len(got) == len(want), f"{where}: row count"
    for n, (g, w) in enumerate(zip(got[1:], want[1:]), 2):
        g, w = ([Decimal(x) for x in row.split(",")] for row in (g, w))
        assert len(g) == len(w) and all(map(close, g, w)), f"{where}:{n}"


def load_json(text):
    """A JSON document with every non-integer number as a Decimal."""
    return json.loads(text, parse_float=Decimal)


@pytest.mark.parametrize("got, passes", [
    ("0.99475215112", True),    # 1e-12 away; 1.00000000003e-12 in binary
    ("0.994752151121", False),  # 2e-12 away
])
def test_tolerance_is_exact_in_decimal(got, passes):
    want = "0.994752151119"
    with nullcontext() if passes else pytest.raises(AssertionError):
        assert_same_csv(f"P3\n{got}\n", f"P3\n{want}\n", "csv")
    with nullcontext() if passes else pytest.raises(AssertionError):
        assert_same_json(load_json(got), load_json(want), "json")


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
            assert_same_json(load_json(got), load_json(want), where)
        else:
            assert_same_csv(got, want, where)
