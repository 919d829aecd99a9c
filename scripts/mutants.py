#!/usr/bin/env python3
"""Mutation checks: do the tests still catch known faults of the kernels,
of the CLI's unit edge, where the unit-time results are scaled by T, and
of its exit status?

Each mutant is one fault put into a temporary copy of the tree: a file
under src/, an exact old text, the new text that replaces it, and the
test ids that must then fail.  For each mutant the script copies src/,
tests/ and pyproject.toml to a temporary directory, applies the mutant
and runs pytest on its test ids there.  A mutant is

- killed when every named test fails,
- survived when some named test passes: the tests lost power,
- stale when its old text is no longer in the file: the code moved on and
  the mutant must be rewritten.

The named tests are first run on the unmutated copy, where all must pass.

    python scripts/mutants.py             # every mutant
    python scripts/mutants.py NAME ...    # the named mutants

Exits 0 when every mutant is killed, 1 otherwise.  It runs pytest once per
mutant, so it stays out of the tier-1 suite.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DYNAMICS = "src/lambda_sta/dynamics.py"
CLI = "src/lambda_sta/cli.py"
ANALYSIS = "src/lambda_sta/analysis.py"
PROPAGATORS = ("tests/test_dynamics.py::"
               "test_lindblad_propagators_match_step_loop")
SCHRODINGER = ("tests/test_dynamics.py::"
               "test_evolve_schrodinger_matches_expm_product")
SHARED = "tests/test_dynamics.py::test_shared_grid_matches_expm_product"
TIMING = ("tests/test_dynamics.py::"
          "test_timing_sweep_matches_expm_product_on_its_edges")
MAPS = "tests/test_analysis.py::TestDecoherenceMap"
SCHEDULES = "tests/test_cli.py::test_schedules_scale_with_duration"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple


MUTANTS = [
    Mutant("step-ends-swapped", DYNAMICS,
           "    np.matmul(out, u[:-1], out=w)\n"
           "    np.matmul(out, w, out=y)\n"
           "    y += out\n"
           "    np.matmul(u[1:], y, out=out)\n",
           "    np.matmul(out, u[1:], out=w)\n"
           "    np.matmul(out, w, out=y)\n"
           "    y += out\n"
           "    np.matmul(u[:-1], y, out=out)\n",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[7-75-3]",
            f"{MAPS}::test_all_four_channels_match_stage_by_stage_rk4")),
    Mutant("drive-window-shifted", DYNAMICS,
           "drive[:, 2 * k0 - w0:2 * k1 + 1 - w0]",
           "drive[:, 2 * k0 - w0 + 1:2 * k1 + 2 - w0]",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[64-25-1]",
            f"{MAPS}::test_cells_match_stage_by_stage_rk4")),
    Mutant("dissipators-swapped", DYNAMICS,
           "# Gamma = _DECAY . rates bounds",
           "_D = _D[[1, 0, 2, 3]]\n# Gamma = _DECAY . rates bounds",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[7-75-3]",
            f"{MAPS}::test_cells_match_stage_by_stage_rk4",
            "tests/test_dynamics.py::"
            "test_lindblad_generator_pieces_are_exact")),
    Mutant("back-map-phase-conjugated", DYNAMICS,
           "np.outer(\n        _FRAME.conj(), _FRAME)",
           "np.outer(\n        _FRAME, _FRAME.conj())",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[7-75-3]")),
    Mutant("march-carries-last-sample", DYNAMICS,
           "            state = xs[-1]\n",
           "            state = out[-1][-1]\n",
           (f"{PROPAGATORS}[None-70-1]", f"{PROPAGATORS}[64-25-3]",
            f"{SCHRODINGER}[999-64-25]")),
    Mutant("tree-product-order", DYNAMICS,
           "pairs = mul(q[at + (np.s_[1::2],)], q[at + (np.s_[:-1:2],)])",
           "pairs = mul(q[at + (np.s_[:-1:2],)], q[at + (np.s_[1::2],)])",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[7-None-3]",
            f"{SCHRODINGER}[1000-None-None]")),
    Mutant("odd-fold-order", DYNAMICS,
           "pairs[at + (-1,)] = mul(q[at + (-1,)], pairs[at + (-1,)])",
           "pairs[at + (-1,)] = mul(pairs[at + (-1,)], q[at + (-1,)])",
           (f"{PROPAGATORS}[None-None-1]", f"{PROPAGATORS}[7-75-3]",
            f"{SCHRODINGER}[999-10-None]")),
    Mutant("prefix-product-order", DYNAMICS,
           "later[...] = mul(later, earlier)",
           "later[...] = mul(earlier, later)",
           (f"{PROPAGATORS}[1-None-1]", f"{PROPAGATORS}[7-75-3]",
            f"{SCHRODINGER}[2000-1-None]")),
    Mutant("edges-without-sample-cut", DYNAMICS,
           "    return np.union1d(np.arange(0, steps, per_block),\n"
           "                      _sample_steps(steps, stride))\n",
           "    return np.append(np.arange(0, steps, per_block), steps)\n",
           (f"{PROPAGATORS}[64-25-1]", f"{SCHRODINGER}[999-64-25]")),
    Mutant("clock-late-steps-take-early-rate", ANALYSIS,
           "rate = np.where(after, self.late, self.early)",
           "rate = self.early",
           (f"{TIMING}[0.1-41-500]", f"{TIMING}[0.1-41-100]",
            "tests/test_analysis.py::test_default_steps_converged")),
    Mutant("rotation-g3-sign-flipped", DYNAMICS,
           "    q.real[1] = -s * x3\n",
           "    q.real[1] = s * x3\n",
           (f"{SCHRODINGER}[1000-None-None]", f"{SCHRODINGER}[2000-1-None]",
            "tests/test_dynamics.py::test_closed_form_step_matches_expm")),
    Mutant("magnus-drops-c2", DYNAMICS,
           "        e = (y1 * x3 - x1 * y3) / 30\n"
           "        k = c / 14400\n",
           "        e = k = 0\n",
           (f"{SCHRODINGER}[1000-None-None]", f"{SCHRODINGER}[2000-1-None]",
            f"{SHARED}[100-None-None]")),
    Mutant("scale-monomial-power", DYNAMICS,
           "- s11 * (x1 * c * k)",
           "- scale1 * (x1 * c * k)",
           (f"{SHARED}[100-None-None]",)),
    Mutant("map-tail-always-passes", ANALYSIS,
           "        if tail <= _MAP_TAIL:\n",
           "        if True:\n",
           (f"{MAPS}::test_rejected_tail_runs_the_grid",)),
    Mutant("map-nodes-shifted", ANALYSIS,
           "x = np.cos(np.pi * (np.arange(n) + 0.5) / n)",
           "x = np.cos(np.pi * np.arange(n) / n)",
           (f"{MAPS}::test_fig5_maps_interpolate_72_node_runs",)),
    Mutant("fit-max-residual-unscaled", CLI,
           "max_residual=r.max_residual / duration,",
           "max_residual=r.max_residual,",
           ("tests/test_cli.py::"
            "test_fit_is_the_unit_duration_fit_stretched",)),
    Mutant("design-omega-unscaled", CLI,
           "f.omega / duration,",
           "f.omega,",
           (f"{SCHEDULES}[design-0.37]", f"{SCHEDULES}[design-2]")),
    Mutant("exit-2-drops-invalid-parameters", CLI,
           "    except (InvalidParameters, OSError) as exc:\n",
           "    except OSError as exc:\n",
           ("tests/test_cli.py::test_invalid_value_names_the_flag"
            "[argv0---T]",
            "tests/test_cli.py::test_config_value_type_error_exits_2"
            "[overrides0]")),
]


def outcomes(tree, tests):
    """{test id: passed} from one pytest run of `tests` in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rA", "-p",
         "no:cacheprovider", *tests],
        cwd=tree, env=env, capture_output=True, text=True)
    seen = {}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ("PASSED", "FAILED", "ERROR"):
            seen[rest.split(" - ")[0]] = word == "PASSED"
    return seen


def copy_tree(into):
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, into / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", into)


def check(mutant):
    """'killed', 'stale', or 'survived' with the tests that passed."""
    if mutant.old not in (ROOT / mutant.path).read_text():
        return "stale", []
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_tree(tree)
        target = tree / mutant.path
        target.write_text(target.read_text().replace(mutant.old, mutant.new))
        seen = outcomes(tree, mutant.tests)
    # a test the mutant keeps from being collected counts as failed
    passed = [t for t in mutant.tests if seen.get(t)]
    return ("survived", passed) if passed else ("killed", [])


def main(names):
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    tests = sorted({t for m in chosen for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        seen = outcomes(Path(tmp), tests)
    broken = [t for t in tests if not seen.get(t, False)]
    if broken:
        print("named tests that fail or are missing without a mutant:")
        print("\n".join(f"  {t}" for t in broken))
        return 1
    ok = True
    for m in chosen:
        verdict, passed = check(m)
        ok &= verdict == "killed"
        print(f"{m.name}: {verdict}")
        for t in passed:
            print(f"  still passes: {t}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
