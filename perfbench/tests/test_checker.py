import json
import re

import numpy as np
import pytest

import checker


def write_job(jobdir, name, text):
    jobdir.mkdir(parents=True, exist_ok=True)
    (jobdir / name).write_text(text)
    (jobdir / "manifest.json").write_text(json.dumps({"outputs": [name]}))
    return jobdir


TRAJECTORY = ("t_over_T,P1,P2,P3\n"
              "0,1,0,0\n"
              "0.5,0.25,0.5,0.25\n"
              "1,0,0,1\n")


def test_valid_trajectory_passes(tmp_path):
    checker.check_job(write_job(tmp_path / "job", "trajectory.csv", TRAJECTORY))


@pytest.mark.parametrize("bad, reason", [
    ("0.5,0.25,nan,0.25", "non-finite"),
    ("0.5,-0.2,0.95,0.25", "outside [0, 1]"),
    ("0.5,0.25,0.5,0.2500001", "sum off 1"),
    ("0.5,0.25,0.5", "columns"),
])
def test_corrupted_trajectory_is_rejected(tmp_path, bad, reason):
    text = TRAJECTORY.replace("0.5,0.25,0.5,0.25", bad)
    with pytest.raises(checker.CheckFailed, match=re.escape(reason)):
        checker.check_job(write_job(tmp_path / "job", "trajectory.csv", text))


def test_missing_output_is_rejected(tmp_path):
    jobdir = write_job(tmp_path / "job", "sweep.csv", "dT_over_T,P3\n0,1\n")
    (jobdir / "sweep.csv").unlink()
    with pytest.raises(checker.CheckFailed, match="unreadable"):
        checker.check_job(jobdir)


def table_text(rows):
    return "phiT_over_pi,omega_tilde_0_T,P2max\n" + "".join(
        f"{m},{a},{p}\n" for m, a, p in rows)


def test_table_bands(tmp_path):
    rows = list(zip(range(1, 8), checker.TABLE_AMPLITUDE, checker.TABLE_P2MAX))
    checker.check_job(write_job(tmp_path / "ok", "table1.csv", table_text(rows)))

    off_p2 = list(rows)
    off_p2[2] = (3, rows[2][1], rows[2][2] + 1e-4)
    with pytest.raises(checker.CheckFailed, match="P2max"):
        checker.check_job(write_job(tmp_path / "p2", "table1.csv", table_text(off_p2)))

    off_amp = list(rows)
    off_amp[0] = (1, 3.5 * 1.04, rows[0][2])      # m=1 band is 3%
    with pytest.raises(checker.CheckFailed, match="amplitude"):
        checker.check_job(write_job(tmp_path / "amp", "table1.csv", table_text(off_amp)))


def test_reference_integrator_knows_the_closed_forms():
    # Constant-mu shortcut with kappa = 1/(2m) ends exactly in |3>.
    for m in (1, 2):
        final = checker.schrodinger_final(*checker.sta_analytic(m, 1.0), 1.0)
        assert final == pytest.approx([0, 0, 1], abs=1e-8)
    # Pure dephasing of a state that never leaves |1> changes nothing.
    zero = lambda t: 0.0
    final = checker.lindblad_final(zero, zero, 1.0, gamma_phi1=0.5)
    assert final == pytest.approx([1, 0, 0], abs=1e-12)


def test_compare_with_reference(tmp_path):
    ref, out = tmp_path / "ref", tmp_path / "out"
    write_job(ref / "0-job", "sweep.csv", "x,P3\n0,0.5\n1,0.75\n")
    write_job(out / "0-job", "sweep.csv", "x,P3\n0,0.5\n1,0.7500001\n")
    (ref / "0-job" / "manifest.json").unlink()
    dev, mismatched = checker.compare_with_reference(out, ref)
    assert dev == pytest.approx(1e-7)
    assert mismatched == 0

    write_job(out / "1-extra", "sweep.csv", "x,P3\n0,1\n")
    assert checker.compare_with_reference(out, ref)[1] == 1
    assert np.isfinite(checker.compare_with_reference(out, ref)[0])
