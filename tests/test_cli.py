import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lambda_sta
from lambda_sta import cli
from lambda_sta.cli import (COMMANDS, GLOBAL, OPTIONS, OUTDIR_ENV, SWEEP_KINDS,
                            main)


def run(tmp_path, *argv):
    return main(["--outdir", str(tmp_path), *argv])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


def test_design_outputs(tmp_path):
    assert run(tmp_path, "design", "--m", "1") == 0
    doc = json.loads((tmp_path / "protocol.json").read_text())
    assert doc["type"] == "sta"
    assert doc["kappa"] == pytest.approx(0.5)
    assert doc["mu"] == pytest.approx(math.pi / 3)
    header, rows = read_csv(tmp_path / "schedule.csv")
    assert header[:3] == ["t_over_T", "Omega1", "Omega2"]
    assert len(rows) == 1001
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["m"] == 1
    assert sorted(manifest["outputs"]) == ["protocol.json", "schedule.csv"]


def test_fit_components_default_to_m_plus_one(tmp_path):
    assert run(tmp_path, "fit", "--m", "3") == 0
    for name in ("pulse1.json", "pulse2.json"):
        doc = json.loads((tmp_path / name).read_text())
        assert len(doc["components"]) == 4
        assert doc["fit_report"]["converged"]


def test_simulate_sta_fit_reaches_target(tmp_path):
    assert run(tmp_path, "simulate", "--protocol", "sta-fit", "--m", "1",
               "--steps", "4000") == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert rows[-1][3] >= 0.9999


def test_simulate_reference_coefficients(tmp_path):
    assert run(tmp_path, "simulate", "--protocol", "sta-ref",
               "--steps", "4000") == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert rows[-1][3] >= 0.9999


def test_lindblad_run(tmp_path):
    assert run(tmp_path, "lindblad", "--protocol", "sta-ref",
               "--gamma1", "0.03", "--steps", "2000") == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert 0.9 < rows[-1][3] < 1.0


def test_table1(tmp_path):
    assert run(tmp_path, "table1", "--max-m", "2") == 0
    _, rows = read_csv(tmp_path / "table1.csv")
    assert len(rows) == 2
    assert rows[0][2] == pytest.approx(0.75)
    assert rows[1][2] == pytest.approx(0.4375)
    assert (tmp_path / "table1.txt").exists()


def test_sweep_and_fig_outputs(tmp_path):
    assert run(tmp_path, "sweep", "--kind", "timing-error", "--points", "3",
               "--steps", "1000") == 0
    header, rows = read_csv(tmp_path / "sweep.csv")
    assert header == ["dT_over_T", "P3"]
    assert len(rows) == 3


def test_fig1(tmp_path):
    assert run(tmp_path, "fig1") == 0
    header, rows = read_csv(tmp_path / "fig1.csv")
    assert header == ["t_over_T", "abs_Omega1", "abs_Omega1_fit",
                      "Omega2", "Omega2_fit"]
    # fit hugs the schedule
    worst = max(abs(r[1] - r[2]) for r in rows)
    assert worst < 0.35


def test_stirap_curve(tmp_path):
    assert run(tmp_path, "stirap-curve", "--min", "60", "--max", "70",
               "--points", "2", "--steps", "2000") == 0
    header, rows = read_csv(tmp_path / "stirap_curve.csv")
    assert header == ["Omega0_T", "infidelity"]
    assert rows[-1][1] < 1e-3


def test_invalid_config_exits_2(tmp_path, capsys):
    assert run(tmp_path, "design", "--m", "0") == 2
    assert run(tmp_path, "table1", "--max-m", "99") == 2
    assert run(tmp_path, "simulate", "--steps", "10") == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["lindblad", "--steps", "500"],
    ["fit", "--components", "0"],
    ["fit", "--components", "4", "--samples", "100"],
    ["table1", "--fit-budget", "0"],
    ["lindblad", "--gamma1", "-1"],
    # non-finite float flags
    ["simulate", "--T", "inf"],
    ["lindblad", "--gamma1", "nan"],
    ["stirap-curve", "--min", "nan"],
    ["simulate", "--protocol", "stirap", "--omega0", "inf"],
    # options the chosen protocol does not read
    ["simulate", "--protocol", "stirap", "--m", "3", "--components", "9",
     "--steps", "2000"],
    ["simulate", "--protocol", "sta", "--omega0", "45"],
    ["simulate", "--protocol", "sta-ref", "--components", "3"],
    ["lindblad", "--t0", "0.1"],
])
def test_bad_input_exits_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv, read", [
    (["simulate", "--protocol", "sta", "--steps", "1000"], {"m": 1}),
    (["simulate", "--protocol", "stirap", "--t0", "0.1", "--steps", "1000"],
     {"omega0": 45.0, "t0": 0.1, "tc": 0.2}),
    (["lindblad", "--steps", "1000"], {"m": 1}),
    # defaults: STIRAP timing 0.15 and 0.2 in units of T, m+1 components
    (["simulate", "--protocol", "stirap", "--T", "2", "--steps", "1000"],
     {"omega0": 45.0, "t0": 0.15, "tc": 0.2}),
    (["simulate", "--protocol", "sta-fit", "--m", "3", "--steps", "1000"],
     {"m": 3, "components": 4}),
    (["simulate", "--protocol", "sta-fit", "--components", "3",
      "--steps", "1000"], {"m": 1, "components": 3}),
    (["fit", "--m", "3"], {"m": 3, "components": 4}),
    (["stirap-curve", "--points", "2", "--steps", "1000"],
     {"t0": 0.15, "tc": 0.2}),
])
def test_manifest_lists_only_read_protocol_options(tmp_path, argv, read):
    assert run(tmp_path, *argv) == 0
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    options = {"m", "components", "omega0", "t0", "tc"}
    assert {k: v for k, v in config.items() if k in options} == read


DURATIONS = ("1e-310", "1e-300", "2", "1e300", "1.7e308")
# commands whose every output is a population or a relative quantity
SCALE_FREE = {
    "simulate-sta": ["simulate", "--protocol", "sta", "--steps", "200"],
    "simulate-sta-fit": ["simulate", "--protocol", "sta-fit",
                         "--steps", "200"],
    "simulate-sta-ref": ["simulate", "--protocol", "sta-ref",
                         "--steps", "200"],
    "simulate-stirap": ["simulate", "--protocol", "stirap", "--steps", "200"],
    "fig2": ["fig2", "--steps", "200"],
    **{f"sweep-{kind}": ["sweep", "--kind", kind, "--points", "2",
                         "--steps", "200"] for kind in SWEEP_KINDS},
    "fig5": ["fig5", "--grid", "2"],
    "lindblad-sta": ["lindblad", "--protocol", "sta", "--steps", "1000"],
}
STIRAP_CURVE = ["stirap-curve", "--points", "2", "--steps", "200"]
UNIT_TIME = [
    (SCALE_FREE["simulate-sta"], "1e300"),
    (SCALE_FREE["simulate-sta"], "1e-300"),
    (SCALE_FREE["fig2"], "1e-300"),
    (SCALE_FREE["sweep-amp1-error"], "1e-300"),
    (STIRAP_CURVE, "1e-300"),
    (SCALE_FREE["fig5"], "1e-300"),
    (SCALE_FREE["lindblad-sta"], "1e-300"),
    (SCALE_FREE["simulate-sta-fit"], "1e300"),
    (SCALE_FREE["simulate-sta-fit"], "1e-300"),
]
UNIT_TIME += [
    pytest.param(argv, t, id=f"{name}-{t}")
    for name, argv in [*SCALE_FREE.items(), ("stirap-curve", STIRAP_CURVE)]
    for t in DURATIONS
    if (argv, t) not in UNIT_TIME and (argv, t) != (STIRAP_CURVE, "1e-310")]


def csv_texts(outdir):
    """The text of every CSV a run wrote; stirap_curve.csv without its
    first column, which holds Omega0 = (Omega0*T)/T."""
    texts = {p.name: p.read_text() for p in outdir.glob("*.csv")}
    if "stirap_curve.csv" in texts:
        texts["stirap_curve.csv"] = "".join(
            line.partition(",")[2] + "\n"
            for line in texts["stirap_curve.csv"].splitlines())
    return texts


@pytest.mark.parametrize("argv, duration", UNIT_TIME)
def test_duration_scale_invariance(tmp_path, argv, duration):
    # every run integrates over unit time, so any duration writes the
    # files of T = 1 byte for byte
    for t in (duration, "1"):
        assert run(tmp_path / t, *argv, "--T", t) == 0
    assert csv_texts(tmp_path / duration) == csv_texts(tmp_path / "1")


def test_lindblad_rates_scale_with_duration(tmp_path):
    # rates are given in units of 1/time, so halving them at T = 2 writes
    # the populations of T = 1 byte for byte
    argv = ["lindblad", "--protocol", "sta", "--steps", "1000"]
    assert run(tmp_path / "2", *argv, "--gamma1", "0.015",
               "--gamma-phi1", "0.01", "--T", "2") == 0
    assert run(tmp_path / "1", *argv, "--gamma1", "0.03",
               "--gamma-phi1", "0.02") == 0
    assert csv_texts(tmp_path / "2") == csv_texts(tmp_path / "1")


def test_fit_is_the_unit_duration_fit_stretched(tmp_path):
    # a fit at T is made at T = 1: each component (zeta, tau, chi) becomes
    # (zeta/T, tau T, chi T), and the residuals and peak scale by 1/T
    T = 1e300
    assert run(tmp_path / "T", "fit", "--T", repr(T)) == 0
    assert run(tmp_path / "1", "fit") == 0
    for name in ("pulse1.json", "pulse2.json"):
        got, unit = (json.loads((tmp_path / d / name).read_text())
                     for d in ("T", "1"))
        assert got["components"] == [
            {"zeta": c["zeta"] / T, "tau": c["tau"] * T, "chi": c["chi"] * T}
            for c in unit["components"]]
        report = unit["fit_report"]
        for key in ("rms_residual", "max_residual", "peak_amplitude"):
            report[key] /= T
        assert got["fit_report"] == report


def csv_columns(path):
    """{header: column of value texts} of a CSV file."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return dict(zip(header, zip(*rows)))


SCHEDULES = {"design": ("schedule.csv", ("Omega1", "Omega2", "Omega")),
             "fig1": ("fig1.csv", ("abs_Omega1", "abs_Omega1_fit", "Omega2",
                                   "Omega2_fit"))}


@pytest.mark.parametrize("duration", ["0.37", "2"])
@pytest.mark.parametrize("command", SCHEDULES)
def test_schedules_scale_with_duration(tmp_path, command, duration):
    # the schedules are computed at unit time: times and angles are those
    # of T = 1 byte for byte, and only the amplitudes are divided by T
    name, amplitudes = SCHEDULES[command]
    for t in (duration, "1"):
        assert run(tmp_path / t, command, "--T", t) == 0
    got, unit = (csv_columns(tmp_path / t / name) for t in (duration, "1"))
    for key, column in got.items():
        if key in amplitudes:
            np.testing.assert_allclose(
                np.array(column, dtype=float),
                np.array(unit[key], dtype=float) / float(duration),
                rtol=1e-11, atol=0)
        else:
            assert column == unit[key]


@pytest.mark.parametrize("command", ["design", "fit", "fig1"])
def test_schedule_commands_match_the_frame_once(tmp_path, monkeypatch,
                                                command):
    # every column of the shortcut schedules comes off one frame
    calls, match = [], lambda_sta.protocol.frame_match
    monkeypatch.setattr(lambda_sta.protocol, "frame_match",
                        lambda *args: calls.append(args) or match(*args))
    assert run(tmp_path, command) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", SCHEDULES)
def test_largest_duration_writes_finite_amplitudes(tmp_path, command):
    # nothing is evaluated at t/T for a huge T, so no column overflows
    assert run(tmp_path, command, "--T", "1e308") == 0
    name, amplitudes = SCHEDULES[command]
    columns = csv_columns(tmp_path / name)
    assert 0 < max(abs(float(v)) for v in columns[amplitudes[0]]) < 1e-307


@pytest.mark.parametrize("argv", [
    ["simulate", "--protocol", "stirap", "--steps", "200", "--T", "1e-310"],
    ["simulate", "--protocol", "stirap", "--steps", "200", "--T", "2"],
    ["stirap-curve", "--points", "2", "--steps", "200", "--T", "1e-300"],
], ids=["simulate-stirap-1e-310", "simulate-stirap-2", "stirap-curve-1e-300"])
def test_rerun_from_manifest_is_byte_identical(tmp_path, argv):
    # a manifest's config, fed back through --config, repeats the run
    assert run(tmp_path / "a", *argv) == 0
    config = json.loads((tmp_path / "a" / "manifest.json").read_text())[
        "config"]
    del config["command"]
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert main(["--config", str(tmp_path / "cfg.json"), "--outdir",
                 str(tmp_path / "b"), argv[0]]) == 0
    first, rerun = ({p.name: p.read_bytes() for p in (tmp_path / d).iterdir()}
                    for d in "ab")
    assert rerun == first


OUT_OF_RANGE = [
    # the amplitude column, Omega0 = 1/T..80/T, overflows at T = 1e-310
    pytest.param(["stirap-curve", "--points", "2", "--steps", "200",
                  "--T", "1e-310"], "non-finite value in column Omega0_T",
                 id="argv3"),
    pytest.param(["lindblad", "--gamma1", "1e308", "--gamma2", "1e308"],
                 "a step has Gamma*dt = inf (limit 1); use more steps",
                 id="argv6"),
    # the unit-time amplitudes overflow when divided by T = 5e-324
    pytest.param(["design", "--T", "5e-324"],
                 "non-finite value in column Omega1", id="argv9"),
]


@pytest.mark.parametrize("argv, message", OUT_OF_RANGE)
def test_non_finite_result_exits_3(tmp_path, capsys, argv, message):
    # the failure line is all the run prints: no RuntimeWarning before it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"computation failed: {message}")
    assert err.count("\n") == 1 and err.endswith("\n") and not caught
    assert not any(tmp_path.iterdir())


def test_bad_outdir_exits_2(tmp_path, capsys):
    a_file = tmp_path / "file"
    a_file.write_text("")
    assert main(["--outdir", str(a_file), "design"]) == 2
    assert main(["--outdir", str(a_file / "x"), "design"]) == 2
    # an output name taken by a directory: no file of the run is left
    out = tmp_path / "out"
    (out / "schedule.csv").mkdir(parents=True)
    assert main(["--outdir", str(out), "design"]) == 2
    assert [p.name for p in out.iterdir()] == ["schedule.csv"]
    err = capsys.readouterr().err
    assert err.count("error:") == 3 and "Traceback" not in err


@pytest.mark.parametrize("argv, flag", [
    (["design", "--T", "-1"], "--T"),
    (["sweep", "--kind", "timing-error", "--range", "-0.1"], "--range"),
    (["lindblad", "--steps", "500"], "--steps"),
    (["lindblad", "--gamma1", "-1"], "--gamma1"),
    (["fit", "--components", "0"], "--components"),
    (["table1", "--fit-budget", "0"], "--fit-budget"),
    (["stirap-curve", "--min", "0"], "--min"),
    (["stirap-curve", "--max", "0"], "--max"),
    # STIRAP timing, in units of T: 0 < t0 < 0.5 and tc > 0
    (["simulate", "--protocol", "stirap", "--t0", "0.5", "--tc", "0.1"],
     "--t0"),
    (["stirap-curve", "--t0", "2"], "--t0"),
    (["stirap-curve", "--tc", "-1", "--T", "2"], "--tc"),
])
def test_invalid_value_names_the_flag(tmp_path, capsys, argv, flag):
    assert run(tmp_path, *argv) == 2
    assert f"invalid value for {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [
    ("fig1", "--steps"), ("fig5", "--steps"),
    # the table is dimensionless: neither T nor a step count reaches it
    ("table1", "--steps"), ("table1", "--T"),
], ids=["fig1", "fig5", "table1-steps", "table1-T"])
def test_steps_flag_absent_where_unused(tmp_path, command, flag):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, command, flag, "2")
    assert exc.value.code == 2


def test_sta_ref_requires_m1(tmp_path):
    assert run(tmp_path, "simulate", "--protocol", "sta-ref", "--m", "2",
               "--steps", "1000") == 2


def test_config_file_overridden_by_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "samples": 501, "duration": 2.0}))
    out = tmp_path / "out"
    assert main(["--config", str(cfg), "--outdir", str(out),
                 "design", "--m", "1", "--T", "1"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["m"] == 1          # explicit flag wins
    assert manifest["config"]["duration"] == 1.0  # also under another name
    assert manifest["config"]["samples"] == 501  # config fills the default

    # an abbreviated flag is explicit too
    assert main(["--config", str(cfg), "--outdir", str(out),
                 "design", "--sam", "200"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["samples"] == 200
    assert manifest["config"]["m"] == 2


def test_bad_config_file_exits_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("not json")
    assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                 "design"]) == 2


@pytest.mark.parametrize("overrides", [{"steps": "many"}, {"steps": None},
                                       {"protocol": "bogus"},
                                       # not read by the sta-fit default
                                       {"omega0": 50}])
def test_config_value_type_error_exits_2(tmp_path, capsys, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                 "simulate"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command, key", [
    (command, o.dest) for command in COMMANDS
    for o in (*GLOBAL, *OPTIONS[command])])
def test_config_null_value_exits_2(tmp_path, monkeypatch, capsys, command,
                                   key):
    # a JSON null once passed as the text "None": {"outdir": null} wrote
    # None/protocol.json
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    (tmp_path / "cfg.json").write_text(json.dumps({key: None}))
    assert main(["--config", "cfg.json", command]) == 2
    assert capsys.readouterr().err == \
        f"error: invalid config value for {key}: None\n"
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


@pytest.mark.parametrize("argv, overrides", [
    # table1 has neither --steps nor --T
    (["table1", "--max-m", "1"], {"steps": 2000, "duration": 2}),
    # --help takes no value
    (["design"], {"help": 1}),
])
def test_config_key_of_no_option_exits_2(tmp_path, capsys, argv, overrides):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(overrides))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path),
                 *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and repr(next(iter(overrides))) in err
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("target", ["resolve", "command"])
def test_unexpected_error_exits_3_without_traceback(tmp_path, monkeypatch,
                                                    capsys, target):
    def fail(*args):
        raise RuntimeError("unexpected")

    if target == "resolve":
        monkeypatch.setattr(cli, "_resolve", fail)
    else:
        monkeypatch.setitem(COMMANDS, "design", fail)
    assert run(tmp_path, "design") == 3
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_coarse_steps_exit_3(tmp_path, capsys):
    assert run(tmp_path, "simulate", "--protocol", "stirap",
               "--omega0", "1e9", "--steps", "100") == 3
    assert run(tmp_path, "lindblad", "--protocol", "stirap",
               "--omega0", "1e5", "--steps", "1000") == 3
    assert "rotates the state" in capsys.readouterr().err


def test_end_only_step_limit(tmp_path, capsys):
    # at the 500 default steps of the end-only commands, Omega*dt <= 1
    # admits a peak Omega*T of about 500; 1000 steps admit about 1000
    argv = ["stirap-curve", "--points", "3", "--max", "600"]
    assert run(tmp_path, *argv) == 3
    assert "use more steps" in capsys.readouterr().err
    assert run(tmp_path, *argv, "--steps", "1000") == 0


@pytest.mark.parametrize("rate", [["--gamma1", "3000"],
                                  ["--gamma-phi1", "1400"]])
def test_fast_decay_exits_3(tmp_path, capsys, rate):
    # Gamma*dt = 3 and 2.8 at 1000 steps, past RK4's stability limit of
    # 2.785, where the populations leave [0, 1]
    assert run(tmp_path, "lindblad", "--protocol", "sta-ref", *rate,
               "--steps", "1000") == 3
    err = capsys.readouterr().err
    assert err.startswith("computation failed:") and "Gamma*dt" in err
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_decay_within_bound_runs(tmp_path):
    # Gamma*dt = 0.9 at 1000 steps
    assert run(tmp_path, "lindblad", "--protocol", "sta-ref",
               "--gamma-phi1", "450", "--steps", "1000") == 0
    _, rows = read_csv(tmp_path / "trajectory.csv")
    assert all(-1e-12 <= p <= 1 + 1e-12 for row in rows for p in row[1:])


def test_outdir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("LAMBDA_STA_OUTDIR", str(tmp_path / "envout"))
    assert main(["design", "--m", "1"]) == 0
    assert (tmp_path / "envout" / "protocol.json").exists()


def test_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["--outdir", str(out), "simulate", "--protocol",
                     "sta-ref", "--steps", "2000"]) == 0
    assert (a / "trajectory.csv").read_bytes() == (b / "trajectory.csv").read_bytes()
    assert (a / "manifest.json").read_text() == (b / "manifest.json").read_text()


def test_fig3_manifest_records_only_fig3_options(tmp_path):
    assert run(tmp_path, "fig3", "--steps", "1000") == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"] == {"command": "fig3", "duration": 1.0,
                                  "steps": 1000}
    assert manifest["outputs"] == ["fig3.csv"]


def test_fig2_emits_three_files(tmp_path):
    assert run(tmp_path, "fig2", "--steps", "2000") == 0
    for label in "abc":
        assert (tmp_path / f"fig2{label}.csv").exists()
    _, rows = read_csv(tmp_path / "fig2a.csv")
    assert rows[-1][3] == pytest.approx(1.0, abs=1e-6)


def test_runtime_never_imports_scipy(tmp_path):
    # scipy is a test dependency only: the fits run on numpy alone
    src = str(Path(lambda_sta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from lambda_sta.cli import main\n"
            "for argv in (['fit'], ['table1', '--max-m', '2']):\n"
            "    assert main(['--outdir', sys.argv[1], *argv]) == 0\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))\n")
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.splitlines()[-1] == "[]"


def test_config_does_not_leak_into_the_next_call(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 501, "m": 2}))
    assert main(["--config", str(cfg), "--outdir", str(tmp_path / "a"),
                 "design"]) == 0
    assert main(["--outdir", str(tmp_path / "b"), "design"]) == 0
    config = json.loads((tmp_path / "b" / "manifest.json").read_text())[
        "config"]
    assert config["samples"] == 1001 and config["m"] == 1


@pytest.mark.parametrize("argv", [[]] + [[c] for c in COMMANDS])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [
    (["design", "--m", "1"], 0),
    (["table1", "--steps", "2"], 2),
    (["lindblad", "--protocol", "sta-ref", "--gamma1", "3000",
      "--steps", "1000"], 3),
], ids=["ok", "usage", "computation"])
def test_exit_code_reaches_the_process(tmp_path, argv, code):
    src = str(Path(lambda_sta.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "lambda_sta.cli",
                          "--outdir", str(tmp_path), *argv],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == code
    if code == 3:
        assert out.stderr.startswith("computation failed:")
        assert out.stderr.count("\n") == 1


def test_config_supplies_a_required_flag(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "timing-error"}))
    argv = ["--config", str(cfg), "sweep", "--points", "3", "--steps", "200"]
    for out, flags, kind in [("a", [], "timing-error"),
                             ("b", ["--kind", "amp1-error"], "amp1-error")]:
        assert main(["--outdir", str(tmp_path / out), *argv, *flags]) == 0
        manifest = json.loads((tmp_path / out / "manifest.json").read_text())
        assert manifest["config"]["kind"] == kind
    # given by neither the flag nor the config
    assert run(tmp_path / "c", "sweep", "--points", "3") == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "c").exists()
