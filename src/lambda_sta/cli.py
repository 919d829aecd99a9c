"""Command-line front end.

One subcommand per reproducible artifact.  Every option is declared once,
as an `Option` in the `OPTIONS` table (flag, dest, type, default, value
check, help and the --protocol choices that read it), and the parser, the
--config check and the run's resolved configuration are all read off it:
each option comes from its flag, else the --config file, else its declared
default, and is checked the same way wherever it came from.  fig2, fig3
and fig4 are presets of the primitive commands simulate, stirap-curve and
sweep.  Each command returns its outputs as {filename: text}; `main`
writes them, then a manifest.json with the resolved configuration, so
that reruns are byte-reproducible and a failed run writes none of them.
A run exits 2 on an InvalidParameters or an OSError (a configuration
error or an unwritable output) and 3 on any other exception (a
computation failure, StepTooCoarse naming a step count too small).

The library works at unit time; only this module applies T.  --omega0,
--t0 and --tc are in units of T, lindblad scales its rates by T, design
and fig1 divide their amplitudes by T, and fit stretches its pulses to T.
"""

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, replace
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .protocol import design_sta, protocol_to_json, InvalidParameters
from .dynamics import (LINDBLAD_STEPS, MIN_LINDBLAD_STEPS,
                       MIN_SCHRODINGER_STEPS, SCHRODINGER_END_STEPS,
                       SCHRODINGER_STEPS,
                       LindbladRates, PulsePair, propagate_schrodinger,
                       propagate_lindblad)
from .pulsefit import (STIRAP_OMEGA0, STIRAP_T0, STIRAP_TC, design_stirap,
                       pulse_to_json, reference_m1_fit)
from .analysis import (amplitude_error_sweep, decoherence_maps,
                       fit_components, fit_protocol_pulses, format_table,
                       stirap_infidelity_curve, table_one,
                       timing_error_sweep)

OUTDIR_ENV = "LAMBDA_STA_OUTDIR"


@dataclass(frozen=True)
class Option:
    """One command-line option.  `check` tests a value that is not None;
    `protocols`, in a command with --protocol, names the choices that
    read the option (empty: every choice)."""
    flag: str
    type: type = str
    default: object = None
    check: object = None
    help: str = ""
    dest: str = None  # default: the flag's name, "-" read as "_"
    choices: tuple = None
    required: bool = False
    protocols: tuple = ()

    def __post_init__(self):
        if self.dest is None:
            object.__setattr__(self, "dest",
                               self.flag[2:].replace("-", "_"))


STA = ("sta", "sta-fit", "sta-ref")
SWEEP_KINDS = ("timing-error", "amp1-error", "amp2-error")

GLOBAL = (Option("--config", help="JSON file of option values keyed by "
                 "dest (flags given win over it)"),
          Option("--outdir", help=f"output directory (default: "
                 f"${OUTDIR_ENV} or .)"))
T = Option("--T", float, 1.0, lambda v: v > 0, "total interaction time",
           "duration")
STEPS = Option("--steps", int, SCHRODINGER_STEPS,
               lambda v: v >= MIN_SCHRODINGER_STEPS, "integration steps")
# commands that sample each run at its end only
END_STEPS = replace(STEPS, default=SCHRODINGER_END_STEPS)
M = Option("--m", int, 1, lambda v: v >= 1, "winding integer",
           protocols=STA)
COMPONENTS = Option("--components", int, None, lambda v: v >= 1,
                    "Gaussian components per pulse (default m+1, at "
                    "least 2)", protocols=("sta-fit",))
SAMPLES = Option("--samples", int, 1001, lambda v: v >= 100, "time samples")
POINTS = Option("--points", int, 21, lambda v: v >= 2, "curve points")
T0 = Option("--t0", float, STIRAP_T0, lambda v: 0 < v < 0.5,
            "STIRAP pulse delay in units of T", protocols=("stirap",))
TC = Option("--tc", float, STIRAP_TC, lambda v: v > 0,
            "STIRAP pulse width in units of T", protocols=("stirap",))
DRIVE = (M, COMPONENTS,
         Option("--omega0", float, STIRAP_OMEGA0, lambda v: v > 0,
                "STIRAP peak amplitude times T", protocols=("stirap",)),
         T0, TC, T)
PROTOCOL = Option("--protocol", default="sta-fit", help="drive pulses",
                  choices=(*STA, "stirap"))

OPTIONS = {
    "design": (M, SAMPLES, T),
    "fit": (M, COMPONENTS, SAMPLES, T),
    "simulate": (PROTOCOL, *DRIVE, STEPS),
    "lindblad": (replace(PROTOCOL, default="sta-ref"), *DRIVE,
                 replace(STEPS, default=LINDBLAD_STEPS,
                         check=lambda v: v >= MIN_LINDBLAD_STEPS),
                 *(Option(f"--{name}", float, 0.0, lambda v: v >= 0,
                          "Lindblad rate")
                   for name in ("gamma1", "gamma2", "gamma-phi1",
                                "gamma-phi2"))),
    "sweep": (Option("--kind", help="parameter in error",
                     choices=SWEEP_KINDS, required=True),
              Option("--range", float, 0.1, lambda v: 0 < v <= 0.2,
                     "largest relative error", "error_range"),
              POINTS, T, END_STEPS),
    "stirap-curve": (Option("--min", float, 1.0, lambda v: v > 0,
                            "least peak amplitude times T", "amp_min"),
                     Option("--max", float, 80.0, lambda v: v > 0,
                            "greatest peak amplitude times T", "amp_max"),
                     replace(POINTS, default=50), T0, TC, T, END_STEPS),
    "table1": (Option("--max-m", int, 7, lambda v: 1 <= v <= 10,
                      "largest winding"),
               Option("--fit-budget", int, None, lambda v: v >= 1,
                      "Gaussian components per pulse for every winding "
                      "(default m+1, at least 2)")),
    "fig1": (T,),
    "fig2": (T, STEPS),
    "fig3": (T, END_STEPS),
    "fig4": (replace(POINTS, default=41), T, END_STEPS),
    "fig5": (Option("--grid", int, 21, lambda v: v >= 2,
                    "map points per axis"), T),
}


def _add_options(parser, options):
    for o in options:
        default = "" if o.default is None else f" (default {o.default})"
        parser.add_argument(o.flag, dest=o.dest, type=o.type,
                            choices=o.choices, help=o.help + default)


@functools.cache
def _parser():
    """The parser of every command; it records only the flags given."""
    parser = argparse.ArgumentParser(
        prog="lambda-sta", argument_default=argparse.SUPPRESS,
        description="Shortcut-to-adiabaticity pulse design and simulation "
                    "for three-level Lambda systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    _add_options(parser, GLOBAL)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in COMMANDS.items():
        _add_options(sub.add_parser(command, help=handler.__doc__,
                                    argument_default=argparse.SUPPRESS),
                     OPTIONS[command])
    return parser


def _config_values(path, command):
    """The --config file's values, each put through its flag's type and
    choices.  Keys name option dests (`duration` for --T)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidParameters(f"cannot read config file: {exc}")
    if not isinstance(doc, dict):
        raise InvalidParameters("config file must hold a JSON object")
    options = {o.dest: o for o in (*GLOBAL, *OPTIONS[command])}
    values = {}
    for key, value in doc.items():
        o = options.get(key.replace("-", "_"))
        if o is None:
            raise InvalidParameters(f"config key {key!r} names no option "
                                    f"of {command}")
        if value is None:  # str(None) would pass as the text "None"
            raise InvalidParameters(f"invalid config value for {key}: None")
        try:
            values[o.dest] = o.type(str(value))
        except ValueError:
            raise InvalidParameters(f"invalid config value for {key}: "
                                    f"{value!r}")
        if o.choices is not None and values[o.dest] not in o.choices:
            raise InvalidParameters(f"invalid config value for {key}: "
                                    f"{value!r} (choose from "
                                    f"{', '.join(o.choices)})")
    return values


def _resolve(command, given):
    """The configuration of a `command` run: every option the run reads,
    at its `given` value or else its declared default, checked, with the
    fit's component count resolved.  A figure passes its own
    configuration as `given` to run a primitive command."""
    values = {o.dest: given.get(o.dest, o.default)
              for o in OPTIONS[command]}
    protocol = values.get("protocol")
    for o in OPTIONS[command]:
        value = values[o.dest]
        if protocol and o.protocols and protocol not in o.protocols:
            if o.dest in given:
                raise InvalidParameters(f"--protocol {protocol} does not "
                                        f"read {o.flag}")
            del values[o.dest]
        elif value is None and o.required:
            raise InvalidParameters(f"{command} needs {o.flag}, from the "
                                    f"command line or --config")
        elif value is not None and not (
                (o.type is not float or math.isfinite(value))
                and (o.check is None or o.check(value))):
            raise InvalidParameters(f"invalid value for {o.flag}: {value}")
    if "components" in values and values["components"] is None:
        values["components"] = fit_components(values["m"])
    return argparse.Namespace(command=command, **values)


def _manifest(args, outputs):
    config = {k: v for k, v in sorted(vars(args).items()) if v is not None}
    doc = {"tool": "lambda-sta", "version": __version__,
           "config": config, "outputs": sorted(outputs)}
    return json.dumps(doc, indent=2) + "\n"


def _write(outdir, files):
    """Write every file, or none of them when one cannot be written."""
    written = []
    try:
        for name, text in files.items():
            (outdir / name).write_text(text)
            written.append(outdir / name)
    except OSError:
        for path in written:
            path.unlink()
        raise


def csv_text(header, columns):
    """CSV text with the named columns, every value at 12 significant
    digits; the whole table is formatted by one `%` operation.  A
    non-finite value raises ValueError."""
    columns = list(columns)
    for name, column in zip(header, columns):
        if not np.isfinite(np.asarray(column, dtype=float)).all():
            raise ValueError(f"non-finite value in column {name}")
    rows = list(zip(*columns))
    row = ",".join(["%.12g"] * len(header)) + "\n"
    return (",".join(header) + "\n"
            + row * len(rows) % tuple(chain.from_iterable(rows)))


def _protocol_pulses(args):
    """Resolve a --protocol choice into its pulses over [0, 1]."""
    if args.protocol == "stirap":
        return design_stirap(args.omega0, args.t0, args.tc)
    p = design_sta(args.m)
    if args.protocol == "sta":
        return p
    if args.protocol == "sta-ref":
        if args.m != 1:
            raise InvalidParameters("reference fit coefficients exist only "
                                    "for m=1")
        return PulsePair(*reference_m1_fit())
    (f1, _), (f2, _) = fit_protocol_pulses(p, args.components)
    return PulsePair(f1, f2)


def _trajectory_csv(propagate, pulses, args, **options):
    """Populations of one run, sampled about every thousandth step."""
    traj = propagate(pulses, steps=args.steps,
                     stride=max(1, args.steps // 1000), **options)
    return csv_text(["t_over_T", "P1", "P2", "P3"],
                    [traj.times, *traj.populations.T])


def cmd_design(args):
    """build a shortcut protocol"""
    p, duration = design_sta(args.m), args.duration
    t = np.linspace(0, 1, args.samples)
    f = p.frame(t)
    return {"protocol.json": protocol_to_json(p, duration) + "\n",
            "schedule.csv": csv_text(
                ["t_over_T", "Omega1", "Omega2", "Omega", "theta", "phi"],
                [t, *np.divide(f.drive, duration), f.omega / duration,
                 f.theta, p.phi(t)])}


def cmd_fit(args):
    """fit the shortcut schedules to Gaussians"""
    duration = args.duration
    fits = fit_protocol_pulses(design_sta(args.m), args.components,
                               args.samples)
    # at T the unit-time fit is t -> f(t/T)/T: residuals and peak over T
    return {f"pulse{i}.json": pulse_to_json(f.stretched(duration), replace(
                r, rms_residual=r.rms_residual / duration,
                max_residual=r.max_residual / duration,
                peak_amplitude=r.peak_amplitude / duration)) + "\n"
            for i, (f, r) in enumerate(fits, 1)}


def cmd_simulate(args):
    """closed-system trajectory"""
    return {"trajectory.csv": _trajectory_csv(
        propagate_schrodinger, _protocol_pulses(args), args)}


def cmd_lindblad(args):
    """open-system trajectory"""
    rates = LindbladRates(*(args.duration * g for g in (
        args.gamma1, args.gamma2, args.gamma_phi1, args.gamma_phi2)))
    return {"trajectory.csv": _trajectory_csv(
        propagate_lindblad, _protocol_pulses(args), args, rates=rates)}


def cmd_sweep(args):
    """parameter-error robustness sweep of the reference m=1 pulses"""
    pulses = PulsePair(*reference_m1_fit())
    if args.kind == "timing-error":
        data = timing_error_sweep(pulses, args.error_range, args.points,
                                  args.steps)
        x_name = "dT_over_T"
    else:
        which = 1 if args.kind == "amp1-error" else 2
        data = amplitude_error_sweep(pulses, which, args.error_range,
                                     args.points, args.steps)
        x_name = f"dOmega{which}_over_Omega{which}"
    return {"sweep.csv": csv_text([x_name, "P3"], zip(*data))}


def cmd_stirap_curve(args):
    """baseline infidelity vs amplitude"""
    amplitudes = np.linspace(args.amp_min, args.amp_max, args.points)
    _, infidelity = zip(*stirap_infidelity_curve(
        amplitudes, args.t0, args.tc, args.steps))
    # the first column, headed Omega0_T, holds Omega0 = (Omega0*T)/T, as
    # perfbench/checker.py reads it
    return {"stirap_curve.csv": csv_text(["Omega0_T", "infidelity"],
                                         [amplitudes / args.duration,
                                          infidelity])}


def cmd_table1(args):
    """amplitude/population table per winding"""
    rows = table_one(args.max_m, args.fit_budget)
    return {"table1.csv": csv_text(
                ["phiT_over_pi", "omega_tilde_0_T", "P2max"],
                [[r.winding_phase / math.pi for r in rows],
                 [r.pulse_amplitude for r in rows],
                 [r.p2_max for r in rows]]),
            "table1.txt": format_table(rows) + "\n"}


def cmd_fig1(args):
    """shortcut schedules vs their Gaussian fits"""
    p, duration = design_sta(1), args.duration
    f1, f2 = reference_m1_fit()
    t = np.linspace(0, 1, 1001)
    o1, o2 = p.drive(t)
    return {"fig1.csv": csv_text(
        ["t_over_T", "abs_Omega1", "abs_Omega1_fit", "Omega2", "Omega2_fit"],
        [t, np.abs(o1) / duration, np.abs(f1(t)) / duration,
         o2 / duration, f2(t) / duration])}


def cmd_fig2(args):
    """population trajectories for m = 1, 2, 3"""
    return {f"fig2{label}.csv": cmd_simulate(_resolve(
                "simulate", {**vars(args), "protocol": "sta", "m": m})
            )["trajectory.csv"]
            for label, m in zip("abc", (1, 2, 3))}


def cmd_fig3(args):
    """baseline infidelity curve"""
    return {"fig3.csv": cmd_stirap_curve(
        _resolve("stirap-curve", vars(args)))["stirap_curve.csv"]}


def cmd_fig4(args):
    """parameter-error robustness sweeps"""
    return {f"fig4_{kind.split('-')[0]}.csv": cmd_sweep(
                _resolve("sweep", {**vars(args), "kind": kind}))["sweep.csv"]
            for kind in SWEEP_KINDS}


def cmd_fig5(args):
    """decoherence robustness maps"""
    ratios, maps = decoherence_maps(PulsePair(*reference_m1_fit()),
                                    ("relaxation", "dephasing"), 0.01,
                                    args.grid)
    return {f"fig5{label}.csv": csv_text(
                [f"{names[0]}_over_amp", f"{names[1]}_over_amp", "P3"],
                [np.repeat(ratios, len(ratios)), np.tile(ratios, len(ratios)),
                 grid.ravel()])
            for label, names, grid in zip(
                "ab", [("Gamma1", "Gamma2"), ("Gamma_phi1", "Gamma_phi2")],
                maps)}


COMMANDS = {
    "design": cmd_design,
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "lindblad": cmd_lindblad,
    "sweep": cmd_sweep,
    "stirap-curve": cmd_stirap_curve,
    "table1": cmd_table1,
    "fig1": cmd_fig1,
    "fig2": cmd_fig2,
    "fig3": cmd_fig3,
    "fig4": cmd_fig4,
    "fig5": cmd_fig5,
}


def main(argv=None):
    given = vars(_parser().parse_args(argv))
    command = given.pop("command")
    try:
        if "config" in given:
            given = {**_config_values(given["config"], command), **given}
        args = _resolve(command, given)
        outdir = Path(given.get("outdir") or os.environ.get(OUTDIR_ENV)
                      or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        # no numpy warnings on stderr: non-finite output fails the run
        with np.errstate(all="ignore"):
            outputs = COMMANDS[command](args)
        _write(outdir, {**outputs, "manifest.json": _manifest(args, outputs)})
    except (InvalidParameters, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    for name in outputs:
        print(outdir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
