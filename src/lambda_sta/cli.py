"""Command-line front end.

One subcommand per reproducible artifact: protocol design, pulse fitting,
closed/open-system simulation, robustness sweeps, the adiabatic baseline
curve, the amplitude table, and the data behind each figure.  Each
command returns its outputs as {filename: text}; `main` writes them, then
a manifest.json with the fully resolved configuration, so that reruns are
byte-reproducible and a failed run writes none of its files.
"""

import argparse
import json
import math
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import __version__
from .protocol import (design_sta, design_stirap, protocol_to_json,
                       InvalidParameters)
from .dynamics import (LINDBLAD_STEPS, MIN_LINDBLAD_STEPS,
                       MIN_SCHRODINGER_STEPS, SCHRODINGER_STEPS,
                       LindbladRates, PulsePair, propagate_schrodinger,
                       propagate_lindblad)
from .pulsefit import pulse_to_json, reference_m1_fit
from .analysis import (amplitude_error_sweep, decoherence_maps,
                       fit_components, fit_protocol_pulses, format_table,
                       stirap_infidelity_curve, table_one,
                       timing_error_sweep)

OUTDIR_ENV = "LAMBDA_STA_OUTDIR"
SWEEP_KINDS = ("timing-error", "amp1-error", "amp2-error")
# The options each --protocol reads, with their defaults (None: resolved
# from the other options).  Giving one that the chosen protocol does not
# read is a configuration error.
PROTOCOL_OPTIONS = {
    "sta": {"m": 1},
    "sta-fit": {"m": 1, "components": None},
    "sta-ref": {"m": 1},
    "stirap": {"omega0": 45.0, "t0": None, "tc": None},
}


class ConfigError(Exception):
    pass


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lambda-sta",
        description="Shortcut-to-adiabaticity pulse design and simulation "
                    "for three-level Lambda systems.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--config", help="JSON file with default options "
                        "(overridden by explicit flags)")
    parser.add_argument("--outdir", default=None,
                        help=f"output directory (default: ${OUTDIR_ENV} or .)")

    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, steps=None):
        """--T, and --steps with the given default unless it is None."""
        p.add_argument("--T", type=float, default=1.0, dest="duration",
                       help="total interaction time (default 1)")
        if steps is not None:
            p.add_argument("--steps", type=int, default=steps,
                           help=f"integration steps (default {steps})")

    p = sub.add_parser("design", help="build a shortcut protocol")
    p.add_argument("--m", type=int, default=1, help="winding integer")
    p.add_argument("--samples", type=int, default=1001)
    common(p)

    p = sub.add_parser("fit", help="fit the shortcut schedules to Gaussians")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--components", type=int, default=None,
                   help="Gaussian components per pulse (default m+1, "
                        "at least 2)")
    p.add_argument("--samples", type=int, default=1001)
    common(p)

    def drive(p, protocol, steps):
        p.add_argument("--protocol", default=protocol,
                       choices=list(PROTOCOL_OPTIONS))
        for dest, kind in [("m", int), ("components", int),
                           ("omega0", float), ("t0", float), ("tc", float)]:
            p.add_argument(f"--{dest}", type=kind)
        common(p, steps)

    drive(sub.add_parser("simulate", help="closed-system trajectory"),
          "sta-fit", SCHRODINGER_STEPS)

    p = sub.add_parser("lindblad", help="open-system trajectory")
    drive(p, "sta-ref", LINDBLAD_STEPS)
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--gamma-phi1", type=float, default=0.0)
    p.add_argument("--gamma-phi2", type=float, default=0.0)

    p = sub.add_parser("sweep", help="parameter-error robustness sweep")
    p.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    p.add_argument("--range", type=float, default=0.1, dest="error_range")
    p.add_argument("--points", type=int, default=21)
    common(p, SCHRODINGER_STEPS)

    p = sub.add_parser("stirap-curve", help="baseline infidelity vs amplitude")
    p.add_argument("--min", type=float, default=1.0, dest="amp_min")
    p.add_argument("--max", type=float, default=80.0, dest="amp_max")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--tc", type=float, default=None)
    common(p, SCHRODINGER_STEPS)

    p = sub.add_parser("table1", help="amplitude/population table per winding")
    p.add_argument("--max-m", type=int, default=7)
    p.add_argument("--fit-budget", type=int, default=None,
                   help="Gaussian components per pulse for every winding "
                        "(default m+1, at least 2)")

    for name, help_text in [
            ("fig1", "shortcut schedules vs their Gaussian fits"),
            ("fig2", "population trajectories for m = 1, 2, 3"),
            ("fig3", "baseline infidelity curve"),
            ("fig4", "parameter-error robustness sweeps"),
            ("fig5", "decoherence robustness maps")]:
        p = sub.add_parser(name, help=help_text)
        if name == "fig4":
            p.add_argument("--points", type=int, default=41)
        if name == "fig5":
            p.add_argument("--grid", type=int, default=21)
        common(p, None if name in ("fig1", "fig5") else SCHRODINGER_STEPS)

    return parser


def _parsers(parser, command):
    """The main parser and `command`'s subparser."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices[command]


def _set_config_defaults(parser, args):
    """Make the --config values the defaults of the flags they name.

    Keys name option destinations (`duration` for --T); a key that names
    no option of the chosen command is a ConfigError.  Each value goes
    through its flag's argparse type converter and choices, as if it had
    been given on the command line; parsing argv again then lets every
    explicit flag, abbreviated or not, win over the config.
    """
    try:
        with open(args.config) as fh:
            overrides = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    if not isinstance(overrides, dict):
        raise ConfigError("config file must hold a JSON object")
    # --help and --version take no value
    actions = {a.dest: (p, a) for p in _parsers(parser, args.command)
               for a in p._actions
               if a.option_strings and a.default is not argparse.SUPPRESS}
    for key, value in overrides.items():
        p, action = actions.get(key.replace("-", "_"), (None, None))
        if action is None:
            raise ConfigError(f"config key {key!r} names no option of "
                              f"{args.command}")
        try:
            value = (action.type or str)(str(value))
        except ValueError:
            raise ConfigError(f"invalid config value for {key}: {value!r}")
        if action.choices is not None and value not in action.choices:
            raise ConfigError(f"invalid config value for {key}: {value!r} "
                              f"(choose from {', '.join(action.choices)})")
        p.set_defaults(**{action.dest: value})


def _resolved(parser, args):
    """Check the parsed options; return them with every unset option the
    run reads at the value it uses: the chosen protocol's defaults, the
    fit's component count and the STIRAP pulse timing."""
    min_steps = (MIN_LINDBLAD_STEPS if args.command == "lindblad"
                 else MIN_SCHRODINGER_STEPS)
    checks = {
        "m": lambda v: v >= 1,
        "duration": lambda v: v > 0,
        "steps": lambda v: v >= min_steps,
        "samples": lambda v: v >= 100,
        "points": lambda v: v >= 2,
        "grid": lambda v: v >= 2,
        "omega0": lambda v: v > 0,
        "max_m": lambda v: 1 <= v <= 10,
        "error_range": lambda v: 0 < v <= 0.2,
    }
    for p in _parsers(parser, args.command):
        for action in p._actions:
            value = getattr(args, action.dest, None)
            ok = checks.get(action.dest, lambda v: True)
            if value is not None and not (
                    (action.type is not float or math.isfinite(value))
                    and ok(value)):
                raise ConfigError(f"invalid value for "
                                  f"{action.option_strings[0]}: {value}")
    protocol = getattr(args, "protocol", None)
    defaults = {}
    if protocol is not None:
        read = PROTOCOL_OPTIONS[protocol]
        for dest in set().union(*PROTOCOL_OPTIONS.values()) - set(read):
            if getattr(args, dest) is not None:
                raise ConfigError(f"--protocol {protocol} does not "
                                  f"read --{dest}")
        defaults = {k: v for k, v in read.items() if getattr(args, k) is None}
    args = argparse.Namespace(**{**vars(args), **defaults})
    if (args.command == "fit" or protocol == "sta-fit") \
            and args.components is None:
        args.components = fit_components(args.m)
    if protocol == "stirap" or args.command == "stirap-curve":
        # the timing does not depend on the amplitude
        p = design_stirap(1.0, args.t0, args.tc, args.duration)
        args.t0, args.tc = p.t0, p.tc
    return args


def _manifest(args, outputs):
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("config", "outdir") and v is not None}
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
    digits; the whole table is formatted by one `%` operation."""
    rows = list(zip(*columns))
    row = ",".join(["%.12g"] * len(header)) + "\n"
    return (",".join(header) + "\n"
            + row * len(rows) % tuple(chain.from_iterable(rows)))


def _protocol_pulses(args):
    """Resolve a --protocol choice into its pulses."""
    T = args.duration
    if args.protocol == "stirap":
        return design_stirap(args.omega0 / T, args.t0, args.tc, T)
    p = design_sta(args.m, T)
    if args.protocol == "sta":
        return p
    if args.protocol == "sta-ref":
        if args.m != 1:
            raise ConfigError("reference fit coefficients exist only for m=1")
        return PulsePair(*reference_m1_fit(T))
    (f1, _), (f2, _) = fit_protocol_pulses(p, args.components)
    return PulsePair(f1, f2)


def _trajectory_csv(propagate, pulses, args, **options):
    """Populations of one run, sampled about every thousandth step."""
    traj = propagate(pulses, horizon=args.duration, steps=args.steps,
                     stride=max(1, args.steps // 1000), **options)
    return csv_text(["t_over_T", "P1", "P2", "P3"],
                    [traj.times / traj.duration, *traj.populations.T])


def _sweep_csv(kind, error_range, points, duration, steps):
    """One robustness sweep of the reference m=1 pulses."""
    pulses = PulsePair(*reference_m1_fit(duration))
    if kind == "timing-error":
        data = timing_error_sweep(pulses, error_range, points, duration,
                                  steps)
        x_name = "dT_over_T"
    else:
        which = 1 if kind == "amp1-error" else 2
        data = amplitude_error_sweep(pulses, which, error_range, points,
                                     duration, steps)
        x_name = f"dOmega{which}_over_Omega{which}"
    return csv_text([x_name, "P3"], zip(*data))


def _stirap_curve_csv(amp_min, amp_max, points, t0, tc, duration, steps):
    with np.errstate(over="ignore"):  # an infinite amplitude fails the run
        amplitudes = np.linspace(amp_min, amp_max, points) / duration
    data = stirap_infidelity_curve(t0, tc, duration, amplitudes, steps)
    return csv_text(["Omega0_T", "infidelity"], zip(*data))


def cmd_design(args):
    p = design_sta(args.m, args.duration)
    t = np.linspace(0, args.duration, args.samples)
    return {"protocol.json": protocol_to_json(p) + "\n",
            "schedule.csv": csv_text(
                ["t_over_T", "Omega1", "Omega2", "Omega", "theta", "phi"],
                [t / args.duration, p.omega1(t), p.omega2(t), p.omega(t),
                 p.theta(t), p.phi(t)])}


def cmd_fit(args):
    p = design_sta(args.m, args.duration)
    (f1, r1), (f2, r2) = fit_protocol_pulses(p, args.components, args.samples)
    return {"pulse1.json": pulse_to_json(f1, r1) + "\n",
            "pulse2.json": pulse_to_json(f2, r2) + "\n"}


def cmd_simulate(args):
    return {"trajectory.csv": _trajectory_csv(
        propagate_schrodinger, _protocol_pulses(args), args)}


def cmd_lindblad(args):
    rates = LindbladRates(gamma1=args.gamma1, gamma2=args.gamma2,
                          gamma_phi1=args.gamma_phi1,
                          gamma_phi2=args.gamma_phi2)
    return {"trajectory.csv": _trajectory_csv(
        propagate_lindblad, _protocol_pulses(args), args, rates=rates)}


def cmd_sweep(args):
    return {"sweep.csv": _sweep_csv(args.kind, args.error_range, args.points,
                                    args.duration, args.steps)}


def cmd_stirap_curve(args):
    return {"stirap_curve.csv": _stirap_curve_csv(
        args.amp_min, args.amp_max, args.points, args.t0, args.tc,
        args.duration, args.steps)}


def cmd_table1(args):
    rows = table_one(args.max_m, args.fit_budget)
    return {"table1.csv": csv_text(
                ["phiT_over_pi", "omega_tilde_0_T", "P2max"],
                [[r.winding_phase / math.pi for r in rows],
                 [r.pulse_amplitude for r in rows],
                 [r.p2_max for r in rows]]),
            "table1.txt": format_table(rows) + "\n"}


def cmd_fig1(args):
    p = design_sta(1, args.duration)
    f1, f2 = reference_m1_fit(args.duration)
    t = np.linspace(0, args.duration, 1001)
    return {"fig1.csv": csv_text(
        ["t_over_T", "abs_Omega1", "abs_Omega1_fit", "Omega2", "Omega2_fit"],
        [t / args.duration, np.abs(p.omega1(t)), np.abs(f1(t)),
         p.omega2(t), f2(t)])}


def cmd_fig2(args):
    return {f"fig2{label}.csv": _trajectory_csv(
                propagate_schrodinger, design_sta(m, args.duration), args)
            for label, m in zip("abc", (1, 2, 3))}


def cmd_fig3(args):
    return {"fig3.csv": _stirap_curve_csv(1.0, 80.0, 50, None, None,
                                          args.duration, args.steps)}


def cmd_fig4(args):
    return {f"fig4_{kind.split('-')[0]}.csv": _sweep_csv(
                kind, 0.1, args.points, args.duration, args.steps)
            for kind in SWEEP_KINDS}


def cmd_fig5(args):
    pulses = PulsePair(*reference_m1_fit(args.duration))
    ratios, maps = decoherence_maps(pulses, ("relaxation", "dephasing"),
                                    0.01, args.grid, duration=args.duration)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _set_config_defaults(parser, args)
            args = parser.parse_args(argv)
        args = _resolved(parser, args)
        outdir = Path(args.outdir or os.environ.get(OUTDIR_ENV) or ".")
        outdir.mkdir(parents=True, exist_ok=True)
        try:
            outputs = COMMANDS[args.command](args)
        except (ConfigError, InvalidParameters):
            raise
        except Exception as exc:
            print(f"computation failed: {exc}", file=sys.stderr)
            return 3
        _write(outdir, {**outputs, "manifest.json": _manifest(args, outputs)})
    except (ConfigError, InvalidParameters, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in outputs:
        print(outdir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
