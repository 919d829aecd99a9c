"""Command-line front end.

One subcommand per reproducible artifact: protocol design, pulse fitting,
closed/open-system simulation, robustness sweeps, the adiabatic baseline
curve, the amplitude table, and the data behind each figure.  Every run
writes a manifest.json with the fully resolved configuration so that
reruns are byte-reproducible.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .protocol import (design_sta, design_stirap, protocol_to_json,
                       InvalidParameters)
from .dynamics import (LindbladRates, PulsePair, propagate_schrodinger,
                       propagate_lindblad)
from .pulsefit import pulse_amplitude, pulse_to_json, reference_m1_fit
from .analysis import (amplitude_error_sweep, decoherence_map,
                       fit_protocol_pulses, format_table,
                       stirap_infidelity_curve, table_one,
                       timing_error_sweep)

OUTDIR_ENV = "LAMBDA_STA_OUTDIR"


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

    def common(p, steps=True):
        p.add_argument("--T", type=float, default=1.0, dest="duration",
                       help="total interaction time (default 1)")
        if steps:
            p.add_argument("--steps", type=int, default=10_000,
                           help="integration steps (default 10000)")

    p = sub.add_parser("design", help="build a shortcut protocol")
    p.add_argument("--m", type=int, default=1, help="winding integer")
    p.add_argument("--samples", type=int, default=1001)
    common(p, steps=False)

    p = sub.add_parser("fit", help="fit the shortcut schedules to Gaussians")
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--samples", type=int, default=1001)
    common(p, steps=False)

    def drive(p, protocol):
        p.add_argument("--protocol", default=protocol,
                       choices=["sta", "sta-fit", "sta-ref", "stirap"])
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--components", type=int, default=None)
        p.add_argument("--omega0", type=float, default=45.0)
        p.add_argument("--t0", type=float, default=None)
        p.add_argument("--tc", type=float, default=None)
        common(p)

    drive(sub.add_parser("simulate", help="closed-system trajectory"),
          "sta-fit")

    p = sub.add_parser("lindblad", help="open-system trajectory")
    drive(p, "sta-ref")
    p.add_argument("--gamma1", type=float, default=0.0)
    p.add_argument("--gamma2", type=float, default=0.0)
    p.add_argument("--gamma-phi1", type=float, default=0.0)
    p.add_argument("--gamma-phi2", type=float, default=0.0)

    p = sub.add_parser("sweep", help="parameter-error robustness sweep")
    p.add_argument("--kind", required=True,
                   choices=["timing-error", "amp1-error", "amp2-error"])
    p.add_argument("--range", type=float, default=0.1, dest="error_range")
    p.add_argument("--points", type=int, default=21)
    common(p)

    p = sub.add_parser("stirap-curve", help="baseline infidelity vs amplitude")
    p.add_argument("--min", type=float, default=1.0, dest="amp_min")
    p.add_argument("--max", type=float, default=80.0, dest="amp_max")
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--t0", type=float, default=None)
    p.add_argument("--tc", type=float, default=None)
    common(p)

    p = sub.add_parser("table1", help="amplitude/population table per winding")
    p.add_argument("--max-m", type=int, default=7)
    p.add_argument("--fit-budget", type=int, default=None)
    common(p)

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
        common(p, steps=name not in ("fig1", "fig5"))

    return parser


def _parsers(parser, command):
    """The main parser and `command`'s subparser."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return parser, sub.choices[command]


def _set_config_defaults(parser, args):
    """Make the --config values the defaults of the flags they name.

    Keys name option destinations (`duration` for --T).  Each value goes
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
    for p in _parsers(parser, args.command):
        by_dest = {a.dest: a for a in p._actions if a.option_strings}
        defaults = {}
        for key, value in overrides.items():
            action = by_dest.get(key.replace("-", "_"))
            if action is None:
                continue
            try:
                value = (action.type or str)(str(value))
            except ValueError:
                raise ConfigError(f"invalid config value for {key}: {value!r}")
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"invalid config value for {key}: {value!r} "
                                  f"(choose from {', '.join(action.choices)})")
            defaults[action.dest] = value
        p.set_defaults(**defaults)


def _validate(parser, args):
    checks = {
        "m": lambda v: v >= 1,
        "duration": lambda v: v > 0,
        "steps": lambda v: v >= 100,
        "samples": lambda v: v >= 100,
        "points": lambda v: v >= 2,
        "grid": lambda v: v >= 2,
        "omega0": lambda v: v > 0,
        "max_m": lambda v: 1 <= v <= 10,
        "error_range": lambda v: 0 < v <= 0.2,
    }
    for p in _parsers(parser, args.command):
        for action in p._actions:
            ok = checks.get(action.dest)
            value = getattr(args, action.dest, None)
            if ok is not None and value is not None and not ok(value):
                raise ConfigError(f"invalid value for "
                                  f"{action.option_strings[0]}: {value}")


def _resolve_outdir(args):
    outdir = args.outdir or os.environ.get(OUTDIR_ENV) or "."
    path = Path(outdir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(outdir, args, outputs):
    config = {k: v for k, v in sorted(vars(args).items())
              if k not in ("config", "outdir") and v is not None}
    doc = {"tool": "lambda-sta", "version": __version__,
           "config": config, "outputs": sorted(outputs)}
    (outdir / "manifest.json").write_text(json.dumps(doc, indent=2) + "\n")


def write_csv(path, header, columns):
    """A CSV file with the named columns, every value at 12 significant
    digits."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{x:.12g}" for x in row) + "\n")


def _write_trajectory(path, traj):
    write_csv(path, ["t_over_T", "P1", "P2", "P3"],
              [traj.times / traj.duration, *traj.populations.T])


def _reference_pulses(duration):
    return PulsePair(*reference_m1_fit(duration))


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
        return _reference_pulses(T)
    (f1, _), (f2, _) = fit_protocol_pulses(p, args.components)
    return PulsePair(f1, f2)


def cmd_design(args, outdir):
    p = design_sta(args.m, args.duration)
    (outdir / "protocol.json").write_text(protocol_to_json(p) + "\n")
    t = np.linspace(0, args.duration, args.samples)
    write_csv(outdir / "schedule.csv",
              ["t_over_T", "Omega1", "Omega2", "Omega", "theta", "phi"],
              [t / args.duration, p.omega1(t), p.omega2(t), p.omega(t),
               p.theta(t), p.phi(t)])
    return ["protocol.json", "schedule.csv"]


def cmd_fit(args, outdir):
    p = design_sta(args.m, args.duration)
    (f1, r1), (f2, r2) = fit_protocol_pulses(p, args.components, args.samples)
    (outdir / "pulse1.json").write_text(pulse_to_json(f1, r1) + "\n")
    (outdir / "pulse2.json").write_text(pulse_to_json(f2, r2) + "\n")
    return ["pulse1.json", "pulse2.json"]


def cmd_simulate(args, outdir):
    pulses = _protocol_pulses(args)
    traj = propagate_schrodinger(pulses, horizon=args.duration,
                                 steps=args.steps,
                                 stride=max(1, args.steps // 1000))
    _write_trajectory(outdir / "trajectory.csv", traj)
    return ["trajectory.csv"]


def cmd_lindblad(args, outdir):
    pulses = _protocol_pulses(args)
    rates = LindbladRates(gamma1=args.gamma1, gamma2=args.gamma2,
                          gamma_phi1=args.gamma_phi1,
                          gamma_phi2=args.gamma_phi2)
    traj = propagate_lindblad(pulses, rates=rates, horizon=args.duration,
                              steps=args.steps)
    _write_trajectory(outdir / "trajectory.csv", traj)
    return ["trajectory.csv"]


def cmd_sweep(args, outdir):
    pulses = _reference_pulses(args.duration)
    if args.kind == "timing-error":
        data = timing_error_sweep(pulses, args.error_range, args.points,
                                  args.duration, args.steps)
        x_name = "dT_over_T"
    else:
        which = 1 if args.kind == "amp1-error" else 2
        data = amplitude_error_sweep(pulses, which, args.error_range,
                                     args.points, args.duration, args.steps)
        x_name = f"dOmega{which}_over_Omega{which}"
    write_csv(outdir / "sweep.csv", [x_name, "P3"], zip(*data))
    return ["sweep.csv"]


def cmd_stirap_curve(args, outdir, filename="stirap_curve.csv"):
    amplitudes = np.linspace(args.amp_min, args.amp_max, args.points)
    data = stirap_infidelity_curve(args.t0, args.tc, args.duration,
                                   amplitudes / args.duration, args.steps)
    write_csv(outdir / filename, ["Omega0_T", "infidelity"], zip(*data))
    return [filename]


def cmd_table1(args, outdir):
    rows = table_one(args.max_m, args.fit_budget, args.duration, args.steps)
    write_csv(outdir / "table1.csv",
              ["phiT_over_pi", "omega_tilde_0_T", "P2max"],
              [[r.winding_phase / math.pi for r in rows],
               [r.pulse_amplitude for r in rows], [r.p2_max for r in rows]])
    (outdir / "table1.txt").write_text(format_table(rows) + "\n")
    return ["table1.csv", "table1.txt"]


def cmd_fig1(args, outdir):
    p = design_sta(1, args.duration)
    f1, f2 = reference_m1_fit(args.duration)
    t = np.linspace(0, args.duration, 1001)
    write_csv(outdir / "fig1.csv",
              ["t_over_T", "abs_Omega1", "abs_Omega1_fit", "Omega2",
               "Omega2_fit"],
              [t / args.duration, np.abs(p.omega1(t)), np.abs(f1(t)),
               p.omega2(t), f2(t)])
    return ["fig1.csv"]


def cmd_fig2(args, outdir):
    outputs = []
    for label, m in zip("abc", (1, 2, 3)):
        traj = propagate_schrodinger(design_sta(m, args.duration),
                                     horizon=args.duration, steps=args.steps,
                                     stride=max(1, args.steps // 1000))
        name = f"fig2{label}.csv"
        _write_trajectory(outdir / name, traj)
        outputs.append(name)
    return outputs


def cmd_fig3(args, outdir):
    args.amp_min, args.amp_max, args.points = 1.0, 80.0, 50
    args.t0 = args.tc = None
    return cmd_stirap_curve(args, outdir, filename="fig3.csv")


def cmd_fig4(args, outdir):
    pulses = _reference_pulses(args.duration)
    outputs = []
    data = timing_error_sweep(pulses, 0.1, args.points, args.duration,
                              args.steps)
    write_csv(outdir / "fig4_timing.csv", ["dT_over_T", "P3"], zip(*data))
    outputs.append("fig4_timing.csv")
    for which in (1, 2):
        data = amplitude_error_sweep(pulses, which, 0.1, args.points,
                                     args.duration, args.steps)
        name = f"fig4_amp{which}.csv"
        write_csv(outdir / name, [f"dOmega{which}_over_Omega{which}", "P3"],
                  zip(*data))
        outputs.append(name)
    return outputs


def cmd_fig5(args, outdir):
    pulses = _reference_pulses(args.duration)
    amp = pulse_amplitude(pulses.omega1, pulses.omega2, 1001, args.duration)
    outputs = []
    for label, mode, names in [("a", "relaxation", ("Gamma1", "Gamma2")),
                               ("b", "dephasing", ("Gamma_phi1", "Gamma_phi2"))]:
        ratios, grid = decoherence_map(pulses, mode, 0.01, args.grid, amp,
                                       args.duration)
        name = f"fig5{label}.csv"
        write_csv(outdir / name,
                  [f"{names[0]}_over_amp", f"{names[1]}_over_amp", "P3"],
                  [np.repeat(ratios, len(ratios)),
                   np.tile(ratios, len(ratios)), grid.ravel()])
        outputs.append(name)
    return outputs


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
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _set_config_defaults(parser, args)
            args = parser.parse_args(argv)
        _validate(parser, args)
        outdir = _resolve_outdir(args)
    except (ConfigError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        outputs = COMMANDS[args.command](args, outdir)
    except (ConfigError, InvalidParameters) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return 3
    _write_manifest(outdir, args, outputs)
    for name in outputs:
        print(outdir / name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
