"""Quantitative studies: robustness sweeps, the adiabatic-baseline
infidelity curve, decoherence maps and the amplitude/population table.

Each sweep, curve and map is one batched call of a dynamics kernel.  All
are deterministic for fixed inputs and step counts, and every result
carries plain numbers or arrays; the CLI writes them out.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .protocol import InvalidParameters, design_sta, design_stirap
from .dynamics import (LINDBLAD_STEPS, SCHRODINGER_STEPS, LindbladRates,
                       evolve_lindblad, evolve_schrodinger,
                       propagate_lindblad)
from .pulsefit import fit_gaussian_sum, fit_report, pulse_amplitude


# The two LindbladRates fields each decoherence map mode varies.
_MAP_CHANNELS = {"relaxation": ("gamma1", "gamma2"),
                 "dephasing": ("gamma_phi1", "gamma_phi2")}


@dataclass(frozen=True)
class TableRow:
    winding_phase: float      # |phi(T)| = m*pi
    pulse_amplitude: float    # fitted peak amplitude at T = 1, i.e. Omega0*T
    p2_max: float             # 2*kappa - kappa^2
    fit_converged: bool


def _final_p3(states):
    """Target population at the last sample of each batched run."""
    return np.abs(states[:, -1, 2]) ** 2


def timing_error_sweep(pulses, error_range=0.1, points=21, duration=1.0,
                       steps=SCHRODINGER_STEPS):
    """Final target population when the interaction time is off by a
    relative error delta: integrate to T' = T*(1+delta) with the nominal
    pulse parameters frozen."""
    if error_range > 0.2:
        raise ValueError("timing error range limited to 20%")
    if duration <= 0:
        raise InvalidParameters(f"duration must be positive, got {duration}")
    deltas = np.linspace(-error_range, error_range, points)
    p3 = _final_p3(evolve_schrodinger(pulses, duration * (1 + deltas), steps))
    return [(float(d), float(p)) for d, p in zip(deltas, p3)]


def amplitude_error_sweep(pulses, which=1, error_range=0.1, points=21,
                          duration=1.0, steps=SCHRODINGER_STEPS):
    """Final target population when one drive amplitude is scaled by
    (1+delta) while the other stays nominal."""
    if which not in (1, 2):
        raise ValueError("which must be 1 or 2")
    deltas = np.linspace(-error_range, error_range, points)
    scales = (1 + deltas, 1) if which == 1 else (1, 1 + deltas)
    p3 = _final_p3(evolve_schrodinger(pulses, duration, steps, *scales))
    return [(float(d), float(p)) for d, p in zip(deltas, p3)]


def stirap_infidelity_curve(t0=None, tc=None, duration=1.0, amplitudes=None,
                            steps=SCHRODINGER_STEPS):
    """Final-state infidelity of the Gaussian adiabatic pair versus its
    peak amplitude."""
    if amplitudes is None:
        amplitudes = np.linspace(1.0, 80.0, 50) / duration
    amplitudes = np.asarray(amplitudes, dtype=float)
    if np.any(amplitudes <= 0):
        raise InvalidParameters("STIRAP amplitudes must be positive")
    unit = design_stirap(1.0, t0, tc, duration)
    p3 = _final_p3(evolve_schrodinger(unit, duration, steps,
                                      amplitudes, amplitudes))
    return [(float(a), float(1 - p)) for a, p in zip(amplitudes, p3)]


def decoherence_maps(pulses, modes, max_ratio=0.01, grid=21, amplitude=None,
                     duration=1.0, steps=2000):
    """P3(T) over a grid of (rate1, rate2) pairs expressed as fractions of
    the pulse amplitude, for each mode in `modes`, all in one kernel call.

    A mode selects relaxation (both decay paths) or dephasing (both phase
    channels).  Returns (ratios, maps) with maps[k, i, j] the final
    population of modes[k] at rate1 = ratios[i], rate2 = ratios[j].
    """
    for mode in modes:
        if mode not in _MAP_CHANNELS:
            raise ValueError(f"mode must be relaxation or dephasing, "
                             f"got {mode!r}")
    if max_ratio > 0.05:
        raise ValueError("decoherence ratios limited to 5%")
    if grid < 2:
        raise ValueError("grid must have at least 2 points per axis")
    if amplitude is None:
        amplitude = pulse_amplitude(pulses.omega1, pulses.omega2, 1001,
                                    duration)
    ratios = np.linspace(0.0, max_ratio, grid)
    rates = [LindbladRates(**{c1: r1 * amplitude, c2: r2 * amplitude})
             for c1, c2 in map(_MAP_CHANNELS.get, modes)
             for r1 in ratios for r2 in ratios]
    rhos = evolve_lindblad(pulses, rates, duration, steps)
    return ratios, rhos[:, -1, 2, 2].real.reshape(len(modes), grid, grid)


def fit_components(m):
    """Default Gaussian count per pulse for winding m.

    Higher windings produce more sign lobes, so the count grows with m
    (m+1 per pulse, minimum 2).
    """
    return max(2, m + 1)


def fit_protocol_pulses(protocol, n_components=None, samples=1001):
    """Gaussian sums for both drive schedules of a shortcut protocol,
    with `fit_components(m)` Gaussians per pulse unless told otherwise.

    The schedules scale as Omega(t; T) = Omega(t/T; 1)/T, so the fit is
    made at T = 1 and then stretched to T (GaussianPulse.stretched), its
    report's residuals and peak divided by T: the fit, its nfev and its
    convergence do not depend on T.  With kappa = 1/(2m) the schedules
    are mirror images, Omega1(t) = (-1)^m Omega2(T - t), so only Omega2
    is fitted; pulse 1 is that fit mirrored (GaussianPulse.mirrored with
    sign (-1)^m).  Its report holds its own residuals against the Omega1
    samples and the nfev and convergence flag of the one fit.  Any other
    kappa raises InvalidParameters.
    """
    m, T = protocol.m, protocol.duration
    if protocol.kappa != 1.0 / (2 * m):
        raise InvalidParameters(
            f"fitting needs the mirror-symmetric kappa = 1/(2m) = "
            f"{1.0 / (2 * m)}, got {protocol.kappa}")
    if n_components is None:
        n_components = fit_components(m)
    unit = replace(protocol, duration=1.0)
    t = np.linspace(0.0, 1.0, samples)
    f2, r2 = fit_gaussian_sum((t, unit.omega2(t)), n_components)
    f1 = f2.mirrored((-1) ** m)
    r1 = fit_report(f1, t, unit.omega1(t), r2.iterations, r2.converged)
    return tuple((f.stretched(T), replace(
        r, rms_residual=r.rms_residual / T, max_residual=r.max_residual / T,
        peak_amplitude=r.peak_amplitude / T)) for f, r in ((f1, r1), (f2, r2)))


def table_one(max_m=7, fit_budget=None):
    """Fitted pulse amplitude and intermediate-population ceiling per
    winding m = 1..max_m.  Every entry is dimensionless, so the pulses are
    designed and fitted at T = 1."""
    if max_m > 10:
        raise ValueError("windings above 10 are not supported")
    rows = []
    for m in range(1, max_m + 1):
        p = design_sta(m)
        (f1, _), (f2, report) = fit_protocol_pulses(p, fit_budget)
        rows.append(TableRow(
            winding_phase=m * math.pi,
            pulse_amplitude=pulse_amplitude(f1, f2, 2001),
            p2_max=2 * p.kappa - p.kappa ** 2,
            fit_converged=report.converged))
    return rows


def stirap_dephasing_check(duration=1.0, steps=LINDBLAD_STEPS):
    """Final target population of the reference adiabatic protocol
    (amplitude 45/T) with both dephasing ratios at 1%."""
    proto = design_stirap(45.0 / duration, duration=duration)
    rates = LindbladRates(gamma_phi1=0.01 * proto.omega0,
                          gamma_phi2=0.01 * proto.omega0)
    tr = propagate_lindblad(proto, rates=rates, horizon=duration,
                            steps=steps, stride=steps)
    return float(tr.final_populations[2])


def format_table(rows):
    """Aligned text rendering of the winding/amplitude/population table,
    with whether the row's fit converged."""
    lines = [f"{'|phi(T)|':>10} {'amp*T':>8} {'P2max':>8} {'converged':>9}"]
    for r in rows:
        lines.append(f"{r.winding_phase / math.pi:>9.0f}p "
                     f"{r.pulse_amplitude:>8.2f} {r.p2_max:>8.4f} "
                     f"{'yes' if r.fit_converged else 'no':>9}")
    return "\n".join(lines)
