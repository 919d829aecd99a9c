"""Quantitative studies: robustness sweeps, the adiabatic-baseline
infidelity curve, decoherence maps and the amplitude/population table.

Each sweep, curve and map is one batched call of a dynamics kernel.  All
are deterministic for fixed inputs and step counts, and every result
carries plain numbers or arrays; the CLI writes them out.
"""

import math
from dataclasses import dataclass

import numpy as np

from .protocol import InvalidParameters, design_sta
from .dynamics import (LINDBLAD_STEPS, MIN_SCHRODINGER_STEPS,
                       SCHRODINGER_END_STEPS, LindbladRates, evolve_lindblad,
                       evolve_schrodinger, propagate_lindblad)
from .pulsefit import (STIRAP_OMEGA0, STIRAP_T0, STIRAP_TC, design_stirap,
                       fit_gaussian_sum, fit_report, pulse_amplitude)


# The two LindbladRates fields each decoherence map mode varies.
_MAP_CHANNELS = {"relaxation": ("gamma1", "gamma2"),
                 "dephasing": ("gamma_phi1", "gamma_phi2")}
# Chebyshev nodes per rate axis of a decoherence map's interpolant, and
# the largest coefficient it accepts in its last row and column.
_MAP_NODES = 6
_MAP_TAIL = 1e-13


@dataclass(frozen=True)
class TableRow:
    winding_phase: float      # |phi(T)| = m*pi
    pulse_amplitude: float    # fitted peak amplitude at T = 1, i.e. Omega0*T
    p2_max: float             # 2*kappa - kappa^2
    fit_converged: bool


def _final_p3(states):
    """Target population at the last sample of each batched run."""
    return np.abs(states[:, -1, 2]) ** 2


@dataclass(frozen=True)
class _TwoRateClock:
    """The pulses as a drive in the step count s of a run whose first
    `knot` steps are `early` long and whose later steps are `late` long:
    t'(s) omega(t(s)), so that a unit step in s is one of the run's steps
    and Omega*ds reads omega*dt."""

    pulses: object
    knot: int
    early: float
    late: float

    def drive(self, s):
        after = s > self.knot
        rate = np.where(after, self.late, self.early)
        o1, o2 = self.pulses.drive(np.where(
            after, self.knot * self.early + (s - self.knot) * self.late,
            s * self.early))
        return rate * o1, rate * o2


def timing_error_sweep(pulses, error_range=0.1, points=21,
                       steps=SCHRODINGER_END_STEPS):
    """Final target population when the interaction time is off by a
    relative error delta: integrate to T' = T*(1+delta), the horizon
    1 + delta in units of T, with the nominal pulse parameters frozen.

    Every horizon ends the same run from |1>, so the sweep is one run
    sampled at each.  With r = error_range, N = steps, the deltas' spacing
    g = 2r/(points - 1), k = ceil(g N) and M = ceil((1 - r) N/k), the run
    takes k M equal steps over [0, 1 - r] and (points - 1) k equal steps
    over [1 - r, 1 + r]; no step is longer than 1/N, and sampled every k
    steps, its last `points` samples are the sweep.  The kernel steps it
    uniformly in the step count s, driven by t'(s) omega(t(s)), whose kink
    at s = k M falls on a step's edge: the Magnus step sees a smooth drive
    within every step, and the step check reads omega*dt.  A single
    horizon, 1 - r (points = 1 or r = 0), is one run of N steps.
    """
    if not 0 <= error_range <= 0.2:  # nan too
        raise InvalidParameters(f"timing error range must lie in [0, 0.2], "
                                f"got {error_range}")
    if steps < MIN_SCHRODINGER_STEPS:
        raise InvalidParameters(f"need at least {MIN_SCHRODINGER_STEPS} "
                                f"steps, got {steps}")
    deltas = np.linspace(-error_range, error_range, points)
    start = 1 - error_range
    if points < 2 or error_range == 0:
        p3 = _final_p3(evolve_schrodinger(pulses, start, steps))
        return [(float(d), float(p3[0])) for d in deltas]
    gap = 2 * error_range / (points - 1)
    k = math.ceil(gap * steps)
    knot = k * math.ceil(start * steps / k)
    total = knot + (points - 1) * k
    clock = _TwoRateClock(pulses, knot, start / knot, gap / k)
    states = evolve_schrodinger(clock, total, total, stride=k)
    p3 = np.abs(states[0, -points:, 2]) ** 2
    return [(float(d), float(p)) for d, p in zip(deltas, p3)]


def amplitude_error_sweep(pulses, which=1, error_range=0.1, points=21,
                          steps=SCHRODINGER_END_STEPS):
    """Final target population when one drive amplitude is scaled by
    (1+delta) while the other stays nominal.  At error_range 1 the low
    end switches the pulse off; beyond it the scale turns negative."""
    if which not in (1, 2):
        raise InvalidParameters("which must be 1 or 2")
    if not 0 <= error_range <= 1:  # nan too
        raise InvalidParameters(f"amplitude error range must lie in [0, 1], "
                                f"got {error_range}")
    deltas = np.linspace(-error_range, error_range, points)
    scales = (1 + deltas, 1) if which == 1 else (1, 1 + deltas)
    p3 = _final_p3(evolve_schrodinger(pulses, 1.0, steps, *scales))
    return [(float(d), float(p)) for d, p in zip(deltas, p3)]


def stirap_infidelity_curve(amplitudes, t0=STIRAP_T0, tc=STIRAP_TC,
                            steps=SCHRODINGER_END_STEPS):
    """Final-state infidelity of the Gaussian adiabatic pair versus its
    peak amplitudes Omega0*T."""
    amplitudes = np.asarray(amplitudes, dtype=float)
    if np.any(amplitudes <= 0):
        raise InvalidParameters("STIRAP amplitudes must be positive")
    unit = design_stirap(1.0, t0, tc)
    p3 = _final_p3(evolve_schrodinger(unit, 1.0, steps,
                                      amplitudes, amplitudes))
    return [(float(a), float(1 - p)) for a, p in zip(amplitudes, p3)]


def _chebyshev(x, n):
    """The Chebyshev polynomials T_0 .. T_{n-1} at the points x of
    [-1, 1], one row a point: cos(k arccos x)."""
    return np.cos(np.arccos(x)[:, None] * np.arange(n))


def decoherence_maps(pulses, modes, max_ratio=0.01, grid=21, amplitude=None,
                     steps=2000):
    """Final target population over a grid of (rate1, rate2) pairs
    expressed as fractions of the pulse amplitude, for each mode in
    `modes`, every mode in one kernel call.

    A mode selects relaxation (both decay paths) or dephasing (both phase
    channels).  Returns (ratios, maps) with maps[k, i, j] the final
    population of modes[k] at rate1 = ratios[i], rate2 = ratios[j].

    P3 is an entire function of the rates, and on the maps' small rates
    nearly a polynomial of low degree.  So each mode runs on a 6 x 6 tensor
    grid of first-kind Chebyshev nodes x_j = cos(pi (j + 1/2)/6) of
    [0, max_ratio], and the maps are the interpolants' values at the grid.
    The grid is run directly, in a second call, when the tail, the largest
    coefficient in the last row or column of any mode's interpolant,
    exceeds 1e-13: six nodes do not resolve P3 there (design_stirap(45)
    at max_ratio 0.05: a tail of 2e-8, 1e-9 off).  It is run directly,
    alone, when grid <= 6 or max_ratio = 0.  fig5's 21 x 21 maps of the
    m = 1 reference fit pass with a tail of 7e-14 and lie within 1.2e-14
    of the direct runs, a floor more nodes do not lower: roundoff, not
    truncation.
    """
    for mode in modes:
        if mode not in _MAP_CHANNELS:
            raise InvalidParameters(f"mode must be relaxation or "
                                    f"dephasing, got {mode!r}")
    if not 0 <= max_ratio <= 0.05:  # nan too
        raise InvalidParameters(f"max_ratio must lie in [0, 0.05], "
                                f"got {max_ratio}")
    if grid < 2:
        raise InvalidParameters("grid must have at least 2 points per axis")
    if amplitude is None:
        amplitude = pulse_amplitude(pulses.omega1, pulses.omega2, 1001)

    def final_p3(r):  # on the tensor grid r x r, one map a mode
        rates = [LindbladRates(**{c1: r1 * amplitude, c2: r2 * amplitude})
                 for c1, c2 in map(_MAP_CHANNELS.get, modes)
                 for r1 in r for r2 in r]
        rhos = evolve_lindblad(pulses, rates, steps)
        return rhos[:, -1, 2, 2].real.reshape(len(modes), len(r), len(r))

    ratios = np.linspace(0.0, max_ratio, grid)
    n = _MAP_NODES
    if grid > n and max_ratio > 0:
        x = np.cos(np.pi * (np.arange(n) + 0.5) / n)
        # V^-1 = diag(1/n, 2/n, ..., 2/n) V^T, V the nodes' Vandermonde
        weights = np.full((n, 1), 2 / n)
        weights[0] = 1 / n
        inverse = weights * _chebyshev(x, n).T
        coef = inverse @ final_p3((x + 1) / 2 * max_ratio) @ inverse.T
        tail = max(np.abs(coef[:, -1]).max(), np.abs(coef[..., -1]).max())
        if tail <= _MAP_TAIL:
            w = _chebyshev(2 * ratios / max_ratio - 1, n)
            return ratios, w @ coef @ w.T
    return ratios, final_p3(ratios)


def fit_components(m):
    """Default Gaussian count per pulse for winding m.

    Higher windings produce more sign lobes, so the count grows with m
    (m+1 per pulse, minimum 2).
    """
    return max(2, m + 1)


def fit_protocol_pulses(protocol, n_components=None, samples=1001):
    """Gaussian sums over [0, 1] for both drive schedules of a shortcut
    protocol, with `fit_components(m)` Gaussians per pulse unless told
    otherwise.

    With kappa = 1/(2m) the schedules are mirror images, Omega1(t) =
    (-1)^m Omega2(1 - t), so only Omega2 is fitted; pulse 1 is that fit
    mirrored (GaussianPulse.mirrored with sign (-1)^m).  Its report holds
    its own residuals against the Omega1 samples and the nfev and
    convergence flag of the one fit.  Any other kappa raises
    InvalidParameters.
    """
    m = protocol.m
    if protocol.kappa != 1.0 / (2 * m):
        raise InvalidParameters(
            f"fitting needs the mirror-symmetric kappa = 1/(2m) = "
            f"{1.0 / (2 * m)}, got {protocol.kappa}")
    if n_components is None:
        n_components = fit_components(m)
    t = np.linspace(0.0, 1.0, samples)
    o1, o2 = protocol.drive(t)
    f2, r2 = fit_gaussian_sum((t, o2), n_components)
    f1 = f2.mirrored((-1) ** m)
    r1 = fit_report(f1, t, o1, r2.iterations, r2.converged)
    return (f1, r1), (f2, r2)


def table_one(max_m=7, fit_budget=None):
    """Fitted pulse amplitude and intermediate-population ceiling per
    winding m = 1..max_m; like the pulses, every entry is dimensionless."""
    if not 1 <= max_m <= 10:
        raise InvalidParameters(f"max_m must lie in 1..10, got {max_m}")
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


def stirap_dephasing_check(steps=LINDBLAD_STEPS):
    """Final target population of the reference adiabatic protocol
    (amplitude Omega0*T = STIRAP_OMEGA0) with both dephasing ratios at 1%."""
    rates = LindbladRates(gamma_phi1=0.01 * STIRAP_OMEGA0,
                          gamma_phi2=0.01 * STIRAP_OMEGA0)
    tr = propagate_lindblad(design_stirap(STIRAP_OMEGA0), rates=rates,
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
