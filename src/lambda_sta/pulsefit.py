"""Fit sampled drive schedules to signed sums of Gaussian components.

The model is f(t) = sum_i zeta_i * exp(-((t - tau_i)/chi_i)^2).  The
amplitudes zeta enter it linearly, so the fit is separable (variable
projection, Golub & Pereyra 1973): trust-region reflective least squares
moves only the centers and widths (tau, chi), and at every point zeta is
the linear least-squares solution on the Gaussian basis.  The Jacobian is
Kaufman's projected derivative (I - QQ^T) dG/dq zeta, with Q from the one
factorisation of the basis that also gives zeta.  Centers are seeded on
the extrema and half-maximum shoulders of the sampled lobes, and each
width at a third of the sign lobe that holds its center.  The signed
schedule is fitted directly, so components carry the sign of the lobe
they cover.

A shortcut protocol's two schedules are mirror images, so only Omega2
is fitted here; `analysis.fit_protocol_pulses` builds Omega1 by
mirroring that fit, and `fit_report` gives the mirrored pulse's
residuals.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .protocol import InvalidParameters


class DegenerateSamples(ValueError):
    pass


@dataclass(frozen=True)
class GaussianComponent:
    amplitude: float  # zeta, 1/time, signed
    center: float     # tau
    width: float      # chi > 0

    def __post_init__(self):
        if self.width <= 0 or not math.isfinite(self.amplitude):
            raise ValueError(f"bad component {self}")


@dataclass(frozen=True)
class GaussianPulse:
    components: tuple

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for c in self.components:
            u = (t - c.center) / c.width
            out += c.amplitude * np.exp(-u * u)
        return out


@dataclass(frozen=True)
class FitReport:
    rms_residual: float
    max_residual: float
    peak_amplitude: float
    iterations: int
    converged: bool


def pulse_to_json(pulse, report=None):
    doc = {"components": [{"zeta": c.amplitude, "tau": c.center,
                           "chi": c.width} for c in pulse.components]}
    if report is not None:
        doc["fit_report"] = asdict(report)
    return json.dumps(doc, indent=2)


def reference_m1_fit(duration=1.0):
    """Published two-component decomposition of the m=1 schedules.

    Returns (pulse1, pulse2) scaled to the given protocol duration.
    Serves as the regression fixture the in-repo fitter is checked
    against.
    """
    T = duration
    p1 = GaussianPulse((
        GaussianComponent(-3.194 / T, 0.4396 * T, 0.2476 * T),
        GaussianComponent(-1.275 / T, 0.2159 * T, 0.1581 * T),
    ))
    p2 = GaussianPulse((
        GaussianComponent(3.194 / T, 0.5604 * T, 0.2476 * T),
        GaussianComponent(1.275 / T, 0.7841 * T, 0.1581 * T),
    ))
    return p1, p2


def _initial_guess(t, y, n):
    """Seed (tau, chi) of n components on the lobes of the sampled signal.

    Centers go to local extrema of |y| sorted by magnitude; if the signal
    has fewer lobes than components, extra centers fall on the half-maximum
    shoulders of the dominant lobe.  Each width is a third of the sign lobe
    (the interval between zero crossings of y) that holds its center.
    """
    span = t[-1] - t[0]
    mag = np.abs(y)
    interior = np.flatnonzero((mag[1:-1] >= mag[:-2]) & (mag[1:-1] >= mag[2:])) + 1
    interior = [i for i in interior if mag[i] > 0.05 * mag.max()]
    centers = sorted(interior, key=lambda i: -mag[i])[:n]
    if len(centers) < n:
        peak = int(np.argmax(mag))
        half = np.flatnonzero(np.diff(np.sign(mag - 0.5 * mag.max())) != 0)
        shoulders = sorted(half, key=lambda i: -abs(i - peak))
        for i in shoulders:
            if len(centers) >= n:
                break
            if all(abs(t[i] - t[j]) > 0.02 * span for j in centers):
                centers.append(i)
    while len(centers) < n:
        centers.append(int(len(t) * (len(centers) + 1) / (n + 1)))

    tau = t[centers]
    crossings = np.flatnonzero(np.sign(y[:-1]) != np.sign(y[1:]))
    edges = np.concatenate([[t[0]], 0.5 * (t[crossings] + t[crossings + 1]),
                            [t[-1]]])
    lobe = np.clip(np.searchsorted(edges, tau, side="right"), 1, len(edges) - 1)
    chi = (edges[lobe] - edges[lobe - 1]) / 3
    return np.concatenate([tau, chi])


def _projection(t, y, q):
    """The Gaussian basis at q = (tau, chi), an orthonormal basis of its
    column space, and the least-squares amplitudes zeta.

    One SVD serves both the amplitudes (as `lstsq` would solve them,
    rank-deficient bases included) and the projector of the Jacobian.
    """
    n = len(q) // 2
    u = (t[:, None] - q[:n]) / q[n:]
    g = np.exp(-u * u)
    left, s, right = np.linalg.svd(g, full_matrices=False)
    rank = int(np.sum(s > s[0] * max(g.shape) * np.finfo(float).eps))
    left, s, right = left[:, :rank], s[:rank], right[:rank]
    zeta = right.T @ ((left.T @ y) / s)
    return u, g, left, zeta


def fit_gaussian_sum(samples, n_components=2):
    """Least-squares fit of a sampled schedule by n Gaussian components.

    `samples` is the pair of arrays (t, y).  Only the centers and widths
    are optimised; the amplitudes are solved linearly at every point
    (variable projection).  Returns the fitted pulse together with a
    FitReport; on failure to converge the best-so-far pulse is returned
    with the flag down.
    """
    # deferred: scipy.optimize is most of the package's import time
    from scipy.optimize import least_squares

    t, y = (np.asarray(a, dtype=float) for a in samples)
    if n_components < 1:
        raise InvalidParameters("need at least one component")
    if len(t) < 30 * n_components:
        raise InvalidParameters(f"need at least {30 * n_components} samples for "
                         f"{n_components} components, got {len(t)}")
    if np.abs(y).max() == 0:
        raise DegenerateSamples("all sample values are zero")

    x0 = _initial_guess(t, y, n_components)
    n = n_components
    span = t[-1] - t[0]
    lower = np.concatenate([np.full(n, t[0] - span), np.full(n, 1e-4 * span)])
    upper = np.concatenate([np.full(n, t[-1] + span), np.full(n, 2 * span)])
    x0 = np.clip(x0, lower + 1e-12, upper - 1e-12)

    last = {}

    def solve(q):
        key = q.tobytes()
        if key not in last:
            last.clear()
            last[key] = _projection(t, y, q)
        return last[key]

    def residual(q):
        _, g, _, zeta = solve(q)
        return g @ zeta - y

    def jacobian(q):
        # Kaufman's form: (I - QQ^T) dG/dq zeta
        u, g, basis, zeta = solve(q)
        d = g * u * (2 * zeta / q[n:])
        d = np.hstack([d, d * u])
        return d - basis @ (basis.T @ d)

    res = least_squares(residual, x0, jac=jacobian, bounds=(lower, upper),
                        method="trf", ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        max_nfev=1500 * n)

    _, _, _, zeta = solve(res.x)
    pulse = GaussianPulse(tuple(
        GaussianComponent(zeta[i], res.x[i], res.x[n + i]) for i in range(n)))
    return pulse, fit_report(pulse, t, y, int(res.nfev), bool(res.status > 0))


def fit_report(pulse, t, y, iterations, converged):
    """FitReport of `pulse` against the samples (t, y), with the nfev and
    convergence flag of the fit that produced it."""
    fitted = pulse(t)
    resid = fitted - y
    return FitReport(
        rms_residual=float(np.sqrt(np.mean(resid ** 2))),
        max_residual=float(np.abs(resid).max()),
        peak_amplitude=float(np.abs(fitted).max()),
        iterations=iterations,
        converged=converged)


def pulse_amplitude(p1, p2, grid=1001, duration=1.0):
    """Max absolute drive amplitude over a uniform grid on [0, duration]."""
    if grid < 100:
        raise ValueError(f"need at least 100 grid points, got {grid}")
    t = np.linspace(0.0, duration, grid)
    return float(max(np.abs(p1(t)).max(), np.abs(p2(t)).max()))
