"""Fit sampled drive schedules to signed sums of Gaussian components.

The model is f(t) = sum_i zeta_i * exp(-((t - tau_i)/chi_i)^2).  The
amplitudes zeta enter it linearly, so the fit is separable (variable
projection, Golub & Pereyra 1973): a bounded trust-region reflective
iteration (Coleman & Li 1996) moves only the centers and widths (tau,
chi), and at every point zeta is the linear least-squares solution on
the Gaussian basis.  The Jacobian is Kaufman's projected derivative
(I - QQ^T) dG/dq zeta, with Q from the eigen-solve of the basis's n x n
Gram matrix that also gives zeta, and each trust-region step solves a
2n x 2n system, so the fit factorises no tall matrix.  The tall arrays
(the basis, its derivatives, the Jacobian) lie components-by-samples, n
or 2n rows over all samples, so that numpy's elementwise loops and the
matrix products run along the long sample axis, not over n <= 8 entries
at a time; the Jacobian is formed as J^T.  Centers are seeded on the
extrema and half-maximum shoulders of the sampled lobes, and each width
at a third of the sign lobe that holds its center.  The signed schedule
is fitted directly, so components carry the sign of the lobe they cover.

A shortcut protocol's two schedules are mirror images, so only Omega2
is fitted here; `analysis.fit_protocol_pulses` builds Omega1 by
mirroring that fit, and `fit_report` gives the mirrored pulse's
residuals.

The adiabatic (STIRAP) baseline is two Gaussians too, so
`design_stirap` builds it here, as a PulsePair of one-component
GaussianPulses, and this module is the one that evaluates Gaussian
pulses.
"""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .protocol import InvalidParameters
from .dynamics import PulsePair

_EPS = np.finfo(float).eps


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

    def stretched(self, s):
        """The pulse t -> self(t/s)/s: each component (zeta, tau, chi)
        becomes (zeta/s, tau s, chi s)."""
        return GaussianPulse(tuple(
            GaussianComponent(c.amplitude / s, c.center * s, c.width * s)
            for c in self.components))

    def mirrored(self, sign):
        """The pulse t -> sign * self(1 - t): each component (zeta, tau,
        chi) becomes (sign zeta, 1 - tau, chi)."""
        return GaussianPulse(tuple(
            GaussianComponent(sign * c.amplitude, 1 - c.center, c.width)
            for c in self.components))


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


def reference_m1_fit():
    """Published two-component decomposition of the m=1 schedules.

    Returns (pulse1, pulse2) over [0, 1].  Pulse 2 is pulse 1 mirrored,
    Omega2(t) = -Omega1(1 - t), as for every m = 1 fit.  Serves as the
    regression fixture the in-repo fitter is checked against.
    """
    p1 = GaussianPulse((
        GaussianComponent(-3.194, 0.4396, 0.2476),
        GaussianComponent(-1.275, 0.2159, 0.1581),
    ))
    return p1, p1.mirrored(-1)


# The reference STIRAP pair: peak amplitude in 1/T, delay and width in T.
STIRAP_OMEGA0, STIRAP_T0, STIRAP_TC = 45.0, 0.15, 0.2


def design_stirap(omega0, t0=STIRAP_T0, tc=STIRAP_TC):
    """Counter-intuitively ordered Gaussian pair on [0, 1], omega0 in
    1/T, t0 and tc in T.  omega1 (driving 1-2) peaks at 1/2 + t0, after
    omega2 (driving 2-3) at 1/2 - t0, as the 1 -> 3 transfer through the
    dark state requires."""
    if not (0 < omega0 < math.inf and 0 < tc < math.inf and 0 < t0 < 0.5):
        raise InvalidParameters(
            f"bad STIRAP parameters omega0={omega0}, t0={t0}, tc={tc}")
    return PulsePair(*(
        GaussianPulse((GaussianComponent(float(omega0), 0.5 + t, float(tc)),))
        for t in (t0, -t0)))


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
    """The Gaussian basis g at q = (tau, chi), an orthonormal basis of its
    row space, and the least-squares amplitudes zeta.  u, g and the basis
    are (components, samples) arrays, so the model is zeta @ g.

    One eigen-solve of the n x n Gram matrix g g^T = W L W^T serves both:
    the basis is L^(-1/2) W^T g, and zeta = W L^-1 W^T g y is what `lstsq`
    solves, rank-deficient bases included.  The Gram matrix holds its
    eigenvalues only to about eps times the largest, so the rank cut is
    made there, at the relative level max(g.shape) * eps that lstsq
    applies to singular values: coincident components share one basis
    vector, and their amplitudes split evenly.
    """
    n = len(q) // 2
    u = (t - q[:n, None]) / q[n:, None]
    g = np.multiply(u, u)
    np.negative(g, out=g)
    np.exp(g, out=g)
    lam, w = np.linalg.eigh(g @ g.T)
    keep = lam > lam[-1] * max(g.shape) * _EPS
    w = w[:, keep] / np.sqrt(lam[keep])
    basis = w.T @ g
    zeta = w @ (basis @ y)
    return u, g, basis, zeta


def fit_gaussian_sum(samples, n_components=2):
    """Least-squares fit of a sampled schedule by n Gaussian components.

    `samples` is the pair of arrays (t, y).  Only the centers and widths
    are optimised; the amplitudes are solved linearly at every point
    (variable projection).  Returns the fitted pulse together with a
    FitReport; on failure to converge the best-so-far pulse is returned
    with the flag down.
    """
    t, y = (np.asarray(a, dtype=float) for a in samples)
    if n_components < 1:
        raise InvalidParameters("need at least one component")
    if len(t) < 30 * n_components:
        raise InvalidParameters(f"need at least {30 * n_components} samples "
                                f"for {n_components} components, got "
                                f"{len(t)}")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise InvalidParameters("samples must be finite")
    if np.abs(y).max() == 0:
        raise InvalidParameters("all sample values are zero")

    n = n_components
    span = t[-1] - t[0]
    lower = np.concatenate([np.full(n, t[0] - span), np.full(n, 1e-4 * span)])
    upper = np.concatenate([np.full(n, t[-1] + span), np.full(n, 2 * span)])
    # the iteration starts strictly inside the box: seeds at least 1e-10
    # (relative, or absolute below 1) away from each bound
    pad = 1e-10 * np.maximum(1, np.abs([lower, upper]))
    x0 = np.clip(_initial_guess(t, y, n), lower + pad[0], upper - pad[1])
    if not np.all((lower < x0) & (x0 < upper)):
        raise InvalidParameters(f"time span {span:g} is too short to start "
                                f"the fit inside its bounds")

    point = None

    def residual(q):
        nonlocal point
        point = _projection(t, y, q)
        _, g, _, zeta = point
        return zeta @ g - y

    def jacobian(q):
        # Kaufman's form (I - QQ^T) dG/dq zeta, transposed, at the last
        # residual's q: rows d/dtau, then d/dchi = d/dtau * u
        u, g, basis, zeta = point
        jt = np.empty((2 * n, len(t)))
        np.multiply(g, u, out=jt[:n])
        jt[:n] *= (2 * zeta / q[n:])[:, None]
        np.multiply(jt[:n], u, out=jt[n:])
        jt -= (jt @ basis.T) @ basis
        return jt

    q, nfev, converged = _trf(residual, jacobian, x0, lower, upper, 1500 * n)
    zeta = _projection(t, y, q)[3]
    pulse = GaussianPulse(tuple(
        GaussianComponent(zeta[i], q[i], q[n + i]) for i in range(n)))
    return pulse, fit_report(pulse, t, y, nfev, converged)


def _trf(fun, jac, x, lb, ub, max_nfev, tol=1e-12):
    """Trust-region reflective least squares in the box lb < x < ub
    (Coleman & Li 1996; Branch, Coleman & Li 1999) with Coleman-Li
    scaling, unit variable scale, exact trust-region steps (More 1977),
    reflected steps off the bounds, and ftol = xtol = gtol = `tol`.  `x`
    must lie strictly inside the box, and `jac` is only ever called at the
    point `fun` was last called at.  `jac` returns the transposed Jacobian
    J^T, one row per variable, so that J^T J and J^T f are products along
    the long residual axis.  Returns (x, nfev, converged): converged when
    gtol, ftol or xtol was met before the `max_nfev` budget ran out.

    The exact step is usually read off the SVD U S V^T of the tall
    augmented Jacobian [J_h; diag(diag_h)^(1/2)].  V and S^2 are the
    eigenvectors and eigenvalues of the 2n x 2n matrix H = J_h^T J_h +
    diag(diag_h), and U^T [f; 0] = V^T J_h^T f / s, so only H is solved.
    """
    inside = np.nextafter(lb, ub), np.nextafter(ub, lb)
    f = fun(x)
    Jt = jac(x)
    nfev = 1
    cost = 0.5 * f @ f
    g = Jt @ f
    Delta = _norm(x / np.sqrt(_coleman_li(x, g, lb, ub)[0])) or 1.0
    alpha = 0.0  # Levenberg-Marquardt parameter
    converged = False
    while True:
        v, dv = _coleman_li(x, g, lb, ub)
        g_norm = np.abs(g * v).max()
        if g_norm < tol:
            converged = True
        if converged or nfev == max_nfev:
            break
        d = np.sqrt(v)
        g_h = d * g
        H = Jt @ Jt.T
        H *= np.outer(d, d)
        H.flat[::len(H) + 1] += g * dv
        lam, V = np.linalg.eigh(H)
        s = np.sqrt(np.maximum(lam[::-1], 0))
        V = V[:, ::-1]
        uf = np.divide(V.T @ g_h, s, out=np.zeros_like(s), where=s > 0)
        theta = max(0.995, 1 - g_norm)
        x_tol = tol * (tol + _norm(x))

        actual_reduction = -1
        while actual_reduction <= 0 and nfev < max_nfev:
            p_h, alpha = _trust_region_step(len(f), uf, s, V, Delta, alpha)
            step, step_h, predicted_reduction = _select_step(
                x, H, g_h, p_h, d, Delta, lb, ub, theta)
            x_new = np.minimum(np.maximum(x + step, inside[0]), inside[1])
            f_new = fun(x_new)
            nfev += 1
            step_h_norm = _norm(step_h)
            if not np.isfinite(f_new).all():
                Delta = 0.25 * step_h_norm
                continue

            cost_new = 0.5 * f_new @ f_new
            actual_reduction = cost - cost_new
            if predicted_reduction > 0:
                ratio = actual_reduction / predicted_reduction
            else:
                ratio = float(predicted_reduction == actual_reduction == 0)
            Delta_new = Delta
            if ratio < 0.25:
                Delta_new = 0.25 * step_h_norm
            elif ratio > 0.75 and step_h_norm > 0.95 * Delta:
                Delta_new = 2.0 * Delta

            ftol_met = actual_reduction < tol * cost and ratio > 0.25
            xtol_met = _norm(step) < x_tol
            if ftol_met or xtol_met:
                converged = True
                break
            alpha *= Delta / Delta_new
            Delta = Delta_new

        if actual_reduction > 0:
            x, f, cost = x_new, f_new, cost_new
            Jt = jac(x)
            g = Jt @ f
    return x, nfev, converged


def _norm(x):
    """Euclidean norm of a 1-D array, as np.linalg.norm computes it."""
    return math.sqrt(x @ x)


def _coleman_li(x, g, lb, ub):
    """Coleman-Li scaling v (distance to the bound the gradient points
    away from, 1 where g = 0) and its derivative dv/dx."""
    v = np.where(g < 0, ub - x, np.where(g > 0, x - lb, 1.0))
    return v, np.sign(g)


def _trust_region_step(m, uf, s, V, Delta, alpha, rtol=0.01, max_iter=10):
    """The step p minimising the model 0.5 p^T H p + g_h^T p over ||p|| <=
    Delta, from H = V diag(s^2) V^T and uf = V^T g_h / s, by More's (1977)
    iteration on the Levenberg-Marquardt parameter alpha, started from the
    last step's.  Returns (p, alpha).  `m` is the number of residuals.
    phi is evaluated on Python floats: there are at most 2n terms."""
    def phi_and_derivative(alpha):
        p_sq = d_sum = 0.0
        for a, b in zip(s_sq, suf_sq):
            denom = a + alpha
            p_sq += b / (denom * denom)
            d_sum += b / denom ** 3
        p_norm = math.sqrt(p_sq)
        return p_norm - Delta, -d_sum / p_norm

    suf = s * uf
    s_sq, suf_sq = (s * s).tolist(), (suf * suf).tolist()
    full_rank = s[-1] > _EPS * m * s[0]
    if full_rank:
        p = -V @ (uf / s)
        if _norm(p) <= Delta:
            return p, 0.0
    alpha_upper = _norm(suf) / Delta
    alpha_lower = 0.0
    if full_rank:
        phi, phi_prime = phi_and_derivative(0.0)
        alpha_lower = -phi / phi_prime
    if not full_rank and alpha == 0:
        alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)

    for _ in range(max_iter):
        if alpha < alpha_lower or alpha > alpha_upper:
            alpha = max(0.001 * alpha_upper, (alpha_lower * alpha_upper) ** 0.5)
        phi, phi_prime = phi_and_derivative(alpha)
        if phi < 0:
            alpha_upper = alpha
        ratio = phi / phi_prime
        alpha_lower = max(alpha_lower, alpha - ratio)
        alpha -= (phi + Delta) * ratio / Delta
        if abs(phi) < rtol * Delta:
            break
    p = -V @ (suf / (s ** 2 + alpha))
    return p * (Delta / _norm(p)), alpha


def _select_step(x, H, g_h, p_h, d, Delta, lb, ub, theta):
    """The best of three candidate steps, as Coleman & Li choose it: the
    trust-region step d p_h (pulled back inside the box if it leaves it),
    its reflection off the first bound it hits, and the scaled steepest
    descent step.  Returns (step, step_h, predicted cost reduction)."""
    p = d * p_h
    x_p = x + p
    if ((x_p >= lb) & (x_p <= ub)).all():
        return p, p_h, -_model(H, g_h, p_h)

    p_stride, hits = _to_bound(x, p, lb, ub)
    r_h = np.where(hits, -p_h, p_h)
    r = d * r_h
    p, p_h = p * p_stride, p_h * p_stride
    to_tr = _to_sphere(p_h, r_h, Delta)
    to_bound = _to_bound(x + p, r, lb, ub)[0]
    r_stride = min(to_bound, to_tr)
    if r_stride > 0:
        r_lo = (1 - theta) * p_stride / r_stride
        r_hi = theta * to_bound if r_stride == to_bound else to_tr
    else:
        r_lo, r_hi = 0, -1
    r_value = np.inf
    if r_lo <= r_hi:
        r_stride, r_value = _line_min(*_line(H, g_h, r_h, p_h), r_lo, r_hi)
        r_h = r_h * r_stride + p_h
        r = r_h * d

    p, p_h = p * theta, p_h * theta
    p_value = _model(H, g_h, p_h)

    ag_h = -g_h
    ag = d * ag_h
    to_tr = Delta / _norm(ag_h)
    to_bound = _to_bound(x, ag, lb, ub)[0]
    ag_stride = theta * to_bound if to_bound < to_tr else to_tr
    ag_stride, ag_value = _line_min(
        *_line(H, g_h, ag_h, np.zeros_like(ag_h)), 0, ag_stride)

    if p_value < r_value and p_value < ag_value:
        return p, p_h, -p_value
    if r_value < p_value and r_value < ag_value:
        return r, r_h, -r_value
    return ag * ag_stride, ag_h * ag_stride, -ag_value


def _model(H, g, p):
    """The quadratic model's cost change 0.5 p^T H p + g^T p."""
    return 0.5 * p @ (H @ p) + g @ p


def _line(H, g, s, s0):
    """(a, b, c) with the model along p = s0 + t s equal to a t^2 + b t + c."""
    Hs = H @ s
    return 0.5 * s @ Hs, g @ s + s0 @ Hs, _model(H, g, s0)


def _line_min(a, b, c, lo, hi):
    """Minimiser over lo <= t <= hi of a t^2 + b t + c, and the minimum."""
    t = [lo, hi]
    if a != 0 and lo < -0.5 * b / a < hi:
        t.append(-0.5 * b / a)
    t = np.asarray(t)
    y = t * (a * t + b) + c
    i = np.argmin(y)
    return t[i], y[i]


def _to_bound(x, s, lb, ub):
    """Smallest t >= 0 that puts x + t s on a bound of the box, and the
    mask of the coordinates that reach it."""
    nz = s != 0
    steps = np.full_like(x, np.inf)
    with np.errstate(over="ignore"):
        steps[nz] = np.maximum((lb - x)[nz] / s[nz], (ub - x)[nz] / s[nz])
    t = steps.min()
    return t, (steps == t) & nz


def _to_sphere(x, s, Delta):
    """Positive t with ||x + t s|| = Delta, for ||x|| <= Delta."""
    a, b, c = s @ s, x @ s, x @ x - Delta ** 2
    q = -(b + math.copysign(math.sqrt(b * b - a * c), b))
    return max(q / a, c / q)


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


def pulse_amplitude(p1, p2, grid=1001):
    """Max absolute drive amplitude over a uniform grid on [0, 1]."""
    if grid < 100:
        raise InvalidParameters(f"need at least 100 grid points, got {grid}")
    t = np.linspace(0.0, 1.0, grid)
    return float(max(np.abs(p1(t)).max(), np.abs(p2(t)).max()))
