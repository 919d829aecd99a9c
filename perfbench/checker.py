"""Checks on the program's outputs, independent of the library.

Two kinds of check decide whether a job failed:

* every output: values finite; populations in [0, 1] and, for trajectories,
  summing to 1; table P2max within 5e-5 of the published values and
  amplitudes within the acceptance bands (3% for m=1, 10% otherwise);
* spot checks: final populations at points the seed draws, against this
  module's own ``scipy.integrate.solve_ivp`` integration of the Schrodinger
  or Lindblad equation with pulses written out here from their formulas.
  The library is never used as its own reference.

``max_abs_dev`` compares outputs with the stored reference outputs; it is a
diagnostic, not a check.
"""

import json
import math
import random

import numpy as np
from scipy.integrate import solve_ivp

# Tolerances.  The library integrates with 10k midpoint-exponential steps
# (Schrodinger) or 2k-10k RK4 steps (Lindblad); solve_ivp runs DOP853 at
# rtol 1e-10.  The largest differences measured over T in {0.5, 1, 2},
# STIRAP amplitudes 1..90/T, 15% sweep errors and the map rates are 1.1e-8
# (Schrodinger) and 3.6e-12 (Lindblad); each tolerance is 100x or more above.
POP_SLACK = 1e-9          # populations may leave [0, 1] by rounding only
SUM_TOL = 1e-8            # trajectory rows sum to 1
SCHRODINGER_TOL = 1e-6    # |P_lib - P_ref| for 10k-step closed runs
LINDBLAD_TOL = 1e-7       # |P_lib - P_ref| for open-system runs

TABLE_P2MAX = [0.75, 0.4375, 0.3056, 0.2344, 0.1900, 0.1597, 0.1378]
TABLE_AMPLITUDE = [3.5, 6.2, 8.0, 9.5, 10.7, 11.8, 12.8]
P2MAX_TOL = 5e-5

# Published two-component Gaussian decomposition of the m=1 schedules,
# (zeta*T, tau/T, chi/T) per component.
M1_PULSE1 = [(-3.194, 0.4396, 0.2476), (-1.275, 0.2159, 0.1581)]
M1_PULSE2 = [(3.194, 0.5604, 0.2476), (1.275, 0.7841, 0.1581)]


class CheckFailed(Exception):
    pass


# --- pulses, from their formulas -------------------------------------------

def gaussian_sum(components):
    """components: [(zeta, tau, chi)] in absolute units."""
    z = np.array([c[0] for c in components])
    tau = np.array([c[1] for c in components])
    chi = np.array([c[2] for c in components])
    return lambda t: float(np.sum(z * np.exp(-((t - tau) / chi) ** 2)))


def m1_reference(T, f1=1.0, f2=1.0):
    p1 = gaussian_sum([(f1 * z / T, tau * T, chi * T) for z, tau, chi in M1_PULSE1])
    p2 = gaussian_sum([(f2 * z / T, tau * T, chi * T) for z, tau, chi in M1_PULSE2])
    return p1, p2


def stirap(omega0, T):
    t0, tc = 0.15 * T, 0.20 * T
    return (lambda t: omega0 * math.exp(-((t - t0 - T / 2) / tc) ** 2),
            lambda t: omega0 * math.exp(-((t + t0 - T / 2) / tc) ** 2))


def sta_analytic(m, T):
    """Constant-mu shortcut schedules: phi = (m pi/2)(1 - cos(pi t/T)),
    kappa = 1/(2m), Omega = |phi'| sin mu, theta = (1-kappa) phi - pi/2."""
    kappa = 1 / (2 * m)
    sin_mu = math.sin(math.acos(1 - kappa))

    def parts(t):
        phi = (m * math.pi / 2) * (1 - math.cos(math.pi * t / T))
        phi_dot = (m * math.pi ** 2 / (2 * T)) * math.sin(math.pi * t / T)
        return abs(phi_dot) * sin_mu, (1 - kappa) * phi - math.pi / 2

    return (lambda t: parts(t)[0] * math.sin(parts(t)[1]),
            lambda t: parts(t)[0] * math.cos(parts(t)[1]))


# --- reference integrations ---------------------------------------------------

def schrodinger_final(o1, o2, horizon):
    """|psi(horizon)|^2 from |1>, H = o1 (|1><2| + h.c.) + o2 (|2><3| + h.c.)."""
    def rhs(t, y):
        a, b, c = complex(y[0], y[3]), complex(y[1], y[4]), complex(y[2], y[5])
        w1, w2 = o1(t), o2(t)
        d = (-1j * w1 * b, -1j * (w1 * a + w2 * c), -1j * w2 * b)
        return [d[0].real, d[1].real, d[2].real, d[0].imag, d[1].imag, d[2].imag]

    sol = solve_ivp(rhs, (0.0, horizon), [1, 0, 0, 0, 0, 0], method="DOP853",
                    rtol=1e-10, atol=1e-12)
    y = sol.y[:, -1]
    return np.abs(y[:3] + 1j * y[3:]) ** 2


def lindblad_final(o1, o2, horizon, gamma1=0.0, gamma2=0.0, gamma_phi1=0.0,
                   gamma_phi2=0.0):
    """Diagonal of rho(horizon) from |1><1| under
    rho' = -i[H, rho] + sum_k L rho L^+ - {L^+ L, rho}/2 with jumps
    sqrt(g1)|1><2|, sqrt(g2)|3><2|, sqrt(gphi1) diag(-1,1,0),
    sqrt(gphi2) diag(0,1,-1)."""
    jumps = []
    if gamma1:
        L = np.zeros((3, 3)); L[0, 1] = math.sqrt(gamma1); jumps.append(L)
    if gamma2:
        L = np.zeros((3, 3)); L[2, 1] = math.sqrt(gamma2); jumps.append(L)
    if gamma_phi1:
        jumps.append(math.sqrt(gamma_phi1) * np.diag([-1.0, 1.0, 0.0]))
    if gamma_phi2:
        jumps.append(math.sqrt(gamma_phi2) * np.diag([0.0, 1.0, -1.0]))
    anti = sum((L.T @ L for L in jumps), np.zeros((3, 3)))

    def rhs(t, y):
        rho = (y[:9] + 1j * y[9:]).reshape(3, 3)
        H = np.array([[0, o1(t), 0], [o1(t), 0, o2(t)], [0, o2(t), 0]])
        d = -1j * (H @ rho - rho @ H) - 0.5 * (anti @ rho + rho @ anti)
        for L in jumps:
            d += L @ rho @ L.T
        d = d.reshape(9)
        return np.concatenate([d.real, d.imag])

    y0 = np.zeros(18)
    y0[0] = 1.0
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853",
                    rtol=1e-10, atol=1e-12)
    rho = (sol.y[:9, -1] + 1j * sol.y[9:, -1]).reshape(3, 3)
    return np.real(np.diag(rho))


# --- reading outputs ----------------------------------------------------------

def read_csv(path):
    """(header, rows as a float array of shape (n, columns))."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise CheckFailed(f"{path.name}: {data.shape[1]} columns, "
                          f"header has {len(header)}")
    return header, data


def _json_numbers(doc):
    if isinstance(doc, bool):
        return []
    if isinstance(doc, (int, float)):
        return [float(doc)]
    if isinstance(doc, dict):
        return [x for k in sorted(doc) for x in _json_numbers(doc[k])]
    if isinstance(doc, list):
        return [x for v in doc for x in _json_numbers(v)]
    return []


def numbers(path):
    """Every number in a CSV or JSON output, in file order."""
    if path.suffix == ".csv":
        return read_csv(path)[1].ravel()
    return np.array(_json_numbers(json.loads(path.read_text())))


def output_files(jobdir):
    """Outputs a job wrote, as listed in its manifest."""
    manifest = json.loads((jobdir / "manifest.json").read_text())
    return [jobdir / name for name in manifest["outputs"]]


# --- per-output checks --------------------------------------------------------

def _in_unit_interval(name, values):
    if values.min() < -POP_SLACK or values.max() > 1 + POP_SLACK:
        raise CheckFailed(f"{name}: population outside [0, 1] "
                          f"({values.min():.3g}..{values.max():.3g})")


def check_table(path, data):
    if data.shape[0] != len(TABLE_P2MAX):
        raise CheckFailed(f"{path.name}: {data.shape[0]} rows, expected "
                          f"{len(TABLE_P2MAX)}")
    for m, (phi, amp, p2max) in enumerate(data, start=1):
        if phi != m:
            raise CheckFailed(f"{path.name}: row {m} has |phi(T)|/pi = {phi}")
        if abs(p2max - TABLE_P2MAX[m - 1]) > P2MAX_TOL:
            raise CheckFailed(f"{path.name}: m={m} P2max {p2max} vs "
                              f"{TABLE_P2MAX[m - 1]}")
        band = 0.03 if m == 1 else 0.10
        if abs(amp / TABLE_AMPLITUDE[m - 1] - 1) > band:
            raise CheckFailed(f"{path.name}: m={m} amplitude {amp} outside "
                              f"{band:.0%} of {TABLE_AMPLITUDE[m - 1]}")


def check_file(path):
    if path.suffix == ".json":
        values = numbers(path)
        if not np.all(np.isfinite(values)):
            raise CheckFailed(f"{path.name}: non-finite value")
        return
    if path.suffix != ".csv":
        return
    header, data = read_csv(path)
    if data.shape[0] == 0:
        raise CheckFailed(f"{path.name}: no rows")
    if not np.all(np.isfinite(data)):
        raise CheckFailed(f"{path.name}: non-finite value")
    if header == ["t_over_T", "P1", "P2", "P3"]:
        _in_unit_interval(path.name, data[:, 1:])
        drift = np.abs(data[:, 1:].sum(axis=1) - 1).max()
        if drift > SUM_TOL:
            raise CheckFailed(f"{path.name}: populations sum off 1 by {drift:.3g}")
    elif header[-1] in ("P3", "infidelity"):
        _in_unit_interval(path.name, data[:, -1])
    elif header == ["phiT_over_pi", "omega_tilde_0_T", "P2max"]:
        check_table(path, data)


def check_job(jobdir):
    """Raise CheckFailed unless every output of the job passes."""
    try:
        files = output_files(jobdir)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise CheckFailed(f"{jobdir.name}: unreadable manifest ({exc})")
    for path in files:
        try:
            check_file(path)
        except (OSError, ValueError) as exc:
            raise CheckFailed(f"{path.name}: unreadable ({exc})")


# --- spot checks against solve_ivp ---------------------------------------------

def _close(what, got, want, tol):
    dev = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    if dev > tol:
        raise CheckFailed(f"{what}: library {np.round(got, 9)} vs "
                          f"solve_ivp {np.round(want, 9)} (|dev| {dev:.3g} > {tol})")
    return dev


def _fitted(jobdir):
    """Reference pulses rebuilt from a fit job's pulse JSONs."""
    pulses = []
    for name in ("pulse1.json", "pulse2.json"):
        doc = json.loads((jobdir / name).read_text())
        pulses.append(gaussian_sum([(c["zeta"], c["tau"], c["chi"])
                                    for c in doc["components"]]))
    return pulses


def spot_checks(workload, jobs, inputs, passdir, seed):
    """Compare final populations with solve_ivp: every trajectory, and
    sweep points and map cells that the seed draws.  Returns
    [(job index, description, deviation or CheckFailed)]."""
    rng = random.Random(f"spot-{seed}")
    T = inputs["T"]
    dirs = {name: passdir / f"{j}-{name}" for j, (name, _) in enumerate(jobs)}
    index = {name: j for j, (name, _) in enumerate(jobs)}
    checks = []  # (job name, description, thunk returning deviation)

    if workload == "sweeps":
        _, data = read_csv(dirs["stirap-curve"] / "stirap_curve.csv")
        for om0, infid in rng.sample(list(data), 2):
            checks.append(("stirap-curve", f"STIRAP Omega0={om0:.6g}",
                           lambda om0=om0, infid=infid: _close(
                               "stirap infidelity", 1 - infid,
                               schrodinger_final(*stirap(om0, T), T)[2],
                               SCHRODINGER_TOL)))
        for kind in ("timing-error", "amp1-error", "amp2-error"):
            _, data = read_csv(dirs[kind] / "sweep.csv")
            delta, p3 = data[rng.randrange(len(data))]
            if kind == "timing-error":
                pulses, horizon = m1_reference(T), T * (1 + delta)
            else:
                f = (1 + delta, 1.0) if kind == "amp1-error" else (1.0, 1 + delta)
                pulses, horizon = m1_reference(T, *f), T
            checks.append((kind, f"{kind} delta={delta:.6g}",
                           lambda p3=p3, pulses=pulses, horizon=horizon: _close(
                               "sweep point", p3,
                               schrodinger_final(*pulses, horizon)[2],
                               SCHRODINGER_TOL)))
    elif workload == "maps":
        t = np.linspace(0.0, T, 1001)
        p1, p2 = m1_reference(T)
        amp = max(max(abs(p1(x)) for x in t), max(abs(p2(x)) for x in t))
        for name, mode in (("fig5a.csv", "relaxation"), ("fig5b.csv", "dephasing")):
            _, data = read_csv(dirs["fig5"] / name)
            for r1, r2, p3 in rng.sample(list(data), 2):
                rates = ({"gamma1": r1 * amp, "gamma2": r2 * amp}
                         if mode == "relaxation" else
                         {"gamma_phi1": r1 * amp, "gamma_phi2": r2 * amp})
                checks.append(("fig5", f"{mode} ratios ({r1:.4g}, {r2:.4g})",
                               lambda p3=p3, rates=rates: _close(
                                   "map cell", p3,
                                   lindblad_final(p1, p2, T, **rates)[2],
                                   LINDBLAD_TOL)))
    elif workload == "trajectories":
        def final(name, fname="trajectory.csv"):
            return read_csv(dirs[name] / fname)[1][-1, 1:]

        omega0 = inputs["omega0"] / T
        checks.append(("simulate-stirap", f"STIRAP omega0={inputs['omega0']}/T",
                       lambda: _close("stirap trajectory", final("simulate-stirap"),
                                      schrodinger_final(*stirap(omega0, T), T),
                                      SCHRODINGER_TOL)))
        checks.append(("lindblad-sta-ref", "m=1 reference fit, open system",
                       lambda: _close("lindblad trajectory", final("lindblad-sta-ref"),
                                      lindblad_final(*m1_reference(T), T,
                                                     gamma1=inputs["gamma1"],
                                                     gamma_phi1=inputs["gamma_phi1"]),
                                      LINDBLAD_TOL)))
        checks.append(("simulate-sta-fit", "m=1 in-repo fit",
                       lambda: _close("sta-fit trajectory", final("simulate-sta-fit"),
                                      schrodinger_final(*_fitted(dirs["fit"]), T),
                                      SCHRODINGER_TOL)))
        for m, label in ((1, "a"), (2, "b"), (3, "c")):
            checks.append(("fig2", f"analytic shortcut m={m}",
                           lambda m=m, label=label: _close(
                               "fig2 trajectory", final("fig2", f"fig2{label}.csv"),
                               schrodinger_final(*sta_analytic(m, T), T),
                               SCHRODINGER_TOL)))

    results = []
    for name, what, thunk in checks:
        try:
            outcome = thunk()
        except CheckFailed as exc:
            outcome = exc
        except (OSError, ValueError, KeyError, IndexError) as exc:
            outcome = CheckFailed(f"{what}: unreadable output ({exc})")
        results.append((index[name], what, outcome))
    return results


# --- comparison with the stored reference -----------------------------------------

def compare_with_reference(outdir, refdir):
    """(max |output - reference| over all numbers, files whose shape differs
    or that are missing on either side)."""
    worst, mismatched = 0.0, 0
    ref_files = {p.relative_to(refdir) for p in refdir.rglob("*") if p.is_file()}
    out_files = {p.relative_to(outdir) for p in outdir.rglob("*")
                 if p.is_file() and p.suffix in (".csv", ".json")
                 and p.name != "manifest.json"}
    for rel in sorted(ref_files | out_files):
        if rel not in ref_files or rel not in out_files:
            mismatched += 1
            continue
        a, b = numbers(outdir / rel), numbers(refdir / rel)
        if a.shape != b.shape:
            mismatched += 1
            continue
        if a.size:
            worst = max(worst, float(np.max(np.abs(a - b))))
    return worst, mismatched
