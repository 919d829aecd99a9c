"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
report.  Every tolerance is pinned here and nowhere else.
"""

import math

import numpy as np
import pytest

from lambda_sta.analysis import (amplitude_error_sweep, decoherence_map,
                                 stirap_dephasing_check,
                                 stirap_infidelity_curve, table_one,
                                 timing_error_sweep)
from lambda_sta.dynamics import (PulsePair, propagate_lindblad,
                                 propagate_schrodinger)
from lambda_sta.protocol import (G1, G2, G3, analytic_state_constant_mu,
                                 design_sta)
from lambda_sta.pulsefit import (fit_gaussian_sum, pulse_amplitude,
                                 reference_m1_fit)

TABLE_P2MAX = [0.75, 0.4375, 0.3056, 0.2344, 0.1900, 0.1597, 0.1378]
TABLE_AMPLITUDE = [3.5, 6.2, 8.0, 9.5, 10.7, 11.8, 12.8]
REFERENCE_COEFFS = {
    1: [(-3.194, 0.4396, 0.2476), (-1.275, 0.2159, 0.1581)],
    2: [(3.194, 0.5604, 0.2476), (1.275, 0.7841, 0.1581)],
}


def report(number, name, ok):
    print(f"\nACCEPTANCE {number} [{name}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_criterion_1_analytic_oracle_equivalence(sta_m1):
    traj = propagate_schrodinger(sta_m1, steps=10_000, stride=100)
    worst = 0.0
    for t, pops in zip(traj.times, traj.populations):
        oracle = np.abs(analytic_state_constant_mu(sta_m1, min(t, 1.0))) ** 2
        worst = max(worst, np.abs(pops - oracle).max())
    final_ok = abs(traj.final_populations[2] - 1.0) <= 1e-8
    report(1, "analytic-oracle equivalence", worst <= 1e-6 and final_ok)


def test_criterion_2_gaussian_fit_fidelity(sta_m1, reference_pulses, time_grid):
    fixture = propagate_schrodinger(reference_pulses, steps=10_000)
    fixture_ok = 1 - fixture.final_populations[2] <= 1e-4

    f1, _ = fit_gaussian_sum((time_grid, sta_m1.omega1(time_grid)), 2)
    f2, _ = fit_gaussian_sum((time_grid, sta_m1.omega2(time_grid)), 2)
    fitted = propagate_schrodinger(PulsePair(f1, f2), steps=10_000)
    fitted_ok = 1 - fitted.final_populations[2] <= 1e-3
    report(2, "gaussian-fit fidelity", fixture_ok and fitted_ok)


def test_criterion_3_fit_regression(sta_m1, time_grid):
    ok = True
    for which, expected in REFERENCE_COEFFS.items():
        schedule = sta_m1.omega1 if which == 1 else sta_m1.omega2
        fitted, rep = fit_gaussian_sum((time_grid, schedule(time_grid)), 2)
        got = sorted(((c.amplitude, c.center, c.width)
                      for c in fitted.components), key=lambda c: -abs(c[0]))
        for (za, ta, ca), (zb, tb, cb) in zip(got, expected):
            ok &= abs(za / zb - 1) <= 0.02
            ok &= abs(ta / tb - 1) <= 0.02
            ok &= abs(ca / cb - 1) <= 0.02
        ok &= rep.converged
    report(3, "fit regression", ok)


def test_criterion_4_table_one():
    rows = table_one(7)
    ok = all(abs(r.p2_max - ref) <= 5e-5
             for r, ref in zip(rows, TABLE_P2MAX))
    ok &= abs(rows[0].pulse_amplitude / TABLE_AMPLITUDE[0] - 1) <= 0.03
    for r, ref in zip(rows[1:], TABLE_AMPLITUDE[1:]):
        ok &= abs(r.pulse_amplitude / ref - 1) <= 0.10
    report(4, "table of amplitudes and P2 ceilings", ok)


def test_criterion_5_stirap_anchors():
    infid = dict(stirap_infidelity_curve(amplitudes=[3.5, 70.0],
                                         steps=10_000))
    ok = abs(infid[70.0] - 0.0002) <= 1e-4
    ok &= abs(infid[3.5] - 0.9906) <= 0.005
    report(5, "adiabatic-baseline anchors", ok)


def test_criterion_6_robustness(reference_pulses):
    timing = timing_error_sweep(reference_pulses, 0.1, 21, steps=4000)
    timing_ok = min(p3 for _, p3 in timing) >= 0.9956 - 0.002
    amp_ok = True
    for which in (1, 2):
        sweep = amplitude_error_sweep(reference_pulses, which, 0.1, 21,
                                      steps=4000)
        amp_ok &= min(p3 for _, p3 in sweep) >= 0.9745 - 0.002
    report(6, "parameter-error robustness", timing_ok and amp_ok)


def test_criterion_7_decoherence(reference_pulses):
    f1, f2 = reference_m1_fit()
    amp = pulse_amplitude(f1, f2)
    _, relax = decoherence_map(reference_pulses, "relaxation", 0.01, 5,
                               amp, steps=2000)
    _, deph = decoherence_map(reference_pulses, "dephasing", 0.01, 5,
                              amp, steps=2000)
    ok = relax.min() >= 0.986 - 0.003
    ok &= deph.min() >= 0.979 - 0.003
    ok &= abs(stirap_dephasing_check(steps=10_000) - 0.9561) <= 0.003
    report(7, "decoherence robustness", ok)


def test_criterion_8_property_suite(reference_pulses):
    ok = np.array_equal(G1 @ G2 - G2 @ G1, 1j * G3)
    ok &= np.array_equal(G2 @ G3 - G3 @ G2, 1j * G1)
    ok &= np.array_equal(G3 @ G1 - G1 @ G3, 1j * G2)

    # norm drift of unitary propagation
    traj = propagate_schrodinger(reference_pulses, steps=4000, stride=10)
    ok &= np.abs(traj.populations.sum(axis=1) - 1).max() <= 1e-9

    # Lindblad trace drift and hermiticity
    from lambda_sta.dynamics import LindbladRates
    lt = propagate_lindblad(reference_pulses,
                            rates=LindbladRates(gamma1=0.03, gamma_phi1=0.02),
                            steps=4000)
    ok &= np.abs(lt.populations.sum(axis=1) - 1).max() <= 1e-8
    ok &= np.abs(lt.final_density - lt.final_density.conj().T).max() <= 1e-9

    # intermediate-population law with analytic pulses
    for m in (1, 2, 3):
        p = design_sta(m)
        tr = propagate_schrodinger(p, steps=10_000, stride=10)
        k = p.kappa
        law = (2 * k - k * k) * np.sin(p.phi(tr.times)) ** 2
        ok &= np.abs(tr.populations[:, 1] - law).max() <= 1e-6

    # final-transfer law for random (kappa, m) pairs
    rng = np.random.default_rng(20240817)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        kappa = float(rng.uniform(0.05, 0.95))
        p = design_sta(m, kappa=kappa)
        tr = propagate_schrodinger(p, steps=4000)
        expected = math.sin(kappa * m * math.pi) ** 2
        ok &= abs(tr.final_populations[2] - expected) <= 1e-6

    report(8, "property suite", bool(ok))
