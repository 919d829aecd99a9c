import json
import math

import numpy as np
import pytest

from lambda_sta import analysis
from lambda_sta.analysis import fit_components, fit_protocol_pulses
from lambda_sta.cli import main
from lambda_sta.dynamics import PulsePair, propagate_schrodinger
from lambda_sta.protocol import InvalidParameters, design_sta
from lambda_sta.pulsefit import (GaussianComponent, GaussianPulse,
                                 _initial_guess, _projection,
                                 fit_gaussian_sum, fit_report,
                                 pulse_amplitude, pulse_to_json,
                                 reference_m1_fit)

# published two-component coefficients for the m=1 schedules,
# ordered (zeta, tau, chi) by descending |zeta|
REF_PULSE1 = [(-3.194, 0.4396, 0.2476), (-1.275, 0.2159, 0.1581)]
REF_PULSE2 = [(3.194, 0.5604, 0.2476), (1.275, 0.7841, 0.1581)]


def sorted_components(pulse):
    return sorted(((c.amplitude, c.center, c.width) for c in pulse.components),
                  key=lambda c: -abs(c[0]))


def assert_components_close(pulse, expected, rel):
    got = sorted_components(pulse)
    assert len(got) == len(expected)
    for (za, ta, ca), (zb, tb, cb) in zip(got, expected):
        assert za == pytest.approx(zb, rel=rel)
        assert ta == pytest.approx(tb, rel=rel)
        assert ca == pytest.approx(cb, rel=rel)


def test_exact_single_gaussian_recovery():
    t = np.linspace(0, 1, 501)
    truth = GaussianPulse((GaussianComponent(1.0, 0.5, 0.2),))
    fitted, report = fit_gaussian_sum((t, truth(t)), 1)
    assert report.converged
    assert_components_close(fitted, [(1.0, 0.5, 0.2)], rel=1e-6)
    assert report.rms_residual < 1e-8


def test_m1_pulse1_recovers_reference(sta_m1, time_grid):
    fitted, report = fit_gaussian_sum((time_grid, sta_m1.omega1(time_grid)), 2)
    assert report.converged
    assert_components_close(fitted, REF_PULSE1, rel=0.02)
    assert report.rms_residual <= 0.02 * np.abs(sta_m1.omega1(time_grid)).max()


def test_m1_pulse2_recovers_reference(sta_m1, time_grid):
    fitted, report = fit_gaussian_sum((time_grid, sta_m1.omega2(time_grid)), 2)
    assert report.converged
    assert_components_close(fitted, REF_PULSE2, rel=0.02)


def test_mirror_symmetry(sta_m1, time_grid):
    # Omega2(t) = -Omega1(T - t) exactly for the m=1 design
    assert np.abs(sta_m1.omega2(time_grid)
                  + sta_m1.omega1(1.0 - time_grid)).max() < 1e-9
    f1, _ = fit_gaussian_sum((time_grid, sta_m1.omega1(time_grid)), 2)
    f2, _ = fit_gaussian_sum((time_grid, sta_m1.omega2(time_grid)), 2)
    for (z1, t1, c1), (z2, t2, c2) in zip(sorted_components(f1),
                                          sorted_components(f2)):
        assert z2 == pytest.approx(-z1, rel=0.02)
        assert t2 == pytest.approx(1.0 - t1, rel=0.02)
        assert c2 == pytest.approx(c1, rel=0.02)


@pytest.mark.parametrize("m", range(1, 8))
def test_table_fits_converge(m, time_grid):
    p = design_sta(m)
    # with kappa = 1/(2m), Omega2(t) = (-1)^m Omega1(T - t): pulse 1 is
    # built as the exact mirror of the one fit, and fits its own schedule
    # as well as pulse 2 fits its
    assert np.abs(p.omega2(time_grid)
                  - (-1) ** m * p.omega1(1.0 - time_grid)).max() < 1e-9
    peak = np.abs(p.omega1(time_grid)).max()
    (f1, r1), (f2, r2) = fit_protocol_pulses(p)
    assert [(c.amplitude, c.center, c.width) for c in f1.components] == \
        [((-1) ** m * c.amplitude, 1.0 - c.center, c.width)
         for c in f2.components]
    assert r1.converged and r2.converged
    assert r1.iterations == r2.iterations
    assert max(r1.rms_residual, r2.rms_residual) <= 0.1 * peak
    assert r1.rms_residual == pytest.approx(r2.rms_residual, rel=1e-12)
    # the fitted pair still transfers the population to |3>
    tr = propagate_schrodinger(PulsePair(f1, f2), steps=4000, stride=4000)
    assert 1 - tr.final_populations[2] <= 1e-3


def oracle_case(case):
    """Samples (t, y) and component count of a scipy oracle case: the
    table fit of Omega2 for m = 1..7 ("m1".."m7"), or criterion 3's direct
    two-component fit of an m = 1 schedule ("pulse1", "pulse2")."""
    t = np.linspace(0.0, 1.0, 1001)
    if case.startswith("m"):
        m = int(case[1:])
        return t, design_sta(m).omega2(t), fit_components(m)
    p = design_sta(1)
    return t, (p.omega1 if case == "pulse1" else p.omega2)(t), 2


def scipy_fit(t, y, n):
    """The variable-projection fit as scipy's least_squares makes it, with
    the amplitudes from an SVD of the Gaussian basis: the oracle that
    fit_gaussian_sum's own trust-region iteration follows.  Returns the
    fitted pulse and scipy's result."""
    from scipy.optimize import least_squares

    def projection(q):
        u = (t[:, None] - q[:n]) / q[n:]
        g = np.exp(-u * u)
        left, s, right = np.linalg.svd(g, full_matrices=False)
        rank = int(np.sum(s > s[0] * max(g.shape) * np.finfo(float).eps))
        left, s, right = left[:, :rank], s[:rank], right[:rank]
        return u, g, left, right.T @ ((left.T @ y) / s)

    def residual(q):
        _, g, _, zeta = projection(q)
        return g @ zeta - y

    def jacobian(q):
        u, g, basis, zeta = projection(q)
        d = g * u * (2 * zeta / q[n:])
        d = np.hstack([d, d * u])
        return d - basis @ (basis.T @ d)

    span = t[-1] - t[0]
    lower = np.concatenate([np.full(n, t[0] - span), np.full(n, 1e-4 * span)])
    upper = np.concatenate([np.full(n, t[-1] + span), np.full(n, 2 * span)])
    x0 = np.clip(_initial_guess(t, y, n), lower + 1e-12, upper - 1e-12)
    res = least_squares(residual, x0, jac=jacobian, bounds=(lower, upper),
                        method="trf", ftol=1e-12, xtol=1e-12, gtol=1e-12,
                        max_nfev=1500 * n)
    zeta = projection(res.x)[3]
    return GaussianPulse(tuple(
        GaussianComponent(zeta[i], res.x[i], res.x[n + i])
        for i in range(n))), res


@pytest.fixture(scope="module")
def scipy_fits():
    return {case: scipy_fit(*oracle_case(case))
            for case in (*(f"m{m}" for m in range(1, 8)), "pulse1", "pulse2")}


@pytest.mark.parametrize("case", ["m1", "m2", "m3", "m4", "m6",
                                  "pulse1", "pulse2"])
def test_fit_follows_scipy_step_for_step(case, scipy_fits):
    t, y, n = oracle_case(case)
    fitted, report = fit_gaussian_sum((t, y), n)
    want, res = scipy_fits[case]
    assert report.iterations == res.nfev
    assert report.converged == (res.status > 0)
    q = [(c.center, c.width) for c in fitted.components]
    q_want = [(c.center, c.width) for c in want.components]
    # 1e-12, not just 1e-10: leaving out the one reflected step m = 3
    # takes moves its centres and widths by 4e-11
    assert np.abs(np.subtract(q, q_want)).max() <= 1e-12


@pytest.mark.parametrize("case", ["m5", "m7"])
def test_dipole_fit_matches_scipy_pulse(case, scipy_fits):
    # scipy's m = 5 and m = 7 minima each hold a near-cancelling pair of
    # coincident components (|zeta| ~ 7e4), so only the sum is pinned down
    t, y, n = oracle_case(case)
    fitted, report = fit_gaussian_sum((t, y), n)
    want, res = scipy_fits[case]
    assert report.converged and res.status > 0
    assert np.abs(fitted(t) - want(t)).max() <= 1e-6
    oracle = fit_report(want, t, y, res.nfev, True)
    assert report.rms_residual == pytest.approx(oracle.rms_residual,
                                                rel=1e-9)
    assert report.peak_amplitude == pytest.approx(oracle.peak_amplitude,
                                                  rel=1e-8)


def test_rank_deficient_fit():
    # three components for one Gaussian: two of them merge, the Gaussian
    # basis loses rank, and the amplitudes must stay finite
    t = np.linspace(0.0, 1.0, 1001)
    y = 2.0 * np.exp(-((t - 0.4) / 0.1) ** 2)
    fitted, report = fit_gaussian_sum((t, y), 3)
    assert report.iterations <= 1500 * 3
    assert np.isfinite([(c.amplitude, c.center, c.width)
                        for c in fitted.components]).all()
    assert report.rms_residual <= 1e-5 * 2.0


@pytest.mark.parametrize("case", ["coincident",
                                  *(f"m{m}" for m in range(1, 8))])
def test_coincident_components_share_one_basis_vector(case):
    # three identical rows: the Gram matrix's two zero eigenvalues come
    # out at rounding level and must be cut, or the basis is not
    # orthonormal and the amplitudes are arbitrary.  The table fits' seeds
    # ("m1".."m7") keep full rank.
    if case == "coincident":
        t = np.linspace(0.0, 1.0, 1001)
        y = 2.0 * np.exp(-((t - 0.4) / 0.1) ** 2)
        q, rank = np.array([0.37] * 3 + [0.09] * 3), 1
    else:
        t, y, n = oracle_case(case)
        q, rank = _initial_guess(t, y, n), n
    _, g, basis, zeta = _projection(t, y, q)
    assert basis.shape == (rank, len(t))
    assert np.abs(basis @ basis.T - np.eye(rank)).max() <= 1e-12
    assert zeta == pytest.approx(np.linalg.lstsq(g.T, y, rcond=None)[0],
                                 rel=1e-12)


def test_fit_rejects_asymmetric_kappa():
    with pytest.raises(InvalidParameters):
        fit_protocol_pulses(design_sta(3, kappa=0.3))


@pytest.fixture
def fit_calls(monkeypatch):
    """Count the Gaussian fits made through `analysis`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fit_gaussian_sum(*args, **kwargs)

    monkeypatch.setattr(analysis, "fit_gaussian_sum", counting)
    return calls


def test_table_fits_once_per_winding(fit_calls):
    rows = analysis.table_one(3)
    assert len(rows) == 3
    assert len(fit_calls) == 3


@pytest.mark.parametrize("argv", [["fit", "--m", "2"],
                                  ["simulate", "--protocol", "sta-fit",
                                   "--steps", "1000"]])
def test_cli_fits_once(fit_calls, tmp_path, argv):
    assert main(["--outdir", str(tmp_path), *argv]) == 0
    assert len(fit_calls) == 1


def test_degenerate_samples_rejected():
    t = np.linspace(0, 1, 200)
    with pytest.raises(InvalidParameters, match="all sample values"):
        fit_gaussian_sum((t, np.zeros_like(t)), 1)


@pytest.mark.parametrize("where", ["t", "y"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_samples_rejected(where, bad):
    # a configuration error, not an unconverged fit of NaNs
    t = np.linspace(0, 1, 200)
    y = np.exp(-((t - 0.5) / 0.2) ** 2)
    (t if where == "t" else y)[100] = bad
    with pytest.raises(InvalidParameters, match="finite"):
        fit_gaussian_sum((t, y), 1)


def test_too_short_span_rejected():
    # the seeds cannot start 1e-10 inside bounds only 1e-300 apart
    t = np.linspace(0, 1e-300, 200)
    with pytest.raises(ValueError, match="too short"):
        fit_gaussian_sum((t, np.exp(-(t / 1e-300 - 0.5) ** 2)), 1)


def test_too_few_samples_rejected():
    t = np.linspace(0, 1, 20)
    with pytest.raises(ValueError):
        fit_gaussian_sum((t, np.exp(-t * t)), 1)


class TestPulseAmplitude:
    def test_reference_pair_value(self):
        f1, f2 = reference_m1_fit()
        assert pulse_amplitude(f1, f2) == pytest.approx(3.5, rel=0.03)

    def test_single_peak(self):
        p = GaussianPulse((GaussianComponent(2.0, 0.4, 0.1),))
        zero = GaussianPulse((GaussianComponent(1e-12, 0.5, 1.0),))
        assert pulse_amplitude(p, zero) == pytest.approx(2.0, rel=1e-6)

    def test_m2_fit_amplitude(self, time_grid):
        p = design_sta(2)
        f1, _ = fit_gaussian_sum((time_grid, p.omega1(time_grid)), 3)
        f2, _ = fit_gaussian_sum((time_grid, p.omega2(time_grid)), 3)
        assert pulse_amplitude(f1, f2) == pytest.approx(6.2, rel=0.10)

    def test_small_grid_rejected(self):
        f1, f2 = reference_m1_fit()
        with pytest.raises(ValueError):
            pulse_amplitude(f1, f2, grid=50)


def test_json_round_trip():
    pulse, report = fit_gaussian_sum(
        (np.linspace(0, 1, 301),
         2.0 * np.exp(-((np.linspace(0, 1, 301) - 0.3) / 0.1) ** 2)), 1)
    text = pulse_to_json(pulse, report)
    doc = json.loads(text)
    assert "fit_report" in doc
    restored = GaussianPulse(tuple(
        GaussianComponent(c["zeta"], c["tau"], c["chi"])
        for c in doc["components"]))
    assert restored == pulse


def test_fitted_pair_evaluates(time_grid):
    f1, f2 = reference_m1_fit()
    pair = PulsePair(f1, f2)
    assert np.all(np.isfinite(pair.omega1(time_grid)))
    assert np.all(np.isfinite(pair.omega2(time_grid)))


def test_duration_scaling():
    f1, f2 = (f.stretched(2.0) for f in reference_m1_fit())
    comps = sorted_components(f1)
    assert comps[0][0] == pytest.approx(-3.194 / 2)
    assert comps[0][1] == pytest.approx(0.4396 * 2)
    t = np.linspace(0.0, 2.0, 1001)
    peak = max(np.abs(f1(t)).max(), np.abs(f2(t)).max())
    assert peak == pytest.approx(3.5 / 2, rel=0.03)


def test_reference_fit_is_the_published_literals():
    # pulse 2 is built as pulse 1 mirrored, and equals the published
    # coefficients exactly
    f1, f2 = reference_m1_fit()
    assert f1.components == (GaussianComponent(-3.194, 0.4396, 0.2476),
                             GaussianComponent(-1.275, 0.2159, 0.1581))
    assert f2.components == (GaussianComponent(3.194, 0.5604, 0.2476),
                             GaussianComponent(1.275, 0.7841, 0.1581))
