import json
import math

import numpy as np
import pytest

from lambda_sta import analysis
from lambda_sta.analysis import fit_protocol_pulses
from lambda_sta.cli import main
from lambda_sta.dynamics import PulsePair, propagate_schrodinger
from lambda_sta.protocol import InvalidParameters, design_sta
from lambda_sta.pulsefit import (DegenerateSamples, GaussianComponent,
                                 GaussianPulse, fit_gaussian_sum,
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
    with pytest.raises(DegenerateSamples):
        fit_gaussian_sum((t, np.zeros_like(t)), 1)


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
    f1, f2 = reference_m1_fit(duration=2.0)
    comps = sorted_components(f1)
    assert comps[0][0] == pytest.approx(-3.194 / 2)
    assert comps[0][1] == pytest.approx(0.4396 * 2)
    assert pulse_amplitude(f1, f2, duration=2.0) == pytest.approx(3.5 / 2, rel=0.03)
