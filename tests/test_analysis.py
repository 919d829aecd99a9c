import math
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_sta import analysis
from lambda_sta.analysis import (TableRow, amplitude_error_sweep,
                                 decoherence_maps, format_table,
                                 stirap_infidelity_curve, table_one,
                                 timing_error_sweep)
from lambda_sta.cli import csv_text, main
from lambda_sta.dynamics import (SCHRODINGER_END_STEPS, LindbladRates,
                                 PulsePair, StepTooCoarse, evolve_lindblad,
                                 evolve_schrodinger, lindblad_operators,
                                 propagate_schrodinger)
from lambda_sta.protocol import G1, G2, InvalidParameters, design_sta
from lambda_sta.pulsefit import (design_stirap, fit_gaussian_sum,
                                 pulse_amplitude, reference_m1_fit)

STEPS = 2000  # integration error far below every tolerance used here


def per_point_p3(pulses, horizon=1.0, steps=STEPS):
    """Final target population of one unbatched run over [0, horizon]."""
    return np.abs(evolve_schrodinger(pulses, horizon, steps)[0, -1, 2]) ** 2


def stage_by_stage_p3(pulses, rates, steps=STEPS):
    """Final target population of a plain RK4 loop on the 3x3 density
    matrix, one stage at a time (the reference for the batched map)."""
    dt = 1.0 / steps
    jumps = lindblad_operators(rates)
    t = np.arange(2 * steps + 1) * (dt / 2)
    hs = [a * G1 + b * G2 for a, b in zip(pulses.omega1(t), pulses.omega2(t))]

    def f(h, rho):
        out = 1j * (rho @ h - h @ rho)
        for l in jumps:
            ldl = l.conj().T @ l
            out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out

    rho = np.diag([1.0, 0, 0]).astype(complex)
    for k in range(steps):
        h0, h1, h2 = hs[2 * k], hs[2 * k + 1], hs[2 * k + 2]
        k1 = f(h0, rho)
        k2 = f(h1, rho + 0.5 * dt * k1)
        k3 = f(h1, rho + 0.5 * dt * k2)
        k4 = f(h2, rho + dt * k3)
        rho = rho + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho[2, 2].real


def direct_maps(pulses, modes, max_ratio, grid, amplitude, steps=STEPS):
    """decoherence_maps' grid run directly: one evolve_lindblad call on the
    rates of every mode and cell, in the maps' order."""
    ratios = np.linspace(0.0, max_ratio, grid)
    rates = [LindbladRates(**{c1: r1 * amplitude, c2: r2 * amplitude})
             for c1, c2 in map(analysis._MAP_CHANNELS.get, modes)
             for r1 in ratios for r2 in ratios]
    rhos = evolve_lindblad(pulses, rates, steps)
    return rhos[:, -1, 2, 2].real.reshape(len(modes), grid, grid)


class TestTimingErrorSweep:
    def test_nominal_point_is_nominal(self, reference_pulses):
        data = timing_error_sweep(reference_pulses, 0.1, 3, steps=STEPS)
        deltas = [d for d, _ in data]
        assert deltas == [-0.1, 0.0, 0.1]
        nominal = dict(data)[0.0]
        assert nominal >= 0.9999

    def test_ten_percent_window(self, reference_pulses):
        data = timing_error_sweep(reference_pulses, 0.1, 11, steps=STEPS)
        assert min(p3 for _, p3 in data) >= 0.9956 - 0.002

    def test_range_cap(self, reference_pulses):
        # a negative range would integrate to a horizon below 0
        for bad in (0.5, -0.5, math.nan):
            with pytest.raises(ValueError, match="must lie in"):
                timing_error_sweep(reference_pulses, bad, 3)

    def test_batched_matches_per_point(self, reference_pulses):
        data = timing_error_sweep(reference_pulses, 0.1, 5, steps=STEPS)
        deltas = np.linspace(-0.1, 0.1, 5)
        assert [d for d, _ in data] == list(deltas)
        for (_, p3), d in zip(data, deltas):
            assert abs(p3 - per_point_p3(reference_pulses, 1 + d)) <= 1e-12


class TestAmplitudeErrorSweep:
    def test_ten_percent_window(self, reference_pulses):
        for which in (1, 2):
            data = amplitude_error_sweep(reference_pulses, which, 0.1, 5,
                                         steps=STEPS)
            assert min(p3 for _, p3 in data) >= 0.9745 - 0.002

    def test_pulse_sweeps_coincide(self, reference_pulses):
        a = amplitude_error_sweep(reference_pulses, 1, 0.1, 7, steps=STEPS)
        b = amplitude_error_sweep(reference_pulses, 2, 0.1, 7, steps=STEPS)
        for (_, pa), (_, pb) in zip(a, b):
            assert abs(pa - pb) < 1e-3

    def test_killed_pulse_breaks_transfer(self, reference_pulses):
        data = amplitude_error_sweep(reference_pulses, 1, 1.0, 3, steps=STEPS)
        assert dict(data)[-1.0] < 0.5

    def test_batched_matches_per_point(self, reference_pulses):
        data = amplitude_error_sweep(reference_pulses, 1, 0.3, 5, steps=STEPS)
        deltas = np.linspace(-0.3, 0.3, 5)
        assert [d for d, _ in data] == list(deltas)
        for (_, p3), d in zip(data, deltas):
            scaled = PulsePair(lambda t: (1 + d) * reference_pulses.omega1(t),
                               reference_pulses.omega2)
            assert abs(p3 - per_point_p3(scaled)) <= 1e-12

    def test_bad_index(self, reference_pulses):
        with pytest.raises(ValueError):
            amplitude_error_sweep(reference_pulses, 3)

    def test_range_cap(self, reference_pulses):
        # beyond 1 the low end scales the pulse by a negative factor; at 1
        # it switches the pulse off
        for bad in (3.0, -0.5, math.nan):
            with pytest.raises(InvalidParameters, match="must lie in"):
                amplitude_error_sweep(reference_pulses, 1, bad, 3)
        assert len(amplitude_error_sweep(reference_pulses, 1, 1.0, 3)) == 3


class TestStirapCurve:
    def test_anchor_values(self):
        data = stirap_infidelity_curve(amplitudes=[3.5, 70.0], steps=10_000)
        infid = dict(data)
        assert infid[70.0] == pytest.approx(0.0002, abs=1e-4)
        assert infid[3.5] == pytest.approx(0.9906, abs=0.005)

    def test_batched_matches_per_point(self):
        amplitudes = [60.0, 3.5, 20.0]
        data = stirap_infidelity_curve(amplitudes=amplitudes, steps=STEPS)
        assert [a for a, _ in data] == amplitudes
        for (_, infid), a in zip(data, amplitudes):
            pulses = design_stirap(a)
            assert abs(infid - (1 - per_point_p3(pulses))) <= 1e-12

    def test_step_check_reads_the_scaled_drive(self):
        # the unit pulses scaled by 600 are design_stirap(600): the check
        # refuses them as it refuses the unscaled pulses, by the same angle
        with pytest.raises(StepTooCoarse) as single:
            evolve_schrodinger(design_stirap(600), steps=500)
        assert "rotates the state by 1.21 rad" in str(single.value)
        with pytest.raises(StepTooCoarse) as curve:
            stirap_infidelity_curve([1, 600])
        assert str(curve.value) == str(single.value)
        assert len(stirap_infidelity_curve([1, 400])) == 2

    def test_vanishing_drive(self):
        data = stirap_infidelity_curve(amplitudes=[0.05], steps=STEPS)
        assert data[0][1] > 0.999


class TestDecoherenceMap:
    def test_zero_corner_is_closed_system(self, reference_pulses):
        ratios, (grid,) = decoherence_maps(reference_pulses, ("relaxation",),
                                           0.01, 2, steps=STEPS)
        assert ratios[0] == 0.0
        assert grid[0, 0] >= 0.9999

    def test_monotone_in_rates(self, reference_pulses):
        _, (grid,) = decoherence_maps(reference_pulses, ("dephasing",), 0.01,
                                      3, steps=STEPS)
        assert grid[0, 0] >= grid[1, 1] >= grid[2, 2]

    def test_cells_match_stage_by_stage_rk4(self, reference_pulses):
        f1, f2 = reference_m1_fit()
        amp = pulse_amplitude(f1, f2)
        for mode, (i, j), names in [
                ("relaxation", (2, 1), ("gamma1", "gamma2")),
                ("dephasing", (1, 2), ("gamma_phi1", "gamma_phi2"))]:
            ratios, (grid,) = decoherence_maps(reference_pulses, (mode,),
                                               0.05, 3, amp, steps=STEPS)
            rates = LindbladRates(**{names[0]: ratios[i] * amp,
                                     names[1]: ratios[j] * amp})
            ref = stage_by_stage_p3(reference_pulses, rates)
            assert abs(grid[i, j] - ref) <= 1e-12

    def test_all_four_channels_match_stage_by_stage_rk4(self,
                                                         reference_pulses):
        # relaxation and dephasing in one run, each rate its own value
        rates = LindbladRates(gamma1=0.05, gamma2=0.11, gamma_phi1=0.07,
                              gamma_phi2=0.13)
        rho = evolve_lindblad(reference_pulses, [rates], steps=STEPS)[0, -1]
        ref = stage_by_stage_p3(reference_pulses, rates)
        assert abs(rho[2, 2].real - ref) <= 1e-12

    def test_fig5_maps_interpolate_72_node_runs(self, reference_pulses,
                                                monkeypatch):
        # fig5's maps: one call of 6 x 6 Chebyshev nodes a mode, within
        # 1e-13 of the 882 direct runs
        batches = []

        def record(pulses, rates, steps):
            batches.append(len(rates))
            return evolve_lindblad(pulses, rates, steps)

        monkeypatch.setattr(analysis, "evolve_lindblad", record)
        modes = ("relaxation", "dephasing")
        ratios, maps = decoherence_maps(reference_pulses, modes, 0.01, 21,
                                        steps=STEPS)
        assert batches == [72]
        assert np.array_equal(ratios, np.linspace(0, 0.01, 21))
        amp = pulse_amplitude(reference_pulses.omega1,
                              reference_pulses.omega2, 1001)
        direct = direct_maps(reference_pulses, modes, 0.01, 21, amp)
        assert np.abs(maps - direct).max() <= 1e-13

    def test_rejected_tail_runs_the_grid(self):
        # six nodes miss P3 by about 1e-9 here, and the tail shows it
        pulses = design_stirap(45)
        amp = pulse_amplitude(pulses.omega1, pulses.omega2, 1001)
        _, maps = decoherence_maps(pulses, ("dephasing",), 0.05, 7, amp,
                                   steps=STEPS)
        assert np.array_equal(
            maps, direct_maps(pulses, ("dephasing",), 0.05, 7, amp))

    def test_small_grid_runs_the_grid(self, reference_pulses):
        _, maps = decoherence_maps(reference_pulses, ("dephasing",), 0.01, 6,
                                   1.0, steps=STEPS)
        assert np.array_equal(
            maps, direct_maps(reference_pulses, ("dephasing",), 0.01, 6, 1.0))

    def test_zero_ratio_runs_the_grid(self, reference_pulses):
        _, maps = decoherence_maps(reference_pulses, ("relaxation",), 0.0, 7,
                                   1.0, steps=STEPS)
        assert not np.isnan(maps).any()
        assert np.array_equal(
            maps, direct_maps(reference_pulses, ("relaxation",), 0.0, 7, 1.0))

    def test_both_maps_in_one_call(self, reference_pulses):
        modes = ("relaxation", "dephasing")
        ratios, maps = decoherence_maps(reference_pulses, modes, 0.01, 4,
                                        steps=STEPS)
        for mode, grid in zip(modes, maps):
            r, (single,) = decoherence_maps(reference_pulses, (mode,), 0.01,
                                            4, steps=STEPS)
            assert np.array_equal(r, ratios)
            assert np.abs(grid - single).max() <= 1e-13

    def test_mode_and_bounds_validation(self, reference_pulses):
        with pytest.raises(ValueError):
            decoherence_maps(reference_pulses, ("thermal",))
        with pytest.raises(ValueError):
            decoherence_maps(reference_pulses, ("relaxation", "thermal"))
        with pytest.raises(ValueError):
            decoherence_maps(reference_pulses, ("relaxation",), max_ratio=0.2)
        with pytest.raises(ValueError):
            decoherence_maps(reference_pulses, ("relaxation",), grid=1)
        # below 0 or nan, the ratio is named, not the rate it would make
        for bad in (-0.01, math.nan):
            with pytest.raises(InvalidParameters, match="ratio"):
                decoherence_maps(reference_pulses, ("relaxation",), bad, 3)


class TestTableOne:
    @pytest.fixture(scope="class")
    def rows(self):
        return table_one(4)

    def test_first_three_rows(self, rows):
        rows = rows[:3]
        assert [r.p2_max for r in rows] == pytest.approx(
            [0.75, 0.4375, 0.3056], abs=5e-5)
        assert rows[0].pulse_amplitude == pytest.approx(3.5, rel=0.03)
        assert rows[1].pulse_amplitude == pytest.approx(6.2, rel=0.10)
        assert rows[2].pulse_amplitude == pytest.approx(8.0, rel=0.10)

    def test_tradeoff_monotonicity(self, rows):
        amps = [r.pulse_amplitude for r in rows]
        p2 = [r.p2_max for r in rows]
        assert all(a < b for a, b in zip(amps, amps[1:]))
        assert all(a > b for a, b in zip(p2, p2[1:]))

    def test_max_m_cap(self):
        for bad in (11, 0, -1):
            with pytest.raises(InvalidParameters, match="max_m"):
                table_one(bad)


def test_simulated_p2_max_matches_ceiling(sta_m1):
    traj = propagate_schrodinger(sta_m1, steps=4000, stride=4)
    ceiling = 2 * sta_m1.kappa - sta_m1.kappa ** 2
    assert traj.populations[:, 1].max() == pytest.approx(ceiling, abs=1e-6)


def test_default_steps_converged(reference_pulses):
    # fig3's curve and fig4's sweeps at the default step count agree with
    # 8x finer runs to 2e-13
    runs = [partial(stirap_infidelity_curve, amplitudes=[1.0, 45.0, 80.0]),
            partial(timing_error_sweep, reference_pulses, 0.1, 41),
            partial(amplitude_error_sweep, reference_pulses, 1, 0.1, 41),
            partial(amplitude_error_sweep, reference_pulses, 2, 0.1, 41)]
    for run in runs:
        default = np.array(run())
        fine = np.array(run(steps=8 * SCHRODINGER_END_STEPS))
        assert np.abs(default - fine).max() <= 2e-13


def test_stirap_curve_default_steps_within_2e_13():
    # fig3's 50-point curve at the default steps against an 8x finer run
    amplitudes = np.linspace(1.0, 80.0, 50)
    default = np.array(stirap_infidelity_curve(amplitudes))
    fine = np.array(stirap_infidelity_curve(
        amplitudes, steps=8 * SCHRODINGER_END_STEPS))
    assert np.abs(default - fine).max() <= 2e-13


class TestCsvWriters:
    def test_sweep_csv(self):
        text = csv_text(["dT_over_T", "P3"], zip((0.0, 1.0), (0.1, 0.5)))
        assert text == "dT_over_T,P3\n0,1\n0.1,0.5\n"

    def test_map_csv(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "fig5", "--grid", "2"]) == 0
        lines = (tmp_path / "fig5a.csv").read_text().splitlines()
        assert lines[0] == "Gamma1_over_amp,Gamma2_over_amp,P3"
        assert len(lines) == 5
        # rate1 is the slow index: rows run (0,0), (0,r), (r,0), (r,r)
        cells = [tuple(line.split(",")[:2]) for line in lines[1:]]
        assert cells == [("0", "0"), ("0", "0.01"), ("0.01", "0"),
                         ("0.01", "0.01")]

    def test_table_csv_and_text(self, tmp_path):
        assert main(["--outdir", str(tmp_path), "table1", "--max-m",
                     "2"]) == 0
        lines = (tmp_path / "table1.csv").read_text().splitlines()
        assert lines[0] == "phiT_over_pi,omega_tilde_0_T,P2max"
        assert len(lines) == 3
        assert float(lines[1].split(",")[0]) == 1.0
        text = (tmp_path / "table1.txt").read_text()
        assert "P2max" in text and "converged" in text

    def test_deterministic_sweep_output(self, reference_pulses):
        a, b = (csv_text(["dT_over_T", "P3"], zip(*timing_error_sweep(
            reference_pulses, 0.05, 3, steps=1000))) for _ in range(2))
        assert a == b


def per_value_csv(header, columns):
    """The CSV writer formatting one value at a time (the reference)."""
    rows = (",".join(f"{x:.12g}" for x in row) for row in zip(*columns))
    return "".join(line + "\n" for line in (",".join(header), *rows))


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.lists(st.one_of(
    st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False)),
    min_size=3, max_size=3), max_size=20))
@example(rows=[[0, -0.0, 1e-300], [1e16, 7, -3], [0.1, 1 / 3, 2 ** 60]])
@example(rows=[])
def test_csv_text_matches_per_value_formatting(rows):
    header = ["a", "b", "c"]
    columns = list(zip(*rows)) or [(), (), ()]
    assert csv_text(header, columns) == per_value_csv(header, columns)
    floats = [np.array(c, dtype=float) for c in columns]
    assert csv_text(header, floats) == per_value_csv(header, floats)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_csv_text_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite value in column b"):
        csv_text(["a", "b"], [(0.0, 1.0), (2.0, bad)])


def test_table_text_flags_unconverged_fit():
    rows = [TableRow(winding_phase=np.pi, pulse_amplitude=3.5, p2_max=0.75,
                     fit_converged=True),
            TableRow(winding_phase=3 * np.pi, pulse_amplitude=8.0,
                     p2_max=0.3056, fit_converged=False)]
    header, first, second = format_table(rows).splitlines()
    assert header.split()[-1] == "converged"
    assert first.split()[-1] == "yes"
    assert second.split()[-1] == "no"


REFERENCE = PulsePair(*reference_m1_fit())
SPAN = np.linspace(0, 1e-300, 200)
# A caller's value out of range raises InvalidParameters, on which the CLI
# exits 2; a computation that fails raises another ValueError, exit 3.
CALLER_INPUT = {
    "timing-range": lambda: timing_error_sweep(REFERENCE, 0.5, 3),
    "amplitude-which": lambda: amplitude_error_sweep(REFERENCE, 3),
    "map-mode": lambda: decoherence_maps(REFERENCE, ("thermal",)),
    "map-ratio": lambda: decoherence_maps(REFERENCE, ("relaxation",), 0.2),
    "map-ratio-negative": lambda: decoherence_maps(REFERENCE, ("relaxation",),
                                                   -0.01, 3),
    "map-ratio-nan": lambda: decoherence_maps(REFERENCE, ("relaxation",),
                                              math.nan, 3),
    "map-grid": lambda: decoherence_maps(REFERENCE, ("relaxation",),
                                         grid=1),
    "table-max-m": lambda: table_one(11),
    "table-max-m-zero": lambda: table_one(0),
    "timing-steps": lambda: timing_error_sweep(REFERENCE, 0.1, 3, steps=90),
    "fit-span": lambda: fit_gaussian_sum(
        (SPAN, np.exp(-(SPAN / 1e-300 - 0.5) ** 2)), 1),
    "fit-zero": lambda: fit_gaussian_sum((SPAN, np.zeros(200)), 1),
    "amplitude-grid": lambda: pulse_amplitude(*reference_m1_fit(), 10),
    "scale-nan": lambda: evolve_schrodinger(REFERENCE, 1.0, 500, math.nan),
    "winding": lambda: design_sta(0),
    "rate": lambda: LindbladRates(gamma1=-1),
    "lindblad-steps": lambda: evolve_lindblad(REFERENCE, [LindbladRates()],
                                              steps=500),
}
COMPUTATION = {
    "coarse-steps": lambda: propagate_schrodinger(design_stirap(1e9),
                                                  steps=100),
    "infinite-drive": lambda: evolve_schrodinger(
        PulsePair(lambda t: np.full(np.shape(t), np.inf), np.zeros_like)),
}


@pytest.mark.parametrize("call, caller", [
    *((c, True) for c in CALLER_INPUT.values()),
    *((c, False) for c in COMPUTATION.values())],
    ids=[*CALLER_INPUT, *COMPUTATION])
def test_invalid_parameters_marks_caller_input(call, caller):
    with pytest.raises(ValueError) as raised:
        call()
    assert isinstance(raised.value, InvalidParameters) == caller
