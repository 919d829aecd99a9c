import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lambda_sta.protocol import (G1, G2, G3, InvalidParameters,
                                 analytic_state_constant_mu, design_sta,
                                 frame_match, m_eigenbasis, protocol_to_json)
from lambda_sta.pulsefit import STIRAP_T0, STIRAP_TC, design_stirap


def commutator(a, b):
    return a @ b - b @ a


def expi_g3(s):
    """The frame rotation exp(i s G3)."""
    return expm(1j * s * G3)


def test_expi_g3_is_plane_rotation():
    # exp(i s G3) rotates in the 1-3 plane by s
    s = 0.7
    expected = np.array([[np.cos(s), 0, np.sin(s)],
                         [0, 1, 0],
                         [-np.sin(s), 0, np.cos(s)]], dtype=complex)
    assert np.abs(expi_g3(s) - expected).max() < 1e-12


def test_generator_commutators_exact():
    assert np.array_equal(commutator(G1, G2), 1j * G3)
    assert np.array_equal(commutator(G2, G3), 1j * G1)
    assert np.array_equal(commutator(G3, G1), 1j * G2)


class TestBuildHamiltonian:
    # the Lambda Hamiltonian is omega1 G1 + omega2 G2
    def test_single_coupling(self):
        h = 1 * G1 + 0 * G2
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1
        assert np.array_equal(h, expected)

    def test_polar_form(self):
        a, b = 0.9, -1.7
        omega = math.hypot(a, b)
        theta = math.atan2(a, b)
        h = a * G1 + b * G2
        polar = omega * (math.sin(theta) * G1 + math.cos(theta) * G2)
        assert np.abs(h - polar).max() < 1e-12
        assert np.abs(h - h.conj().T).max() == 0
        assert h[0, 2] == h[2, 0] == 0
        assert np.all(np.diag(h) == 0)


class TestMEigenbasis:
    def test_phi_zero(self):
        xi0, xip, xim = m_eigenbasis(0.0)
        assert np.allclose(xi0, [1, 0, 0])
        assert np.allclose(xip, np.array([0, 1, 1]) / math.sqrt(2))
        assert np.allclose(xim, np.array([0, -1, 1]) / math.sqrt(2))

    def test_g2_spectrum_matches_phi_zero_eigenbasis(self):
        # G2 is the phi=0 member of the sin(phi)G1 + cos(phi)G2 family
        assert np.allclose(np.linalg.eigvalsh(G2), [-1, 0, 1], atol=1e-12)
        xi0, xip, xim = m_eigenbasis(0.0)
        for vec, val in [(xi0, 0.0), (xip, 1.0), (xim, -1.0)]:
            assert np.abs(G2 @ vec - val * vec).max() < 1e-12

    def test_quarter_turn(self):
        xi0, _, _ = m_eigenbasis(math.pi / 2)
        assert np.allclose(xi0, [0, 0, -1], atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-10, 10, allow_nan=False))
    def test_orthonormal_eigentriple(self, phi):
        vecs = m_eigenbasis(phi)
        m = math.sin(phi) * G1 + math.cos(phi) * G2
        for vec, val in zip(vecs, (0.0, 1.0, -1.0)):
            assert np.abs(m @ vec - val * vec).max() < 1e-12
        gram = np.array([[v.conj() @ w for w in vecs] for v in vecs])
        assert np.abs(gram - np.eye(3)).max() < 1e-12


class TestFrameMatch:
    def test_constant_mu(self):
        fm = frame_match(mu=np.pi / 3, mu_dot=0.0, phi=1.0, phi_dot=2.0)
        assert fm.delta == 0.0
        assert fm.omega == pytest.approx(2.0 * math.sin(np.pi / 3))
        assert fm.epsilon_dot == pytest.approx(2.0 * 0.5)

    def test_stationary(self):
        fm = frame_match(mu=1.0, mu_dot=0.0, phi=0.0, phi_dot=0.0)
        assert fm.omega == 0.0
        assert fm.delta == 0.0

    def test_pure_mu_motion(self):
        fm = frame_match(mu=1.0, mu_dot=1.0, phi=0.0, phi_dot=0.0)
        assert fm.omega == pytest.approx(1.0)
        assert fm.delta == pytest.approx(math.pi / 2)


class TestDesignSta:
    def test_m1_parameters(self, sta_m1):
        assert sta_m1.kappa == pytest.approx(0.5)
        assert sta_m1.mu == pytest.approx(math.pi / 3)
        t = np.linspace(0, 1, 2001)
        # Omega(t) = (sqrt(3)/2) * (pi^2/2) sin(pi t)
        expected = (math.sqrt(3) / 2) * (math.pi ** 2 / 2) * np.sin(math.pi * t)
        assert np.abs(sta_m1.frame(t).omega - expected).max() < 1e-10
        assert np.abs(sta_m1.frame(t).theta
                      - (sta_m1.phi(t) - math.pi) / 2).max() < 1e-12

    def test_m1_peak_amplitude(self, sta_m1):
        assert sta_m1.frame(0.5).omega == pytest.approx(
            math.sqrt(3) * math.pi ** 2 / 4)

    def test_boundary_conditions(self):
        for m in (1, 2, 5):
            p = design_sta(m)
            assert p.phi(0) == pytest.approx(0.0, abs=1e-12)
            assert p.phi(1.0) == pytest.approx(m * math.pi)
            assert abs(p.frame(0).omega) < 1e-12
            assert abs(p.frame(1.0).omega) < 1e-12

    def test_p2_ceiling_m3(self):
        p = design_sta(3)
        assert 2 * p.kappa - p.kappa ** 2 == pytest.approx(0.3056, abs=5e-5)

    def test_pulse_pythagoras(self, sta_m1, time_grid):
        o1, o2 = sta_m1.omega1(time_grid), sta_m1.omega2(time_grid)
        omega = sta_m1.frame(time_grid).omega
        assert np.abs(o1 ** 2 + o2 ** 2 - omega ** 2).max() < 1e-9

    def test_invalid_winding(self):
        with pytest.raises(InvalidParameters, match="winding"):
            design_sta(0)
        with pytest.raises(InvalidParameters, match="winding"):
            design_sta(-2)


@pytest.mark.parametrize("m", range(1, 8))
def test_drive_matches_closed_form(m, time_grid):
    p = design_sta(m)
    theta = (1 - p.kappa) * p.phi(time_grid) - math.pi / 2
    omega = p.phi_dot(time_grid) * math.sin(p.mu)
    assert np.abs(p.frame(time_grid).theta - theta).max() <= 1e-12
    assert np.abs(p.frame(time_grid).omega - omega).max() <= 1e-12
    assert np.abs(p.omega1(time_grid) - omega * np.sin(theta)).max() <= 1e-12
    assert np.abs(p.omega2(time_grid) - omega * np.cos(theta)).max() <= 1e-12
    # past T the pulses continue smoothly with the signed phi_dot
    late = 1 + time_grid
    theta = (1 - p.kappa) * p.phi(late) - math.pi / 2
    omega = p.phi_dot(late) * math.sin(p.mu)
    assert np.abs(p.omega1(late) - omega * np.sin(theta)).max() <= 1e-12
    assert np.abs(p.omega2(late) - omega * np.cos(theta)).max() <= 1e-12


class TestAnalyticState:
    def test_initial(self, sta_m1):
        assert np.allclose(analytic_state_constant_mu(sta_m1, 0.0), [1, 0, 0])

    def test_final_is_target(self, sta_m1):
        final = analytic_state_constant_mu(sta_m1, 1.0)
        assert np.abs(final[2]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_midpoint_populations(self, sta_m1):
        state = analytic_state_constant_mu(sta_m1, 0.5)
        assert np.allclose(state, [math.sqrt(2) / 4, 1j * math.sqrt(3) / 2,
                                   math.sqrt(2) / 4], atol=1e-12)

    def test_unit_norm(self, sta_m1):
        for t in np.linspace(0, 1, 37):
            state = analytic_state_constant_mu(sta_m1, t)
            assert abs(np.linalg.norm(state) - 1) < 1e-12

    def test_time_out_of_range(self, sta_m1):
        with pytest.raises(InvalidParameters):
            analytic_state_constant_mu(sta_m1, 1.5)

    def test_general_form_initial(self):
        for m, kappa in [(1, 0.3), (4, 1.5), (7, 0.05)]:
            p = design_sta(m, kappa=kappa)
            assert np.allclose(analytic_state_constant_mu(p, 0.0), [1, 0, 0])

    def test_general_matches_constant_mu(self, time_grid):
        # the general (phi, epsilon = kappa*phi, mu) form against its
        # reduction by cos(mu) = 1 - kappa
        for m in range(1, 8):
            p = design_sta(m)
            k = p.kappa
            for t in time_grid[::50]:
                phi = float(p.phi(t))
                sp, cp = math.sin(phi), math.cos(phi)
                ske, cke = math.sin(k * phi), math.cos(k * phi)
                reduced = [cke * (1 - k * sp ** 2) + k * ske * sp * cp,
                           1j * math.sqrt(2 * k - k * k) * sp,
                           ske * (1 - k * sp ** 2) - k * cke * sp * cp]
                state = analytic_state_constant_mu(p, t)
                assert np.abs(state - reduced).max() <= 1e-12

    def test_mu_zero_no_transfer(self):
        # as mu -> 0 the frame angle cannot accumulate, the state stays put
        p = design_sta(3, kappa=1e-12)
        for t in np.linspace(0, 1, 11):
            assert np.allclose(analytic_state_constant_mu(p, t), [1, 0, 0],
                               atol=2e-6)

    def test_p2_law(self, sta_m1, time_grid):
        k = sta_m1.kappa
        for t in time_grid[::50]:
            p2 = abs(analytic_state_constant_mu(sta_m1, t)[1]) ** 2
            law = (2 * k - k * k) * math.sin(float(sta_m1.phi(t))) ** 2
            assert abs(p2 - law) < 1e-12


class TestStirap:
    def test_peak(self):
        p = design_stirap(10.0)
        assert p.omega1(0.5 + STIRAP_T0) == pytest.approx(10.0)
        assert p.omega2(0.5 - STIRAP_T0) == pytest.approx(10.0)

    @pytest.mark.parametrize("omega0, t0, tc", [(45.0, STIRAP_T0, STIRAP_TC),
                                                (3.5, 0.1, 0.35),
                                                (1e3, 0.49, 0.05)])
    def test_drive_matches_closed_form(self, omega0, t0, tc):
        # Omega0 exp(-((t - 1/2 -+ t0)/tc)^2) over the run, omega1 the
        # later pulse
        t = np.linspace(0, 1, 2001)
        p = design_stirap(omega0, t0, tc)
        for o, sign in zip(p.drive(t), (1, -1)):
            closed = omega0 * np.exp(-((t - 0.5 - sign * t0) / tc) ** 2)
            assert np.abs(o - closed).max() <= 1e-15 * omega0

    def test_midpoint_value(self):
        p = design_stirap(1.0)
        assert p.omega1(0.5) == pytest.approx(math.exp(-0.5625))
        assert p.omega2(0.5) == pytest.approx(math.exp(-0.5625))

    def test_counterintuitive_boundary_ratios(self):
        p = design_stirap(45.0)
        assert p.omega1(0.0) / p.omega2(0.0) == pytest.approx(
            math.exp(-10.5625) / math.exp(-3.0625), rel=1e-9)
        assert p.omega1(0.0) / p.omega2(0.0) < 1e-3
        assert p.omega2(1.0) / p.omega1(1.0) < 1e-3

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            design_stirap(-1.0)
        with pytest.raises(InvalidParameters):
            design_stirap(1.0, t0=0.6)
        with pytest.raises(InvalidParameters):
            design_stirap(1.0, tc=-0.1)
        for bad in (math.nan, math.inf):
            with pytest.raises(InvalidParameters):
                design_stirap(bad)
            with pytest.raises(InvalidParameters):
                design_stirap(1.0, tc=bad)


class TestDarkState:
    # the dark state of o1 G1 + o2 G2 is m_eigenbasis(arctan2(o1, o2))[0]
    def test_limits(self):
        assert np.allclose(m_eigenbasis(np.arctan2(0, 2.0))[0], [1, 0, 0])
        assert np.allclose(m_eigenbasis(np.arctan2(3.0, 0))[0], [0, 0, -1])
        assert np.allclose(m_eigenbasis(np.arctan2(1.0, 1.0))[0],
                           np.array([1, 0, -1]) / math.sqrt(2))

    def test_zero_eigenvector(self):
        v = m_eigenbasis(np.arctan2(0.3, 1.1))[0]
        h = 0.3 * G1 + 1.1 * G2
        assert np.abs(h @ v).max() < 1e-12

    def test_degenerate(self):
        # with both drives off every state is dark; the expression stays
        # defined and picks |1>, where a transfer starts
        assert np.array_equal(m_eigenbasis(np.arctan2(0.0, 0.0))[0],
                              [1, 0, 0])


def test_hamiltonian_polar_consistency(sta_m1, time_grid):
    for t in time_grid[::100]:
        h = sta_m1.omega1(t) * G1 + sta_m1.omega2(t) * G2
        polar = float(sta_m1.frame(t).omega) * (
            math.sin(float(sta_m1.frame(t).theta)) * G1
            + math.cos(float(sta_m1.frame(t).theta)) * G2)
        assert np.abs(h - polar).max() < 1e-12


def test_picture_transformation_identity():
    # the frame rotation maps the transformed-frame generator back onto
    # the physical Hamiltonian: B H1 B^dag + i dB/dt B^dag = H0, with the
    # frame angle eps = kappa*phi the integral of frame_match's eps_dot
    for m in (1, 4, 7):
        p = design_sta(m)
        for t in np.linspace(0.05, 0.95, 13):
            phi = float(p.phi(t))
            eps = p.kappa * phi
            theta = float(p.frame(t).theta)
            omega = float(p.frame(t).omega)
            eps_dot = float(frame_match(p.mu, 0.0, phi,
                                        float(p.phi_dot(t))).epsilon_dot)
            assert eps_dot == pytest.approx(p.kappa * float(p.phi_dot(t)),
                                            rel=1e-12)
            h1 = omega * (math.sin(theta + eps) * G1
                          + math.cos(theta + eps) * G2) - eps_dot * G3
            b = expi_g3(-eps)
            h0 = p.omega1(t) * G1 + p.omega2(t) * G2
            recovered = b @ h1 @ b.conj().T + eps_dot * G3
            assert np.abs(recovered - h0).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.floats(-20, 20, allow_nan=False))
def test_frame_rotation_of_g1(eps):
    # e^{i eps G3} G1 e^{-i eps G3} = cos(eps) G1 - sin(eps) G2, the
    # trigonometric collapse that turns the frame rotation into a pure
    # phase shift of the drive angle
    b = expi_g3(eps)
    rotated = b @ G1 @ b.conj().T
    expected = math.cos(eps) * G1 - math.sin(eps) * G2
    assert np.abs(rotated - expected).max() <= 1e-10
    rotated2 = b @ G2 @ b.conj().T
    expected2 = math.sin(eps) * G1 + math.cos(eps) * G2
    assert np.abs(rotated2 - expected2).max() <= 1e-10


def test_final_state_law_analytic():
    for m, kappa in [(1, 0.3), (2, 0.7), (3, 0.2)]:
        p = design_sta(m, kappa=kappa)
        final = analytic_state_constant_mu(p, 1.0)
        assert abs(final[2]) ** 2 == pytest.approx(
            math.sin(kappa * m * math.pi) ** 2, abs=1e-12)


class TestJsonRoundTrip:
    def test_sta(self):
        p = design_sta(3)
        doc = json.loads(protocol_to_json(p, 2.0))
        assert doc["type"] == "sta" and doc["mu"] == p.mu
        assert doc["T"] == 2.0
        assert design_sta(doc["m"], kappa=doc["kappa"]) == p

    def test_defaults_applied(self):
        doc = json.loads(protocol_to_json(design_sta(2), 1.0))
        assert doc["kappa"] == pytest.approx(0.25)
        assert doc["T"] == 1.0
