"""The shortcut protocol for the three-level Lambda system.

It is built from a single frame rotation, with winding integer m and
constant mixing angle mu, and comes with the closed-form analytic state.
The adiabatic (STIRAP) baseline is a pair of Gaussian pulses, so
`pulsefit.design_stirap` builds it.

Conventions: hbar = 1, basis {|1>, |2>, |3>}, time over [0, 1] in units of
the interaction time T and all rates in units of 1/T.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

# SU(2)-like generator triple: G1 couples 1-2, G2 couples 2-3, G3 couples
# 1-3 with the imaginary phase.  [G1,G2]=iG3, [G2,G3]=iG1, [G3,G1]=iG2.
G1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
G2 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
G3 = np.array([[0, 0, -1j], [0, 0, 0], [1j, 0, 0]], dtype=complex)


class InvalidParameters(ValueError):
    """A caller's value outside its valid range: a configuration error,
    on which the CLI exits 2."""


def m_eigenbasis(phi):
    """Eigenvectors (xi0, xi+, xi-) of sin(phi) G1 + cos(phi) G2.

    Eigenvalues are 0, +1, -1 respectively, for every phi.
    """
    s, c = math.sin(phi), math.cos(phi)
    xi0 = np.array([c, 0, -s], dtype=complex)
    xip = np.array([s, 1, c], dtype=complex) / math.sqrt(2)
    xim = np.array([s, -1, c], dtype=complex) / math.sqrt(2)
    return xi0, xip, xim


@dataclass(frozen=True)
class FrameMatch:
    """Drive parameters read off from the rotating-frame generator.

    omega is the effective Rabi rate, delta the mixing-angle offset,
    epsilon_dot the rate of the frame angle and theta the in-plane drive
    angle, so that `drive` is (omega1, omega2) = omega (sin theta,
    cos theta).  Each is a float or an array, as the inputs are.
    """

    omega: np.ndarray
    theta: np.ndarray
    epsilon_dot: np.ndarray
    delta: np.ndarray

    @property
    def drive(self):
        return self.omega * np.sin(self.theta), self.omega * np.cos(self.theta)


def frame_match(mu, mu_dot, phi, phi_dot, epsilon=0.0):
    """Match the rotating-frame generator to a physical drive,
    elementwise over the broadcast shape of the inputs.

    ``epsilon`` is the accumulated frame angle (the time integral of
    ``epsilon_dot``); it shifts ``theta`` back into the lab frame.
    """
    omega = np.hypot(mu_dot, phi_dot * np.sin(mu))
    delta = np.arctan2(mu_dot, phi_dot * np.sin(mu))
    epsilon_dot = phi_dot * (1.0 - np.cos(mu))
    theta = phi - epsilon - delta - np.pi / 2
    return FrameMatch(omega=omega, theta=theta, epsilon_dot=epsilon_dot,
                      delta=delta)


@dataclass(frozen=True)
class StaProtocol:
    """Constant-mu shortcut protocol with winding integer m.

    phi = (m pi/2)(1 - cos pi t) rises from 0 to m*pi with zero slope at
    t=0 and t=1, where both drive amplitudes vanish.  kappa = 1 - cos(mu)
    fixes the intermediate-state population ceiling 2*kappa - kappa^2.
    The drive is read off `frame_match` at the frame angle kappa*phi.
    Past t=1, where phi_dot < 0, omega1 and omega2 continue smoothly with the
    signed phi_dot, while the frame's omega = |phi_dot| sin(mu) and its
    theta jumps by pi.
    """

    m: int
    kappa: float
    mu: float

    def phi(self, t):
        return (self.m * math.pi / 2) * (1 - np.cos(np.pi * np.asarray(t)))

    def phi_dot(self, t):
        return (self.m * math.pi**2 / 2) * np.sin(np.pi * np.asarray(t))

    def frame(self, t):
        """The FrameMatch at the times t: every drive value comes off it."""
        phi = self.phi(t)
        return frame_match(self.mu, 0.0, phi, self.phi_dot(t),
                           self.kappa * phi)

    def drive(self, t):
        """(omega1, omega2) at the times t, from one frame."""
        return self.frame(t).drive

    def omega1(self, t):
        return self.drive(t)[0]

    def omega2(self, t):
        return self.drive(t)[1]


def design_sta(m, kappa=None):
    """Design the shortcut protocol for winding m over [0, 1].

    With the default kappa = 1/(2m) the final state is exactly |3>.  An
    explicit kappa in (0, 2) overrides the default (the transfer is then
    partial, final P3 = sin^2(kappa*m*pi)).
    """
    if int(m) != m or m < 1:
        raise InvalidParameters(f"winding must be a positive integer, got {m}")
    if kappa is None:
        kappa = 1.0 / (2 * m)
    if not 0 < kappa < 2:
        raise InvalidParameters(f"kappa must lie in (0, 2), got {kappa}")
    return StaProtocol(m=int(m), kappa=float(kappa),
                       mu=math.acos(1.0 - kappa))


def analytic_state_constant_mu(p, t):
    """Closed-form state of the constant-mu protocol at time t, with the
    frame angle epsilon = kappa*phi accumulated from phi_dot*(1-cos mu)."""
    if not 0 <= t <= 1:
        raise InvalidParameters(f"t={t} outside [0, 1]")
    phi = float(p.phi(t))
    epsilon = p.kappa * phi
    sp, cp = math.sin(phi), math.cos(phi)
    se, ce = math.sin(epsilon), math.cos(epsilon)
    cm = math.cos(p.mu)
    a = cp * cp + sp * sp * cm
    b = sp * cp * (cm - 1)
    c1 = ce * a - se * b
    c2 = 1j * sp * math.sin(p.mu)
    c3 = ce * b + se * a
    return np.array([c1, c2, c3], dtype=complex)


def protocol_to_json(p, duration):
    """Interchange JSON of a shortcut protocol run over time `duration`."""
    return json.dumps({"type": "sta", "m": p.m, "kappa": p.kappa,
                       "mu": p.mu, "T": duration}, indent=2)
