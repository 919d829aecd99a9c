"""Shortcut-to-adiabaticity pulse design and simulation for three-level
Lambda systems, with a Gaussian-STIRAP baseline and Lindblad robustness
studies."""

__version__ = "0.1.0"

from .protocol import (G1, G2, G3, StaProtocol, StirapProtocol,
                       design_sta, design_stirap, m_eigenbasis, frame_match,
                       analytic_state_constant_mu, protocol_to_json)
from .dynamics import (LindbladRates, PulsePair, Trajectory,
                       evolve_lindblad, evolve_schrodinger,
                       lindblad_operators, propagate_lindblad,
                       propagate_schrodinger)
from .pulsefit import (FitReport, GaussianComponent, GaussianPulse,
                       fit_gaussian_sum, pulse_amplitude, reference_m1_fit)
from .analysis import (TableRow, amplitude_error_sweep, decoherence_maps,
                       fit_protocol_pulses, stirap_dephasing_check,
                       stirap_infidelity_curve, table_one, timing_error_sweep)
