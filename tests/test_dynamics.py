import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from lambda_sta import dynamics
from lambda_sta.analysis import timing_error_sweep
from lambda_sta.cli import main
from lambda_sta.dynamics import (LindbladRates, PulsePair, StepTooCoarse,
                                 evolve_lindblad, evolve_schrodinger,
                                 lindblad_operators, propagate_lindblad,
                                 propagate_schrodinger, step_rotation)
from lambda_sta.protocol import (G1, G2, G3, InvalidParameters,
                                 analytic_state_constant_mu, design_sta,
                                 m_eigenbasis)
from lambda_sta.pulsefit import design_stirap

ZERO_PULSES = PulsePair(omega1=lambda t: 0.0 * np.asarray(t),
                        omega2=lambda t: 0.0 * np.asarray(t))
D = np.diag([1, 1j, 1])
# Lindblad batch sizes: a single run and a batch of mixed rates.
BATCHES = [1, 3]


def propagator(pair):
    """D^dagger R D, R the rotation of the unit quaternion w + xi + yj + zk
    held as the Cayley-Klein pair (a, b) = (w - iz, y - ix): the 3x3
    propagator of a step_rotation, shape (..., 3, 3)."""
    a, b = pair
    w, x, y, z = a.real, -b.imag, b.real, -a.imag
    r = [[1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
         [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
         [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)]]
    return D.conj() @ np.stack([np.stack(row, -1) for row in r], -2) @ D


@settings(max_examples=200, deadline=None)
@given(o1=st.floats(-100, 100), o2=st.floats(-100, 100),
       o3=st.floats(-100, 100), dt=st.floats(0, 0.01))
@example(o1=0.0, o2=0.0, o3=0.0, dt=0.01)
@example(o1=0.0, o2=0.0, o3=50.0, dt=0.01)
def test_closed_form_step_matches_expm(o1, o2, o3, dt):
    exact = expm(-1j * (o1 * G1 + o2 * G2 + o3 * G3) * dt)
    u = propagator(step_rotation(o1 * dt, o2 * dt, o3 * dt))
    assert np.abs(u - exact).max() <= 1e-13


@settings(max_examples=50, deadline=None)
@given(o1=st.floats(-10, 10), o2=st.floats(-10, 10), o3=st.floats(-10, 10),
       s=st.floats(-1, 1), t=st.floats(-1, 1))
def test_step_unitary_and_group_property(o1, o2, o3, s, t):
    qs = step_rotation(o1 * s, o2 * s, o3 * s)
    qt = step_rotation(o1 * t, o2 * t, o3 * t)
    u = propagator(qs)
    assert np.abs(u @ u.conj().T - np.eye(3)).max() <= 1e-12
    product = propagator(step_rotation(o1 * (s + t), o2 * (s + t),
                                       o3 * (s + t)))
    assert np.abs(u @ propagator(qt) - product).max() <= 1e-12
    # the kernel's quaternion product is the product of the propagators
    assert np.abs(propagator(dynamics._qmul(qs, qt)) - product).max() <= 1e-12


def test_step_identity_at_zero_dt():
    o = np.array([[1.0, -3.0, 0.0], [2.0, 0.5, 0.0], [-1.0, 0.0, 4.0]])
    u = propagator(step_rotation(*(0.0 * o)))
    assert np.abs(u - np.eye(3)).max() < 1e-14


def test_step_matches_spectral_projector_form():
    # H = W (sin(phi) G1 + cos(phi) G2) has the eigenbasis of m_eigenbasis
    # with eigenvalues 0, +W, -W, so exp(-i H dt) is a sum of projectors
    phi, w, dt = 0.8, 50.0, 0.01
    xi0, xip, xim = m_eigenbasis(phi)
    expected = (np.outer(xi0, xi0.conj())
                + np.exp(-1j * w * dt) * np.outer(xip, xip.conj())
                + np.exp(1j * w * dt) * np.outer(xim, xim.conj()))
    u = propagator(step_rotation(w * dt * np.sin(phi), w * dt * np.cos(phi),
                                 0.0))
    assert np.abs(u - expected).max() < 1e-12


def expm_magnus6_states(pulses, edges, scale1, scale2, stride):
    """The sixth-order Magnus march (Blanes, Casas & Ros 2000) as a
    sequential product of scipy expm steps, in 3x3 matrices and their
    commutators, over the steps between consecutive `edges`, which every
    run shares: with A_j = -i dt H(t_j) at the Gauss-Legendre nodes
    t_j = t + (1/2 + (j - 2) sqrt(15)/10) dt of a step [t, t + dt],
    alpha1 = A_2, alpha2 = sqrt(15)/3 (A_3 - A_1), alpha3 = 10/3 (A_3 -
    2 A_2 + A_1), C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 +
    C1]/60, a step is

        exp(alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240);

    sampled after every `stride` steps and the last, shape (batch,
    samples, 3)."""
    scale1, scale2 = np.broadcast_arrays(np.atleast_1d(scale1), scale2)
    dt = np.diff(edges)[:, None]  # (steps, 1), against the batch axis
    r = 15 ** 0.5 / 10
    t = edges[:-1, None, None] + [[0.5 - r], [0.5], [0.5 + r]] * dt[:, None]

    def a(t):
        h = ((scale1 * pulses.omega1(t))[..., None, None] * G1
             + (scale2 * pulses.omega2(t))[..., None, None] * G2)
        return -1j * dt[..., None, None] * h

    def commutator(x, y):
        return x @ y - y @ x

    a1, a2, a3 = a(t[:, 0]), a(t[:, 1]), a(t[:, 2])
    alpha1 = a2
    alpha2 = 15 ** 0.5 / 3 * (a3 - a1)
    alpha3 = 10 / 3 * (a3 - 2 * a2 + a1)
    c1 = commutator(alpha1, alpha2)
    c2 = -commutator(alpha1, 2 * alpha3 + c1) / 60
    u = expm(alpha1 + alpha3 / 12
             + commutator(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240)
    psi = np.zeros((len(scale1), 3, 1), dtype=complex)
    psi[:, 0] = 1
    out = [psi]
    for k in range(len(dt)):
        psi = u[k] @ psi
        if (k + 1) % stride == 0 or k + 1 == len(dt):
            out.append(psi)
    return np.concatenate(out, axis=2).swapaxes(1, 2)


@pytest.mark.parametrize("steps, stride, block_steps", [
    (1000, None, None),   # end only, one block: a product tree
    (999, 10, None),      # prefix products over ten-step chunks
    (2000, 1, None),      # every step sampled
    (1000, None, 70),     # end only, several blocks chained
    (999, 10, 75),        # seven whole chunks a block
    (999, 64, 25),        # a chunk spans several blocks
])
def test_evolve_schrodinger_matches_expm_product(monkeypatch, steps, stride,
                                                 block_steps):
    assert_three_runs_match_expm(monkeypatch, 1.2, [1, 0.95, 1.05],
                                 [1.1, 1, 0.9], steps, stride, block_steps)


def assert_three_runs_match_expm(monkeypatch, horizon, scale1, scale2, steps,
                                 stride, block_steps):
    if block_steps:
        monkeypatch.setattr(dynamics, "BLOCK_BYTES",
                            3 * block_steps * dynamics._STEP_BYTES)
    proto = design_sta(2)
    states = evolve_schrodinger(proto, horizon, steps, scale1, scale2,
                                stride)
    expected = expm_magnus6_states(proto, np.linspace(0, horizon, steps + 1),
                                   scale1, scale2, stride or steps)
    assert states.shape == expected.shape
    assert np.abs(states - expected).max() <= 1e-13


@pytest.mark.parametrize("steps, stride, block_steps", [
    (100, None, None),    # the fewest steps: the terms of order dt^7 show
    (999, 64, 25),        # a chunk spans several blocks
])
def test_shared_grid_matches_expm_product(monkeypatch, steps, stride,
                                          block_steps):
    # scales far from 1 show a wrong power of either monomial
    assert_three_runs_match_expm(monkeypatch, 1.0, [0.3, 1, 2.5], [2, 1, 0.4],
                                 steps, stride, block_steps)


def timing_sweep_edges(error_range, points, steps):
    """The step edges of timing_error_sweep's one run and its sampling
    stride: k M equal steps over [0, 1 - r], then k equal steps between
    neighbouring horizons 1 + delta_j, k = ceil(g steps) for the deltas'
    spacing g and M = ceil((1 - r) steps/k); one horizon, 1 - r, is a
    plain run of `steps` steps."""
    start = 1 - error_range
    if points < 2 or error_range == 0:
        return np.linspace(0, start, steps + 1), steps
    gap = 2 * error_range / (points - 1)
    k = math.ceil(gap * steps)
    knot = k * math.ceil(start * steps / k)
    return np.concatenate((
        np.linspace(0, start, knot + 1),
        np.linspace(start, 1 + error_range, (points - 1) * k + 1)[1:])), k


@pytest.mark.parametrize("error_range, points, steps", [
    (0.1, 41, 500),    # fig4's sweep: k = 3
    (0.2, 2, 500),     # two horizons: k = 200, M = 2
    (0.1, 41, 100),    # k = 1: one step between horizons
    (0.1, 1, 500),     # one horizon, 1 - r
    (0.0, 5, 500),     # five times the horizon 1
])
def test_timing_sweep_matches_expm_product_on_its_edges(
        reference_pulses, error_range, points, steps):
    edges, stride = timing_sweep_edges(error_range, points, steps)
    assert np.diff(edges).max() <= (1 + 1e-12) / steps
    states = expm_magnus6_states(reference_pulses, edges, 1, 1, stride)[0]
    data = timing_error_sweep(reference_pulses, error_range, points, steps)
    deltas = np.linspace(-error_range, error_range, points)
    assert [d for d, _ in data] == list(deltas)
    # the horizons are the last `points` samples after the start, or the
    # end alone
    assert np.allclose(edges[::stride][1:][-points:], 1 + deltas, atol=1e-15)
    expected = np.abs(states[1:, 2][-points:]) ** 2
    assert np.abs([p for _, p in data] - expected).max() <= 1e-13


def test_timing_sweep_refuses_a_coarse_step():
    # fig4's grid takes steps of at most 1/500: a constant Omega of 510
    # rotates the state by 1.02 rad a step and is refused, one of 490 by
    # 0.98 rad and runs, though 500 steps to the horizon 1.1 would take
    # 1.08 rad
    def constant(omega):
        return PulsePair(lambda t: np.full(np.shape(t), omega), np.zeros_like)

    with pytest.raises(StepTooCoarse, match=r"^a step rotates the state by "
                       r"1\.02 rad \(limit 1\); use more steps$"):
        timing_error_sweep(constant(510.0), 0.1, 41, 500)
    assert len(timing_error_sweep(constant(490.0), 0.1, 41, 500)) == 41


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scale_raises(bad):
    for scales in (([1, bad], 1), (1, [bad, 1])):
        with pytest.raises(ValueError, match="scales must be finite"):
            evolve_schrodinger(design_sta(1), 1.0, 200, *scales)


class TestSchrodinger:
    def test_free_evolution_is_constant(self):
        final = evolve_schrodinger(ZERO_PULSES, steps=200)[0, -1]
        assert np.abs(final - [1, 0, 0]).max() < 1e-12

    def test_matches_analytic_oracle(self, sta_m1):
        traj = propagate_schrodinger(sta_m1, steps=10_000,
                                     stride=100)
        assert traj.final_populations[2] == pytest.approx(1.0, abs=1e-8)
        for t, pops in zip(traj.times, traj.populations):
            oracle = np.abs(analytic_state_constant_mu(sta_m1, min(t, 1.0))) ** 2
            assert np.abs(pops - oracle).max() < 1e-6

    def test_fitted_pulse_fidelity(self, reference_pulses):
        traj = propagate_schrodinger(reference_pulses, steps=10_000)
        assert 1 - traj.final_populations[2] <= 1e-4

    def test_norm_conserved(self, reference_pulses):
        traj = propagate_schrodinger(reference_pulses, steps=2000, stride=10)
        norms = traj.populations.sum(axis=1)
        assert np.abs(norms - 1).max() <= 1e-9

    def test_sixth_order_convergence(self):
        proto = design_stirap(45.0)

        def final(steps):
            return np.abs(evolve_schrodinger(proto, steps=steps)[0, -1]) ** 2

        exact = final(16_000)
        e1, e2 = (np.abs(final(n) - exact).max() for n in (100, 200))
        assert e1 > 1e-11  # above the accuracy floor, ratio is meaningful
        assert e1 / e2 >= 48  # 64 for a sixth-order step, 32 for fifth

    def test_stirap_tracks_zero_eigenstate(self):
        proto = design_stirap(70.0)
        states = evolve_schrodinger(proto, steps=10_000, stride=100)[0]
        times = np.arange(0, 10_001, 100) / 10_000
        for t, psi in zip(times, states):
            if not 0.1 <= t <= 0.9:
                continue
            # the dark state, the zero eigenvector of the Hamiltonian
            dark = m_eigenbasis(np.arctan2(proto.omega1(t),
                                           proto.omega2(t)))[0]
            overlap = abs(dark.conj() @ psi)
            # diabatic wiggle at mid-pulse bottoms out at 0.9886 for this
            # amplitude; away from the crossing the tracking is tight
            assert overlap >= 0.985
            if not 0.4 <= t <= 0.65:
                assert overlap >= 0.997

    def test_invalid_inputs(self):
        with pytest.raises(InvalidParameters, match="at least 100 steps"):
            propagate_schrodinger(ZERO_PULSES, steps=50)
        with pytest.raises(StepTooCoarse):
            propagate_schrodinger(design_stirap(1e9),
                                  steps=100)


class TestLindbladOperators:
    def test_all_zero(self):
        for op in lindblad_operators(LindbladRates()):
            assert np.all(op == 0)

    def test_relaxation_sqrt(self):
        l1, l2, _, _ = lindblad_operators(LindbladRates(gamma1=4.0))
        assert l1[0, 1] == 2.0
        assert np.count_nonzero(l1) == 1
        assert np.all(l2 == 0)

    def test_dephasing_diagonal(self):
        _, _, l3, _ = lindblad_operators(LindbladRates(gamma_phi1=1.0))
        assert np.allclose(l3, np.diag([-1, 1, 0]))

    def test_negative_rate(self):
        with pytest.raises(InvalidParameters, match="non-negative"):
            LindbladRates(gamma1=-1.0)

    def test_nan_rate(self):
        with pytest.raises(InvalidParameters, match="non-negative"):
            LindbladRates(gamma_phi2=float("nan"))


def stretched(pulses, duration):
    """The pulses run over [0, duration]: t -> drive(t/duration)/duration."""
    return PulsePair(lambda t: pulses.omega1(t / duration) / duration,
                     lambda t: pulses.omega2(t / duration) / duration)


@pytest.mark.parametrize("duration", [1e300, 1e-300])
def test_schrodinger_duration_scale_invariance(duration):
    # the drive scales as 1/T, so the populations are those of T = 1
    final = evolve_schrodinger(stretched(design_sta(1), duration), duration,
                               200)
    unit = evolve_schrodinger(design_sta(1), 1.0, 200)
    assert np.abs(np.abs(final) ** 2 - np.abs(unit) ** 2).max() <= 1e-12


def test_drive_out_of_range_raises():
    with pytest.raises(ValueError, match="non-finite"):
        evolve_schrodinger(stretched(design_sta(1), 1e-310), 1e-310, 200)


class TestLindblad:
    def test_empty_batch(self, reference_pulses):
        assert evolve_lindblad(reference_pulses, [],
                               steps=1000).shape == (0, 2, 3, 3)
        assert evolve_lindblad(reference_pulses, [], steps=1000,
                               stride=300).shape == (0, 5, 3, 3)

    def test_closed_limit_matches_schrodinger(self, reference_pulses):
        closed = propagate_schrodinger(reference_pulses, steps=4000)
        opened = propagate_lindblad(reference_pulses, steps=4000)
        assert np.abs(closed.final_populations
                      - opened.final_populations).max() < 1e-7

    def test_trace_and_hermiticity(self, reference_pulses):
        rates = LindbladRates(gamma1=0.03, gamma_phi2=0.02)
        traj = propagate_lindblad(reference_pulses, rates=rates, steps=2000)
        assert np.abs(traj.populations.sum(axis=1) - 1).max() <= 1e-8
        rho = traj.final_density
        assert np.abs(rho - rho.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(rho).min() >= -1e-7

    def test_relaxation_reduces_fidelity(self, reference_pulses):
        rates = LindbladRates(gamma1=0.1, gamma2=0.1)
        traj = propagate_lindblad(reference_pulses, rates=rates, steps=2000)
        assert traj.final_populations[2] < 1.0 - 1e-3

    def test_invalid_inputs(self, reference_pulses):
        with pytest.raises(InvalidParameters, match="at least 1000 steps"):
            propagate_lindblad(reference_pulses, steps=500)
        with pytest.raises(StepTooCoarse):
            propagate_lindblad(design_stirap(1e5), steps=1000)


def mixed_rates(n):
    """n rate sets with all four channels on, each cell its own values."""
    return [LindbladRates(gamma1=0.01 + 0.003 * i,
                          gamma2=0.05 - 0.002 * (i % 25),
                          gamma_phi1=0.02 + 0.001 * i,
                          gamma_phi2=0.04 - 0.001 * (i % 25))
            for i in range(n)]


def lindblad_pieces():
    """The generator pieces on the row-major vec(rho), in the nine complex
    entries of rho: the coherent i(I kron G - G kron I) for G1 and G2, then
    the four dissipators at unit rates; shape (6, 9, 9)."""
    eye = np.eye(3)
    coherent = [1j * (np.kron(eye, g) - np.kron(g, eye)) for g in (G1, G2)]
    jumps = [np.kron(l, l.conj()) - 0.5 * (np.kron(l.conj().T @ l, eye)
                                           + np.kron(eye, l.T @ l.conj()))
             for l in lindblad_operators(LindbladRates(1, 1, 1, 1))]
    return np.array(coherent + jumps)


def rk4_loop_states(pulses, rates, steps, stride):
    """Textbook RK4 on the nine entries of vec(rho) over [0, 1], stage by
    stage in a plain loop over steps, all runs at once, sampled after steps
    0, stride, 2*stride, ... and `steps`; shape (batch, samples, 3, 3)."""
    dt = 1.0 / steps
    t = np.arange(2 * steps + 1) * (dt / 2)  # step ends and midpoints
    o1, o2 = pulses.drive(t)
    pieces = lindblad_pieces()
    gammas = np.reshape([(r.gamma1, r.gamma2, r.gamma_phi1, r.gamma_phi2)
                         for r in rates], (-1, 4))
    jumps = np.tensordot(gammas, pieces[2:], 1)

    def rate(i, x):  # the generator at half step i on the states x
        coherent = o1[i] * pieces[0] + o2[i] * pieces[1]
        return x @ coherent.T + (jumps @ x[..., None])[..., 0]

    x = np.zeros((len(rates), 9), dtype=complex)
    x[:, 0] = 1  # vec(|1><1|)
    out = [x]
    for k in range(steps):
        k1 = rate(2 * k, x)
        k2 = rate(2 * k + 1, x + (dt / 2) * k1)
        k3 = rate(2 * k + 1, x + (dt / 2) * k2)
        k4 = rate(2 * k + 2, x + dt * k3)
        x = x + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        if (k + 1) % stride == 0 or k + 1 == steps:
            out.append(x)
    return np.stack(out, axis=1).reshape(len(rates), len(out), 3, 3)


BLOCKS = [
    (None, None),   # end only, one block: one product tree
    (None, 70),     # end only, several blocks chained
    (1, None),      # every step sampled
    (7, None),      # seven-step chunks, the last one six steps
    (7, 75),        # ten whole chunks a block
    (64, 25),       # a chunk spans several blocks
]


@pytest.mark.parametrize("stride, block_steps, n",
                         [(*row, n) for row in BLOCKS for n in (0, 1, 3)])
def test_lindblad_propagators_match_step_loop(monkeypatch, n, stride,
                                              block_steps):
    if block_steps:  # a block holds _RK4_STEP_BYTES a step and run
        monkeypatch.setattr(dynamics, "BLOCK_BYTES", block_steps * max(n, 1)
                            * dynamics._RK4_STEP_BYTES)
    edges, cut = [], dynamics._edges
    monkeypatch.setattr(dynamics, "_edges",
                        lambda *args: edges.append(cut(*args)) or edges[-1])
    proto, rates = design_sta(2), mixed_rates(n)
    rhos = evolve_lindblad(proto, rates, 1000, stride)
    if block_steps:  # the run spans several blocks, whatever the step bytes
        assert len(edges[0]) > 2
    expected = rk4_loop_states(proto, rates, 1000, stride or 1000)
    assert rhos.shape == expected.shape
    assert np.abs(rhos - expected).max(initial=0.0) <= 1e-13


@pytest.mark.parametrize("steps, stride, per_block", [
    (1000, 7, 10 ** 6),  # 142 chunks of 7 steps, then one of 6
    (1000, 7, 75),       # ten whole chunks a block
    (999, 10, 75),       # seven whole chunks a block
    (1000, 64, 25),      # a chunk spans several blocks
])
def test_blocks_hold_chunks_of_one_length(steps, stride, per_block):
    """_edges cuts blocks of at most per_block steps from 0 to `steps`,
    each of whole stride chunks or within one chunk, whose length is then
    the block's."""
    edges = dynamics._edges(steps, stride, per_block)
    assert edges[0] == 0 and edges[-1] == steps
    for k0, k1 in zip(edges[:-1], edges[1:]):
        assert 0 < k1 - k0 <= per_block
        assert ((k0 % stride == 0 and (k1 - k0) % stride == 0)
                or k0 // stride == (k1 - 1) // stride)


class RecordedDrive:
    """Pulses that record the times of every drive evaluation."""

    def __init__(self, pulses):
        self.pulses, self.times = pulses, []

    def drive(self, t):
        self.times.append(t)
        return self.pulses.drive(t)


@pytest.mark.parametrize("n, steps", [
    pytest.param(1, dynamics.LINDBLAD_STEPS, id="lindblad"),
    pytest.param(50, 2000, id="fig5-grid5"),
    pytest.param(72, 2000, id="fig5-nodes")])
def test_lindblad_samples_drive_once_per_window(monkeypatch, n, steps):
    """Runs at the CLI's step counts sample the drive in one call; a
    smaller byte budget cuts the half-step grid into windows that cover it
    once each, but for the blocks that straddle two windows."""
    grid = np.arange(2 * steps + 1) * (0.5 / steps)
    pulses = RecordedDrive(design_sta(1))
    evolve_lindblad(pulses, mixed_rates(n), steps)
    assert len(pulses.times) == 1 and np.array_equal(pulses.times[0], grid)
    pulses.times.clear()
    monkeypatch.setattr(dynamics, "BLOCK_BYTES", dynamics.BLOCK_BYTES // 64)
    evolve_lindblad(pulses, mixed_rates(n), steps)
    assert len(pulses.times) > 1
    assert np.array_equal(np.unique(np.concatenate(pulses.times)), grid)
    assert sum(map(len, pulses.times)) < 1.5 * len(grid)


def test_lindblad_generator_pieces_are_exact():
    """The textbook pieces, carried into the frame rho' = D rho D^dagger
    and restricted to the six entries (00, 11, 22, 01, 02, 12) of the real
    symmetric rho', are the kernel's pieces entry for entry, and every
    entry is 0, +-1/2, +-1 or +-2."""
    frame = np.kron(D, D.conj())  # vec(D rho D^dagger) = frame @ vec(rho)
    pieces = frame @ lindblad_pieces() @ frame.conj().T
    entries = [(0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)]
    spread = np.zeros((9, 6))  # each entry to its places in vec(rho')
    for b, (k, l) in enumerate(entries):
        spread[[3 * k + l, 3 * l + k], b] = 1
    six = pieces[:, [3 * i + j for i, j in entries]] @ spread
    assert not six.imag.any()
    kernel = np.array([dynamics._K1, dynamics._K2, *dynamics._D])
    assert np.array_equal(kernel, six.real)
    assert set(np.unique(kernel)) <= {0, 0.5, -0.5, 1, -1, 2, -2}


@pytest.mark.parametrize("stride", [None, 1, 7])
def test_propagated_times_match_populations(stride):
    """One time per population row, from t = 0 to t = 1, whatever the
    stride; 7 divides neither step count, None samples the ends only."""
    proto = design_sta(1)
    for tr in (propagate_schrodinger(proto, 200, stride),
               propagate_lindblad(proto, None, 1000, stride)):
        assert len(tr.times) == len(tr.populations)
        assert tr.times[0] == 0 and tr.times[-1] == 1
        if stride is None:
            assert len(tr.times) == 2


def test_dissipators_are_diagonal_but_for_rho11s_feed():
    """Each dissipator piece is diagonal but for column 1, where rho11
    feeds rho00 (D1) and rho22 (D2)."""
    off_diagonal = dynamics._D * (1 - np.eye(6))
    assert np.argwhere(off_diagonal).tolist() == [[0, 0, 1], [1, 2, 1]]


@pytest.mark.parametrize("n", BATCHES)
@pytest.mark.parametrize("proto", [design_sta(1), design_sta(3),
                                   design_stirap(50)],
                         ids=["sta-m1", "sta-m3", "stirap-50"])
def test_lindblad_dropped_coordinates_are_zero(proto, n):
    rhos = evolve_lindblad(proto, mixed_rates(n), 1000, stride=50)
    assert rhos[..., 0, 1].imag.any() and rhos[..., 0, 2].real.any()
    for i, j in [(0, 1), (1, 0), (1, 2), (2, 1)]:
        assert not rhos[..., i, j].real.any()
    assert not rhos[..., 0, 2].imag.any() and not rhos[..., 2, 0].imag.any()


class TestLindbladMarches:
    """The Lindblad kernel's checks hold for a single run and a batch."""

    @pytest.mark.parametrize("n", BATCHES)
    def test_step_guards(self, reference_pulses, n):
        with pytest.raises(StepTooCoarse, match="rotates"):
            evolve_lindblad(design_stirap(1e5), mixed_rates(n), steps=1000)
        with pytest.raises(StepTooCoarse, match="Gamma"):
            evolve_lindblad(reference_pulses,
                            [LindbladRates(gamma1=3000)] * n, steps=1000)

    @pytest.mark.parametrize("n", BATCHES)
    def test_non_finite_raises(self, reference_pulses, monkeypatch, n):
        # a coherent generator far out of range: the step guards read only
        # the drive, so the states overflow
        monkeypatch.setattr(dynamics, "_K1", 1e300 * dynamics._K1)
        with pytest.raises(ValueError, match="propagation produced "
                                             "non-finite"):
            evolve_lindblad(reference_pulses, mixed_rates(n), steps=1000)


def traced_peak(run):
    """The tracemalloc peak, in bytes, of one call of `run`."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [1, 4])
# end only, the `lindblad` command's stride, an odd stride (the product
# tree folds each odd round's last operator into its last pair), the
# stride that holds the most and every step sampled
@pytest.mark.parametrize("stride", [None, 10, 7, 2, 1])
@pytest.mark.parametrize("kernel", ["schrodinger", "lindblad"])
def test_block_holds_its_step_bytes(monkeypatch, kernel, stride, n):
    """A block holds about BLOCK_BYTES: a one-block run grows by no more
    than the bytes its kernel counts per step and run (_STEP_BYTES, or
    _RK4_STEP_BYTES for propagators), but for a few fixed-size objects."""
    monkeypatch.setattr(dynamics, "BLOCK_BYTES", 2 ** 40)  # one block
    pulses = design_sta(1)
    if kernel == "schrodinger":
        step_bytes = dynamics._STEP_BYTES

        def run(steps):
            evolve_schrodinger(pulses, 1.0, steps, np.ones(n),
                               stride=stride)
    else:
        step_bytes = dynamics._RK4_STEP_BYTES

        def run(steps):
            evolve_lindblad(pulses, mixed_rates(n), steps, stride)
    run(1000)  # warm up numpy's caches
    lo, hi = (traced_peak(lambda: run(steps)) for steps in (1000, 2000))
    assert hi - lo <= 1000 * n * step_bytes + 1024


def test_population_csv_format(tmp_path):
    paths = [tmp_path / run / "trajectory.csv" for run in ("a", "b")]
    for path in paths:
        assert main(["--outdir", str(path.parent), "simulate", "--protocol",
                     "sta-ref", "--steps", "200"]) == 0
    lines = paths[0].read_text().splitlines()
    assert lines[0] == "t_over_T,P1,P2,P3"
    assert len(lines) == 200 + 2
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    assert float(lines[-1].split(",")[0]) == 1.0

    # byte-identical on rerun
    assert paths[0].read_bytes() == paths[1].read_bytes()
