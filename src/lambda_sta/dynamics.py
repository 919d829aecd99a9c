"""Time propagation for pulse-driven three-level dynamics.

Each equation has one time-stepping kernel, `evolve_schrodinger` and
`evolve_lindblad`.  A kernel carries a batch axis over independent runs
(sweep points, map cells) and supplies only a block function: from the
states at a block's start it evaluates the drive and builds the per-step
operators of the whole block with array operations, composes them by
product trees or, on the Lindblad stage march, applies them step by step,
and returns the states at the ends of its stride chunks.  One march,
`_march`, walks the time axis for both: it cuts the blocks, carries the
states from each to the next, keeps the samples and checks them finite.
A block holds about BLOCK_BYTES of operators and their temporaries,
whatever the step count or batch size.  `propagate_schrodinger` and
`propagate_lindblad` are the single-run cases with sampling.

Pulses are duck-typed: the kernels read only `pulses.drive(t)`, the pair
(omega1(t), omega2(t)), so a protocol or a PulsePair drives them alike.

Closed systems take the fourth-order commutator-free Magnus step of
Blanes & Moan (2006, Appl. Numer. Math. 56): with H sampled at the two
Gauss-Legendre nodes t1,2 = t + (1/2 -+ sqrt(3)/6) dt of a step,

    U = exp(-i dt (a1 H(t1) + a2 H(t2))) exp(-i dt (a2 H(t1) + a1 H(t2))),

a1,2 = 1/4 -+ sqrt(3)/6, the right-hand factor acting first.  H =
omega1 G1 + omega2 G2, so each exponent is H' = o1 G1 + o2 G2 with o1, o2
mixed from the node amplitudes.  G1, G2 and G3 span su(2) ([G1, G2] =
i G3 and cyclic): in the frame psi' = D psi, D = diag(1, i, 1), -i H' is
real and antisymmetric, the generator of a rotation of R^3 about
(-o2, 0, o1) at the rate Omega = hypot(o1, o2), and the state, which
starts at |1>, stays a real unit vector.  So each exponent is the unit
quaternion

    (cos(Omega dt/2), sin(Omega dt/2)/Omega * (-o2, 0, o1)),

held as its Cayley-Klein pair (a, b) = (w - iz, y - ix), in which a
product takes four complex multiplications.  A step is the product of its
two quaternions, and a run's state is the first column of the rotation
of the product of its steps, mapped back by D^dagger.  The product is
associative, so a block's steps are composed without a loop over them:
by a pairwise product tree when only the run's end is sampled, and when
it is sampled every `stride` steps, by a tree within each stride chunk
and a prefix product over the chunks in log2(chunks) rounds (Hillis &
Steele 1986; Blelloch 1990).  Only the block results are chained in
Python.  The step angles are formed as Omega*dt, so there is no dt^2 or
Omega^2 term to leave floating-point range: a run gives the same
populations at any duration its drive can be evaluated at.  The
rotations are unitary to machine precision, so the norm drift doubles as
an integration diagnostic.  Open systems integrate the Lindblad master
equation with classic fixed-step RK4 on the vectorized density matrix,
in real coordinates of the Hermitian rho, where generators and
propagators are real matrices.  Of its nine coordinates (the diagonal
and the real and imaginary parts of the upper triangle) it steps six: the
diagonal, Im rho01, Re rho02 and Im rho12.  In the frame D, rho' = D rho
D^dagger starts real at |1><1| and stays real, since -i H' is real and
the jump operators are real up to a phase, so Re rho01, Im rho02 and
Re rho12 are zero at all times and no generator couples them to the
other six.  The generator is linear in the drive and in the rates,

    omega1 K1 + omega2 K2 + gamma1 D1 + gamma2 D2
                          + gamma_phi1 D3 + gamma_phi2 D4,

because each jump operator scales as sqrt(gamma); its six 6x6 pieces
are built once, at import, and a block's generators are one matrix
product of its drive samples (omega1, omega2, 1) with K1, K2 and the
weighted D pieces.  One block function applies the same RK4 step in one
of two ways, with the same drive samples and step checks:

- one-step propagators: RK4 is linear in the state, so each run's step
  is its 6x6 propagator, built from the generators at the step's start,
  midpoint and end, each scaled by dt first so that every product stays
  in range at any duration (three 6x6 products per step and run).  As
  the Schrodinger rotations are, the propagators of each stride chunk
  are composed by a pairwise product tree, and only the chunk products
  are applied to the states in Python;
- stage by stage: the states of the whole batch form one (6, batch)
  array X, and each of the four stages is one matrix product of the
  (6, 30) stack [omega1 K1 + omega2 K2 | D1 | D2 | D3 | D4], shared by
  the batch, with [X; gamma1 X; gamma2 X; gamma_phi1 X; gamma_phi2 X].

The stage march costs a fixed Python overhead per step but little per
run, the propagators the reverse, so `evolve_lindblad` marches stage by
stage from STAGE_MARCH_BATCH runs up.  On 2 vCPUs a single 10k-step run
takes 0.011 s on propagators (0.013 s sampled every 10 steps, as
`lindblad` writes it) and 0.28 s stage by stage; the 882 runs of both
21x21 decoherence maps at 2000 steps take 1.6 s and 0.40 s.  The two
ways agree to about 1e-14.

Both kernels refuse a step that rotates the state by more than
MAX_ROTATION rad (largest Omega*dt at the times where H is sampled), which
would give meaningless populations from the Magnus step and diverge under
RK4.  The Lindblad kernel also refuses a step whose Gamma*dt exceeds
MAX_ROTATION, Gamma = gamma1 + gamma2 + 2 gamma_phi1 + 2 gamma_phi2 being
a bound on the decay rate of every element of rho, where RK4 would
diverge too.  Both refuse a run whose states turn non-finite (a drive out
of floating-point range).
"""

import warnings
from dataclasses import astuple, dataclass
from typing import Callable, Optional

import numpy as np

from .protocol import G1, G2, InvalidParameters

EYE3 = np.eye(3, dtype=complex)


def _real_coordinates():
    """Unitary map from the row-major vec(rho) to the nine real
    coordinates of a Hermitian rho: its diagonal, then sqrt(2) Re and
    sqrt(2) Im of rho01, rho02 and rho12.  The Lindblad kernel drops rows
    3, 6 and 7 (Re rho01, Im rho02, Re rho12), which stay zero from
    |1><1|: D rho D^dagger stays real, D = diag(1, i, 1)."""
    t = np.zeros((9, 9), dtype=complex)
    t[[0, 1, 2], [0, 4, 8]] = 1
    for a, (i, j) in enumerate([(0, 1), (0, 2), (1, 2)]):
        t[3 + 2 * a, [3 * i + j, 3 * j + i]] = 2 ** -0.5
        t[4 + 2 * a, [3 * i + j, 3 * j + i]] = -1j * 2 ** -0.5, 1j * 2 ** -0.5
    return t


_TO_REAL = _real_coordinates()[[0, 1, 2, 4, 5, 8]]
_DIM = len(_TO_REAL)


def _real_superoperator(s):
    """A Hermiticity-preserving superoperator (or a stack of them) on
    vec(rho), restricted to the six real coordinates of _TO_REAL."""
    return (_TO_REAL @ s @ _TO_REAL.conj().T).real


# Propagator bytes built per block: bounds the kernels' working set.
BLOCK_BYTES = 2 ** 21
# Largest accepted Omega*dt, and Gamma*dt, per step.  RK4 turns unstable
# near Omega*dt = 1.4 rad and Gamma*dt = 2.785; the reproduction's runs
# stay below 0.1 rad and 7e-5 (fig5's dephasing corner).
MAX_ROTATION = 1.0
# Default step counts, and the least accepted.  At 1000 steps the
# fourth-order Magnus step puts fig3 and fig4 within 4e-12 of 16x finer
# runs; RK4 is less accurate and needs more steps.
SCHRODINGER_STEPS = 1000
LINDBLAD_STEPS = 10_000
MIN_SCHRODINGER_STEPS = 100
MIN_LINDBLAD_STEPS = 1000
# Least Lindblad batch stepped stage by stage.  The crossover, as medians
# of 11 interleaved 2000-step runs on 2 vCPUs (numpy 2.4.6, OpenBLAS), in
# two rounds: propagators 102.5/91.0 ms and stages 106.8/99.7 ms at 54
# runs, 110.4/109.1 and 109.6/105.2 ms at 56.  So fig5's 5x5 grids (50
# runs) take propagators and its 21x21 grids (882 runs) the stage march.
STAGE_MARCH_BATCH = 56
# Fourth-order commutator-free Magnus step: Gauss-Legendre nodes as
# fractions of a step, and the node weights of its two exponents, the
# first-acting one first.
_CF4_NODES = np.array([0.5 - 3 ** 0.5 / 6, 0.5 + 3 ** 0.5 / 6])
_CF4_MIX = np.array([[0.25 + 3 ** 0.5 / 6, 0.25 - 3 ** 0.5 / 6],
                     [0.25 - 3 ** 0.5 / 6, 0.25 + 3 ** 0.5 / 6]])
# Bytes a Schrodinger block holds per step and run: the drive samples, the
# step rotations and their temporaries.
_STEP_BYTES = 288
# Bytes a Lindblad propagator block holds per step and run: the generators
# at two half steps, the propagators and their two scratch buffers, and
# the product tree's temporaries.  Tracemalloc peaks of one-block runs of
# 1-16 runs grow by 1659-1785 B a step and run (end only to stride 10),
# six times the 288 B of one 6x6 propagator.
_RK4_STEP_BYTES = 1728
# The identity rotation as a Cayley-Klein pair, shape (2, 1, 1).
_IDENTITY = np.array([1.0, 0j])[:, None, None]


class InvalidSteps(InvalidParameters):
    pass


class InvalidRates(InvalidParameters):
    pass


class StepTooCoarse(ValueError):
    """A step rotates the state by more than MAX_ROTATION rad."""


@dataclass(frozen=True)
class PulsePair:
    """A pair of drive schedules t -> (omega1, omega2), such as two
    fitted Gaussian sums; a protocol drives the kernels without one."""

    omega1: Callable
    omega2: Callable

    def drive(self, t):
        return self.omega1(t), self.omega2(t)


@dataclass(frozen=True)
class LindbladRates:
    """Downward relaxation (2->1, 2->3) and dephasing (2-1, 2-3) rates."""

    gamma1: float = 0.0
    gamma2: float = 0.0
    gamma_phi1: float = 0.0
    gamma_phi2: float = 0.0

    def __post_init__(self):
        if not all(r >= 0 for r in (self.gamma1, self.gamma2,
                                    self.gamma_phi1, self.gamma_phi2)):
            raise InvalidRates(f"rates must be non-negative: {self}")


def lindblad_operators(rates):
    """The four jump operators for the relaxation/dephasing model."""
    l1 = np.zeros((3, 3), dtype=complex)
    l1[0, 1] = np.sqrt(rates.gamma1)
    l2 = np.zeros((3, 3), dtype=complex)
    l2[2, 1] = np.sqrt(rates.gamma2)
    l3 = np.sqrt(rates.gamma_phi1) * np.diag([-1, 1, 0]).astype(complex)
    l4 = np.sqrt(rates.gamma_phi2) * np.diag([0, 1, -1]).astype(complex)
    return l1, l2, l3, l4


# The Lindblad generator in the six real coordinates of _TO_REAL (on
# vec(rho): vec(A rho B) = (A kron B^T) vec(rho)), cut from its nine-
# coordinate form, whose rows and columns for Re rho01, Im rho02 and Re
# rho12 couple to nothing else.  Coherent part, i[rho, H] = omega1 _K1 +
# omega2 _K2 (G1, G2 are real symmetric); jump part at unit rates, one 6x6
# piece per LindbladRates field, in field order (the unit jump operators L
# are real, and L^T L is diagonal).
_K1 = _real_superoperator(1j * (np.kron(EYE3, G1) - np.kron(G1, EYE3)))
_K2 = _real_superoperator(1j * (np.kron(EYE3, G2) - np.kron(G2, EYE3)))
_D = _real_superoperator(np.array([
    np.kron(l, l) - 0.5 * (np.kron(l.T @ l, EYE3) + np.kron(EYE3, l.T @ l))
    for l in lindblad_operators(LindbladRates(1, 1, 1, 1))]))
# Gamma = _DECAY . rates bounds the decay rate of every element of rho.
_DECAY = np.array([1.0, 1.0, 2.0, 2.0])


@dataclass
class Trajectory:
    """Time-ordered population samples, plus the final density matrix of
    an open-system run."""

    times: np.ndarray
    populations: np.ndarray  # shape (n, 3)
    duration: float
    steps: int
    final_density: Optional[np.ndarray] = None

    @property
    def final_populations(self):
        return self.populations[-1]


def _drive(pulses, t, scale1=1.0, scale2=1.0):
    """Scaled drive amplitudes at the times t (any shape), checked finite."""
    o1, o2 = pulses.drive(t)
    o1 = np.broadcast_to(scale1 * np.asarray(o1, dtype=float), t.shape)
    o2 = np.broadcast_to(scale2 * np.asarray(o2, dtype=float), t.shape)
    if not (np.all(np.isfinite(o1)) and np.all(np.isfinite(o2))):
        raise ValueError("pulse evaluation produced non-finite values")
    return o1, o2


def _check_step(angle, effect="rotates the state by {:.3g} rad"):
    """Raise StepTooCoarse when some per-step rate*dt (by default
    Omega*dt, as `effect` words it) exceeds MAX_ROTATION."""
    worst = float(np.max(angle, initial=0.0))
    if worst > MAX_ROTATION:
        raise StepTooCoarse(f"a step {effect.format(worst)} (limit "
                            f"{MAX_ROTATION:g}); use more steps")


def step_rotation(x1, x2):
    """exp(-i (x1 G1 + x2 G2)), x1, x2 being o1*dt, o2*dt, in the frame
    D = diag(1, i, 1): the rotation by hypot(x1, x2) about (-x2, 0, x1), as
    the Cayley-Klein pair (a, b) of its unit quaternion; elementwise over
    the broadcast shape of x1 and x2, pair first: shape (2, ...)."""
    half = 0.5 * np.sqrt(x1 * x1 + x2 * x2)
    # sin(half)/(2 half), 1/2 in the limit half = 0
    s = np.divide(np.sin(half), 2 * half, out=np.full(np.shape(half), 0.5),
                  where=half > 0)
    q = np.zeros((2, *half.shape), dtype=complex)
    q.real[0] = np.cos(half)
    q.imag[0] = -s * x1
    q.imag[1] = s * x2
    return q


def _qmul(p, q):
    """Quaternion products p q of Cayley-Klein pairs, pair first; the
    rotation of q acts first."""
    (a1, b1), (a2, b2) = p, q
    return np.array([a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2])


def _chunk_ends(k0, k1, stride):
    """End steps of the chunks of `stride` steps, the last one possibly
    shorter, that make up steps k0..k1-1."""
    return np.append(np.arange(k0 + stride, k1, stride), k1)


def _chunk_products(q, mul, eye, axis, k0, k1, stride):
    """Compose the operators of steps k0..k1-1, stacked in acting order
    along `axis` of q (a fixed number per step), over each chunk of
    `stride` steps (the block's last chunk may be shorter): pairwise
    products mul(later, earlier) in log2(chunk) rounds, the last chunk
    padded with the identities `eye`.  Returns the chunk products, the
    chunk axis in place of `axis`; _chunk_ends gives their end steps."""
    size = min(stride, k1 - k0) * q.shape[axis] // (k1 - k0)
    pad = -q.shape[axis] % size
    if pad:
        q = np.concatenate((q, np.broadcast_to(
            eye, (*q.shape[:axis], pad, *q.shape[axis + 1:]))), axis)
    q = q.reshape(*q.shape[:axis], q.shape[axis] // size, size,
                  *q.shape[axis + 1:])
    at = (slice(None),) * (axis + 1)  # index prefix of the in-chunk axis
    while q.shape[axis + 1] > 1:
        pairs = mul(q[at + (np.s_[1::2],)], q[at + (np.s_[:-1:2],)])
        q = pairs if q.shape[axis + 1] % 2 == 0 else np.concatenate(
            (pairs, q[at + (np.s_[-1:],)]), axis + 1)
    return q[at + (0,)]


def _prefix(q):
    """Inclusive prefix products q[:, j] ... q[:, 0] along axis 1, in
    log2(n) rounds of products (Hillis & Steele)."""
    shift = 1
    while shift < q.shape[1]:
        q = np.concatenate((q[:, :shift], _qmul(q[:, shift:], q[:, :-shift])),
                           axis=1)
        shift *= 2
    return q


def _sample_steps(steps, stride):
    """Step counts after which a run is sampled: 0, stride, 2*stride, ...
    and the last step."""
    return np.unique(np.append(np.arange(0, steps + 1, stride), steps))


def _edges(steps, stride, per_block):
    """Edges of blocks of at most per_block steps that hold whole stride
    chunks or, when a chunk is longer, are cut at every sample too."""
    length = per_block // stride * stride
    if length:
        return np.append(np.arange(0, steps, length), steps)
    return np.union1d(np.arange(0, steps, per_block),
                      _sample_steps(steps, stride))


def _march(block, state, steps, stride, per_block):
    """Step a batch of states through `steps` steps in blocks of at most
    per_block steps, cut by _edges so that every sample ends a stride
    chunk: the one loop over time of both kernels.

    `block(k0, k1, x)` takes the states x after step k0 and returns the
    end steps of its stride chunks and the states after each, stacked on
    a leading axis; the next block starts from the last of them, sampled
    or not.  Returns the states after each sampled step, stacked on a new
    leading axis; raises ValueError when any is non-finite.
    """
    edges = _edges(steps, stride, per_block).tolist()
    out = [state[None]]
    # an overflow fails a step check or shows as non-finite states
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in zip(edges[:-1], edges[1:]):
            ends, xs = block(k0, k1, state)
            out.append(xs[(ends % stride == 0) | (ends == steps)])
            state = xs[-1]
    out = np.concatenate(out)
    if not np.all(np.isfinite(out)):
        raise ValueError("propagation produced non-finite values (drive "
                         "out of floating-point range)")
    return out


def evolve_schrodinger(pulses, horizon=1.0, steps=SCHRODINGER_STEPS,
                       scale1=1.0, scale2=1.0, stride=None):
    """Batched fourth-order Magnus propagation of the Schrodinger equation.

    `horizon`, `scale1` and `scale2` broadcast to one batch axis: run b
    integrates the pulses scaled by (scale1[b], scale2[b]) over
    [0, horizon[b]] in `steps` steps on its own time grid.  Every run
    starts from |1>.  Returns the states after steps 0, stride, 2*stride,
    ... and `steps`, shape (batch, samples, 3); the default stride samples
    the start and the end only.
    """
    if steps < MIN_SCHRODINGER_STEPS:
        raise InvalidSteps(f"need at least {MIN_SCHRODINGER_STEPS} steps, "
                           f"got {steps}")
    horizon, scale1, scale2 = np.broadcast_arrays(
        np.atleast_1d(np.asarray(horizon, dtype=float)), scale1, scale2)
    dt = horizon / steps
    batch = len(dt)
    stride = min(stride or steps, steps)

    def block(k0, k1, x):
        # drive at the two nodes of each step, times dt: rotation angles,
        # shape (steps, 2, batch), kept in range at any duration
        t = (np.arange(k0, k1)[:, None, None] + _CF4_NODES[:, None]) * dt
        x1, x2 = (o * dt for o in _drive(pulses, t, scale1, scale2))
        _check_step(np.sqrt(x1 * x1 + x2 * x2))
        # the two exponents of each step in acting order: (2, 2n, batch)
        q = step_rotation(_CF4_MIX @ x1, _CF4_MIX @ x2).reshape(
            2, 2 * (k1 - k0), batch)
        # compose each stride chunk, then the prefixes of the chunks
        q = _chunk_products(q, _qmul, _IDENTITY, 1, k0, k1, stride)
        return (_chunk_ends(k0, k1, stride),
                _qmul(_prefix(q), x[:, None]).swapaxes(0, 1))

    a, b = _march(block, _IDENTITY[:, 0].repeat(batch, 1), steps, stride,
                  max(1, BLOCK_BYTES // (max(batch, 1) * _STEP_BYTES))
                  ).transpose(1, 2, 0)
    # the first column of the rotation, back from the D frame
    aa, bb = a * a, b * b
    return np.stack(((aa - bb).real, 1j * (aa + bb).imag,
                     -2 * (a * b).real), axis=-1)


def propagate_schrodinger(pulses, horizon=1.0, steps=SCHRODINGER_STEPS,
                          stride=1):
    """Propagate the Schrodinger equation under a pulse pair from |1>.

    Samples populations every `stride` steps (plus t=0 and t=horizon).
    """
    states = evolve_schrodinger(pulses, horizon, steps, stride=stride)[0]
    return Trajectory(times=_sample_steps(steps, stride) * (horizon / steps),
                      populations=np.abs(states) ** 2, duration=horizon,
                      steps=steps)


def _rk4_propagators(gen, work):
    """One-step RK4 propagators from generators on the half-step grid,
    built in work[0] with work[1], work[2] as scratch.

    gen[2k], gen[2k+1] and gen[2k+2] are dt times the generators at the
    start, midpoint and end of step k.  With those A, B, C the classic
    stages are k_i = q_i r / dt, so r' = P r with P = I + (A + 2 q2 + 2 q3
    + q4)/6 and q2 = B + B A/2, q3 = B + B q2/2, q4 = C + C q3.  Scaling
    first keeps every product of order 1 where dt*Omega is, whatever the
    duration.
    """
    a, b, c = gen[:-1:2], gen[1::2], gen[2::2]
    acc, q, r = work
    np.matmul(b, a, out=q)
    q *= 0.5
    q += b  # q2
    np.multiply(q, 2, out=acc)
    acc += a
    np.matmul(b, q, out=r)
    r *= 0.5
    r += b  # q3
    acc += np.multiply(r, 2, out=q)
    np.matmul(c, r, out=q)
    acc += np.add(c, q, out=q)  # q4
    acc /= 6
    acc += np.eye(gen.shape[-1])
    return acc


def _rk4_stages(gen, x, weights, dt):
    """One classic RK4 step of a batch of states x, shape (6, batch), in
    the six real coordinates of _TO_REAL (Re rho01, Im rho02 and Re rho12
    stay zero and are not stepped).

    gen[0], gen[1] and gen[2] are the stacked generators [K | D1 .. D4]
    (6, 30) at the step's start, midpoint and end.  Each stage applies one
    of them to [y; gamma1 y; ..; gamma4 y], the stage state y times
    `weights` (5, 6, batch) stacked to (30, batch), as one matrix product.
    `weights` is kept at its full shape: broadcasting a (5, 1, batch)
    array over y makes the march about three times slower.
    """
    def rate(g, y):
        return g @ (weights * y).reshape(-1, y.shape[1])

    k = rate(gen[0], x)
    out = x + (dt / 6) * k
    k = rate(gen[1], x + (dt / 2) * k)
    out += (dt / 3) * k
    k = rate(gen[1], x + (dt / 2) * k)
    out += (dt / 3) * k
    out += (dt / 6) * rate(gen[2], x + dt * k)
    return out


def evolve_lindblad(pulses, rates, horizon=1.0, steps=LINDBLAD_STEPS,
                    stride=None):
    """Batched RK4 integration of the Lindblad master equation.

    Run b uses the jump operators of rates[b]; all runs share the pulses,
    the time grid and the start |1><1|.  The coherent part uses
    the convention rho_dot = i[rho, H].  Returns the density matrices after
    steps 0, stride, 2*stride, ... and `steps`, shape (batch, samples, 3, 3);
    the default stride samples the start and the end only.  A batch of at
    least STAGE_MARCH_BATCH runs is stepped stage by stage, a smaller one
    by one-step propagators.
    """
    if steps < MIN_LINDBLAD_STEPS:
        raise InvalidSteps(f"need at least {MIN_LINDBLAD_STEPS} steps, "
                           f"got {steps}")
    gammas = np.array([astuple(r) for r in rates], dtype=float).reshape(-1, 4)
    dt = horizon / steps
    stride = min(stride or steps, steps)
    with np.errstate(over="ignore"):  # an infinite Gamma fails the check
        _check_step(gammas @ _DECAY * dt, "has Gamma*dt = {:.3g}")
    batch = len(gammas)
    stages = batch >= STAGE_MARCH_BATCH
    # A block's generators, built into `gens`, are the drive (scale omega1,
    # scale omega2, 1) at each half step times the rows of `basis`.
    if stages:
        # states (6, batch); per step, the stacked generators [K | D1 .. D4]
        # at its start, midpoint and end
        weights = np.repeat(np.vstack((np.ones(batch), gammas.T))[:, None],
                            _DIM, axis=1)
        start = np.zeros((_DIM, batch))
        start[0] = 1  # |1><1| in real coordinates: the first diagonal entry
        basis = np.zeros((3, _DIM, 5 * _DIM))
        basis[0, :, :_DIM], basis[1, :, :_DIM], basis[2, :, _DIM:] = (
            _K1, _K2, np.hstack(_D))
        scale = 1.0
        per_block = max(1, BLOCK_BYTES // (2 * basis[0].nbytes))
    else:
        # states (batch, 6, 1); per stride chunk, the (batch, 6, 6) product
        # of its steps' propagators, built in `props` from the generators
        # times dt
        start = np.broadcast_to(np.eye(_DIM)[0], (batch, _DIM))[..., None]
        diss = dt * np.tensordot(gammas, _D, 1)
        basis = np.stack((np.broadcast_to(_K1, diss.shape),
                          np.broadcast_to(_K2, diss.shape), diss))
        scale = dt
        per_block = max(1, BLOCK_BYTES // (max(batch, 1) * _RK4_STEP_BYTES))
        props = np.empty((3, min(per_block, steps), batch, _DIM, _DIM))
    # fresh multi-megabyte arrays in every block would page-fault each time
    gens = np.empty((2 * min(per_block, steps) + 1, basis[0].size))

    def block(k0, k1, x):
        t = np.arange(2 * k0, 2 * k1 + 1) * (dt / 2)
        o1, o2 = _drive(pulses, t)
        _check_step(np.hypot(o1, o2) * dt)
        gen = np.matmul(np.column_stack((scale * o1, scale * o2,
                                         np.ones_like(t))),
                        basis.reshape(3, -1), out=gens[:len(t)]
                        ).reshape(len(t), *basis.shape[1:])
        ends = _chunk_ends(k0, k1, stride)
        if not stages:
            ops = _chunk_products(
                _rk4_propagators(gen, props[:, :k1 - k0]), np.matmul,
                np.eye(_DIM), 0, k0, k1, stride)
        xs = np.empty((len(ends), *x.shape))
        for j, (k, end) in enumerate(zip([k0, *ends[:-1]], ends)):
            if stages:  # gen[i:i + 3] drives step k0 + i // 2 + 1
                for i in range(2 * (k - k0), 2 * (end - k0), 2):
                    x = _rk4_stages(gen[i:i + 3], x, weights, dt)
            else:
                x = ops[j] @ x
            xs[j] = x
        return ends, xs

    out = _march(block, start, steps, stride, per_block)
    out = out.transpose(2, 0, 1) if stages else out[..., 0].swapaxes(0, 1)
    return (out @ _TO_REAL.conj()).reshape(*out.shape[:2], 3, 3)


def propagate_lindblad(pulses, rates=None, horizon=1.0, steps=LINDBLAD_STEPS,
                       stride=1):
    """Integrate the Lindblad master equation from |1><1| with fixed-step
    RK4.

    Samples populations every `stride` steps (plus t=0 and t=horizon).
    """
    rhos = evolve_lindblad(pulses, [rates or LindbladRates()], horizon, steps,
                           stride)[0]
    rho = rhos[-1]
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -1e-7:
        warnings.warn(f"final density matrix slightly non-PSD "
                      f"(min eigenvalue {min_eig:.2e})", RuntimeWarning)
    return Trajectory(times=_sample_steps(steps, stride) * (horizon / steps),
                      populations=rhos.diagonal(axis1=1, axis2=2).real.copy(),
                      duration=horizon, steps=steps, final_density=rho)
