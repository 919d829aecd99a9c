"""Time propagation for pulse-driven three-level dynamics.

Each equation has one time-stepping kernel, `evolve_schrodinger` and
`evolve_lindblad`.  A kernel carries a batch axis over independent runs
(sweep points, map cells) and supplies only a block function: from the
states at a block's start it evaluates the drive and builds the per-step
operators of the whole block with array operations, composes them with
`_compose` and returns the states at the ends of its chunks.  One march,
`_march`, walks the time axis for both: it cuts the blocks, each of whole
sampling chunks of one length or of one piece of a longer chunk, carries
the states from each to the next, keeps the samples and checks them
finite.
A block holds about BLOCK_BYTES of operators and their temporaries,
whatever the step count or batch size.  `propagate_schrodinger` and
`propagate_lindblad` are the single-run cases with sampling.

Pulses are duck-typed: the kernels read only `pulses.drive(t)`, the pair
(omega1(t), omega2(t)), so a protocol or a PulsePair drives them alike.
Time is in units of the interaction time T and rates in units of 1/T.
The runs of a batch share one time grid over one horizon, [0, 1] but
where a drive reparametrises time: the timing-error sweep is one run of
`evolve_schrodinger` over a horizon counted in steps, its drive rescaled
to the step count (see `analysis.timing_error_sweep`).

Both kernels step in one frame.  G1, G2 and G3 span su(2) ([G1, G2] =
i G3 and cyclic), and in the frame D = diag(1, i, 1), d = (1, i, 1),
-i D (omega1 G1 + omega2 G2) D^dagger is real and antisymmetric: the
generator of a rotation of R^3 about (-omega2, 0, omega1) at the rate
Omega = hypot(omega1, omega2).  The jump operators are real, and D
changes them only by a phase, which leaves the dissipator as it is.  So
the state psi' = D psi, from |1>, stays a real unit vector, and the
density matrix rho' = D rho D^dagger, from |1><1|, stays real and
symmetric.  The Schrodinger kernel steps psi', the Lindblad kernel the
six entries (00, 11, 22, 01, 02, 12) of rho' on and above its diagonal,
and both map back by D^dagger: psi = conj(d) psi' and rho = rho' conj(d)
d^T elementwise.

Closed systems take the sixth-order Magnus step of Blanes, Casas & Ros
(2000, BIT 40), one exponential a step.  With A_j = -i dt H(t_j) at the
three Gauss-Legendre nodes t_j = t + (1/2 + (j - 2) sqrt(15)/10) dt of a
step, alpha1 = A_2, alpha2 = sqrt(15)/3 (A_3 - A_1) and alpha3 = 10/3
(A_3 - 2 A_2 + A_1), C1 = [alpha1, alpha2] and C2 = -[alpha1, 2 alpha3 +
C1]/60, the step is

    U = exp(alpha1 + alpha3/12 + [-20 alpha1 - alpha3 + C1, alpha2 + C2]/240).

-i a.G, a = (a1, a2, a3), maps su(2) onto 3-vectors, and [-i a.G, -i b.G]
= -i (a x b).G, so the exponent is -i r.G for a 3-vector r made by cross
products; as H = omega1 G1 + omega2 G2, the alphas lie in the G1-G2 plane
and C1 along G3, and the kernel writes the products out by components.
With alpha_k = (xk, yk, 0), c = x1 y2 - y1 x2, e = (y1 x3 - x1 y3)/30,
ux = -20 x1 - x3 and uy = -20 y1 - y3, C1 = (0, 0, c), C2 = (-y1 c/60,
x1 c/60, e), and a run that scales the pulses by (s1, s2) scales x by s1
and y by s2.  So each term of r takes a monomial of the scales:

    r1 = s1 (x1 + x3/12) + s1 s2^2 (uy e - c y2)/240
         - s1^3 s2^2 x1 c^2/14400
    r2 = s2 (y1 + y3/12) + s1^2 s2 (c x2 - ux e)/240
         - s1^2 s2^3 y1 c^2/14400
    r3 = s1 s2 (ux y2 - uy x2)/240 + s1^3 s2 ux x1 c/14400
         + s1 s2^3 uy y1 c/14400,

in x, y, c, e, ux and uy of the unscaled drive.  The kernel evaluates the
drive and builds these once per block on the time grid all runs share,
and each run adds its monomials: five products and sums per component,
step and run.
In the frame U is the rotation by |r| about (-r2, -r3, r1): the unit
quaternion

    (cos(|r|/2), sin(|r|/2)/|r| * (-r2, -r3, r1)),

held as its Cayley-Klein pair (a, b) = (w - iz, y - ix), in which a
product takes four complex multiplications.  A run's psi' is the first
column of the rotation of the product of its steps.  The product is
associative, so `_compose` composes a block's steps without a loop over
them: by a pairwise product tree when only the run's end is sampled, and
when it is sampled every `stride` steps, by a tree within each stride
chunk and a prefix product over the chunks in log2(chunks) rounds (Hillis
& Steele 1986; Blelloch 1990).  The block applies the products to its
start states, and only the block results are chained in Python.  The
rotations are unitary to machine precision, so the norm drift doubles as
an integration diagnostic.  Two step counts are the defaults: the sweeps
and curves, which keep a few samples of each run, take 500 steps (the
timing sweep steps of at most 1/500), where fig3 and fig4 agree with 8x
finer runs to 7e-14; runs sampled at every step take 1000, one a row of
the 1001 of a trajectory CSV, where fig2 agrees to 3e-14.

Open systems integrate the Lindblad master equation with classic
fixed-step RK4 on the six entries of rho', where generators and
propagators are real 6x6 matrices.  The generator is linear in the drive
and in the rates,

    omega1 K1 + omega2 K2 + gamma1 D1 + gamma2 D2
                          + gamma_phi1 D3 + gamma_phi2 D4,

because each jump operator scales as sqrt(gamma); its six 6x6 pieces
are built once, at import, and the factors a block's propagators are
built from are matrix products of its drive samples with bases made once
per call from K1, K2 and the weighted D pieces.  The drive is sampled,
and its Omega*dt checked, once per window of half steps of about
BLOCK_BYTES that holds whole blocks: once a run at the CLI's step counts.
RK4 is linear in the state, so each run's step is its 6x6
propagator P.  With A, B and C dt times the generators at the step's
start, midpoint and end, U = I + A/2 and U' = I + C/2, which neighbouring
steps share, w = (B/2) U and y = (B/2)(I + w),

    P = I + ((A + C)/2 + 2 w + 2 U' y)/3,

three 6x6 products per step and run, the identity added last.  The
propagators are composed as the Schrodinger rotations are, by the same
`_compose`: a tree within each stride chunk and a prefix product over the
chunks, applied to the block's start states.  The cost grows with the
batch: on 2 vCPUs (numpy 2.4.6) a single 10k-step run takes 0.005-0.006 s,
the 50 runs of both 5x5 decoherence maps at 2000 steps 0.031-0.036 s and
882 such runs 0.76-0.82 s.

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
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .protocol import G1, G2, InvalidParameters

# The frame D = diag(d) of both kernels.
_FRAME = np.array([1, 1j, 1])
# The six entries (00, 11, 22, 01, 02, 12) of the real symmetric rho' in
# its row-major vec: _UPPER reads them off, and the 0/1 map _SPREAD, shape
# (9, 6), puts each back above and below the diagonal.
_UPPER = [0, 4, 8, 1, 2, 5]
_SPREAD = np.zeros((9, 6))
_SPREAD[_UPPER, range(6)] = _SPREAD[[0, 4, 8, 3, 6, 7], range(6)] = 1
_DIM = len(_UPPER)


# Propagator bytes built per block: bounds the kernels' working set.
BLOCK_BYTES = 2 ** 21
# Largest accepted Omega*dt, and Gamma*dt, per step.  RK4 turns unstable
# near Omega*dt = 1.4 rad and Gamma*dt = 2.785; the reproduction's runs
# stay below 0.1 rad and 7e-5 (fig5's dephasing corner).
MAX_ROTATION = 1.0
# Default step counts, and the least accepted.  Runs sampled at their end
# only take SCHRODINGER_END_STEPS, runs sampled at every step
# SCHRODINGER_STEPS (see the module docstring); RK4 is less accurate and
# needs more steps.
SCHRODINGER_STEPS = 1000
SCHRODINGER_END_STEPS = 500
LINDBLAD_STEPS = 10_000
MIN_SCHRODINGER_STEPS = 100
MIN_LINDBLAD_STEPS = 1000
# Sixth-order Magnus step: the Gauss-Legendre nodes as fractions of a
# step, and the rows that mix the drive at the nodes into alpha1, alpha2
# and alpha3.
_NODES = 0.5 + np.array([-1, 0, 1]) * 15 ** 0.5 / 10
_MIX = np.array([[0, 1, 0],
                 [-15 ** 0.5 / 3, 0, 15 ** 0.5 / 3],
                 [10 / 3, -20 / 3, 10 / 3]])
# Bytes a Schrodinger block holds per step and run: the drive samples, the
# Magnus exponents, the step rotations and their temporaries.  Tracemalloc
# peaks of one-block runs of 1-16 runs grow by 98-256 B a step and run (the
# least at 16 runs, which share the drive samples and exponent terms),
# within the constant; lowering it would cut the blocks elsewhere and move
# every sweep's roundoff.
_STEP_BYTES = 304
# Bytes a Lindblad propagator block holds per step and run: the factors U
# and B/2, the propagators and their two scratch buffers, the temporaries
# of the product tree and the prefix scan, and the drive samples.
# Tracemalloc peaks of one-block runs of 1-16 runs grow by 1331-1536 B a
# step and run (strides from 1 step to end only; the most at stride 2), up
# to 5.3 times the 288 B of one 6x6 propagator.
_RK4_STEP_BYTES = 1540


class StepTooCoarse(ValueError):
    """A step count too small: a step's Omega*dt or Gamma*dt exceeds
    MAX_ROTATION.  A computation failure, whose remedy is more steps."""


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
            raise InvalidParameters(f"rates must be non-negative: {self}")


def lindblad_operators(rates):
    """The four jump operators for the relaxation/dephasing model."""
    l1 = np.zeros((3, 3), dtype=complex)
    l1[0, 1] = np.sqrt(rates.gamma1)
    l2 = np.zeros((3, 3), dtype=complex)
    l2[2, 1] = np.sqrt(rates.gamma2)
    l3 = np.sqrt(rates.gamma_phi1) * np.diag([-1, 1, 0]).astype(complex)
    l4 = np.sqrt(rates.gamma_phi2) * np.diag([0, 1, -1]).astype(complex)
    return l1, l2, l3, l4


def _six(s):
    """Superoperators on the row-major vec(rho') (vec(A rho' B) = (A kron
    B^T) vec(rho')), restricted to the six entries of rho'."""
    return s[..., _UPPER, :] @ _SPREAD


# The Lindblad generator on the six entries of rho'.  Coherent part,
# i[rho', D H D^dagger] = omega1 _K1 + omega2 _K2, is M rho' - rho' M with
# M = -i D G D^dagger real antisymmetric; jump part at unit rates, one 6x6
# piece per LindbladRates field, in field order, is the textbook form, as
# D L D^dagger is the real L up to a phase, which the dissipator drops.
_K1, _K2 = _six(np.array([
    np.kron(m, np.eye(3)) - np.kron(np.eye(3), m.T)
    for m in (-1j * np.outer(_FRAME, _FRAME.conj()) * [G1, G2]).real]))
_D = _six(np.array([
    np.kron(l, l) - 0.5 * (np.kron(l.T @ l, np.eye(3))
                           + np.kron(np.eye(3), l.T @ l))
    for l in np.real(lindblad_operators(LindbladRates(1, 1, 1, 1)))]))
# Gamma = _DECAY . rates bounds the decay rate of every element of rho.
_DECAY = np.array([1.0, 1.0, 2.0, 2.0])


@dataclass
class Trajectory:
    """Time-ordered population samples, plus the final density matrix of
    an open-system run."""

    times: np.ndarray
    populations: np.ndarray  # shape (n, 3)
    steps: int
    final_density: Optional[np.ndarray] = None

    @property
    def final_populations(self):
        return self.populations[-1]


def _drive(pulses, t):
    """Drive amplitudes at the times t (any shape), checked finite, in the
    shape of t."""
    o1, o2 = pulses.drive(t)
    o1 = np.broadcast_to(np.asarray(o1, dtype=float), t.shape)
    o2 = np.broadcast_to(np.asarray(o2, dtype=float), t.shape)
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


def step_rotation(x1, x2, x3):
    """exp(-i (x1 G1 + x2 G2 + x3 G3)) in the frame D = diag(1, i, 1): the
    rotation by |x| about (-x2, -x3, x1), as the Cayley-Klein pair (a, b)
    of its unit quaternion; elementwise over the broadcast shape of x1, x2
    and x3, pair first: shape (2, ...)."""
    half = 0.5 * np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    # sin(half)/(2 half), 1/2 in the limit half = 0
    s = np.divide(np.sin(half), 2 * half, out=np.full(np.shape(half), 0.5),
                  where=half > 0)
    q = np.empty((2, *half.shape), dtype=complex)
    q.real[0] = np.cos(half)
    q.imag[0] = -s * x1
    q.real[1] = -s * x3
    q.imag[1] = s * x2
    return q


def _qmul(p, q):
    """Quaternion products p q of Cayley-Klein pairs, pair first; the
    rotation of q acts first."""
    (a1, b1), (a2, b2) = p, q
    return np.array([a1 * a2 - b1.conj() * b2, b1 * a2 + a1.conj() * b2])


def _compose(q, mul, axis, size):
    """Compose operators stacked one a step, in acting order, along `axis`
    of q, whose length is a multiple of `size`: within each chunk of `size`
    steps by pairwise products mul(later, earlier) in log2(size) rounds, a
    round's odd operator folded into its last pair, then over the chunks by
    inclusive prefix products in log2(chunks) rounds (Hillis & Steele), in
    place, so q itself may be overwritten.  Returns the products of all
    steps up to each chunk's end, the chunk axis in place of `axis`."""
    q = q.reshape(*q.shape[:axis], q.shape[axis] // size, size,
                  *q.shape[axis + 1:])
    at = (slice(None),) * (axis + 1)  # index prefix of the in-chunk axis
    while q.shape[axis + 1] > 1:
        pairs = mul(q[at + (np.s_[1::2],)], q[at + (np.s_[:-1:2],)])
        if q.shape[axis + 1] % 2:
            pairs[at + (-1,)] = mul(q[at + (-1,)], pairs[at + (-1,)])
        q = pairs
    q, at = q[at + (0,)], at[1:]  # at: now the prefix of the chunk axis
    shift = 1
    while shift < q.shape[axis]:
        later, earlier = q[at + (np.s_[shift:],)], q[at + (np.s_[:-shift],)]
        later[...] = mul(later, earlier)
        shift *= 2
    return q


def _sample_steps(steps, stride):
    """Step counts after which a run is sampled: 0, stride, 2*stride, ...
    and the last step; stride None samples the start and the end only."""
    stride = min(stride or steps, steps)
    return np.unique(np.append(np.arange(0, steps + 1, stride), steps))


def _edges(steps, stride, per_block):
    """Edges of blocks of at most per_block steps that hold whole chunks of
    `stride` steps, the last, shorter chunk in a block of its own, or, when
    a chunk is longer than per_block, one piece of a chunk each."""
    length = per_block // stride * stride
    if length:
        whole = steps // stride * stride
        return np.union1d(np.arange(0, whole, length), [whole, steps])
    return np.union1d(np.arange(0, steps, per_block),
                      _sample_steps(steps, stride))


def _march(block, state, steps, stride, per_block):
    """Step a batch of states through `steps` steps, sampled after every
    `stride` of them (None: at the end only) and after the last, in blocks
    of at most per_block steps cut by _edges: the one loop over time of
    both kernels.

    `block(k0, k1, size, x)` takes the states x after step k0 and returns
    the states after steps k0 + size, k0 + 2 size, ..., k1, stacked on a
    leading axis: its steps are whole chunks of `size` steps, or one piece
    of a longer chunk.  The next block starts from the last of them,
    sampled or not.  Returns the states after each sampled step, stacked on
    a new leading axis; raises ValueError when any is non-finite.
    """
    stride = min(stride or steps, steps)
    edges = _edges(steps, stride, per_block).tolist()
    out = [state[None]]
    # an overflow fails a step check or shows as non-finite states
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in zip(edges[:-1], edges[1:]):
            xs = block(k0, k1, min(stride, k1 - k0), state)
            if k1 % stride == 0 or k1 == steps:  # else a piece of a chunk
                out.append(xs)
            state = xs[-1]
    out = np.concatenate(out)
    if not np.all(np.isfinite(out)):
        raise ValueError("propagation produced non-finite values (drive "
                         "out of floating-point range)")
    return out


def evolve_schrodinger(pulses, horizon=1.0, steps=SCHRODINGER_END_STEPS,
                       scale1=1.0, scale2=1.0, stride=None):
    """Batched sixth-order Magnus propagation of the Schrodinger equation.

    `scale1` and `scale2` broadcast to one batch axis: run b integrates
    the pulses scaled by (scale1[b], scale2[b]) over [0, horizon] in
    `steps` steps on the time grid all runs share.  Every run starts from
    |1>.  Returns the states after steps 0, stride, 2*stride, ... and
    `steps`, shape (batch, samples, 3); the default stride samples the
    start and the end only.  A non-finite scale raises InvalidParameters.
    """
    if steps < MIN_SCHRODINGER_STEPS:
        raise InvalidParameters(f"need at least {MIN_SCHRODINGER_STEPS} "
                                f"steps, got {steps}")
    scale1, scale2 = np.broadcast_arrays(np.atleast_1d(scale1), scale2)
    if not (np.all(np.isfinite(scale1)) and np.all(np.isfinite(scale2))):
        raise InvalidParameters("drive scales must be finite")
    batch = len(scale1)
    dt = float(horizon) / steps
    # the products of the scales the exponent's terms take
    s11, s22, s12 = scale1 * scale1, scale2 * scale2, scale1 * scale2
    top1, top2 = np.max(s11, initial=0.0), np.max(s22, initial=0.0)

    def block(k0, k1, size, x):
        # unscaled drive at the three nodes of each step, times dt: the G1
        # and G2 coordinates of the node generators, shape (2, 3, steps, 1)
        t = (np.arange(k0, k1)[:, None] + _NODES[:, None, None]) * dt
        gen = np.array(_drive(pulses, t))
        gen *= dt
        # the largest Omega*dt by one square root (sqrt is monotone), over
        # every sample and run only where the drives' peaks, at the largest
        # scales, bound it above the limit
        o1, o2 = gen
        peak1, peak2 = (max(o.max(initial=0.0), -o.min(initial=0.0))
                        for o in gen)
        if top1 * peak1 ** 2 + top2 * peak2 ** 2 > MAX_ROTATION ** 2:
            _check_step(np.sqrt(np.max(s11 * o1 * o1 + s22 * o2 * o2)))
        # alpha1, alpha2 and alpha3 lie in the G1-G2 plane, alpha_k = (xk,
        # yk, 0), so C1 is along G3: the Magnus exponent by components
        (x1, x2, x3), (y1, y2, y3) = (
            _MIX @ gen.reshape(2, 3, -1)).reshape(gen.shape)
        c = x1 * y2 - y1 * x2  # C1 = (0, 0, c)
        ux, uy = -20 * x1 - x3, -20 * y1 - y3  # u = (ux, uy, c)
        # C2 = (-y1 c/60, x1 c/60, e), its first two terms as k = c/14400
        # in (u x C2)/240
        e = (y1 * x3 - x1 * y3) / 30
        k = c / 14400
        # r = alpha1 + alpha3/12 + (u x (alpha2 + C2))/240, each of its
        # terms times the monomial of the scales it takes
        q = step_rotation(
            scale1 * (x1 + x3 / 12 + s22 * ((uy * e - c * y2) / 240
                                            - s11 * (x1 * c * k))),
            scale2 * (y1 + y3 / 12 + s11 * ((c * x2 - ux * e) / 240
                                            - s22 * (y1 * c * k))),
            s12 * ((ux * y2 - uy * x2) / 240 + s11 * (ux * x1 * k)
                   + s22 * (uy * y1 * k)))
        return _qmul(_compose(q, _qmul, 1, size), x[:, None]).swapaxes(0, 1)

    # from the identity rotation, the Cayley-Klein pair (1, 0)
    start = np.array([1.0, 0j])[:, None].repeat(batch, 1)
    a, b = _march(block, start, steps, stride,
                  max(1, BLOCK_BYTES // (max(batch, 1) * _STEP_BYTES))
                  ).transpose(1, 2, 0)
    # psi', the first column of the rotation, back from the frame
    aa, bb = a * a, b * b
    return np.stack(((aa - bb).real, -(aa + bb).imag, -2 * (a * b).real),
                    axis=-1) * _FRAME.conj()


def propagate_schrodinger(pulses, steps=SCHRODINGER_STEPS, stride=1):
    """Propagate the Schrodinger equation under a pulse pair from |1>.

    Samples populations every `stride` steps (plus t=0 and t=1;
    None: at t=0 and t=1 only).
    """
    states = evolve_schrodinger(pulses, 1.0, steps, stride=stride)[0]
    return Trajectory(times=_sample_steps(steps, stride) * (1.0 / steps),
                      populations=np.abs(states) ** 2, steps=steps)


def _rk4_propagators(c, ends, mids, work):
    """One-step RK4 propagators of the n = len(c) // 2 steps of a block,
    built in work[1] with the rest of `work`, shape (4, > n, ..., d, d),
    as scratch.

    With A, B and C dt times the generators at the start, midpoint and end
    of a step, the classic stages are k_i = q_i r / dt, so r' = P r with
    P = I + (A + 2 q2 + 2 q3 + q4)/6 and q2 = B + B A/2, q3 = B + B q2/2,
    q4 = C + C q3.  In U = I + A/2 and U' = I + C/2, which neighbouring
    steps share, and w = (B/2) U, y = (B/2)(I + w), this is

        P = I + ((A + C)/2 + 2 w + 2 U' y)/3 = I + 2 (w + U' y + (A + C)/4)/3,

    three products.  Each factor is linear in the drive: row c[i] weighs
    the (3, ..., d, d) basis `ends` into the U at half step i = 2k and
    `mids` into the B/2 at i = 2k + 1, and (c[2k] + c[2k + 2])/2 weighs
    `mids` into (A + C)/4.  The identity is added last, to terms of order
    dt*Omega, as in the textbook sum: summing U, with the identity in it,
    would round the dissipator the same way at every step.  Scaling by dt
    first keeps every product of order 1 where dt*Omega is.
    """
    n = len(c) // 2
    u, out, w, y = work[0, :n + 1], work[1, :n], work[2, :n], work[3, :n]

    def weigh(rows, basis, into):
        np.matmul(rows, basis.reshape(3, -1), out=into.reshape(len(rows), -1))
        return into

    weigh(c[::2], ends, u)
    weigh(c[1::2], mids, out)
    np.matmul(out, u[:-1], out=w)
    np.matmul(out, w, out=y)
    y += out
    np.matmul(u[1:], y, out=out)
    out += w
    out += weigh((c[:-2:2] + c[2::2]) / 2, mids, y)
    out *= 2 / 3
    d = out.shape[-1]
    out.reshape(-1, d * d)[:, ::d + 1] += 1
    return out


def evolve_lindblad(pulses, rates, steps=LINDBLAD_STEPS, stride=None):
    """Batched RK4 integration of the Lindblad master equation over [0, 1].

    Run b uses the jump operators of rates[b]; all runs share the pulses,
    the time grid and the start |1><1|.  The coherent part uses
    the convention rho_dot = i[rho, H].  Returns the density matrices after
    steps 0, stride, 2*stride, ... and `steps`, shape (batch, samples, 3, 3);
    the default stride samples the start and the end only.
    """
    if steps < MIN_LINDBLAD_STEPS:
        raise InvalidParameters(f"need at least {MIN_LINDBLAD_STEPS} steps, "
                                f"got {steps}")
    gammas = np.array([(r.gamma1, r.gamma2, r.gamma_phi1, r.gamma_phi2)
                       for r in rates], dtype=float).reshape(-1, 4)
    dt = 1.0 / steps
    with np.errstate(over="ignore"):  # an infinite Gamma fails the check
        _check_step(gammas @ _DECAY * dt, "has Gamma*dt = {:.3g}")
    batch = len(gammas)
    # states (batch, 6, 1); per stride chunk, the (batch, 6, 6) product of
    # its steps' propagators, whose factors U = I + A/2 and B/2
    # (_rk4_propagators) are the drive (dt omega1/2, dt omega2/2, 1) times
    # the rows of `end_basis` and `mid_basis`
    start = np.broadcast_to(np.eye(_DIM)[0], (batch, _DIM))[..., None]
    half = (dt / 2) * np.tensordot(gammas, _D, 1)  # each run's dissipator
    mid_basis = np.stack((np.broadcast_to(_K1, half.shape),
                          np.broadcast_to(_K2, half.shape), half))
    end_basis = mid_basis.copy()
    end_basis[2] += np.eye(_DIM)
    per_block = max(1, BLOCK_BYTES // (max(batch, 1) * _RK4_STEP_BYTES))
    # fresh multi-megabyte arrays in every block would page-fault
    work = np.empty((4, min(per_block, steps) + 1, batch, _DIM, _DIM))
    # The drive is sampled at the half steps of a window of whole blocks,
    # 72 B a sample with its time grid and temporaries (StaProtocol's
    # tracemalloc peak), so a window of BLOCK_BYTES holds 14k steps.
    window = max(BLOCK_BYTES // 72, 2 * per_block + 1)
    w0, drive = 0, np.empty((2, 0))

    def block(k0, k1, size, x):
        nonlocal w0, drive
        if 2 * k1 >= w0 + drive.shape[1]:
            w0 = 2 * k0
            t = np.arange(w0, min(w0 + window, 2 * steps + 1)) * (dt / 2)
            drive = np.array(_drive(pulses, t))
            _check_step(np.hypot(*drive) * dt)
        o1, o2 = drive[:, 2 * k0 - w0:2 * k1 + 1 - w0]
        c = np.column_stack(((dt / 2) * o1, (dt / 2) * o2, np.ones_like(o1)))
        return _compose(_rk4_propagators(c, end_basis, mid_basis, work),
                        np.matmul, 0, size) @ x

    out = _march(block, start, steps, stride, per_block)[..., 0].swapaxes(0, 1)
    # rho', spread from its six entries, back from the frame
    return (out @ _SPREAD.T).reshape(*out.shape[:2], 3, 3) * np.outer(
        _FRAME.conj(), _FRAME)


def propagate_lindblad(pulses, rates=None, steps=LINDBLAD_STEPS, stride=1):
    """Integrate the Lindblad master equation from |1><1| with fixed-step
    RK4.

    Samples populations every `stride` steps (plus t=0 and t=1;
    None: at t=0 and t=1 only).
    """
    rhos = evolve_lindblad(pulses, [rates or LindbladRates()], steps,
                           stride)[0]
    rho = rhos[-1]
    min_eig = float(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min())
    if min_eig < -1e-7:
        warnings.warn(f"final density matrix slightly non-PSD "
                      f"(min eigenvalue {min_eig:.2e})", RuntimeWarning)
    return Trajectory(times=_sample_steps(steps, stride) * (1.0 / steps),
                      populations=rhos.diagonal(axis1=1, axis2=2).real.copy(),
                      steps=steps, final_density=rho)
