"""Yang-Mills heat flow at fixed physical time.

The parabolic evolution runs in the DeTurck gauge (A_s = div A), where the
connection and the electric curvature B_i = F_{0i} satisfy genuinely
parabolic equations.  Stiffness is absorbed exactly by an integrating-factor
RK4: the heat factor is applied in Fourier space and only the bracket terms
are stepped explicitly, so the abelian flow reproduces the heat semigroup to
round-off.  The flow state lives in Fourier space, packed on its two-thirds
`dynamics.Band`, so the heat factor is a multiply on the modes the flow
reaches; only right-hand sides and samples see full fields, and only the
samples go back to physical fields.  Every flow runs through `sample_legs`,
which takes each leg between samples in as few steps as a Simpson-error
estimate allows (the wave's loop, `dynamics.controlled_legs`).
The caloric gauge (A_s = 0) is reached by the pointwise transport ODE
dU/ds = U A_s.

The tension field w_i(s) = D_0 F_{0i} - D^j F_{ji} needs time derivatives at
level s.  They come from one flow in the tangent algebra (`flow_tangent`):
the Cauchy data carry their exact t-derivative (E, `ym_rhs`) as the second
block of dual numbers, so the IF-RK4 map, a polynomial in brackets, carries
d/dt of the flowed fields exactly.  A_0(s) is reconstructed along the flow
from its own ODE (A_0 = 0 at s = 0 in the temporal gauge).  MKG flows its
data as Taylor jets in t (`mkg.flow_jets`) on the same `_IFSystem`.  Five
Cauchy slices flowed in lockstep (`flow_stencil`) and differenced in t serve
the tests as an O(delta^4) oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import algebra as alg
from .algebra import StructureSpec, bracket
from .config import dt_steps
from .dynamics import (LEG_TOL, Band, CauchyState, LegRecord, controlled_legs,
                       covariant_curl_div, rk4_step, wave_legs)
from .gauge import PAIRS, curvature, gauge_transform, pair_component
from .grid import Grid
from .spectral import (dealias, derivative_hat, divergence, duhamel, gradient,
                       heat_propagate)


class ParabolicBlowUpError(RuntimeError):
    """Non-finite values appeared along the parabolic flow."""


@dataclass
class FlowState:
    """DeTurck-flow state at parabolic time s."""

    grid: Grid
    spec: StructureSpec
    s: float
    A: np.ndarray
    B: np.ndarray
    U: np.ndarray | None = None      # caloric transport, when requested
    A0: np.ndarray | None = None     # reconstructed temporal component

    def magnetic(self) -> np.ndarray:
        return curvature(self.grid, self.A, self.spec)


def sample_grid(s0: float, n_samples: int = 32, span: float = 1024.0) -> np.ndarray:
    """Geometric s-samples on [s0/span, s0], preceded by s = 0."""
    if s0 <= 0:
        raise ValueError("s0 must be positive")
    return np.concatenate([[0.0], np.geomspace(s0 / span, s0, n_samples)])


def nested_sample_grids(s0_values, n_samples: int = 32,
                        span: float = 1024.0) -> list[np.ndarray]:
    """One `sample_grid`-shaped grid per s0, all drawn from one lattice that
    descends from the largest s0 in `sample_grid` spans (ratio
    span^(1/(n_samples-1))), so the largest s0 gets `sample_grid` bit for
    bit.  Each other s0 keeps its exact endpoints s0 and s0/span and the
    n_samples - 2 lattice points below the one nearest s0: every end
    interval lies within [0.5, 1.5] lattice steps in log s.  An endpoint
    within 1e-12 relative of a lattice point takes its value: one sample."""
    if min(s0_values) <= 0 or n_samples < 2:
        raise ValueError("s0 must be positive and n_samples at least 2")
    top, m = max(s0_values), n_samples - 1
    first = [round(np.log(top / s0) * m / np.log(span)) for s0 in s0_values]
    lattice = np.concatenate([sample_grid(top / span**b, n_samples, span)[:1:-1]
                              for b in range(max(first) // m + 2)])

    def snap(s):
        near = lattice[np.argmin(np.abs(lattice - s))]
        return near if abs(near - s) <= 1e-12 * s else s

    return [np.concatenate([[0.0, snap(s0 / span)], lattice[k + 1:k + m][::-1],
                            [snap(s0)]])
            for s0, k in zip(s0_values, first)]


# --- DeTurck right-hand side ------------------------------------------------

def deturck_nonlinear(grid: Grid, spec: StructureSpec, A: np.ndarray,
                      B: np.ndarray, Ah=None, Bh=None):
    """Bracket terms of the DeTurck parabolic system, as dealiased transforms.

    connection:  [A^l, d_l A_i + F_li]
                 (= 2[A^l, d_l A_i] - [A^l, d_i A_l] + [A^l, [A_l, A_i]])
    electric:    2[B^l, F_li] + [A^l, 2 d_l B_i + [A_l, B_i]]

    The inner brackets [A_i, A_j] and [A_l, B_i] are dealiased; the sum
    2 d_l B_i + [A_l, B_i] is formed in Fourier space and inverted once.
    A and B are physical; pass their rfft as Ah, Bh when the caller holds it.
    Returns (N_A, N_B, F_magnetic, DB) with F physical and the others in rfft
    layout, masked brackets; DB = D^l B_l, the trace of the transformed
    2 d_l B_i + [A_l, B_i] less div B.
    """
    mask = grid.dealias_mask
    Ah = grid.fft(A) if Ah is None else Ah
    G = gradient(grid, fh=Ah)                    # G[l, i] = d_l A_i
    brk = np.empty((3, 3) + A.shape[1:])         # bracket buffer
    for c, (i, j) in enumerate(PAIRS):
        bracket(A[i], A[j], spec, out=brk[0, c])
    Fmag = dealias(grid, brk[0])
    for c, (i, j) in enumerate(PAIRS):          # G[l, i] = d_l A_i + F_li
        Fmag[c] += G[i][j] - G[j][i]
        G[i, j] += Fmag[c]
        G[j, i] -= Fmag[c]
    N = np.empty((2,) + A.shape)                 # N_A, N_B

    def contract(G, out):                        # out[i] = sum_l [A^l, G[l, i]]
        for l, i in np.ndindex(3, 3):
            bracket(A[l], G[l, i], spec, out=brk[l, i])
        np.add(brk[0], brk[1], out=out)
        out += brk[2]

    contract(G, N[0])
    Bh = grid.fft(B) if Bh is None else Bh
    for l, i in np.ndindex(3, 3):
        bracket(A[l], B[i], spec, out=brk[l, i])
    Gh = grid.fft(brk)
    Gh *= mask
    for l in range(3):
        Gh[l] += 2.0 * derivative_hat(grid, Bh, l)
    DB = sum(Gh[l, l] - derivative_hat(grid, Bh[l], l) for l in range(3))
    contract(grid.ifft(Gh), N[1])                # G[l, i] = 2 d_l B_i + [A_l, B_i]
    for c, (i, j) in enumerate(PAIRS):          # 2[B^l, F_li], F_ji = -F_ij
        N[1, j] += 2.0 * bracket(B[i], Fmag[c], spec, out=brk[1, 0])
        N[1, i] -= 2.0 * bracket(B[j], Fmag[c], spec, out=brk[1, 0])
    Nh = grid.fft(N)
    Nh *= mask
    return Nh[0], Nh[1], Fmag, DB


def _deturck_hat(grid: Grid, spec: StructureSpec, Ah, Bh):
    """(N_A, N_B) of deturck_nonlinear for a state held in rfft layout."""
    NA, NB, _, _ = deturck_nonlinear(grid, spec, grid.ifft(Ah), grid.ifft(Bh), Ah, Bh)
    return NA, NB


def deturck_rhs(flow: FlowState):
    """Full parabolic right-hand side (dA/ds, dB/ds), Laplacian included."""
    g = flow.grid
    Ah, Bh = g.fft(flow.A), g.fft(flow.B)
    NA, NB, _, _ = deturck_nonlinear(g, flow.spec, flow.A, flow.B, Ah, Bh)
    return g.ifft(NA - g.k2 * Ah), g.ifft(NB - g.k2 * Bh)


# --- integrating-factor stepping ---------------------------------------------

class _IFSystem:
    """Integrating-factor RK4 on a family of fields held in Fourier space.

    Each field kind is "heat" (real field, rfft layout), "cheat" (complex
    scalar, full cfft layout) or "ode" (physical, no linear part; stepped
    inside the same stage structure).  The heat factor e^{s Lap} is then a
    multiply, and the step is `rk4_step` with these factors: exact IF-RK4 on
    the spectral state (Kassam & Trefethen 2005).  `spectral` and `physical`
    convert a state; the nonlinearity given to `step` maps a spectral state
    to its derivatives.
    """

    def __init__(self, grid: Grid, kinds: tuple):
        self.grid = grid
        self.kinds = tuple(kinds)
        if any(k not in ("heat", "cheat", "ode") for k in self.kinds):
            raise ValueError(f"unknown field kinds in {kinds}")

    def _each(self, y, heat, cheat):
        return tuple(heat(u) if kd == "heat" else cheat(u) if kd == "cheat" else u
                     for u, kd in zip(y, self.kinds))

    def spectral(self, y: tuple) -> tuple:
        return self._each(y, self.grid.fft, self.grid.cfft)

    def physical(self, y: tuple) -> tuple:
        return self._each(y, self.grid.ifft, self.grid.cifft)

    def sample_legs(self, y: tuple, s_samples, substeps: int, nonlin, emit,
                    project=None) -> "LegRecord":
        """Module `sample_legs` on the spectral state of the physical y, on
        its `Band`, with `step` and nonlin, each followed by project(state)
        when given, cold unless a field is an "ode" block; emit gets physical
        fields that no later step writes to (copies of y at s = 0)."""
        box = [self.spectral(y)]
        band = Band(self.grid, box[0], lambda b: _IFSystem(b, self.kinds))

        def step(z, h, f, k1, mid):
            z = band.system.step(z, h, f, k1, mid)
            return z if project is None else project(z)

        return sample_legs(box.pop(), s_samples, substeps, step, nonlin, band,
                           lambda s, z: emit(s, tuple(u.copy() for u in y) if s == 0.0
                                             else self.physical(z)),
                           "ode" not in self.kinds)

    def propagate(self, tau: float, y: tuple) -> tuple:
        """e^{tau Lap} on each heat field of y."""
        k2 = {"heat": self.grid.k2, "cheat": self.grid.k2_full}
        return tuple(np.exp(-tau * k2[kd]) * u if kd in k2 else u for u, kd in zip(y, self.kinds))

    def step(self, y: tuple, h: float, nonlin, k1=None, mid=None):
        """One IF-RK4 step of size h, as `rk4_step` with the heat factors as
        the propagator: k1 = nonlin(y) when the caller holds it."""
        return rk4_step(y, h, nonlin, self.propagate, k1, mid)


def sample_legs(state: tuple, s_samples, substeps: int, step, rhs, band, emit,
                cold: bool = True) -> LegRecord:
    """`dynamics.controlled_legs` through the sorted parabolic times at
    LEG_TOL, the state held packed on band, calling emit(s, state) at each
    sample (at s = 0 the state as given): the leg from s = 0 takes at most
    max(2 * substeps, 4) steps, two half steps if cold and their estimate
    meets LEG_TOL, each later leg at most substeps.  Non-finite values raise
    ParabolicBlowUpError."""
    if substeps < 1:
        raise ValueError(f"substeps must be at least 1, got {substeps}")
    times = sorted(float(s) for s in s_samples)
    if times and times[0] < 0:
        raise ValueError("parabolic times must be nonnegative")
    starts, done, box = [0.0] + times[:-1], iter(times), [state]
    del state                               # the loop holds the only reference
    return controlled_legs(
        box.pop(), [b - a for a, b in zip(starts, times)],
        [max(2 * substeps, 4) if a == 0.0 else substeps for a in starts], step, rhs,
        band, lambda y: emit(next(done), y), lambda leg: ParabolicBlowUpError(
            f"non-finite flow state at s={times[leg]:.3e}"), LEG_TOL, cold)


def flow_step(flow: FlowState, ds: float) -> FlowState:
    """Single integrating-factor RK4 step of the DeTurck system."""
    if ds <= 0:
        raise ValueError("ds must be positive")
    g, spec = flow.grid, flow.spec
    sys = _IFSystem(g, ("heat", "heat"))
    A, B = sys.physical(sys.step(sys.spectral((flow.A, flow.B)), ds,
                                 lambda y: _deturck_hat(g, spec, *y)))
    if not (np.isfinite(A).all() and np.isfinite(B).all()):
        raise ParabolicBlowUpError(f"non-finite flow state at s={flow.s + ds:.3e}")
    return FlowState(g, spec, flow.s + ds, A, B, U=flow.U, A0=flow.A0)


def run_flow(origin: CauchyState, s_samples, substeps: int = 4,
             with_transport: bool = False, observer=None,
             legs: list | None = None) -> list[FlowState]:
    """Flow the Cauchy data through the sample list of parabolic times.

    Returns one FlowState per requested s (including s = 0 if present).
    with_transport integrates the caloric transport U alongside, so the
    caloric connection can be recovered by `to_caloric`.  With an observer,
    each sampled FlowState is passed to it instead and none is kept.  A
    `legs` list receives the flow's `LegRecord`.
    """
    g, spec = origin.grid, origin.spec
    state = (origin.A, origin.E)
    if with_transport:
        state += (alg.identity_group(spec, (g.n,) * 3),)
    sys = _IFSystem(g, ("heat", "heat", "ode") if with_transport else ("heat", "heat"))

    def nonlin(y):
        N = _deturck_hat(g, spec, y[0], y[1])
        if not with_transport:
            return N
        return N + (_transport_rhs(y[2], divergence(g, vh=y[0]), spec),)

    def project(y):
        U, corr = alg.renormalize(y[2], spec)
        if corr > 1e-6:
            raise ParabolicBlowUpError(
                f"caloric transport left the group: correction {corr:.2e}")
        return y[0], y[1], U

    out = []
    emit = out.append if observer is None else observer
    record = sys.sample_legs(
        state, s_samples, substeps, nonlin,
        lambda s, y: emit(FlowState(g, spec, s, y[0], y[1],
                                    U=y[2] if with_transport else None)),
        project if with_transport else None)
    if legs is not None:
        legs.append(record)
    return out


def _transport_rhs(U: np.ndarray, a_s: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """dU/ds = U A_s with A_s given by algebra coefficients a_s."""
    if spec.name == "u1":
        return a_s.copy()
    q = np.zeros((4,) + a_s.shape[1:])
    q[1:] = 0.5 * a_s  # basis e_a is half the quaternion unit
    return alg.quat_mul(U, q)


def to_caloric(flow: list[FlowState]) -> list[np.ndarray]:
    """Caloric-gauge connection trajectory from the DeTurck flow.

    Applies the recorded transport as a gauge change at each sample:
    A_cal = U A U^{-1} - (dU) U^{-1}, which satisfies A_s = 0 and matches
    the Cauchy data at s = 0.
    """
    out = []
    for f in flow:
        if f.s == 0.0:
            out.append(f.A.copy())
            continue
        if f.U is None:
            raise ValueError("flow was run without transport")
        At, _ = gauge_transform(f.grid, f.A, None, f.U, f.spec)
        out.append(At)
    return out


def run_caloric_direct(origin_A: np.ndarray, grid: Grid, spec: StructureSpec,
                       s_end: float, ds: float) -> np.ndarray:
    """Explicit RK4 on the caloric flow dA_i/ds = D^l F_li (degenerate
    parabolic), s_end in whole steps of ds; guarded by the diffusion limit."""
    cut = np.floor(grid.n / 3.0)
    k2max = 3.0 * (2.0 * np.pi / grid.L * cut) ** 2
    if ds * k2max > 0.25:
        raise ValueError(
            f"explicit caloric step too stiff: ds*kmax^2 = {ds * k2max:.3f} > 0.25")
    nsteps = dt_steps(s_end, ds)
    if nsteps is None:
        raise ValueError(f"s_end = {s_end} is not an integer multiple of ds = {ds}")
    A = origin_A.copy()
    for _ in range(nsteps):
        A = rk4_step((A,), ds, lambda y: (covariant_curl_div(grid, spec, y[0]),))[0]
        if not np.isfinite(A).all():
            raise ParabolicBlowUpError("caloric direct integration blew up")
    return A


# --- time stencils and the tension field -------------------------------------

def fornberg_weights(x_nodes, x0: float, order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary nodes (Fornberg recursion)."""
    x_nodes = np.asarray(x_nodes, float)
    n = len(x_nodes)
    c = np.zeros((n, order + 1))
    c[0, 0] = 1.0
    c1, c4 = 1.0, x_nodes[0] - x0
    for i in range(1, n):
        mn = min(i, order)
        c2, c5, c4 = 1.0, c4, x_nodes[i] - x0
        for j in range(i):
            c3 = x_nodes[i] - x_nodes[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
            c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, order]


def make_stencil(state, delta: float, dt: float) -> "TimeStencil":
    """Five slices centered on the Yang-Mills wave state `state`, from
    `wave_legs` trajectories (any wave state steps the same way).

    delta must be a positive integer multiple of dt (`config.dt_steps`).
    The two earlier slices are integrated backward from the center, so the
    central slice is the input state itself.
    """
    m = dt_steps(delta, dt)
    if not m:
        raise ValueError(f"stencil spacing {delta} must be a positive integer "
                         f"multiple of dt = {dt}")
    back, ahead = [], []
    wave_legs(state, -dt, (m, 2 * m), lambda st, _hat, _kept: back.append(st))
    wave_legs(state, dt, (m, 2 * m), lambda st, _hat, _kept: ahead.append(st))
    return TimeStencil(back[::-1] + [state.copy()] + ahead, delta)


@dataclass
class TimeStencil:
    """Five wave-state slices at t0 + m*delta, m = -2..2, from one evolution;
    `spec` and `center` serve the Yang-Mills slices."""

    states: list
    delta: float

    def __post_init__(self):
        if len(self.states) != 5:
            raise ValueError("time stencil needs exactly 5 slices")
        ts = [st.t for st in self.states]
        steps = np.diff(ts)
        if not np.allclose(steps, self.delta, rtol=1e-10, atol=1e-12):
            raise ValueError(f"stencil spacing not uniform: {ts}")

    @property
    def grid(self) -> Grid:
        return self.states[0].grid

    @property
    def spec(self) -> StructureSpec:
        return self.states[0].spec

    @property
    def center(self) -> CauchyState:
        return self.states[2]

    def d_dt(self, fields: np.ndarray) -> np.ndarray:
        """First time derivative at the central slice from the 5 slices.

        fields has the slice axis first (length 5).
        """
        w = fornberg_weights(np.arange(5) * self.delta, 2 * self.delta, 1)
        return np.tensordot(w, fields, axes=(0, 0))


def flow_stencil(stencil: TimeStencil, s_samples, substeps: int = 4):
    """Flow the five slices in lockstep, integrating A_0 per slice.

    A_0 obeys dA_0/ds = d_t(div A) - [div A, A_0] - D^l B_l with A_0(0)=0;
    the cross-slice time derivative of div A is evaluated stage by stage so
    every slice sees consistent data.  Returns a list (one entry per sample)
    of lists of 5 FlowStates carrying A, B, A0.
    """
    g, spec = stencil.grid, stencil.spec
    d = spec.dim
    A = np.stack([st.A for st in stencil.states])       # (5, 3, d, n, n, n)
    B = np.stack([st.E for st in stencil.states])
    A0 = np.zeros((5, d) + (g.n,) * 3)
    wrows = np.stack([fornberg_weights(np.arange(5) * stencil.delta,
                                       m * stencil.delta, 1) for m in range(5)])

    sys = _IFSystem(g, ("heat", "heat", "ode"))

    def nonlin(y):
        Ahm, Bhm, A0m = y
        NA = np.empty_like(Ahm)
        NB = np.empty_like(Bhm)
        div_a = np.empty((5, d) + (g.n,) * 3)
        dive_cov = np.empty_like(div_a)
        for m in range(5):
            Ah, Bh = Ahm[m], Bhm[m]
            NA[m], NB[m], _, DBh = deturck_nonlinear(g, spec, g.ifft(Ah), g.ifft(Bh),
                                                     Ah, Bh)
            div_a[m] = divergence(g, vh=Ah)
            dive_cov[m] = g.ifft(DBh)
        dt_div = np.tensordot(wrows, div_a, axes=(1, 0))   # (5, d, ...)
        NA0 = np.empty_like(A0m)
        for m in range(5):
            NA0[m] = dt_div[m] - dealias(g, bracket(div_a[m], A0m[m], spec)) \
                     - dive_cov[m]
        return NA, NB, NA0

    out = []
    sys.sample_legs((A, B, A0), s_samples, substeps, nonlin,
                    lambda s, y: out.append([FlowState(g, spec, s, y[0][m], y[1][m],
                                                       A0=y[2][m]) for m in range(5)]))
    return out


def slice_tension(stencil: TimeStencil, slices):
    """Tension w_i = d_t B_i + [A_0, B_i] - D^j F_ji at the central slice of
    the five flowed `slices`, d_t taken across them (the tests' oracle for
    the tangent route)."""
    c = slices[2]
    dtB = stencil.d_dt(np.stack([f.B for f in slices]))
    return _tension(stencil.grid, stencil.spec, c.A, c.B, dtB, c.A0)


def _tension(g: Grid, spec: StructureSpec, A, B, dtB, A0) -> np.ndarray:
    """w_i = d_t B_i + [A_0, B_i] - D^j F_ji, products dealiased."""
    w = dtB - covariant_curl_div(g, spec, A)
    for i in range(3):
        w[i] += dealias(g, bracket(A0, B[i], spec))
    return w


def flow_tangent(state: CauchyState, s_samples, substeps: int = 4, observer=None):
    """Flow the Cauchy data and their t-derivative as one state in the
    tangent algebra `algebra.tangent(spec)`, integrating A_0 alongside.

    A|E and B|`ym_rhs(A)` start the DeTurck flow, and its tangent block is
    then the exact d/dt of the flowed A(s) and B(s).  A_0 (base algebra)
    obeys dA_0/ds = d_t(div A) - [div A, A_0] - D^l B_l with A_0(0) = 0,
    d_t(div A) being the tangent block of div A.  Returns one FlowState per
    sample, with the tangent spec, A|d_t A, B|d_t B and A0; with an observer,
    each is passed to it instead and none is kept.
    """
    g, spec = state.grid, state.spec
    tspec, d = alg.tangent(spec), spec.dim
    A = np.concatenate((state.A, state.E), axis=1)       # (3, 2d, n, n, n)
    B = np.concatenate((state.E, covariant_curl_div(g, spec, state.A)), axis=1)
    sys = _IFSystem(g, ("heat", "heat", "ode"))

    def nonlin(y):
        Ah, Bh, A0 = y
        NA, NB, _, DBh = deturck_nonlinear(g, tspec, g.ifft(Ah), g.ifft(Bh), Ah, Bh)
        div_a = divergence(g, vh=Ah)
        NA0 = div_a[d:] - dealias(g, bracket(div_a[:d], A0, spec)) - g.ifft(DBh[:d])
        return NA, NB, NA0

    out = []
    emit = out.append if observer is None else observer
    sys.sample_legs((A, B, np.zeros((d,) + (g.n,) * 3)), s_samples, substeps, nonlin,
                    lambda s, y: emit(FlowState(g, tspec, s, y[0], y[1], A0=y[2])))
    return out


def tangent_tension(flow: FlowState) -> np.ndarray:
    """Tension w_i = d_t B_i + [A_0, B_i] - D^j F_ji of a `flow_tangent`
    sample, d_t B its tangent block; exactly 0 at s = 0."""
    spec = flow.spec.base
    d = spec.dim
    return _tension(flow.grid, spec, flow.A[:, :d], flow.B[:, :d], flow.B[:, d:], flow.A0)


def tension_profile(state: CauchyState, s_samples, substeps: int = 4) -> list[np.ndarray]:
    """Tension fields w(s) at the sorted s_samples from one tangent flow of
    the Cauchy data, each assembled as its sample is emitted."""
    out = []
    flow_tangent(state, s_samples, substeps,
                 observer=lambda f: out.append(tangent_tension(f)))
    return out


def tension_field(state: CauchyState, s: float, substeps: int = 4):
    """Yang-Mills tension w_i(s) = D_0 F_{0i} - D^j F_{ji} of the Cauchy data,
    D_0 with the reconstructed A_0(s); 0 exactly at s = 0, where d_t B is
    `ym_rhs`.  One sample of `tension_profile`."""
    return tension_profile(state, [s], substeps)[0]


def b_compatibility_residual(state: CauchyState, s: float, substeps: int = 4) -> float:
    """Relative gap between the evolved B(s) and the curvature assembled from
    the tangent flow: d_t A - grad A_0 + [A_0, A]."""
    g, spec, d = state.grid, state.spec, state.spec.dim
    f = flow_tangent(state, [s], substeps=substeps)[-1]
    B_rec = f.A[:, d:] - gradient(g, f.A0)
    for i in range(3):
        B_rec[i] += dealias(g, bracket(f.A0, f.A[i, :d], spec))
    B = f.B[:, :d]
    return g.l2_norm(B_rec - B) / max(g.l2_norm(B), 1e-30)


def f_bilinear_part(origin: CauchyState, s: float, substeps: int = 6):
    """Difference route for the bilinear curvature part.

    F_bil(s) = F(s) - e^{s Lap} F(0), returned as the pair
    (magnetic pair components, electric components).
    """
    g, spec = origin.grid, origin.spec
    end = run_flow(origin, [s], substeps=substeps)[-1]
    mag = curvature(g, end.A, spec) - heat_propagate(g, curvature(g, origin.A, spec), s)
    ele = end.B - heat_propagate(g, origin.E, s)
    return mag, ele


def _feq_quadratic(g: Grid, spec: StructureSpec, A, Fmag, B):
    """Bracket source of the DeTurck curvature equation for all components:
    2[F_a^l, F_lb] + 2[A^l, d_l F_ab] + [A^l, [A_l, F_ab]], stacked magnetic
    then electric; the outer product is left for the caller to dealias."""
    dF = gradient(g, Fmag)
    dB = gradient(g, B)
    Gmag = np.empty_like(Fmag)
    Gele = np.empty_like(B)
    for c, (i, j) in enumerate(PAIRS):
        acc = 0.0
        for l in range(3):
            if l != i and l != j:
                acc = acc + 2.0 * bracket(pair_component(Fmag, i, l),
                                          pair_component(Fmag, l, j), spec)
            acc = acc + 2.0 * bracket(A[l], dF[l][c], spec)
            acc = acc + bracket(A[l], dealias(g, bracket(A[l], Fmag[c], spec)), spec)
        Gmag[c] = acc
    for i in range(3):
        acc = 0.0
        for l in range(3):
            if l != i:
                acc = acc + 2.0 * bracket(B[l], pair_component(Fmag, l, i), spec)
            acc = acc + 2.0 * bracket(A[l], dB[l][i], spec)
            acc = acc + bracket(A[l], dealias(g, bracket(A[l], B[i], spec)), spec)
        Gele[i] = acc
    return np.concatenate([Gmag, Gele])


def f_bilinear_duhamel(origin: CauchyState, s: float, n_quad: int = 16,
                       substeps: int = 6):
    """Duhamel-integral route for F_bil, by Gauss-Legendre in s'."""
    g, spec = origin.grid, origin.spec

    def sources(s_nodes):
        for f in run_flow(origin, s_nodes, substeps=substeps):
            yield g.fft(_feq_quadratic(g, spec, f.A, curvature(g, f.A, spec), f.B))

    out = duhamel(g, s, n_quad, sources)
    return out[:3], out[3:]


def w2_leading(origin: CauchyState, s: float) -> np.ndarray:
    """Leading bilinear tension term via the Duhamel heat form, by 32-node
    Gauss-Legendre in s'.

    Applies the W symbol, node by node, to the bracket pair
    (E^l(0), d_i E_l(0) - 2 d_l E_i(0)); the overall sign follows the
    w_i = D_0 F_{0i} - D^j F_{ji} convention.
    """
    g, spec = origin.grid, origin.spec
    E = origin.E
    Eh = g.fft(E)
    dE = gradient(g, fh=Eh)                     # dE[l][i] = d_l E_i
    G = np.empty((3, 3) + E.shape[1:])          # G[i, l] = d_i E_l - 2 d_l E_i
    for i in range(3):
        for l in range(3):
            G[i, l] = dE[i][l] - 2.0 * dE[l][i]
    Gh = g.fft(G)

    def sources(s_nodes):
        for s_node in s_nodes:
            decay = np.exp(-s_node * g.k2)
            Eheat = g.ifft(decay * Eh)
            Gheat = g.ifft(decay * Gh)
            yield g.fft(np.stack([sum(bracket(Eheat[l], Gheat[i, l], spec)
                                      for l in range(3)) for i in range(3)]))

    return -2.0 * duhamel(g, s, 32, sources)
