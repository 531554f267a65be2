"""Temporal-gauge evolution on the torus by pseudospectral method of lines.

State is the pair (A_i, E_i) with E_i = dA_i/dt; the update for E is the
covariant curl divergence sum_j D_j F_{ji}, all quadratic and cubic products
dealiased by the two-thirds rule.  Time stepping is classical RK4 under a
CFL guard dt * k_max <= cfl, always through `wave_legs`: it keeps the state
in Fourier space across stages and steps and inverts only the states a
caller asks for, handing it the spectral fields too (`evolve` samples from
them by Parseval).  A state type supplies its spectral fields, their right-
hand side and its rebuild (`spectral`, `spectral_rhs`, `from_spectral`), so
the same driver steps Maxwell-Klein-Gordon; `step_rk4` is one driver step.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import StructureSpec, bracket
from .gauge import PAIRS
from .grid import Grid
from .spectral import (dealias, derivative_hat, divergence, gradient,
                       laplacian, leray_cf, leray_df, inverse_laplacian,
                       sobolev_norm)


class BlowUpError(RuntimeError):
    """Non-finite values appeared during time stepping."""


@dataclass
class CauchyState:
    """Temporal-gauge Cauchy data at time t (A_0 = 0, E = dA/dt)."""

    grid: Grid
    spec: StructureSpec
    t: float
    A: np.ndarray
    E: np.ndarray

    def copy(self) -> "CauchyState":
        return CauchyState(self.grid, self.spec, self.t, self.A.copy(), self.E.copy())

    def spectral(self) -> tuple:
        """(rfft A, rfft E), the fields `wave_legs` steps."""
        return self.grid.fft(self.A), self.grid.fft(self.E)

    def spectral_rhs(self, y: tuple) -> tuple:
        """d/dt of the spectral fields y: (Eh, `_curl_div_hat`), 18 + 18 transforms."""
        g = self.grid
        return y[1], _curl_div_hat(g, self.spec, g.ifft(y[0]), y[0])

    def from_spectral(self, t: float, y: tuple) -> "CauchyState":
        g = self.grid
        return CauchyState(g, self.spec, t, g.ifft(y[0]), g.ifft(y[1]))


@dataclass
class EvolutionConfig:
    dt: float
    T: float
    cfl: float = 0.5
    sample_every: int = 0  # steps between samples; 0 = endpoints only
    keep_states: bool = False

    def __post_init__(self):
        if self.cfl > 1.0:
            raise ValueError("cfl guard must not exceed 1")
        if self.dt <= 0 or self.T < 0:
            raise ValueError("dt must be positive and T nonnegative")


def active_kmax(grid: Grid) -> float:
    """Largest |k| surviving the two-thirds truncation."""
    cut = np.floor(grid.n / 3.0)
    return float(2.0 * np.pi / grid.L * cut * np.sqrt(3.0))


def sample_marks(grid: Grid, dt: float, T: float, cfl: float, every: int) -> list:
    """Step counts at which an integration to T samples for `wave_legs`: 0,
    each multiple of `every` (0: none) and the last.  Raises on dt * kmax
    above the CFL bound."""
    if dt * active_kmax(grid) > cfl + 1e-12:
        raise ValueError(f"CFL violation: dt*kmax = {dt * active_kmax(grid):.3f} "
                         f"> cfl = {cfl}")
    nsteps = int(round(T / dt))
    return [m for m in range(nsteps + 1)
            if m == 0 or (every and m % every == 0) or m == nsteps]


def _curvature_hat(grid: Grid, spec: StructureSpec, A: np.ndarray,
                   Ah: np.ndarray) -> np.ndarray:
    """rfft of the pair-stored magnetic curvature from A and its rfft Ah:
    masked pair brackets plus the curl of Ah (9 transforms, 3 brackets)."""
    brk = np.empty((3,) + A.shape[1:])
    for c, (i, j) in enumerate(PAIRS):
        bracket(A[i], A[j], spec, out=brk[c])
    Fh = grid.fft(brk)
    Fh *= grid.dealias_mask
    for c, (i, j) in enumerate(PAIRS):
        Fh[c] += derivative_hat(grid, Ah[j], i) - derivative_hat(grid, Ah[i], j)
    return Fh


def _curl_div_hat(grid: Grid, spec: StructureSpec, A: np.ndarray,
                  Ah: np.ndarray) -> np.ndarray:
    """rfft of sum_j D_j F_{ji} from A and its transform Ah, products
    dealiased: 18 + 9 transforms and 9 brackets."""
    Fh = _curvature_hat(grid, spec, A, Ah)
    F = grid.ifft(Fh)
    out = np.zeros_like(Ah)
    brk = np.zeros_like(A)
    tmp = np.empty_like(A[0])
    for c, (i, j) in enumerate(PAIRS):          # D_i F_ij into j, D_j F_ji into i
        out[j] += derivative_hat(grid, Fh[c], i)
        out[i] -= derivative_hat(grid, Fh[c], j)
        brk[j] += bracket(A[i], F[c], spec, out=tmp)
        brk[i] -= bracket(A[j], F[c], spec, out=tmp)
    bh = grid.fft(brk)
    bh *= grid.dealias_mask
    out += bh
    return out


def covariant_curl_div(grid: Grid, spec: StructureSpec, A: np.ndarray) -> np.ndarray:
    """sum_j D_j F_{ji} for the curvature of A, products dealiased."""
    return grid.ifft(_curl_div_hat(grid, spec, A, grid.fft(A)))


def ym_rhs(state: CauchyState):
    """Right-hand side (dA/dt, dE/dt) of the temporal-gauge system."""
    return state.E, covariant_curl_div(state.grid, state.spec, state.A)


def _axpy(a, c, b, e=None):
    """e (a + c b) as one fresh array built in place (e None: no factor)."""
    u = np.multiply(b, c, dtype=np.result_type(a, b))
    u += a
    return u if e is None else np.multiply(u, e, out=u)


def rk4_step(y: tuple, dt: float, f, half=None, full=None, k1=None,
             with_k4: bool = False):
    """One classical RK4 step on a tuple of arrays; given per-field factors
    half = e^{dt L/2} and full = e^{dt L} (None: no linear part L), the
    integrating-factor RK4 step of y' = L y + f(y) (Kassam & Trefethen 2005).
    Each stage is one fresh array per field, built in place in the textbook
    operand order up to exact IEEE commutation; f may return its input.
    Pass k1 = f(y) when the caller holds it; with_k4 returns the last stage
    too, as (y_next, k4)."""
    half, full = half or (None,) * len(y), full or (None,) * len(y)

    def times(e, u):
        return u if e is None else e * u

    # stages eh (a + dt/2 k1), eh a + dt/2 k2 and ef a + dt (eh k3)
    k1 = f(y) if k1 is None else k1
    k2 = f(tuple(_axpy(a, 0.5 * dt, k, e) for a, k, e in zip(y, k1, half)))
    k3 = f(tuple(_axpy(times(e, a), 0.5 * dt, k) for a, k, e in zip(y, k2, half)))
    k4 = f(tuple(_axpy(times(ef, a), dt, times(eh, k))
                 for a, k, eh, ef in zip(y, k3, half, full)))
    out = []
    for a, b1, b2, b3, b4, eh, ef in zip(y, k1, k2, k3, k4, half, full):
        # ef a + dt/6 (ef b1 + 2 (eh (b2 + b3)) + b4), in place on b2 + b3
        u = np.add(b2, b3, dtype=np.result_type(a, b2))
        for op, x in ((np.multiply, eh), (np.multiply, 2.0), (np.add, times(ef, b1)),
                      (np.add, b4), (np.multiply, dt / 6.0), (np.add, times(ef, a))):
            if x is not None:
                op(u, x, out=u)
        out.append(u)
    return (tuple(out), k4) if with_k4 else tuple(out)


def step_rk4(state, dt: float):
    """One RK4 step of a wave state: `wave_legs` to the mark 1."""
    return wave_legs(state, dt, [1])


def wave_legs(state, dt: float, marks, emit=None):
    """RK4 steps of size dt (negative: backward) on `state.spectral()`; after
    each nondecreasing step count in `marks` (0: the input) emit(st, y)
    gets the physical state and its spectral fields, read only; returns the
    state at the last mark.  A Yang-Mills step makes 144 transforms; no
    emitted state stays referenced through a leg."""
    g = state.grid
    y, t, done, st = state.spectral(), state.t, 0, state
    for mark in marks:
        if mark > done:
            del st
            for _ in range(mark - done):
                y_next = rk4_step(y, dt, state.spectral_rhs)
                t += dt
                if not all(np.isfinite(u).all() for u in y_next):
                    raise BlowUpError(
                        f"non-finite state at t={t:.6g} (|A|max before step "
                        f"{np.max(np.abs(g.ifft(y[0]))):.3e})")
                y = y_next
            st, done = state.from_spectral(t, y), mark
        if emit is not None:
            emit(st, y)
    return st


def energy(state: CauchyState, Ah: np.ndarray | None = None) -> float:
    """Total curvature energy: 1/2 sum_{a<b} ||F_ab||_L2^2, the magnetic part
    by Parseval; pass the rfft of A as Ah when the caller holds it."""
    g = state.grid
    Fh = _curvature_hat(g, state.spec, state.A, g.fft(state.A) if Ah is None else Ah)
    nu = state.spec.metric_normalization
    return 0.5 * nu * (g.spectral_l2(Fh) ** 2 + g.l2_norm(state.E) ** 2)


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    energies: list = field(default_factory=list)
    gauss: list = field(default_factory=list)
    hsig: list = field(default_factory=list)
    states: list = field(default_factory=list)
    final: CauchyState | None = None


def evolve(state: CauchyState, config: EvolutionConfig,
           sigma: float = 5.0 / 6.0) -> Trajectory:
    """Integrate to t + T, sampling energy / Gauss residual / H^sigma norms."""
    g = state.grid
    traj = Trajectory()

    def sample(st, hat):                         # hat = (Ah, Eh)
        traj.times.append(st.t)
        traj.energies.append(energy(st, hat[0]))
        rh = g.fft(sum(bracket(st.A[l], st.E[l], st.spec) for l in range(3)))
        rh *= g.dealias_mask                     # Gauss residual D^l E_l
        traj.gauss.append(g.spectral_l2(rh + sum(derivative_hat(g, hat[1][l], l)
                                                 for l in range(3))))
        traj.hsig.append(sobolev_norm(g, None, sigma, fh=hat[0]))
        if config.keep_states:
            traj.states.append(st.copy())

    traj.final = wave_legs(state, config.dt, sample_marks(
        g, config.dt, config.T, config.cfl, config.sample_every), sample)
    return traj


def ymt_bracket_rhs(state: CauchyState) -> np.ndarray:
    """The quadratic/cubic side of the second-order temporal-gauge wave form,
    i.e. what the d'Alembertian of A minus grad div A equals."""
    g, spec = state.grid, state.spec
    A = state.A
    dA = gradient(g, A)  # dA[j] = d_j A
    out = np.empty_like(A)
    for i in range(3):
        t = np.zeros_like(A[i])
        for j in range(3):
            t = t + dealias(g, bracket(dA[j][i], A[j], spec))       # [d_j A_i, A_j]
            t = t + dealias(g, bracket(A[j], dA[i][j], spec))       # [A_j, d_i A_j]
            t = t - dealias(g, bracket(A[j], dealias(g, bracket(A[j], A[i], spec)), spec))
        # d_j [A_i, A_j] term, assembled spectrally
        br = np.stack([dealias(g, bracket(A[i], A[j], spec)) for j in range(3)])
        t = t + divergence(g, br)
        out[i] = t
    return out


def df_cf_consistency(state: CauchyState) -> dict:
    """Residuals of the Leray-projected first-order system against ym_rhs.

    cf: the curl-free velocity must match InvLap grad [E_j, A_j]
        (an identity on the Gauss constraint surface).
    df: the divergence-free part of dE/dt must match Lap(PA) minus the
        projected bracket terms (an algebraic identity off shell).
    """
    g, spec = state.grid, state.spec
    A, E = state.A, state.E
    _, Edot = ym_rhs(state)
    # curl-free part
    brk = np.zeros_like(E[0])
    for j in range(3):
        brk = brk + dealias(g, bracket(E[j], A[j], spec))
    grad_part = inverse_laplacian(g, gradient(g, brk))
    cf_res = leray_cf(g, E) - grad_part
    # divergence-free part
    PA = leray_df(g, A)
    df_lhs = leray_df(g, Edot) - laplacian(g, PA)
    df_rhs = -leray_df(g, ymt_bracket_rhs(state))
    scale = max(g.l2_norm(Edot), 1e-30)
    return {
        "cf_residual": g.l2_norm(cf_res) / max(g.l2_norm(E), 1e-30),
        "df_residual": g.l2_norm(df_lhs - df_rhs) / scale,
    }


def rescale(state: CauchyState, lam: float) -> CauchyState:
    """Critical rescaling A -> A(x/lam)/lam on the grid of period lam*L."""
    if lam <= 0:
        raise ValueError("scaling factor must be positive")
    g2 = Grid(state.grid.n, lam * state.grid.L)
    return CauchyState(g2, state.spec, state.t * lam,
                       state.A / lam, state.E / lam**2)
