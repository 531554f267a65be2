"""Temporal-gauge evolution on the torus by pseudospectral method of lines.

State is the pair (A_i, E_i) with E_i = dA_i/dt; the update for E is the
covariant curl divergence sum_j D_j F_{ji}, all quadratic and cubic products
dealiased by the two-thirds rule.  Time stepping is Lawson's integrating-
factor RK4: a state's `propagate` is the exact linear wave flow per Fourier
mode and its `spectral_rhs` the bracket terms only.  Every evolution runs
through `wave_legs`: the state stays in Fourier space, each leg between
samples takes as few steps as `controlled_legs`' error estimate allows, a
step spanning several legs with dense output in between (each at least the
dt the CFL guard checks), and only the states a caller asks for are
inverted, with their spectral fields, which a state's `observe` reads by
Parseval.  `mkg.MkgState` has the same methods, so one
`evolve` samples both systems; `step_rk4` is one IF step without control.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .algebra import StructureSpec, bracket
from .config import dt_steps
from .gauge import PAIRS
from .grid import Grid
from .spectral import (dealias, derivative_hat, divergence, gradient,
                       laplacian, leray_cf, leray_df, inverse_laplacian,
                       sobolev_norm)

log = logging.getLogger(__name__)


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

    def spectral_rhs(self, y: tuple, kept: dict | None = None) -> tuple:
        """Nonlinear part of d/dt of the spectral fields y: (None, the bracket
        terms of `_curl_div_hat`, which fills kept), None standing for a
        zero dA/dt; 18 + 18 transforms."""
        g = self.grid
        return None, _curl_div_hat(g, self.spec, g.ifft(y[0]), y[0], False, kept)

    def propagate(self, tau: float, y: tuple) -> tuple:
        """The linear wave flow over tau of the spectral fields y."""
        return _wave_flow(self.grid, tau, *y)

    def from_spectral(self, t: float, y: tuple, kept: dict | None = None) -> "CauchyState":
        """The state of y at t, A from a `spectral_rhs(y, kept)` record."""
        g = self.grid
        return CauchyState(g, self.spec, t, kept["A"] if kept else g.ifft(y[0]), g.ifft(y[1]))

    def observe(self, hat: tuple, kept: dict, sigma: float) -> dict:
        """One `evolve` sample, keyed by its results.csv columns: the energy,
        the L2 norm of the Gauss residual D^l E_l and the H^sigma norm of A,
        from hat = (Ah, Eh) and kept, `wave_legs`' record; 12 transforms."""
        g = self.grid
        rh = g.fft(sum(bracket(self.A[l], self.E[l], self.spec) for l in range(3)))
        rh *= g.dealias_mask
        return {"energy": energy(self, hat[0], kept.get("Fh")),
                "gauss_residual": g.spectral_l2(rh + sum(derivative_hat(g, hat[1][l], l)
                                                         for l in range(3))),
                "h_sigma": sobolev_norm(g, None, sigma, fh=hat[0])}


def active_kmax(grid: Grid) -> float:
    """Largest |k| surviving the two-thirds truncation."""
    cut = np.floor(grid.n / 3.0)
    return float(2.0 * np.pi / grid.L * cut * np.sqrt(3.0))


def sample_marks(grid: Grid, dt: float, T: float, cfl: float, every: int) -> list:
    """Step counts at which a wave run over T samples for `wave_legs`: 0, each
    multiple of `every` (0: none) and the last; the one check of both wave
    evolves.  A ValueError names a dt not finite and > 0, a T not finite and
    >= 0, a cfl outside (0, 1], dt * kmax above cfl or T off the dt grid."""
    for name, value, ok, need in (("dt", dt, 0 < dt < math.inf, "finite and positive"),
                                  ("T", T, 0 <= T < math.inf, "finite and nonnegative"),
                                  ("cfl", cfl, 0 < cfl <= 1, "in (0, 1]")):
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value}")
    if dt * active_kmax(grid) > cfl + 1e-12:
        raise ValueError(f"CFL violation: dt*kmax = {dt * active_kmax(grid):.3f} "
                         f"> cfl = {cfl}")
    nsteps = dt_steps(T, dt)
    if nsteps is None:
        raise ValueError(f"T = {T} is not an integer multiple of dt = {dt}")
    return [m for m in range(nsteps + 1)
            if m == 0 or (every and m % every == 0) or m == nsteps]


def _curvature_hat(grid: Grid, spec: StructureSpec, A: np.ndarray, Ah: np.ndarray,
                   curl: bool = True, Fh: np.ndarray | None = None) -> np.ndarray:
    """rfft of the pair-stored magnetic curvature from A and its rfft Ah:
    masked pair brackets (9 transforms, 3 brackets; skipped, being 0, in an
    abelian algebra; Fh when held, added to) plus, if curl, the curl of Ah."""
    if Fh is None and spec.structure_constants.any():
        brk = np.empty((3,) + A.shape[1:])
        for c, (i, j) in enumerate(PAIRS):
            bracket(A[i], A[j], spec, out=brk[c])
        Fh = grid.fft(brk)
        Fh *= grid.dealias_mask
    elif Fh is None:
        Fh = np.zeros((3,) + Ah.shape[1:], complex)
    for c, (i, j) in enumerate(PAIRS if curl else ()):
        Fh[c] += derivative_hat(grid, Ah[j], i) - derivative_hat(grid, Ah[i], j)
    return Fh


def _curl_div_hat(grid: Grid, spec: StructureSpec, A: np.ndarray,
                  Ah: np.ndarray, linear: bool = True, kept: dict | None = None) -> np.ndarray:
    """rfft of sum_j D_j F_{ji} from A and its transform Ah, products
    dealiased: 18 + 9 transforms and 9 brackets (none when abelian); linear
    False leaves out -|k|^2 Ah + k (k . Ah), which `_wave_flow` takes; a
    kept dict receives Ah, A and the curvature hat Fh (not abelian)."""
    D = _curvature_hat(grid, spec, A, Ah, linear)       # F, or its brackets
    out = np.zeros_like(Ah)
    for c, (i, j) in enumerate(PAIRS):          # D_i F_ij into j, D_j F_ji into i
        out[j] += derivative_hat(grid, D[c], i)
        out[i] -= derivative_hat(grid, D[c], j)
    if not spec.structure_constants.any():
        return out
    D = D if linear else _curvature_hat(grid, spec, A, Ah, Fh=D)   # F, in place
    if kept is not None:
        kept.update(Ah=Ah, A=A, Fh=D)
    F = grid.ifft(D)
    del D                                   # each temporary goes once read
    brk = np.zeros_like(A)
    tmp = np.empty_like(A[0])
    for c, (i, j) in enumerate(PAIRS):
        brk[j] += bracket(A[i], F[c], spec, out=tmp)
        brk[i] -= bracket(A[j], F[c], spec, out=tmp)
    del F, tmp
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


@lru_cache(maxsize=2)
def _wave_symbols(grid: Grid, tau: float, full: bool = False):
    """cos(|k| tau), sin(|k| tau) / |k| (tau at k = 0), -|k| sin(|k| tau) and,
    on the rfft layout, (1 - cos, tau - sin / |k|, |k| sin) / |k|^2."""
    k = np.sqrt(grid.k2_full if full else grid.k2)
    c, s = np.cos(k * tau), np.sin(k * tau)
    sk = np.divide(s, k, out=np.full_like(k, tau), where=k > 0)
    lon = None if full else tuple(w * grid.inv_k2 for w in (1.0 - c, tau - sk, k * s))
    return c, sk, -k * s, lon


def _wave_flow(grid: Grid, tau: float, X, V, full: bool = False) -> tuple:
    """e^{tau L} (X, V) for X' = V, V' = -|k|^2 X_transverse, per mode of the
    grid's Nyquist-zeroed tables (the linear part of `_curl_div_hat`): the
    transverse part rotates by |k| tau, the longitudinal part shears, X +=
    tau V.  full: complex scalars in the cfft layout, all transverse.  None
    is a zero field."""
    c, sk, mks, lon = _wave_symbols(grid, tau, full)
    if X is None:
        X1, V1 = np.multiply(V, sk), np.multiply(V, c)
    else:
        X1, V1 = np.multiply(X, c), np.multiply(X, mks)
        if V is not None:
            tmp = np.multiply(V, sk)
            X1 += tmp
            V1 += np.multiply(V, c, out=tmp)
            del tmp                         # not held through the longitudinal part
    if lon is None:
        return X1, V1
    k, rX, rV = (grid.kx, grid.ky, grid.kz), 0.0, 0.0   # X1 += k rX, V1 += k rV
    for Z, wX, wV in ((X, lon[0], lon[2]), (V, lon[1], lon[0])):
        if Z is not None:
            p = np.multiply(Z[0], k[0])
            p += k[1] * Z[1]
            p += k[2] * Z[2]
            rX, rV = rX + wX * p, np.add(rV, np.multiply(p, wV, out=p), out=p)
    for i in range(3):
        X1[i] += k[i] * rX
        V1[i] += k[i] * rV
    return X1, V1


def _axpy(a, c, b):
    """a + c b as one fresh array built in place; b None (zero): a itself."""
    if b is None:
        return a
    u = np.multiply(b, c, dtype=np.result_type(a, b))
    u += a
    return u


def rk4_step(y: tuple, dt: float, f, prop=None, k1=None, mid=None):
    """One RK4 step on a tuple of arrays; given prop(tau, z) = e^{tau L} z,
    Lawson's integrating-factor step of y' = L y + f(y) (Lawson 1967) in five
    P = prop(dt/2, .): a = P y, k2 = f(a + dt/2 P k1), k3 = f(z3 = a + dt/2
    k2), a recovered as z3 - dt/2 k2 (y without prop), k4 = f(P(a + dt k3)),
    y_next = P(a + dt/3 (k2 + k3) + dt/6 P k1) + dt/6 k4: at each f at most
    two full states live besides y and k1.  f may give None for a zero
    field, which prop takes too; no array f or prop returns is written to.
    Pass k1 = f(y) when held, or a function giving P k1, so that no full k1
    need be held through the stages; mid, when given, gets k2 + k3 before
    k4 is formed."""
    h2 = 0.5 * dt
    P = (lambda z: z) if prop is None else (lambda z: prop(h2, z))
    k1 = f(y) if k1 is None else k1
    Pk1 = k1 if callable(k1) else lambda: P(k1)
    a = P(y)
    k2 = f(tuple(_axpy(u, h2, p) for u, p in zip(a, Pk1())))
    z3 = tuple(_axpy(u, h2, k) for u, k in zip(a, k2))
    del a
    k3 = f(z3)
    a = y if prop is None else tuple(_axpy(z, -h2, k) for z, k in zip(z3, k2))
    z4 = tuple(_axpy(u, dt, k) for u, k in zip(a, k3))
    m = tuple(b2 if b3 is None else b3 if b2 is None else b2 + b3 for b2, b3 in zip(k2, k3))
    s = tuple(_axpy(u, dt / 3.0, b) for u, b in zip(a, m))
    del a, k2, k3, z3
    if mid is not None:
        mid(m)
    del m
    z4 = P(z4)
    k4 = f(z4)
    del z4
    s = tuple(_axpy(u, dt / 6.0, p) for u, p in zip(s, Pk1()))
    return tuple(_axpy(u, dt / 6.0, k) for u, k in zip(P(s), k4))


def spectral_norm(grid: Grid, y: tuple) -> float:
    """L2 norm of the fields y together, by Parseval for the rfft and cfft
    layouts (complex), as they are for real physical fields; None is 0."""
    full = grid.volume / grid.n**6
    return float(np.sqrt(sum(
        grid.spectral_l2(u) ** 2 if u.shape[-1] != grid.n else
        full * np.vdot(u, u).real if np.iscomplexobj(u) else grid.l2_norm(u) ** 2
        for u in y if u is not None)))


def step_rk4(state, dt: float):
    """One IF-RK4 step of size dt of a wave state, no error control."""
    y = rk4_step(state.spectral(), dt, state.spectral_rhs, state.propagate)
    if not all(np.isfinite(u).all() for u in y):
        raise BlowUpError(f"non-finite state at t={state.t + dt:.6g}")
    return state.from_spectral(state.t + dt, y)


# Tolerances of one IF step's Simpson-error estimate, relative to the L2
# norm of the state.  At WAVE_LEG_TOL a wave-n32 step spans two sample legs
# (three at 1e-12, whose samples miss classical RK4 at 200 steps).
LEG_TOL = 1e-11
WAVE_LEG_TOL = 1e-13


@dataclass
class LegRecord:
    """What `controlled_legs` did: the steps ending on each leg (0 on a leg
    inside a step), the IF steps in all (redone steps included), the legs
    redone, the samples taken between step ends, and the largest error
    estimate of a kept step."""

    counts: list = field(default_factory=list)
    steps: int = 0
    redone: int = 0
    inner: int = 0
    max_error: float = 0.0


def _lin(*terms):
    """The sum of c z over (c, z) terms of field tuples, fieldwise, in fresh
    arrays; None is 0."""
    out = []
    for us in zip(*(z for _, z in terms)):
        parts = [(c, u) for (c, _), u in zip(terms, us) if u is not None]
        acc = parts[0][1] * parts[0][0] if parts else None
        for c, u in parts[1:]:
            acc += u if c == 1.0 else u * c
        out.append(acc)
    return tuple(out)


class Band:
    """A grid's two-thirds band, where every right-hand side lives: `pack`
    and `unpack` hold a tuple's complex fields (rfft or cfft layout) there;
    its wavenumber tables and Parseval weights let `propagate` and
    `spectral_norm` act on packed fields."""

    def __init__(self, grid: Grid):
        half, full, unit = grid.dealias_mask, grid.dealias_mask_full, grid.volume / grid.n**6
        self.masks = {grid.n // 2 + 1: half, grid.n: full, half.sum(): half, full.sum(): full}
        self.kx, self.ky, self.kz, self.k2, self.inv_k2, w = (np.broadcast_to(t, half.shape)[
            half] for t in (grid.kx, grid.ky, grid.kz, grid.k2, grid.inv_k2, grid.parseval_weight))
        self.k2_full, self.n, self.volume = grid.k2_full[full], grid.n, grid.volume
        self.l2_norm, self.weights = grid.l2_norm, {half.sum(): unit * w, full.sum(): unit}

    def spectral_l2(self, v: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weights[v.shape[-1]] * (v.real**2 + v.imag**2))))

    def pack(self, z: tuple) -> tuple:
        return tuple(u[..., self.masks[u.shape[-1]]] if np.iscomplexobj(u) else u for u in z)

    def unpack(self, z: tuple, base: tuple | None = None) -> tuple:
        """Packed z as full fields: zeros, or base, added to in place; real
        fields and None as they are."""
        out = list(base or (None,) * len(z))
        for f, v in enumerate(z):
            if not np.iscomplexobj(v):
                out[f] = v
                continue
            mask = self.masks[v.shape[-1]]
            if out[f] is None:
                out[f] = np.zeros(v.shape[:-1] + mask.shape, complex)
            out[f][..., mask] += v
        return tuple(out)


def controlled_legs(state: tuple, spans, caps, step, rhs, prop, norm, emit, error, tol,
                    cold: bool = True, dense: bool = False, band=None, release=None):
    """Advance `state` over legs of the given spans (any sign), calling
    emit(state) at the end of each, a leg of span 0 without a step; returns
    the `LegRecord`.

    step(y, h, k1, mid) makes one Lawson step of y' = L y + N(y), k1 giving
    P k1 for P = prop(h/2, .), and hands mid its k2 + k3; rhs(y_end) is the
    next step's k1: 4 x steps + 1 right-hand sides in all.  The step is
    Simpson's rule on g(tau) = e^{(t1 - tau)L} N(y(tau)), so its error
    estimate is Simpson's, e = |h|^5/2880 ||g^(4)|| / ||y_end|| (Hochbruck &
    Ostermann 2010), g^(4) from the fourth divided difference of the g-nodes
    of the last two steps (k1, (k2 + k3)/2 and rhs(y_end) of each) in the
    frame of the step's end; band = (pack, unpack, prop, norm on packed
    fields) holds them on the band.  With no estimate yet a leg takes two
    half steps if cold, else its cap; then each step is the longest that
    the h^5 law allows at tol: several whole legs if dense, else the fewest
    steps of a leg, at most its cap.  A step that misses tol has its leg
    redone once, so sized, from the kept start, unless the leg took its cap
    already.  With dense, a sample inside a step integrates the polynomial
    through its g-nodes from the step's start (Hairer, Norsett & Wanner,
    II.6), after release() has dropped what rhs recorded.  Non-finite
    values raise error(leg index).
    """
    record, (pack, unpack, bprop, bnorm) = LegRecord(), band or ((lambda z: z), (
        lambda z, base=None: z if base is None else _lin((1, base), (1, z))), prop, norm)
    k1 = hist = e = h = None
    i = 0

    def size():
        if e is None:
            return 1, 2 if cold else caps[i]
        j = 0
        while (dense and hist is not None and i + j < len(spans)
               and e * abs(sum(spans[i:i + j + 1]) / h) ** 5 <= tol):
            j += 1
        return (j, 1) if j else (1, next((q for q in range(1, caps[i])
                                          if e * abs(spans[i] / (q * h)) ** 5 <= tol), caps[i]))

    while i < len(spans):
        if spans[i] == 0:
            emit(state)
            i += 1
            continue
        (j, m), k1 = size(), pack(rhs(state)) if k1 is None else k1
        start = (state, k1, hist) if j > 1 or m < caps[i] else None   # a redo, inner samples
        for redo in (True, False):
            hs, worst = sum(spans[i:i + j]) / m, 0.0
            thetas, inner = np.cumsum(spans[i:i + j - 1]) / hs, []
            for _ in range(m):
                k10, hist0, mid = k1, hist, []
                state = step(state, hs, lambda: unpack(bprop(0.5 * hs, k10)),
                             lambda z: mid.append(_lin((0.5, pack(z)))))
                if not all(u is None or np.isfinite(u).all() for u in state):
                    raise error(i + j - 1)
                size_y = max(norm(state), 1e-300)
                k1, hist, e, h = pack(rhs(state)), (k10, mid.pop(), hs), None, hs
                record.steps += 1
                if j > 1 and release is not None:
                    release()
                if hist0 is not None:       # the g-nodes, the first three at t0
                    hp = hist0[2]           # W's row 4: the fourth divided difference
                    W = np.linalg.inv(np.vander([-hp / hs, -0.5 * hp / hs, 0.0, 0.5, 1.0],
                                                increasing=True))
                    g = (bprop(hp, hist0[0]), bprop(0.5 * hp, hist0[1]), k10,
                         bprop(0.5 * hs, hist[1]), k1)
                    for theta in thetas:    # samples inside, less e^{theta h L} y0
                        c = theta ** np.arange(1.0, 6.0) / np.arange(1.0, 6.0) @ W * hs
                        inner.append(_lin((1, bprop(theta * hs, _lin(*zip(c[:3], g[:3])))),
                                          (1, bprop((theta - 1) * hs, _lin(*zip(c[3:], g[3:]))))))
                    d = _lin((1, bprop(hs, _lin(*zip(W[4, :3], g[:3])))), *zip(W[4, 3:], g[3:]))
                    e, g, d = abs(hs) / 120.0 * bnorm(d) / size_y, None, None
                    worst = max(worst, e)
                    if redo and start is not None and not e <= tol:
                        break
            else:
                break
            state, k1, hist = start
            record.redone += 1
            j, m = size()
        record.counts += [0] * (j - 1) + [m]
        record.max_error = max(record.max_error, worst)
        for q, theta in enumerate(thetas):
            y = prop(theta * hs, start[0])
            start = start if q < len(thetas) - 1 else None   # not held through the sample
            emit(unpack(inner.pop(0), y))
            del y
        start = None                        # not held through the sample
        emit(state)
        i += j
    record.inner = record.counts.count(0)
    return record


def wave_legs(state, dt: float, marks, emit=None, legs: list | None = None):
    """IF-RK4 steps (dt < 0: backward) on `state.spectral()` to each
    nondecreasing step count in `marks` (0: the input), `controlled_legs`
    sizing them at WAVE_LEG_TOL (at least dt), a step spanning several legs
    with dense output in between; emit(st, y, kept) gets the physical
    state at t + mark dt, its spectral fields and kept, the step end's
    `spectral_rhs(y, kept)` record of them that st was built from ({} if
    none), read only but for clearing kept.  Returns the last mark's
    state; a `legs` list receives the `LegRecord`.  A Yang-Mills step
    makes 108 + 36 transforms, the last 36 the next step's first stage."""
    marks = [int(m) for m in marks]
    caps = [b - a for a, b in zip([0] + marks, marks)]
    done, held, kept = iter(marks), [], {}

    def sample(y):
        mark = next(done)
        rec = kept if kept.get("Ah") is y[0] else {}     # made of this very y
        held[:] = [state if mark == 0 else state.from_spectral(state.t + mark * dt, y, rec)]
        if emit is not None:
            emit(held[0], y, rec)

    def step(y, h, k1, mid):
        held.clear()                        # nothing emitted or recorded held through a step
        kept.clear()
        return rk4_step(y, h, state.spectral_rhs, state.propagate, k1, mid)

    def blowup(leg):
        return BlowUpError(f"non-finite state at t={state.t + marks[leg] * dt:.6g}")

    band = Band(state.grid)
    record = controlled_legs(state.spectral(), [c * dt for c in caps], caps, step,
                             lambda y: state.spectral_rhs(y, kept), state.propagate,
                             lambda y: spectral_norm(state.grid, y), sample, blowup,
                             WAVE_LEG_TOL, dense=True, band=(band.pack, band.unpack, replace(
                                 state, grid=band).propagate, lambda z: spectral_norm(band, z)),
                             release=kept.clear)
    if legs is not None:
        legs.append(record)
    return held[0]


def energy(state: CauchyState, Ah: np.ndarray | None = None,
           Fh: np.ndarray | None = None) -> float:
    """Total curvature energy: 1/2 sum_{a<b} ||F_ab||_L2^2, the magnetic part
    by Parseval; pass rfft A as Ah, or the magnetic curvature hat as Fh."""
    g = state.grid
    if Fh is None:
        Fh = _curvature_hat(g, state.spec, state.A, g.fft(state.A) if Ah is None else Ah)
    nu = state.spec.metric_normalization
    return 0.5 * nu * (g.spectral_l2(Fh) ** 2 + g.l2_norm(state.E) ** 2)


@dataclass
class Trajectory:
    """An `evolve` run: `columns` maps "t" and each `observe` key to its
    samples, in results.csv order; the final state and the `LegRecord`."""

    columns: dict
    final: object
    legs: LegRecord


def evolve(state, dt: float, T: float, sample_every: int = 0, cfl: float = 0.5,
           sigma: float = 5.0 / 6.0) -> Trajectory:
    """Integrate a wave state to t + T, sampling its `observe` (sigma read by
    a Yang-Mills state alone) at the `sample_marks` of dt, T, cfl and
    `sample_every`; one INFO record logs the `LegRecord`."""
    columns = {}

    def sample(st, hat, kept):
        for name, value in {"t": st.t, **st.observe(hat, kept, sigma)}.items():
            columns.setdefault(name, []).append(value)

    legs = []
    final = wave_legs(state, dt, sample_marks(state.grid, dt, T, cfl, sample_every),
                      sample, legs)
    log_legs("evolve", final.t, legs[0])
    return Trajectory(columns, final, legs[0])


def log_legs(what: str, t: float, record: LegRecord, var: str = "t") -> None:
    """One INFO record of a run's `LegRecord`, ending at var = t."""
    log.info("%s to %s = %.6g: %d IF steps, %d samples between them, %d legs redone, "
             "step error <= %.1e", what, var, t, record.steps, record.inner, record.redone,
             record.max_error)


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
