"""Maxwell-Klein-Gordon in the temporal gauge: evolution, heat flow,
tension fields, and the modified Hamiltonian.

The Maxwell sector reuses the non-abelian stack with the abelian structure
group.  `MkgState` is a wave state of `dynamics.wave_legs`: it steps (A, E)
in rfft layout with the Yang-Mills `_curl_div_hat` plus the scalar current,
and (phi, phi_t) in the full cfft layout, so a vanishing scalar reproduces
the Yang-Mills trajectories bit for bit.  The five-slice stencils are
`heatflow.make_stencil`'s.  Covariant derivatives are D_a = d_a + i A_a
with A real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics as dyn
from . import heatflow as hf
from .algebra import u1
from .diagnostics import modified_energy, simpson_identity
from .gauge import curvature
from .grid import Grid
from .spectral import (cdealias, cgradient, dealias, divergence, duhamel,
                       gradient, leray_df)

_U1 = u1()


@dataclass
class MkgState:
    """Temporal-gauge MKG data: real one-form A (u(1) layout), E = dA/dt,
    complex scalar phi and its velocity phit = dphi/dt."""

    grid: Grid
    t: float
    A: np.ndarray          # (3, 1, n, n, n)
    E: np.ndarray
    phi: np.ndarray        # complex (n, n, n)
    phit: np.ndarray

    def copy(self) -> "MkgState":
        return MkgState(self.grid, self.t, self.A.copy(), self.E.copy(),
                        self.phi.copy(), self.phit.copy())

    def spectral(self) -> tuple:
        """(rfft A, rfft E, cfft phi, cfft phit), the fields `wave_legs` steps."""
        g = self.grid
        return g.fft(self.A), g.fft(self.E), g.cfft(self.phi), g.cfft(self.phit)

    def spectral_rhs(self, y: tuple) -> tuple:
        """d/dt of the spectral fields y: the Maxwell `_curl_div_hat` plus the
        masked current, and -|k|^2 phih plus the masked covariant terms."""
        g = self.grid
        Ah, _, phih, _ = y
        A = g.ifft(Ah)
        NA, Nphi = _mkg_nonlinear(g, A, g.cifft(phih), phih, divergence(g, vh=Ah)[0])
        Edot = dyn._curl_div_hat(g, _U1, A, Ah)
        Edot += NA
        Nphi -= g.k2_full * phih
        return y[1], Edot, y[3], Nphi

    def from_spectral(self, t: float, y: tuple) -> "MkgState":
        g = self.grid
        return MkgState(g, t, g.ifft(y[0]), g.ifft(y[1]), g.cifft(y[2]), g.cifft(y[3]))


def covariant_grad(grid: Grid, A: np.ndarray, phi: np.ndarray,
                   dphi: np.ndarray | None = None) -> np.ndarray:
    """D_i phi = d_i phi + i A_i phi, product dealiased; dphi = grad phi if held."""
    dphi = cgradient(grid, phi) if dphi is None else dphi
    return np.stack([dphi[i] + 1j * cdealias(grid, A[i, 0] * phi)
                     for i in range(3)])


def scalar_current(grid: Grid, A: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """J_i = Im(phi conj(D_i phi)), the Maxwell source, in u(1) layout."""
    Dphi = covariant_grad(grid, A, phi)
    J = np.stack([dealias(grid, np.imag(phi * np.conj(Dphi[i])))
                  for i in range(3)])
    return J[:, None]


def _drift_terms(grid: Grid, A: np.ndarray, phi: np.ndarray, dphi: np.ndarray):
    """A.grad phi and |A|^2 phi (|A|^2 dealiased) for the caller to dealias."""
    a = A[:, 0]
    a2 = dealias(grid, a[0]**2 + a[1]**2 + a[2]**2)
    return a[0] * dphi[0] + a[1] * dphi[1] + a[2] * dphi[2], a2 * phi


def mkg_rhs(state: MkgState):
    """(dA, dE, dphi, dphit) in the temporal gauge: `MkgState.spectral_rhs`
    in physical space.  dE adds the scalar current to the Yang-Mills curl
    divergence; the scalar wave is phi_tt = D_j D_j phi."""
    g = state.grid
    _, Edot, _, phitt = state.spectral_rhs(state.spectral())
    return state.E, g.ifft(Edot), state.phit, g.cifft(phitt)


def covariant_laplacian(grid: Grid, A: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """D_j D_j phi = Lap phi + 2i A.grad phi + i (div A) phi - |A|^2 phi."""
    phih = grid.cfft(phi)
    _, Nphi = _mkg_nonlinear(grid, A, phi, phih, divergence(grid, A)[0])
    return grid.cifft(Nphi - grid.k2_full * phih)


def step(state: MkgState, dt: float) -> MkgState:
    """One RK4 step: `dynamics.wave_legs` to the mark 1."""
    return dyn.wave_legs(state, dt, [1])


def mkg_energy(state: MkgState) -> float:
    """H = 1/2 int |F|^2 + sum_a |D_a phi|^2  (D_0 phi = phi_t here)."""
    g = state.grid
    F = curvature(g, state.A, _U1)
    Dphi = covariant_grad(g, state.A, state.phi)
    quad = (np.sum(F * F) + np.sum(state.E * state.E)) * g.site_measure
    quad += (np.sum(np.abs(state.phit) ** 2)
             + np.sum(np.abs(Dphi) ** 2)) * g.site_measure
    return 0.5 * float(quad)


def charge(state: MkgState) -> float:
    """Noether charge int Im(phi conj(phi_t)); zero on admissible torus data."""
    return state.grid.integrate(np.imag(state.phi * np.conj(state.phit)))


def constraint_residual(state: MkgState):
    """div E - Im(phi conj(phi_t)) and its L2 norm."""
    g = state.grid
    r = divergence(g, state.E)[0] - dealias(
        g, np.imag(state.phi * np.conj(state.phit)))
    return r, g.l2_norm(r)


def neutralize_charge(phi: np.ndarray, phit: np.ndarray, grid: Grid):
    """Shift phit so the total charge vanishes (torus admissibility)."""
    q = grid.integrate(np.imag(phi * np.conj(phit)))
    m = grid.integrate(np.abs(phi) ** 2)
    if m < 1e-30:
        return phit
    return phit + 1j * (q / m) * phi


def repair_constraint(state: MkgState) -> MkgState:
    """Project E onto the MKG Gauss constraint (abelian: one exact step)."""
    g = state.grid
    rho = dealias(g, np.imag(state.phi * np.conj(state.phit)))
    src = rho - divergence(g, state.E)[0]
    mean = abs(float(np.mean(src)))
    if mean > 1e-10 * max(1.0, g.l2_norm(src)):
        raise ValueError(
            f"constraint source has nonzero mean {mean:.2e}: "
            "charge-neutralize the scalar data first")
    grad_psi = gradient(g, fh=-g.inv_k2 * g.fft(src))
    return MkgState(g, state.t, state.A, state.E + grad_psi[:, None],
                    state.phi, state.phit)


def evolve(state: MkgState, dt: float, T: float, sample_every: int = 0,
           cfl: float = 0.5):
    """Integrate, recording energy / charge / constraint residual."""
    times, energies, charges, constraint = [], [], [], []

    def sample(st, _hat):
        times.append(st.t)
        energies.append(mkg_energy(st))
        charges.append(charge(st))
        constraint.append(constraint_residual(st)[1])

    final = dyn.wave_legs(state, dt, dyn.sample_marks(state.grid, dt, T, cfl,
                                                      sample_every), sample)
    return {"times": times, "energies": energies, "charges": charges,
            "constraint": constraint, "final": final}


# --- MKG heat flow ------------------------------------------------------------

def mkg_heatflow_rhs(grid: Grid, A: np.ndarray, phi: np.ndarray):
    """Parabolic derivatives in the div-A gauge:
    dA_i/ds = Lap A_i + Im(phi conj(D_i phi)),
    dphi/ds = Lap phi + 2i A.grad phi - |A|^2 phi
    (the i div A terms cancel against the gauge drift)."""
    Ah, phih = grid.fft(A), grid.cfft(phi)
    NA, Nphi = _mkg_nonlinear(grid, A, phi, phih)
    return grid.ifft(NA - grid.k2 * Ah), grid.cifft(Nphi - grid.k2_full * phih)


def _mkg_nonlinear(grid, A, phi, phih, div_a=None):
    """Masked transforms of the current Im(phi conj(D_i phi)) (u(1) layout)
    and of 2i A.grad phi - |A|^2 phi, plus i (div A) phi when div_a is given
    (the wave form; the heat flow's gauge drift cancels it), each outer
    product transformed once; phih = cfft(phi)."""
    dphi = cgradient(grid, fh=phih)
    J = np.imag(phi * np.conj(covariant_grad(grid, A, phi, dphi)))
    adg, mass = _drift_terms(grid, A, phi, dphi)
    src = 2j * adg - mass
    if div_a is not None:
        src += 1j * div_a * phi
    return (grid.dealias_mask * grid.fft(J))[:, None], \
        grid.dealias_mask_full * grid.cfft(src)


def flow_mkg_stencil(stencil: hf.TimeStencil, s_samples, substeps: int = 4):
    """Lockstep parabolic flow of the five slices with A_0 per slice.

    A_0 obeys dA_0/ds = Lap A_0 + Im(phi conj(d_t phi)) - A_0 |phi|^2 with
    A_0(0) = 0; d_t phi is the cross-slice stencil derivative, evaluated
    stage by stage.  Returns per-sample dicts of stacked fields.
    """
    g = stencil.grid
    delta = stencil.delta
    A = np.stack([st.A for st in stencil.states])       # (5, 3, 1, n^3)
    phi = np.stack([st.phi for st in stencil.states])   # (5, n^3) complex
    A0 = np.zeros((5,) + (g.n,) * 3)
    wrows = np.stack([hf.fornberg_weights(np.arange(5) * delta, m * delta, 1)
                      for m in range(5)])
    sys = hf._IFSystem(g, ("heat", "cheat", "heat"))

    def nonlin(y):
        Am, phim, A0m = sys.physical(y)
        NA = np.empty_like(y[0])
        Nphi = np.empty_like(y[1])
        for m in range(5):
            NA[m], Nphi[m] = _mkg_nonlinear(g, Am[m], phim[m], y[1][m])
        dt_phi = np.tensordot(wrows, phim, axes=(1, 0))
        NA0 = np.imag(phim * np.conj(dt_phi)) - A0m * np.abs(phim) ** 2
        return NA, Nphi, g.dealias_mask * g.fft(NA0)

    out = []
    sys.sample_legs((A, phi, A0), s_samples, substeps,
                    lambda y, h: sys.step(y, h, nonlin),
                    lambda s, y: out.append({"s": s, "A": y[0], "phi": y[1], "A0": y[2]}))
    return out


def _slice_fields(grid, sample, stencil):
    """Central-slice level-s fields: A, B, phi, D_t phi, A0."""
    delta = stencil.delta
    A5, phi5, A05 = sample["A"], sample["phi"], sample["A0"]
    w1 = hf.fornberg_weights(np.arange(5) * delta, 2 * delta, 1)
    dtA = np.tensordot(w1, A5, axes=(0, 0))
    dtphi = np.tensordot(w1, phi5, axes=(0, 0))
    A_c, phi_c, A0_c = A5[2], phi5[2], A05[2]
    gradA0 = gradient(grid, A0_c)
    B = dtA - gradA0[:, None]
    Dtphi = dtphi + 1j * cdealias(grid, A0_c * phi_c)
    return A_c, B, phi_c, Dtphi, A0_c


def mkg_energy_at(grid, sample, stencil) -> float:
    A_c, B, phi_c, Dtphi, _ = _slice_fields(grid, sample, stencil)
    F = curvature(grid, A_c, _U1)
    Dphi = covariant_grad(grid, A_c, phi_c)
    quad = (np.sum(F * F) + np.sum(B * B)) * grid.site_measure
    quad += (np.sum(np.abs(Dtphi) ** 2) + np.sum(np.abs(Dphi) ** 2)) * grid.site_measure
    return 0.5 * float(quad)


def mkg_tension(stencil: hf.TimeStencil, s: float, substeps: int = 4, sample=None):
    """Tension fields (v, w) at level s on the central slice.

    v = box_A phi;  w_j = d^a F_{aj} + Im(phi conj(D_j phi)).  Pass the
    `flow_mkg_stencil` sample at level s as `sample` when the caller holds it.
    """
    g = stencil.grid
    delta = stencil.delta
    smp = sample if sample is not None else flow_mkg_stencil(stencil, [s], substeps)[-1]
    A5, phi5, A05 = smp["A"], smp["phi"], smp["A0"]
    A_c, B, phi_c, Dtphi, A0_c = _slice_fields(g, smp, stencil)

    w1 = hf.fornberg_weights(np.arange(5) * delta, 2 * delta, 1)
    w2 = hf.fornberg_weights(np.arange(5) * delta, 2 * delta, 2)
    # B per slice, for d_t B at the center
    B5 = np.empty_like(A5)
    for m in range(5):
        wm = hf.fornberg_weights(np.arange(5) * delta, m * delta, 1)
        B5[m] = np.tensordot(wm, A5, axes=(0, 0)) - gradient(g, A05[m])[:, None]
    dtB = np.tensordot(w1, B5, axes=(0, 0))

    Ah = g.fft(A_c)
    div_a = divergence(g, vh=Ah)[0]
    lapA = g.ifft(-g.k2 * Ah)
    grad_div = gradient(g, div_a)
    J = scalar_current(g, A_c, phi_c)
    w = np.empty_like(A_c)
    for j in range(3):
        w[j] = -dtB[j] + lapA[j] - grad_div[j][None] + J[j]

    # v = box_A phi = -D_t D_t phi + sum_j D_j D_j phi
    dt2phi = np.tensordot(w2, phi5, axes=(0, 0))
    dtphi = np.tensordot(w1, phi5, axes=(0, 0))
    dtA0 = np.tensordot(w1, A05, axes=(0, 0))
    DtDtphi = dt2phi + 1j * cdealias(g, dtA0 * phi_c) \
        + 2j * cdealias(g, A0_c * dtphi) - cdealias(g, A0_c**2 * phi_c)
    v = -DtDtphi + covariant_laplacian(g, A_c, phi_c)
    return v, w


def mkg_w2_leading(state: MkgState, s: float, n_quad: int = 32) -> np.ndarray:
    """Leading quadratic tension: P_j w(s) ~ -2 P_j Im W(d_t phi, conj grad d_t phi)."""
    g = state.grid
    gh = g.cfft(state.phit)

    def sources(s_nodes):
        for s_node in s_nodes:
            fh = np.exp(-s_node * g.k2_full) * gh
            yield g.fft(np.imag(g.cifft(fh) * np.conj(cgradient(g, fh=fh))))

    w2 = -2.0 * leray_df(g, duhamel(g, s, n_quad, sources))
    return w2[:, None]


def mkg_modified_energy(stencil: hf.TimeStencil, N: float, sigma: float,
                        n_samples: int = 24, span: float = 1024.0,
                        substeps: int = 4):
    """Modified Hamiltonian: sup + ds/s integral of (N^2 s)^{1-sigma} H(t,s)."""
    g = stencil.grid
    sgrid = hf.sample_grid(1.0 / N**2, n_samples, span)
    samples = flow_mkg_stencil(stencil, sgrid, substeps=substeps)
    s_vals = np.array([smp["s"] for smp in samples])
    h_vals = np.array([mkg_energy_at(g, smp, stencil) for smp in samples])
    return modified_energy(s_vals, h_vals, N, sigma)


def mkg_hamiltonian_identity_check(state0: MkgState, t_span: float, s: float,
                                   n_nodes: int = 9, dt: float = 1e-3,
                                   delta: float | None = None,
                                   substeps: int = 4):
    """Residual of H(t1,s) - H(t0,s) = -Re int int D_t phi conj(v) + F_{j0} w_j,
    by `diagnostics.simpson_identity`; returns (residual, lhs, rhs)."""
    g = state0.grid
    delta = 5.0 * dt if delta is None else delta

    def node(st):
        stencil = hf.make_stencil(st, delta, dt)
        smp = flow_mkg_stencil(stencil, [s], substeps=substeps)[-1]
        _, B, _, Dtphi, _ = _slice_fields(g, smp, stencil)
        v, w = mkg_tension(stencil, s, sample=smp)
        # F_{j0} = -B_j pairs with w_j; the real part applies to the scalar term
        dens = -np.real(Dtphi * np.conj(v)) - sum(B[j, 0] * w[j, 0] for j in range(3))
        return g.integrate(dens), mkg_energy_at(g, smp, stencil)

    return simpson_identity(state0, t_span, n_nodes, dt, node)
