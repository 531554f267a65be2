"""Maxwell-Klein-Gordon in the temporal gauge: evolution, heat flow,
tension fields, and the modified Hamiltonian.

The Maxwell sector reuses the non-abelian stack with the abelian structure
group.  `MkgState` is a wave state of `dynamics.wave_legs` and `evolve`: its IF step
takes (A, E) in rfft layout by the Maxwell wave flow (`dynamics._wave_flow`)
plus the scalar current, the abelian brackets being 0, and (phi, phi_t) in
the full cfft layout by the Klein-Gordon rotation plus the covariant terms,
so a vanishing scalar reproduces the u(1) Yang-Mills trajectories bit for
bit.  The Hamiltonian's Maxwell part is `dynamics.energy` at u(1); one
nonlinearity (`_mkg_nonlinear`) gives the scalar current and D_j D_j phi to
the wave step, the heat flow and the tension.  It acts on truncated Taylor
jets in t, products taken by the Leibniz rule (`_jmul`): the wave step and
the heat flow pass one coefficient, and `flow_jets` flows the data with
their first two t-derivatives, which the tension and the Hamiltonian
identity read (Taylor-mode forward differentiation, Griewank & Walther
2008, ch. 13).  Covariant derivatives are D_a = d_a + i A_a with A real.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from . import dynamics as dyn
from . import heatflow as hf
from .algebra import u1
from .diagnostics import modified_energy, simpson_identity
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

    def spectral_rhs(self, y: tuple, kept: dict | None = None) -> tuple:
        """Nonlinear part of d/dt of the spectral fields y (a kept dict gets
        Ah, A and phi): the masked scalar current for E, the masked covariant
        terms for phit (None: zero); 8 + 12 transforms, no Maxwell bracket."""
        g = self.grid
        Ah, _, phih, _ = y
        A, phi = g.ifft(Ah), g.cifft(phih)
        if kept is not None:
            kept.update(Ah=Ah, A=A, phi=phi)
        NA, Nphi = _mkg_nonlinear(g, A, phi[None], phih[None], divergence(g, vh=Ah))
        return None, NA, None, Nphi[0]

    def propagate(self, tau: float, y: tuple) -> tuple:
        """The linear flow over tau: the Maxwell wave on (A, E), phi_tt =
        Lap phi on (phi, phit)."""
        g = self.grid
        return dyn._wave_flow(g, tau, *y[:2]) + dyn._wave_flow(g, tau, *y[2:], full=True)

    def from_spectral(self, t: float, y: tuple, kept: dict | None = None) -> "MkgState":
        g = self.grid
        A, phi = (kept["A"], kept["phi"]) if kept else (g.ifft(y[0]), g.cifft(y[2]))
        return MkgState(g, t, A, g.ifft(y[1]), phi, g.cifft(y[3]))

    def observe(self, hat: tuple, kept: dict, sigma: float) -> dict:
        """One `dynamics.evolve` sample by its results.csv columns, from hat =
        (Ah, Eh, phih, phith): Hamiltonian, charge, Gauss-law residual norm;
        sigma goes unread, as an H^sigma column would change the artifacts."""
        return {"hamiltonian": _hamiltonian(self.grid, self.A, self.E, self.phi, self.phit,
                                            hat[0], hat[2]),
                "charge": charge(self), "constraint": constraint_residual(self, hat[1])[1]}


def _jmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Leibniz product of two jets of t-derivatives (f, d_t f, d_t^2 f, ...)
    held on their leading axis, as long as the shorter: (ab)^(m) =
    sum_j C(m, j) a^(j) b^(m-j).  With one coefficient the plain product."""
    return np.stack([a[0] * b[0]] + [sum(comb(m, j) * a[j] * b[m - j] for j in range(m + 1))
                                     for m in range(1, min(len(a), len(b)))])


def _aphi_hat(grid: Grid, A: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Masked cfft of the jets A_i phi, the product term of D_i phi:
    A of shape (3, k, n, n, n), phi of shape (k, n, n, n)."""
    return grid.dealias_mask_full * grid.cfft(np.stack([_jmul(a, phi) for a in A]))


def _current(phi: np.ndarray, Dphi: np.ndarray) -> np.ndarray:
    """Im(phi conj(D_a phi)), the scalar current J_a for the D_a phi given:
    the charge density for D_0 phi = phi_t, J_i for D_i phi."""
    return np.imag(phi * np.conj(Dphi))


def scalar_current(grid: Grid, A: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """J_i = Im(phi conj(D_i phi)), the Maxwell source, in u(1) layout:
    `_mkg_nonlinear`'s current in physical space."""
    return grid.ifft(_mkg_nonlinear(grid, A, phi[None], grid.cfft(phi)[None])[0])


def mkg_rhs(state: MkgState):
    """(dA, dE, dphi, dphit) in the temporal gauge: `MkgState.spectral_rhs`
    plus the linear parts, in physical space.  dE adds the scalar current to
    the Maxwell curl divergence; the scalar wave is phi_tt = D_j D_j phi."""
    g = state.grid
    y = state.spectral()
    _, NA, _, Nphi = state.spectral_rhs(y)
    NA += dyn._curl_div_hat(g, _U1, state.A, y[0])
    return state.E, g.ifft(NA), state.phit, g.cifft(Nphi - g.k2_full * y[2])


def _hamiltonian(grid: Grid, A, B, phi, Dtphi, Ah=None, phih=None) -> float:
    """H = 1/2 int |F|^2 + |B|^2 + |D_t phi|^2 + sum_j |D_j phi|^2: the
    Maxwell part is `dynamics.energy` at u(1), |D phi|^2 is by Parseval of
    its masked transform.  Pass rfft A and cfft phi as Ah, phih when held."""
    phih = grid.cfft(phi) if phih is None else phih
    kphih = np.stack([grid.kfull(i) * phih for i in range(3)])
    Dphih = 1j * (kphih + _aphi_hat(grid, A, phi[None])[:, 0])
    quad = (np.sum(np.abs(Dtphi) ** 2) + np.sum(Dphih.real ** 2 + Dphih.imag ** 2)
            / grid.n ** 3) * grid.site_measure
    return dyn.energy(dyn.CauchyState(grid, _U1, 0.0, A, B), Ah) + 0.5 * float(quad)


def mkg_energy(state: MkgState) -> float:
    """H = 1/2 int |F|^2 + sum_a |D_a phi|^2  (D_0 phi = phi_t here)."""
    return _hamiltonian(state.grid, state.A, state.E, state.phi, state.phit)


def charge(state: MkgState) -> float:
    """Noether charge int Im(phi conj(phi_t)); zero on admissible torus data."""
    return state.grid.integrate(_current(state.phi, state.phit))


def constraint_residual(state: MkgState, Eh: np.ndarray | None = None):
    """div E - Im(phi conj(phi_t)) and its L2 norm; pass rfft E as Eh when held."""
    g = state.grid
    rho = dealias(g, _current(state.phi, state.phit))
    r = divergence(g, state.E, vh=Eh)[0] - rho
    return r, g.l2_norm(r)


def neutralize_charge(phi: np.ndarray, phit: np.ndarray, grid: Grid):
    """Shift phit so the total charge vanishes (torus admissibility)."""
    q = grid.integrate(_current(phi, phit))
    m = grid.integrate(np.abs(phi) ** 2)
    if m < 1e-30:
        return phit
    return phit + 1j * (q / m) * phi


def repair_constraint(state: MkgState) -> MkgState:
    """Project E onto the MKG Gauss constraint (abelian: one exact step)."""
    g = state.grid
    r, norm = constraint_residual(state)
    mean = abs(float(np.mean(r)))
    if mean > 1e-10 * max(1.0, norm):
        raise ValueError(
            f"constraint source has nonzero mean {mean:.2e}: "
            "charge-neutralize the scalar data first")
    grad_psi = gradient(g, fh=g.inv_k2 * g.fft(r))
    return MkgState(g, state.t, state.A, state.E + grad_psi[:, None],
                    state.phi, state.phit)


# --- MKG heat flow ------------------------------------------------------------

def mkg_heatflow_rhs(grid: Grid, A: np.ndarray, phi: np.ndarray):
    """Parabolic derivatives in the div-A gauge:
    dA_i/ds = Lap A_i + Im(phi conj(D_i phi)),
    dphi/ds = Lap phi + 2i A.grad phi - |A|^2 phi
    (the i div A terms cancel against the gauge drift)."""
    Ah, phih = grid.fft(A), grid.cfft(phi)
    NA, Nphi = _mkg_nonlinear(grid, A, phi[None], phih[None])
    return grid.ifft(NA - grid.k2 * Ah), grid.cifft(Nphi[0] - grid.k2_full * phih)


def _mkg_nonlinear(grid, A, phi, phih, div_a=None):
    """Masked transforms of the current Im(phi conj(D_i phi)) (u(1) layout)
    and of 2i A.grad phi - |A|^2 phi (|A|^2 dealiased), plus i (div A) phi
    when div_a is given (the wave form; the heat flow's gauge drift cancels
    it), each outer product transformed once.  The fields are jets of k
    t-derivatives (`_jmul`): A of shape (3, k, n, n, n), the jet on its
    u(1) axis, and phi, phih = cfft(phi) and div_a of shape (k, n, n, n)."""
    dphi = cgradient(grid, fh=phih)
    Dphi = dphi + 1j * grid.cifft(_aphi_hat(grid, A, phi))
    J = np.stack([np.imag(_jmul(phi, np.conj(d))) for d in Dphi])
    a2 = dealias(grid, _jmul(A[0], A[0]) + _jmul(A[1], A[1]) + _jmul(A[2], A[2]))
    src = 2j * (_jmul(A[0], dphi[0]) + _jmul(A[1], dphi[1]) + _jmul(A[2], dphi[2])) \
        - _jmul(a2, phi)
    if div_a is not None:
        src += _jmul(1j * div_a, phi)
    return grid.dealias_mask * grid.fft(J), grid.dealias_mask_full * grid.cfft(src)


def flow_jets(state: MkgState, s_samples, substeps: int = 4) -> list[dict]:
    """Flow the data with their t-derivatives as jets through the sorted
    parabolic times s_samples.

    A and phi are 3-jets (the field, d_t, d_t^2) that start from (A, E,
    d_t E) and (phi, phit, d_t phit) of `mkg_rhs`; A_0 is a 2-jet that
    starts at 0 and obeys dA_0/ds = Lap A_0 + Im(phi conj(d_t phi))
    - A_0 |phi|^2, d_t phi being the phi jet shifted down one order.  The
    IF-RK4 map is a polynomial in the fields, so each jet holds the exact
    t-derivatives of its flowed field.  Returns one dict per sample: "s",
    "A" (3, 3, n, n, n), "phi" (3, n, n, n) and "A0" (2, n, n, n).
    """
    g = state.grid
    _, dE, _, dphit = mkg_rhs(state)
    A = np.concatenate((state.A, state.E, dE), axis=1)
    phi = np.stack((state.phi, state.phit, dphit))
    sys = hf._IFSystem(g, ("heat", "cheat", "heat"))

    def nonlin(y):
        A, phi, A0 = sys.physical(y)
        NA, Nphi = _mkg_nonlinear(g, A, phi, y[1])
        phi2 = phi[:2]
        NA0 = np.imag(_jmul(phi2, np.conj(phi[1:]))) \
            - _jmul(A0, np.real(_jmul(phi2, np.conj(phi2))))
        return NA, Nphi, g.dealias_mask * g.fft(NA0)

    out = []
    sys.sample_legs((A, phi, np.zeros((2,) + (g.n,) * 3)), s_samples, substeps, nonlin,
                    lambda s, y: out.append({"s": s, "A": y[0], "phi": y[1], "A0": y[2]}))
    return out


def _time_jets(grid: Grid, sample: dict):
    """The 2-jets B = d_t A - grad A_0 and D_t phi = d_t phi + i A_0 phi
    (product dealiased) of a `flow_jets` sample."""
    A0 = sample["A0"]
    return (sample["A"][:, 1:] - gradient(grid, A0),
            sample["phi"][1:] + 1j * cdealias(grid, _jmul(A0, sample["phi"])))


def _energy_at(grid: Grid, sample: dict) -> float:
    """H(t, s) of a `flow_jets` sample."""
    B, Dtphi = _time_jets(grid, sample)
    return _hamiltonian(grid, sample["A"][:, :1], B[:, :1], sample["phi"][0], Dtphi[0])


def mkg_tension(state: MkgState, s: float, substeps: int = 4, sample=None):
    """Tension fields (v, w) of the data at level s.

    v = box_A phi = -D_t D_t phi + D_j D_j phi;
    w_j = d^a F_{aj} + Im(phi conj(D_j phi)).  Pass the `flow_jets` sample
    at level s as `sample` when the caller holds it.
    """
    g = state.grid
    smp = sample if sample is not None else flow_jets(state, [s], substeps)[-1]
    A, phi = smp["A"][:, :1], smp["phi"][:1]
    B, Dtphi = _time_jets(g, smp)
    # J and D_j D_j phi - Lap phi from one nonlinearity in the wave form
    Ah, phih = g.fft(A), g.cfft(phi)
    div_a = divergence(g, vh=Ah)
    NA, Nphi = _mkg_nonlinear(g, A, phi, phih, div_a)
    w = -B[:, 1:] + g.ifft(NA - g.k2 * Ah) - gradient(g, div_a)
    DtDtphi = Dtphi[1] + 1j * cdealias(g, smp["A0"][0] * Dtphi[0])
    v = g.cifft(Nphi - g.k2_full * phih)[0] - DtDtphi
    return v, w


def mkg_w2_leading(state: MkgState, s: float) -> np.ndarray:
    """Leading quadratic tension: P_j w(s) ~ -2 P_j Im W(d_t phi, conj grad d_t phi),
    by 32-node Gauss-Legendre in s'."""
    g = state.grid
    gh = g.cfft(state.phit)

    def sources(s_nodes):
        for s_node in s_nodes:
            fh = np.exp(-s_node * g.k2_full) * gh
            yield g.fft(_current(g.cifft(fh), cgradient(g, fh=fh)))

    w2 = -2.0 * leray_df(g, duhamel(g, s, 32, sources))
    return w2[:, None]


def mkg_modified_energy(state: MkgState, N: float, sigma: float, n_samples: int = 24):
    """Modified Hamiltonian: sup + ds/s integral of (N^2 s)^{1-sigma} H(t,s)."""
    g = state.grid
    samples = flow_jets(state, hf.sample_grid(1.0 / N**2, n_samples))
    s_vals = np.array([smp["s"] for smp in samples])
    h_vals = np.array([_energy_at(g, smp) for smp in samples])
    return modified_energy(s_vals, h_vals, N, sigma)


def mkg_hamiltonian_identity_check(state0: MkgState, t_span: float, s: float,
                                   n_nodes: int = 9, dt: float = 1e-3,
                                   substeps: int = 4):
    """Residual of H(t1,s) - H(t0,s) = -Re int int D_t phi conj(v) + F_{j0} w_j,
    by `diagnostics.simpson_identity`, the wave stepped by dt between the
    nodes; returns (residual, lhs, rhs)."""
    g = state0.grid

    def node(st):
        smp = flow_jets(st, [s], substeps)[-1]
        B, Dtphi = _time_jets(g, smp)
        v, w = mkg_tension(st, s, sample=smp)
        # F_{j0} = -B_j pairs with w_j; the real part applies to the scalar term
        dens = -np.real(Dtphi[0] * np.conj(v)) - sum(B[j, 0] * w[j, 0] for j in range(3))
        return g.integrate(dens), _energy_at(g, smp)

    return simpson_identity(state0, t_span, n_nodes, dt, node)
