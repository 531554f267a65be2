"""Deterministic initial-data recipes.

Random families are reproducible from a seed; non-abelian recipes pass through
the Gauss-constraint repair, and the report records the achieved norms and
the final constraint residual.
"""

from __future__ import annotations

import numpy as np

from . import mkg as mkg_mod
from .algebra import StructureSpec, su2, u1
from .config import ExperimentConfig
from .dynamics import CauchyState
from .gauge import constraint_repair, gauss_residual, random_alg_field
from .grid import Grid
from .spectral import sobolev_norm


def spec_of(name: str) -> StructureSpec:
    if name == "su2":
        return su2()
    if name == "u1":
        return u1()
    raise ValueError(f"unknown structure group {name!r}")


def abelian_wave(grid: Grid, spec: StructureSpec, amplitude: float) -> CauchyState:
    """Travelling plane wave in one algebra direction: an exact solution.

    A_i(t,x) = a p_i cos(k x - w t), k = 2 pi / L, with polarization p
    orthogonal to the propagation axis, w = |k|.  In the non-abelian group
    the single algebra direction keeps every bracket zero.
    """
    X, _, _ = grid.x
    kx = 2.0 * np.pi / grid.L
    shape = (3, spec.dim) + (grid.n,) * 3
    A = np.zeros(shape)
    E = np.zeros(shape)
    ones = np.ones((grid.n,) * 3)
    A[1, 0] = amplitude * np.cos(kx * X) * ones
    E[1, 0] = amplitude * kx * np.sin(kx * X) * ones
    return CauchyState(grid, spec, 0.0, A, E)


def random_state(grid: Grid, spec: StructureSpec, amplitude: float, seed: int,
                 mode_cut: float, decay: float, sigma: float = 5.0 / 6.0):
    """Band-limited random data normalized to ||A||_{H^sigma} = amplitude."""
    rng = np.random.default_rng(seed)
    A = random_alg_field(grid, spec, rng, 1.0, mode_cut, decay, components=3)
    E = random_alg_field(grid, spec, rng, 1.0, mode_cut, decay, components=3)
    A *= amplitude / sobolev_norm(grid, A, sigma)
    E *= amplitude / sobolev_norm(grid, E, sigma - 1.0)
    E, gauss = constraint_repair(grid, A, E, spec, tol=1e-9 * max(amplitude, 1e-6),
                                 return_residual=True)
    st = CauchyState(grid, spec, 0.0, A, E)
    report = {
        "A_hsigma": sobolev_norm(grid, A, sigma),
        "E_hsigma1": sobolev_norm(grid, E, sigma - 1.0),
        "gauss_residual": gauss,
    }
    return st, report


def colliding_pulses(grid: Grid, spec: StructureSpec, amplitude: float):
    """Two smooth counter-propagating wave packets.

    Periodic Gaussian-like envelopes exp(kappa (cos(x - x0) - 1)) carrying
    opposite velocities; in su(2) the packets sit in different algebra
    directions so the collision is genuinely non-abelian; `seed` is not used.
    Returns the state and the repair's final Gauss residual.
    """
    X, Y, Z = grid.x
    two_pi = 2.0 * np.pi
    u = two_pi * X / grid.L
    kappa = 6.0
    env1 = np.exp(kappa * (np.cos(u - 0.5 * np.pi) - 1.0)) * np.ones((grid.n,) * 3)
    env2 = np.exp(kappa * (np.cos(u + 0.5 * np.pi) - 1.0)) * np.ones((grid.n,) * 3)
    k1 = 2.0 * two_pi / grid.L
    shape = (3, spec.dim) + (grid.n,) * 3
    A = np.zeros(shape)
    E = np.zeros(shape)
    d2 = 1 if spec.dim > 1 else 0
    A[1, 0] = amplitude * env1 * np.cos(k1 * X)
    A[2, d2] = amplitude * env2 * np.cos(k1 * X)
    # opposite propagation: E ~ -c dA/dx per packet
    from .spectral import derivative
    E[1, 0] = -derivative(grid, A[1, 0], 0)
    E[2, d2] = +derivative(grid, A[2, d2], 0)
    E, gauss = constraint_repair(grid, A, E, spec, tol=1e-9 * max(amplitude, 1e-6),
                                 return_residual=True)
    return CauchyState(grid, spec, 0.0, A, E), gauss


def mkg_random(grid: Grid, amplitude: float, seed: int, mode_cut: float,
               decay: float) -> mkg_mod.MkgState:
    """Charge-neutral random MKG data on the constraint surface."""
    rng = np.random.default_rng(seed)
    sp_u1 = u1()
    A = random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay, components=3)
    E = random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay, components=3)
    phi = (random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay)[0]
           + 1j * random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay)[0])
    phit = (random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay)[0]
            + 1j * random_alg_field(grid, sp_u1, rng, amplitude, mode_cut, decay)[0])
    phit = mkg_mod.neutralize_charge(phi, phit, grid)
    st = mkg_mod.MkgState(grid, 0.0, A, E, phi, phit)
    return mkg_mod.repair_constraint(st)


def mkg_wave(grid: Grid, amplitude: float) -> mkg_mod.MkgState:
    """A = 0 with a standing Klein-Gordon wave phi = a cos(kx) cos(wt), k = 2 pi / L.

    A travelling complex wave carries net charge, which the torus constraint
    cannot source; the real standing wave is charge-free and still an exact
    linear solution.
    """
    X, _, _ = grid.x
    kx = 2.0 * np.pi / grid.L
    phi = amplitude * np.cos(kx * X) * np.ones((grid.n,) * 3) + 0.0j
    phit = np.zeros_like(phi)
    shape = (3, 1) + (grid.n,) * 3
    return mkg_mod.MkgState(grid, 0.0, np.zeros(shape), np.zeros(shape), phi, phit)


def make_data(cfg: ExperimentConfig, grid: Grid):
    """Build the configured initial data; returns (state, report dict)."""
    spec = spec_of(cfg.group)
    if cfg.family == "abelian-wave":
        st = abelian_wave(grid, spec, cfg.amplitude)
        return st, {"gauss_residual": gauss_residual(grid, st.A, st.E, spec)[1]}
    if cfg.family == "random":
        return random_state(grid, spec, cfg.amplitude, cfg.seed,
                            cfg.mode_cut, cfg.decay, cfg.sigma)
    if cfg.family == "pulses":
        st, gauss = colliding_pulses(grid, spec, cfg.amplitude)
        return st, {"gauss_residual": gauss}
    if cfg.family == "mkg-random":
        st = mkg_random(grid, cfg.amplitude, cfg.seed, cfg.mode_cut, cfg.decay)
        return st, {"constraint": mkg_mod.constraint_residual(st)[1],
                    "charge": mkg_mod.charge(st)}
    if cfg.family == "mkg-wave":
        st = mkg_wave(grid, cfg.amplitude)
        return st, {"constraint": mkg_mod.constraint_residual(st)[1]}
    raise ValueError(f"unknown data family {cfg.family!r}")
