"""Gauge-covariant geometry on the lattice.

Connections and electric fields are arrays of shape (3, d, n, n, n): spatial
component, algebra direction, sites.  Curvature is stored on the index pairs
PAIRS = ((0,1), (0,2), (1,2)); F_{ji} = -F_{ij} by convention.  Group fields
are (4, n, n, n) unit quaternions for SU(2) and (1, n, n, n) phases for U(1).
"""

from __future__ import annotations

import warnings

import numpy as np

from . import algebra as alg
from .algebra import StructureSpec, bracket
from .grid import Grid
from .spectral import (ConvergenceError, dealias, derivative, derivative_hat,
                       divergence, gradient, inverse_laplacian)

PAIRS = ((0, 1), (0, 2), (1, 2))
_PAIR_INDEX = {(0, 1): (0, 1.0), (1, 0): (0, -1.0),
               (0, 2): (1, 1.0), (2, 0): (1, -1.0),
               (1, 2): (2, 1.0), (2, 1): (2, -1.0)}


def pair_component(F: np.ndarray, i: int, j: int) -> np.ndarray:
    """F_{ij} from pair storage, with antisymmetry."""
    idx, sign = _PAIR_INDEX[(i, j)]
    return sign * F[idx]


def curvature(grid: Grid, A: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Magnetic curvature F_ij = d_i A_j - d_j A_i + [A_i, A_j], pair-indexed."""
    Ah = grid.fft(A)
    mag = []
    for i, j in PAIRS:
        lin = grid.ifft(derivative_hat(grid, Ah[j], i) - derivative_hat(grid, Ah[i], j))
        mag.append(lin + dealias(grid, bracket(A[i], A[j], spec)))
    return np.stack(mag)


def covariant_derivative(grid: Grid, A: np.ndarray, B: np.ndarray, axis: int,
                         spec: StructureSpec) -> np.ndarray:
    """Spatial covariant derivative D_a B = d_a B + [A_a, B].

    The temporal direction needs a time stencil and lives in the heat-flow
    module.
    """
    if axis == 0 and A.shape[0] == 4:
        raise ValueError("temporal covariant derivative requires a time stencil")
    return derivative(grid, B, axis) + dealias(grid, bracket(A[axis], B, spec))


def mc_derivative(grid: Grid, U: np.ndarray, spec: StructureSpec,
                  return_residual: bool = False):
    """(d_i U) U^{-1} as an algebra-valued 3-component field.

    Uses the logarithm chart (exact tangency, spectral derivative of log U)
    where the chart is single-valued; falls back to componentwise spectral
    derivatives of the group element followed by tangent projection.
    """
    if spec.name == "u1":
        out = gradient(grid, U[0])[:, None]
        return (out, 0.0) if return_residual else out
    X = alg.log_map(U, spec)
    theta_max = float(np.max(np.sqrt(np.einsum("a...,a...->...", X, X))))
    if theta_max < 0.9 * np.pi:
        dX = gradient(grid, X)
        out = np.stack([alg.dexp_right(X, dX[i], spec) for i in range(3)])
        resid = 0.0
    else:
        dU = gradient(grid, U)
        comps, resid = [], 0.0
        for i in range(3):
            c, r = alg.maurer_cartan_coeff(U, dU[i], spec, return_residual=True)
            comps.append(c)
            resid = max(resid, r)
        out = np.stack(comps)
    return (out, resid) if return_residual else out


def adjoint_field(U: np.ndarray, X: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Ad_U applied pointwise to an algebra-valued field (any leading axes)."""
    if X.ndim == 5:  # vector of algebra scalars
        return np.stack([alg.adjoint(U, X[i], spec) for i in range(X.shape[0])])
    return alg.adjoint(U, X, spec)


def gauge_transform(grid: Grid, A: np.ndarray, E: np.ndarray | None,
                    U: np.ndarray, spec: StructureSpec):
    """Apply A -> U A U^{-1} - (dU) U^{-1}, E -> U E U^{-1} for spatial U;
    warns when the Maurer-Cartan tangency residual exceeds 1e-6."""
    mc, resid = mc_derivative(grid, U, spec, return_residual=True)
    if resid > 1e-6:
        warnings.warn(f"gauge field is rough: Maurer-Cartan tangency residual {resid:.3e}")
    At = dealias(grid, adjoint_field(U, A, spec)) - dealias(grid, mc)
    if E is None:
        return At, None
    return At, dealias(grid, adjoint_field(U, E, spec))


def gauss_residual(grid: Grid, A: np.ndarray, E: np.ndarray,
                   spec: StructureSpec):
    """Covariant divergence of E: the constraint residual field and its L2 norm."""
    r = divergence(grid, E)
    for ell in range(3):
        r = r + dealias(grid, bracket(A[ell], E[ell], spec))
    return r, grid.l2_norm(r)


def _mean_bracket_matrix(grid, A, spec):
    """Mean of sum_l ad_{A_l}^2 as a (d, d) matrix (zero-mode solvability)."""
    d = spec.dim
    M = np.zeros((d, d))
    for b in range(d):
        e_b = np.zeros((d,) + (grid.n,) * 3)
        e_b[b] = 1.0
        col = np.zeros((d,) + (grid.n,) * 3)
        for l in range(3):
            col += bracket(A[l], bracket(A[l], e_b, spec), spec)
        M[:, b] = col.mean(axis=(1, 2, 3))
    return M


def _gauss_operator(grid: Grid, A: np.ndarray, spec: StructureSpec,
                    psih: np.ndarray):
    """The dealiased covariant Laplacian L psi = D^l D_l psi, with
    D_l psi = d_l psi + P[A_l, psi] and P the two-thirds mask, from the rfft
    psih of psi: returns the rfft of L psi and of D psi (12 + 12 transforms
    and 6 brackets at su(2)).  On the range of P, L is symmetric and negative
    definite in the bi-invariant L2 product, up to its covariantly constant
    kernel."""
    ik = grid.ik[:, None]
    psi = grid.ifft(psih)
    Dh = grid.fft(np.stack([bracket(A[ell], psi, spec) for ell in range(3)]))
    Dh *= grid.dealias_mask
    Dh += ik * psih
    D = grid.ifft(Dh)
    Lh = grid.fft(sum(bracket(A[ell], D[ell], spec) for ell in range(3)))
    Lh *= grid.dealias_mask
    Lh += np.sum(ik * Dh, axis=0)
    return Lh, Dh


def _spectral_dot(grid: Grid, xh: np.ndarray, yh: np.ndarray) -> float:
    """L2 product of two real fields from their rfft, up to a constant factor."""
    return float(np.sum(grid.parseval_weight * (xh.real * yh.real + xh.imag * yh.imag)))


def constraint_repair(grid: Grid, A: np.ndarray, E_raw: np.ndarray,
                      spec: StructureSpec, tol: float = 1e-10,
                      max_iter: int = 40, return_residual: bool = False):
    """Project E_raw onto the Gauss constraint surface: E = E_raw + D_A phi.

    Data whose residual is already at most tol comes back as it is.  Off
    the two-thirds band the residual is the flat divergence, so phi is the
    flat inverse Laplacian there.  On the band phi solves L phi = -G with the
    dealiased covariant Laplacian L of `_gauss_operator`, by preconditioned
    conjugate gradients (Hestenes & Stiefel 1952) with the flat inverse
    Laplacian off the mean and the inverse of the mean of sum_l ad_{A_l}^2
    on it (zero in the abelian case, where one iteration is exact).  The
    loop ends when the physical `gauss_residual` is at most tol; a stall or
    max_iter iterations raise ConvergenceError with one residual per
    iteration.  return_residual also returns that final residual norm.
    """
    res, norm = gauss_residual(grid, A, E_raw, spec)
    if norm <= tol:
        return (E_raw, norm) if return_residual else E_raw
    mask = grid.dealias_mask
    rh = grid.fft(res)
    dchi = grid.ifft(grid.ik[:, None] * np.where(mask, 0.0, grid.inv_k2 * rh))
    E = E_raw + dchi
    brk = sum(bracket(A[ell], dchi[ell], spec) for ell in range(3))
    rh += grid.fft(brk)
    rh *= mask                               # the residual of E, on the band
    mean_inv = np.linalg.pinv(-_mean_bracket_matrix(grid, A, spec))

    def precondition(rh):
        zh = grid.inv_k2 * rh
        zh[:, 0, 0, 0] = mean_inv @ rh[:, 0, 0, 0].real
        return zh

    Dxh = np.zeros(E.shape[:2] + rh.shape[1:], complex)
    norm, history, ph, rz = grid.spectral_l2(rh), [], None, 0.0
    while True:
        if norm <= tol:
            E_out = E + grid.ifft(Dxh)
            res, norm = gauss_residual(grid, A, E_out, spec)
            if history:
                history[-1] = norm
            if norm <= tol:
                return (E_out, norm) if return_residual else E_out
            rh, ph = mask * grid.fft(res), None      # restart on the true residual
        if len(history) == max_iter or (
                len(history) > 3 and history[-1] > 0.9 * history[-4]):
            break
        zh = precondition(rh)
        rz_old, rz = rz, _spectral_dot(grid, rh, zh)
        ph = zh if ph is None else zh + (rz / rz_old) * ph
        Lph, Dph = _gauss_operator(grid, A, spec, ph)
        alpha = -rz / _spectral_dot(grid, ph, Lph)
        Dxh += alpha * Dph
        rh += alpha * Lph
        norm = grid.spectral_l2(rh)
        history.append(norm)
    raise ConvergenceError(
        f"constraint repair stalled at residual {norm:.3e} "
        f"after {len(history)} iterations (tol {tol:.1e})", history)


def coulomb_project(grid: Grid, A: np.ndarray, spec: StructureSpec,
                    tol: float = 1e-11):
    """Iterated exponential gauge change driving div A to zero.

    Each step applies U = exp(V) with grad V the curl-free part of the
    current connection, at most 40 steps.  Returns the transformed
    connection and the accumulated group field.
    """
    At = A.copy()
    U_tot = alg.identity_group(spec, (grid.n,) * 3)
    history = [grid.l2_norm(divergence(grid, At))]
    for _ in range(40):
        if history[-1] <= tol:
            return At, U_tot, history
        V = inverse_laplacian(grid, divergence(grid, At))
        U_step = alg.exp_map(V, spec)
        At, _ = gauge_transform(grid, At, None, U_step, spec)
        U_tot = alg.group_mul(U_step, U_tot, spec)
        history.append(grid.l2_norm(divergence(grid, At)))
        if history[-1] > history[-2] and history[-1] > 10 * tol:
            raise ConvergenceError(
                f"Coulomb projection diverging: residuals {history[-3:]}", history)
    if history[-1] <= tol:
        return At, U_tot, history
    raise ConvergenceError(
        f"Coulomb projection did not reach tol {tol:.1e}: last {history[-1]:.3e}",
        history)


def random_alg_field(grid: Grid, spec: StructureSpec, rng: np.random.Generator,
                     amplitude: float, mode_cut: float | None = None,
                     decay: float = 2.0, components: int = 0) -> np.ndarray:
    """Band-limited random algebra-valued field with Gaussian spectral decay.

    components=0 gives a scalar (d, n^3) field, otherwise that many leading
    vector components.  Normalized so the max pointwise algebra norm equals
    amplitude.  Raises ValueError on mode_cut or decay <= 0 and amplitude < 0.
    """
    if mode_cut is None:
        mode_cut = grid.n / 6.0
    for name, value, ok, need in (("mode_cut", mode_cut, mode_cut > 0, "positive"),
                                  ("decay", decay, decay > 0, "positive"),
                                  ("amplitude", amplitude, amplitude >= 0, "nonnegative")):
        if not ok:
            raise ValueError(f"{name} must be {need}, got {value}")
    lead = (components,) if components else ()
    f = rng.standard_normal(lead + (spec.dim,) + (grid.n,) * 3)
    m2 = grid.mode_mag2
    keep = m2 <= mode_cut**2
    weight = np.exp(-m2 / decay**2) * keep
    f = grid.ifft(weight * grid.fft(f))
    scale = float(np.max(np.sqrt((f * f).sum(axis=-4))))
    if scale > 0:
        f *= amplitude / scale
    return f


def random_gauge(grid: Grid, spec: StructureSpec, seed: int,
                 amplitude: float = 0.3, mode_cut: float | None = None) -> np.ndarray:
    """Deterministic smooth random gauge transformation U = exp(X)."""
    rng = np.random.default_rng(seed)
    X = random_alg_field(grid, spec, rng, amplitude, mode_cut)
    return alg.exp_map(X, spec)
