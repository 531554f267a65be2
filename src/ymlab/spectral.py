"""Fourier-side operators on periodic lattice fields.

All functions take physical (real) fields and return physical fields unless
suffixed `_hat`.  Leading axes are batched; spatial axes are the last three.
"""

from __future__ import annotations

import numpy as np
from scipy import fft as _fft

from .algebra import StructureSpec, bracket
from .grid import Grid


class ConvergenceError(RuntimeError):
    """An iteration (gauge solver or quadrature) failed to converge."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


def derivative_hat(grid: Grid, fh: np.ndarray, axis: int) -> np.ndarray:
    return (1j * grid.k(axis)) * fh


def derivative(grid: Grid, f: np.ndarray, axis: int) -> np.ndarray:
    """Spectral partial derivative along spatial axis (0, 1 or 2)."""
    if axis not in (0, 1, 2):
        raise ValueError("axis must be 0, 1 or 2")
    return grid.ifft(derivative_hat(grid, grid.fft(f), axis))


def gradient(grid: Grid, f: np.ndarray | None = None, *,
             fh: np.ndarray | None = None) -> np.ndarray:
    """Stacked partial derivatives, out[l] = d_l f.

    Pass the transform as fh instead of f when the caller already holds it.
    """
    fh = grid.fft(f) if fh is None else fh
    ik = grid.ik.reshape((3,) + (1,) * (fh.ndim - 3) + fh.shape[-3:])
    return grid.ifft(ik * fh)


def divergence(grid: Grid, v: np.ndarray | None = None, *,
               vh: np.ndarray | None = None) -> np.ndarray:
    """div of a field whose leading axis is the spatial component.

    Pass the transform as vh instead of v when the caller already holds it.
    """
    vh = grid.fft(v) if vh is None else vh
    return grid.ifft(sum(derivative_hat(grid, vh[i], i) for i in range(3)))


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.ifft(-grid.k2 * grid.fft(f))


def inverse_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Solve Laplace(u) = f dropping the mean (zero mode maps to zero)."""
    return grid.ifft(-grid.inv_k2 * grid.fft(f))


def heat_propagate(grid: Grid, f: np.ndarray, s: float) -> np.ndarray:
    """Heat semigroup e^{s Laplace}."""
    if s < 0:
        raise ValueError("parabolic time s must be nonnegative")
    return grid.ifft(np.exp(-s * grid.k2) * grid.fft(f))


def dealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Two-thirds rule truncation (idempotent)."""
    return grid.ifft(grid.dealias_mask * grid.fft(f))


# --- complex scalar variants ------------------------------------------------

def cgradient(grid: Grid, f: np.ndarray | None = None, *,
              fh: np.ndarray | None = None) -> np.ndarray:
    """Gradient of a complex scalar; fh is its full-layout transform, if held."""
    fh = grid.cfft(f) if fh is None else fh
    dfh = np.empty((3,) + fh.shape, complex)
    for i in range(3):
        np.multiply(1j * grid.kfull(i), fh, out=dfh[i])
    return grid.cifft(dfh)


def claplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.cifft(-grid.k2_full * grid.cfft(f))


def cdealias(grid: Grid, f: np.ndarray) -> np.ndarray:
    return grid.cifft(grid.dealias_mask_full * grid.cfft(f))


# --- multipliers ----------------------------------------------------------

def i_multiplier_symbol(grid: Grid, N: float, sigma: float) -> np.ndarray:
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1)")
    if N <= 0:
        raise ValueError("frequency threshold N must be positive")
    return (N / np.maximum(grid.kmag, N)) ** (1.0 - sigma)


def i_multiplier(grid: Grid, f: np.ndarray, N: float, sigma: float) -> np.ndarray:
    """Smoothing multiplier: identity below N, (N/|k|)^{1-sigma} above."""
    return grid.ifft(i_multiplier_symbol(grid, N, sigma) * grid.fft(f))


_LP_TAPER = 0.10  # octave fraction occupied by each cosine ramp


def _lp_logk(grid: Grid) -> np.ndarray:
    with np.errstate(divide="ignore"):
        t = np.log2(grid.kmag)
    t[0, 0, 0] = -np.inf
    return t


def _lp_rise(t: np.ndarray, edge: float) -> np.ndarray:
    """Smooth 0 -> 1 cosine step across [edge - taper/2, edge + taper/2]."""
    u = np.clip((t - edge) / _LP_TAPER + 0.5, 0.0, 1.0)
    return np.sin(0.5 * np.pi * u) ** 2


def lp_shell_symbol(grid: Grid, k: int) -> np.ndarray:
    """Dyadic shell with cosine tapers across the half-octave boundaries.

    Supported in |xi| in [2^{k-1}, 2^{k+1}]; the ramps of adjacent shells are
    complementary (exact partition of unity) and narrow enough that the
    shells are almost orthogonal in energy.
    """
    t = _lp_logk(grid)
    return _lp_rise(t, k - 0.5) * (1.0 - _lp_rise(t, k + 0.5))


def lp_lowpass_symbol(grid: Grid, k: int) -> np.ndarray:
    """Everything below shell k: complements the shells j >= k exactly."""
    t = _lp_logk(grid)
    w = 1.0 - _lp_rise(t, k - 0.5)
    w[0, 0, 0] = 1.0
    return w


def lp_project(grid: Grid, f: np.ndarray, k: int) -> np.ndarray:
    if k < 0:
        raise ValueError("dyadic index must be nonnegative")
    return grid.ifft(lp_shell_symbol(grid, k) * grid.fft(f))


def lp_lowpass(grid: Grid, f: np.ndarray, k: int) -> np.ndarray:
    return grid.ifft(lp_lowpass_symbol(grid, k) * grid.fft(f))


def lp_max_shell(grid: Grid) -> int:
    """Largest dyadic index with nonzero shell weight on this grid."""
    kmax = float(np.max(grid.kmag))
    return int(np.floor(np.log2(kmax))) + 1


# --- Leray projections ----------------------------------------------------

def leray_df_hat(grid: Grid, vh: np.ndarray) -> np.ndarray:
    """Divergence-free projection; the zero mode stays in this part."""
    if vh.shape[0] != 3:
        raise ValueError("expected 3 spatial components on the leading axis")
    kdotv = sum(grid.k(i) * vh[i] for i in range(3))
    out = np.empty_like(vh)
    for i in range(3):
        out[i] = vh[i] - grid.k(i) * kdotv * grid.inv_k2
    return out


def leray_df(grid: Grid, v: np.ndarray) -> np.ndarray:
    return grid.ifft(leray_df_hat(grid, grid.fft(v)))


def leray_cf(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Curl-free (gradient) projection, mean-free by convention."""
    vh = grid.fft(v)
    kdotv = sum(grid.k(i) * vh[i] for i in range(3))
    out = np.empty_like(vh)
    for i in range(3):
        out[i] = grid.k(i) * kdotv * grid.inv_k2
    return grid.ifft(out)


# --- norms ----------------------------------------------------------------

def sobolev_norm(grid: Grid, f: np.ndarray | None, s: float, homogeneous: bool = False,
                 *, fh: np.ndarray | None = None) -> float:
    """H^s (or homogeneous Hdot^s) norm; leading axes are summed in l2.
    Pass the transform as fh (and f as None) when the caller holds it."""
    fh = grid.fft(f) if fh is None else fh
    if homogeneous:
        w = grid.k2 ** s if s >= 0 else grid.inv_k2 ** (-s)
        w = w.copy()
        w[0, 0, 0] = 0.0
    else:
        w = (1.0 + grid.k2) ** s
    tot = np.sum(grid.parseval_weight * w * (fh.real**2 + fh.imag**2))
    return float(np.sqrt(tot * grid.volume)) / grid.n**3


# --- null forms -----------------------------------------------------------

def _pair(x: np.ndarray, y: np.ndarray, spec: StructureSpec | None) -> np.ndarray:
    """Bilinear pairing: Lie bracket when a spec is given, plain product else."""
    return bracket(x, y, spec) if spec is not None else x * y


def null_form_Q(grid: Grid, i: int, j: int, f: np.ndarray, g: np.ndarray,
                spec: StructureSpec | None = None) -> np.ndarray:
    """Q_ij(f,g) = (d_i f, d_j g) - (d_j f, d_i g), antisymmetrized gradients.

    The pairing is the Lie bracket for algebra-valued scalars (spec given)
    or the ordinary product for plain real scalars (spec None).
    """
    fh, gh = grid.fft(f), grid.fft(g)
    dif = grid.ifft(derivative_hat(grid, fh, i))
    djf = grid.ifft(derivative_hat(grid, fh, j))
    dig = grid.ifft(derivative_hat(grid, gh, i))
    djg = grid.ifft(derivative_hat(grid, gh, j))
    q = _pair(dif, djg, spec) - _pair(djf, dig, spec)
    return dealias(grid, q)


def null_form_N(grid: Grid, variant: str, f: np.ndarray, g: np.ndarray,
                spec: StructureSpec | None = None) -> np.ndarray:
    """Null-form combinations built from Q_ij and the mean-free Laplace inverse.

    variant "div_q":  N_j(f, g) = InvLap d^i Q_ij(f, g) for scalars f, g
                      (returns the 3-component field).
    variant "q_div":  N(f, g) = sum_ij Q_ij(InvLap d_i f_j, g) for a vector
                      field f (returns a scalar field); equals the
                      divergence-free part of f contracted with grad g.

    On the torus the classical identities relating these to Leray-projected
    products hold modulo spatial means: the inverse Laplacian is mean-free,
    so constant parts of the inputs and the mean of the output are invisible
    to the null-form side.
    """
    if variant == "div_q":
        out = []
        for j in range(3):
            acc = 0.0
            for i in range(3):
                acc = acc + inverse_laplacian(
                    grid, derivative(grid, null_form_Q(grid, i, j, f, g, spec), i))
            out.append(acc)
        return np.stack(out)
    if variant == "q_div":
        if f.shape[0] != 3:
            raise ValueError("q_div variant expects a 3-component first input")
        fh = grid.fft(f)
        acc = 0.0
        for i in range(3):
            for j in range(3):
                u = grid.ifft(-grid.inv_k2 * derivative_hat(grid, fh[j], i))
                acc = acc + null_form_Q(grid, i, j, u, g, spec)
        return acc
    raise ValueError(f"unknown null-form variant {variant!r}")


# --- bilinear heat symbol W ------------------------------------------------

def w_symbol(xi_sq, eta_sq, dot, s: float):
    """The Duhamel heat symbol W(xi, eta, s), evaluated stably.

    W = int_0^s exp(-(s-s')|xi+eta|^2) exp(-s'(|xi|^2+|eta|^2)) ds'
      = (exp(-s(|xi|^2+|eta|^2)) - exp(-s|xi+eta|^2)) / (2 xi.eta)
    with the removable singularity at xi.eta = 0 handled by expm1.
    """
    sum_sq = xi_sq + eta_sq + 2.0 * dot
    q = np.asarray(2.0 * s * dot, dtype=float)
    small = np.abs(q) < 1.0
    q_div = np.where(q == 0.0, 1.0, q)
    phi = np.where(q == 0.0, 1.0, np.expm1(np.where(small, q, 0.0)) / q_div)
    w_small = s * np.exp(-s * sum_sq) * phi
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        w_big = (np.exp(-s * (xi_sq + eta_sq)) - np.exp(-s * sum_sq)) / (2.0 * np.asarray(dot, float))
    return np.where(small, w_small, w_big)


def duhamel(grid: Grid, s: float, n_quad: int, sources) -> np.ndarray:
    """Gauss-Legendre quadrature of int_0^s e^{(s-s')Lap} G(s') ds'.

    sources(s_nodes) yields the rfft of the real source G at each of the
    n_quad nodes of [0, s], in their (ascending) order.  The weighted,
    heat-propagated sum is accumulated in Fourier space, dealiased and
    transformed back once.
    """
    x, w = np.polynomial.legendre.leggauss(n_quad)
    s_nodes = 0.5 * s * (x + 1.0)
    acc = 0.0
    for sq, wq, Gh in zip(s_nodes, 0.5 * s * w, sources(s_nodes)):
        acc = acc + wq * np.exp(-(s - sq) * grid.k2) * Gh
    return grid.ifft(grid.dealias_mask * acc)


def bilinear_W(grid: Grid, f: np.ndarray, g: np.ndarray, s: float,
               mode: str = "duhamel", tol: float = 1e-9) -> np.ndarray:
    """Symmetric bilinear heat form with symbol W(xi, eta, s) on real scalars.

    duhamel: Gauss-Legendre quadrature of
             int_0^s e^{(s-s')Lap} (e^{s'Lap} f . e^{s'Lap} g) ds',
             node count doubled from 16 until the relative change < tol;
             ConvergenceError when 256 nodes do not reach it.
    symbol:  direct double mode loop applying the closed form; guarded to
             grids with n <= 16 (cost O(n^6)).

    Both modes dealias the inputs and truncate the output, so they are
    mutual oracles on band-limited data.
    """
    if s < 0:
        raise ValueError("parabolic time s must be nonnegative")
    if mode not in ("duhamel", "symbol"):
        raise ValueError(f"unknown bilinear_W mode {mode!r}")
    if f.shape[-3:] != (grid.n,) * 3 or g.shape[-3:] != (grid.n,) * 3:
        raise ValueError("field shape does not match grid")
    if s == 0.0:
        return np.zeros_like(f)

    if mode == "symbol":
        if grid.n > 16:
            raise ValueError("symbol mode is O(n^6); use grids with n <= 16")
        return _bilinear_w_symbol(grid, f, g, s)

    fh = grid.dealias_mask * grid.fft(f)
    gh = grid.dealias_mask * grid.fft(g)

    def products(s_nodes):
        for sq in s_nodes:
            decay = np.exp(-sq * grid.k2)
            yield grid.fft(grid.ifft(decay * fh) * grid.ifft(decay * gh))

    prev, history = None, []
    for nq in (16, 32, 64, 128, 256):
        out = duhamel(grid, s, nq, products)
        if prev is not None:
            scale = float(np.max(np.abs(out))) or 1.0
            change = float(np.max(np.abs(out - prev)))
            history.append(change / scale)
            if change <= tol * scale:
                return out
        prev = out
    raise ConvergenceError(
        f"bilinear_W quadrature did not reach tol {tol:.1e} with {nq} nodes: "
        f"last relative change {history[-1]:.3e}", history)


def _bilinear_w_symbol(grid: Grid, f: np.ndarray, g: np.ndarray, s: float) -> np.ndarray:
    n = grid.n
    mask3 = np.abs(grid.modes) <= n / 3.0
    keep = mask3[:, None, None] & mask3[None, :, None] & mask3[None, None, :]
    fh = _fft.fftn(f, axes=(-3, -2, -1)) * keep
    gh = _fft.fftn(g, axes=(-3, -2, -1)) * keep
    kk = (2.0 * np.pi / grid.L) * grid.modes.astype(float)
    kx, ky, kz = kk[:, None, None], kk[None, :, None], kk[None, None, :]
    eta_sq = kx**2 + ky**2 + kz**2
    out = np.zeros((n, n, n), dtype=complex)
    idx = np.argwhere(np.abs(fh) > 0)
    for ix, iy, iz in idx:
        xi = (kk[ix], kk[iy], kk[iz])
        xi_sq = xi[0] ** 2 + xi[1] ** 2 + xi[2] ** 2
        dot = xi[0] * kx + xi[1] * ky + xi[2] * kz
        contrib = w_symbol(xi_sq, eta_sq, dot, s) * gh
        out += fh[ix, iy, iz] * np.roll(contrib, (ix, iy, iz), axis=(0, 1, 2)) / n**3
    out *= keep
    return _fft.ifftn(out, axes=(-3, -2, -1)).real
