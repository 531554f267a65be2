"""Periodic cubic lattice and its Fourier bookkeeping.

Physical fields are real arrays whose last three axes are the spatial
(x, y, z) directions; leading axes (vector component, algebra direction)
are batched through the transforms.  Spectral arrays use the real-FFT
layout: shape (..., n, n, n//2 + 1), with Hermitian symmetry implicit.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np
from scipy import fft as _fft

from .config import ConfigError


def env_workers() -> int:
    """The FFT workers YMLAB_THREADS asks for (default 1); a ConfigError, a
    ValueError, names it when it is not an integer of at least 1."""
    text = os.environ.get("YMLAB_THREADS", "1")
    try:
        if int(text) >= 1:
            return int(text)
    except ValueError:
        pass
    raise ConfigError(f"YMLAB_THREADS must be an integer of at least 1, got {text!r}")


class Grid:
    """n^3 periodic lattice of period L.

    Wavenumbers are k = 2*pi*m/L for integer modes m in (-n/2, n/2]
    (the Nyquist mode is assigned +n/2).  The transforms use YMLAB_THREADS
    workers (`env_workers`), read once when the grid is made.
    """

    def __init__(self, n: int, L: float = 2.0 * np.pi):
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError("n must be a power of two, n >= 8")
        if L <= 0:
            raise ValueError("period L must be positive")
        self.n = int(n)
        self.L = float(L)
        self.dx = self.L / self.n
        self.workers = env_workers()
        m_full = np.fft.fftfreq(n, d=1.0 / n)
        m_full[n // 2] = n // 2  # mode convention m in (-n/2, n/2]
        self.modes = m_full.astype(np.int64)
        self.modes_half = self.modes[: n // 2 + 1].copy()
        # Operational wavenumber tables zero the Nyquist row: an odd
        # multiplier there has no real-field representation, and dealiasing
        # removes that bin from every production path anyway.
        k1 = (2.0 * np.pi / self.L) * m_full
        k1[n // 2] = 0.0
        kz = k1[: n // 2 + 1]
        self.kx = k1.reshape(n, 1, 1)
        self.ky = k1.reshape(1, n, 1)
        self.kz = kz.reshape(1, 1, n // 2 + 1)

    # --- transforms -------------------------------------------------------

    def fft(self, f: np.ndarray) -> np.ndarray:
        if f.shape[-3:] != (self.n,) * 3:
            raise ValueError(f"field shape {f.shape} does not match grid n={self.n}")
        return _fft.rfftn(f, axes=(-3, -2, -1), workers=self.workers)

    def ifft(self, fh: np.ndarray) -> np.ndarray:
        if fh.shape[-3:] != (self.n, self.n, self.n // 2 + 1):
            raise ValueError(f"spectral shape {fh.shape} does not match grid n={self.n}")
        return _fft.irfftn(fh, s=(self.n,) * 3, axes=(-3, -2, -1), workers=self.workers)

    def k(self, axis: int) -> np.ndarray:
        return (self.kx, self.ky, self.kz)[axis]

    @cached_property
    def ik(self) -> np.ndarray:
        """Stacked derivative symbols, ik[l] = 1j * k(l) on the rfft layout."""
        return np.stack(np.broadcast_arrays(*(1j * self.k(l) for l in range(3))))

    @cached_property
    def k2(self) -> np.ndarray:
        return self.kx**2 + self.ky**2 + self.kz**2

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 with the kernel of the tables (zero mode, Nyquist rows)
        mapped to 0 -- the mean-free inversion convention."""
        k2 = self.k2
        dead = k2 == 0.0
        out = np.where(dead, 0.0, 1.0 / np.where(dead, 1.0, k2))
        return out

    @cached_property
    def mode_mag2(self) -> np.ndarray:
        """Integer |m|^2 per rfft bin (Nyquist counted as n/2)."""
        ax = self.modes.astype(float) ** 2
        az = self.modes_half.astype(float) ** 2
        return (ax.reshape(-1, 1, 1) + ax.reshape(1, -1, 1) + az.reshape(1, 1, -1))

    # --- full complex layout (for complex scalar fields) --------------------

    def cfft(self, f: np.ndarray) -> np.ndarray:
        if f.shape[-3:] != (self.n,) * 3:
            raise ValueError(f"field shape {f.shape} does not match grid n={self.n}")
        return _fft.fftn(f, axes=(-3, -2, -1), workers=self.workers)

    def cifft(self, fh: np.ndarray) -> np.ndarray:
        if fh.shape[-3:] != (self.n,) * 3:
            raise ValueError(f"spectral shape {fh.shape} does not match grid n={self.n}")
        return _fft.ifftn(fh, axes=(-3, -2, -1), workers=self.workers)

    def kfull(self, axis: int) -> np.ndarray:
        kx = self.kx.reshape(-1)
        shapes = [(-1, 1, 1), (1, -1, 1), (1, 1, -1)]
        return kx.reshape(shapes[axis])

    @cached_property
    def k2_full(self) -> np.ndarray:
        return self.kfull(0) ** 2 + self.kfull(1) ** 2 + self.kfull(2) ** 2

    @cached_property
    def dealias_mask_full(self) -> np.ndarray:
        cut = self.n / 3.0
        ax = np.abs(self.modes)
        return ((ax.reshape(-1, 1, 1) <= cut) & (ax.reshape(1, -1, 1) <= cut)
                & (ax.reshape(1, 1, -1) <= cut))

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Two-thirds rule: keep only modes with every |m_i| <= n/3."""
        cut = self.n / 3.0
        ax = np.abs(self.modes)
        az = np.abs(self.modes_half)
        return ((ax.reshape(-1, 1, 1) <= cut)
                & (ax.reshape(1, -1, 1) <= cut)
                & (az.reshape(1, 1, -1) <= cut))

    @cached_property
    def parseval_weight(self) -> np.ndarray:
        """Multiplicity of each rfft mode when summing over the full grid."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = 1.0
        w[-1] = 1.0
        return w.reshape(1, 1, -1)

    # --- coordinates and measures ------------------------------------------

    @cached_property
    def x(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        c = np.arange(self.n) * self.dx
        return (c.reshape(-1, 1, 1), c.reshape(1, -1, 1), c.reshape(1, 1, -1))

    @property
    def volume(self) -> float:
        return self.L**3

    @property
    def site_measure(self) -> float:
        return (self.L / self.n) ** 3

    def integrate(self, f: np.ndarray) -> float:
        """Integral over the torus of a pointwise scalar array."""
        return float(np.sum(f) * self.site_measure)

    def l2_norm(self, f: np.ndarray) -> float:
        """L^2 norm over the spatial axes, summing any leading axes."""
        return float(np.sqrt(np.sum(f * f) * self.site_measure))

    def spectral_l2(self, fh: np.ndarray) -> float:
        """L^2 norm evaluated mode-side (Parseval)."""
        s = np.sum(self.parseval_weight * (fh.real**2 + fh.imag**2))
        return float(np.sqrt(s * self.volume)) / self.n**3

    def __repr__(self):
        return f"Grid(n={self.n}, L={self.L:.6g})"
