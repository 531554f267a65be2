"""Lie-algebra and Lie-group arithmetic for su(2) and u(1).

Algebra elements are stored as real coefficient vectors in an orthonormal
basis, so brackets reduce to structure-constant contractions.  SU(2) group
elements are unit quaternions (w, x, y, z); U(1) elements are phase angles.
All operations are vectorized: an "element" is any array whose *leading*
axis is the algebra (or quaternion) dimension, with arbitrary trailing
axes (e.g. lattice sites).  `bracket(..., out=)` fills a caller's buffer.
`tangent(spec)` is the tangent algebra g x| g of dual numbers x0 + eps x1,
eps^2 = 0: a polynomial in brackets evaluated there carries its exact
directional derivative in the second block (forward-mode differentiation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StructureSpec:
    """Finite-dimensional structure group data.

    dim: algebra dimension (3 for su(2), 1 for u(1)).
    structure_constants: f[a, b, c] with [e_a, e_b] = sum_c f[a,b,c] e_c.
    metric_normalization: scale of the bi-invariant inner product.
    base: the algebra g of a tangent algebra g x| g (see `tangent`), else None.
    """

    name: str
    dim: int
    structure_constants: np.ndarray = field(repr=False)
    metric_normalization: float = 1.0
    base: StructureSpec | None = field(default=None, repr=False)

    def __post_init__(self):
        f = np.asarray(self.structure_constants, dtype=float)
        if f.shape != (self.dim,) * 3:
            raise ValueError(f"structure constants must be shape {(self.dim,)*3}")
        if self.dim <= 0 or self.metric_normalization <= 0:
            raise ValueError("dim and metric_normalization must be positive")
        object.__setattr__(self, "structure_constants", f)

    @property
    def group_dim(self) -> int:
        """Storage size of one group element (4 for quaternions, 1 for a phase)."""
        return 4 if self.name == "su2" else 1


def su2() -> StructureSpec:
    """su(2) with basis e_a such that [e_a, e_b] = eps_abc e_c."""
    f = np.zeros((3, 3, 3))
    for a, b, c, s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)):
        f[a, b, c] = s
        f[b, a, c] = -s
    return StructureSpec("su2", 3, f)


def u1() -> StructureSpec:
    """The abelian algebra: one real direction, vanishing bracket."""
    return StructureSpec("u1", 1, np.zeros((1, 1, 1)))


def tangent(spec: StructureSpec) -> StructureSpec:
    """The tangent algebra g x|_ad g of dimension 2d: elements (x0, x1)
    stacked on the leading axis, [(x0, x1), (y0, y1)] = ([x0, y0],
    [x0, y1] + [x1, y0]).  Its structure constants are f in the blocks
    [:d, :d, :d], [:d, d:, d:] and [d:, :d, d:]."""
    d, f = spec.dim, spec.structure_constants
    ft = np.zeros((2 * d,) * 3)
    ft[:d, :d, :d] = ft[:d, d:, d:] = ft[d:, :d, d:] = f
    return StructureSpec(f"{spec.name}-tangent", 2 * d, ft,
                         spec.metric_normalization, base=spec)


def _check_dim(spec: StructureSpec, *xs: np.ndarray):
    for x in xs:
        if x.shape[0] != spec.dim:
            raise ValueError(
                f"algebra element has leading dimension {x.shape[0]}, expected {spec.dim}"
            )


def bracket(x: np.ndarray, y: np.ndarray, spec: StructureSpec,
            out: np.ndarray | None = None) -> np.ndarray:
    """Lie bracket [x, y] via structure constants, written into `out` when
    given (it must not share memory with x or y)."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    _check_dim(spec, x, y)
    if out is None:
        out = np.empty(np.broadcast_shapes(x.shape, y.shape))
    elif np.shares_memory(out, x) or np.shares_memory(out, y):
        raise ValueError("bracket output must not share memory with its inputs")
    if spec.base is not None:                    # three base brackets
        d, base = spec.base.dim, spec.base
        bracket(x[:d], y[:d], base, out=out[:d])
        bracket(x[:d], y[d:], base, out=out[d:])
        out[d:] += bracket(x[d:], y[:d], base)
        return out
    if spec.name == "su2":
        # [x, y]_c = eps_abc x_a y_b; out[c, ...] is a view even for 1-D x, y
        for c, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            oc = out[c, ...]
            np.multiply(x[a], y[b], out=oc)
            oc -= x[b] * y[a]
        return out
    return np.einsum("abc,a...,b...->c...", spec.structure_constants, x, y, out=out)


def inner(x: np.ndarray, y: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Bi-invariant inner product, pointwise over trailing axes."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    _check_dim(spec, x, y)
    return spec.metric_normalization * np.einsum("a...,a...->...", x, y)


# --- group elements -------------------------------------------------------

def identity_group(spec: StructureSpec, site_shape: tuple = ()) -> np.ndarray:
    u = np.zeros((spec.group_dim,) + site_shape)
    if spec.name == "su2":
        u[0] = 1.0
    return u


def quat_mul(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Hamilton product of quaternion arrays (leading axis length 4)."""
    w1, v1 = p[0], p[1:]
    w2, v2 = q[0], q[1:]
    out = np.empty(np.broadcast_shapes(p.shape, q.shape))
    out[0] = w1 * w2 - np.einsum("a...,a...->...", v1, v2)
    out[1:] = w1 * v2 + w2 * v1 + np.cross(v1, v2, axisa=0, axisb=0, axisc=0)
    return out


def group_mul(u: np.ndarray, v: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Group product, renormalized to control drift."""
    if spec.name == "su2":
        w = quat_mul(u, v)
        w /= np.sqrt(np.einsum("a...,a...->...", w, w))
        return w
    return u + v  # U(1): phases add


def group_inv(u: np.ndarray, spec: StructureSpec) -> np.ndarray:
    if spec.name == "su2":
        v = u.copy()
        v[1:] *= -1.0
        return v
    return -u


def renormalize(u: np.ndarray, spec: StructureSpec) -> tuple[np.ndarray, float]:
    """Project back onto the group; returns (element, max correction)."""
    if spec.name == "su2":
        nrm = np.sqrt(np.einsum("a...,a...->...", u, u))
        return u / nrm, float(np.max(np.abs(nrm - 1.0)))
    return u, 0.0


def exp_map(x: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Exponential map, closed form.

    For su(2): X = x_a e_a maps to the unit quaternion
    (cos(|x|/2), sin(|x|/2) x/|x|)  -- the half-angle formula, since the
    basis e_a corresponds to half the quaternion units.
    """
    x = np.asarray(x, float)
    _check_dim(spec, x)
    if spec.name == "su2":
        theta = np.sqrt(np.einsum("a...,a...->...", x, x))
        u = np.empty((4,) + x.shape[1:])
        u[0] = np.cos(0.5 * theta)
        # sin(theta/2)/theta, stable at 0 via sinc
        u[1:] = x * (0.5 * np.sinc(theta / (2.0 * np.pi)))
        return u
    return x.copy()  # u(1): the phase is the coefficient itself


def log_map(u: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Inverse of exp_map on the principal branch (su(2): |X| < 2*pi)."""
    if spec.name == "su2":
        vn = np.sqrt(np.einsum("a...,a...->...", u[1:], u[1:]))
        theta = 2.0 * np.arctan2(vn, u[0])
        with np.errstate(invalid="ignore", divide="ignore"):
            fac = np.where(vn > 1e-30, theta / np.where(vn > 1e-30, vn, 1.0), 2.0 / u[0])
        return u[1:] * fac
    return u.copy()


def adjoint(u: np.ndarray, x: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Adjoint action Ad_U X = U X U^{-1}.

    For su(2) this rotates the coefficient vector by the rotation the unit
    quaternion represents (an isometry of the inner product).
    """
    x = np.asarray(x, float)
    _check_dim(spec, x)
    if spec.name == "su2":
        w, v = u[0], u[1:]
        cv = np.cross(v, x, axisa=0, axisb=0, axisc=0)
        return x + 2.0 * w * cv + 2.0 * np.cross(v, cv, axisa=0, axisb=0, axisc=0)
    return x.copy()


def maurer_cartan_coeff(u: np.ndarray, du: np.ndarray, spec: StructureSpec,
                        return_residual: bool = False):
    """Extract dU U^{-1} as algebra coefficients.

    du must be tangent to the group at u; the non-tangent (scalar quaternion)
    part is projected out and its magnitude reported as a residual.
    """
    if spec.name == "su2":
        m = quat_mul(du, group_inv(u, spec))
        coeff = 2.0 * m[1:]  # e_a = (quaternion unit)/2
        resid = float(np.max(np.abs(m[0]))) if m[0].size else 0.0
        return (coeff, resid) if return_residual else coeff
    coeff = du.copy()
    return (coeff, 0.0) if return_residual else coeff


def dexp_right(x: np.ndarray, v: np.ndarray, spec: StructureSpec) -> np.ndarray:
    """Right-trivialized differential of exp: (d e^X) e^{-X} applied to v.

    Closed form on su(2): v + a(t)[X,v] + b(t)[X,[X,v]] with t = |X|,
    a = (1-cos t)/t^2 and b = (t - sin t)/t^3.
    """
    if spec.name == "u1":
        return v.copy()
    theta2 = np.einsum("a...,a...->...", x, x)
    theta = np.sqrt(theta2)
    small = theta < 1e-4
    with np.errstate(invalid="ignore", divide="ignore"):
        a = np.where(small, 0.5 - theta2 / 24.0,
                     (1.0 - np.cos(theta)) / np.where(small, 1.0, theta2))
        b = np.where(small, 1.0 / 6.0 - theta2 / 120.0,
                     (theta - np.sin(theta)) / np.where(small, 1.0, theta2 * theta))
    xv = bracket(x, v, spec)
    return v + a * xv + b * bracket(x, xv, spec)
