import numpy as np
import pytest

from ymlab import spectral as sp
from ymlab.grid import Grid


def smooth(grid, rng, cut=3.0, shape=(), mean_free=False):
    f = rng.standard_normal(shape + (grid.n,) * 3)
    keep = grid.mode_mag2 <= cut**2
    out = grid.ifft(keep * grid.fft(f))
    if mean_free:
        out = out - out.mean(axis=(-3, -2, -1), keepdims=True)
    return out


def demean(f):
    return f - f.mean(axis=(-3, -2, -1), keepdims=True)


def test_q_antisymmetric_and_diagonal(grid16, rng, s2, ab):
    f = smooth(grid16, rng, shape=(3,))
    g = smooth(grid16, rng, shape=(3,))
    q01 = sp.null_form_Q(grid16, 0, 1, f, g, s2)
    q10 = sp.null_form_Q(grid16, 1, 0, f, g, s2)
    assert np.array_equal(q01, -q10)
    # abelian bracket pairing vanishes identically
    fa = smooth(grid16, rng, shape=(1,))
    assert np.max(np.abs(sp.null_form_Q(grid16, 0, 1, fa, fa, ab))) == 0.0
    # plain-product pairing vanishes on equal arguments by antisymmetry
    phi = smooth(grid16, rng)
    assert np.max(np.abs(sp.null_form_Q(grid16, 0, 1, phi, phi))) < 1e-13


def test_q_plane_wave_expansion(grid16, s2):
    """Hand-expanded product oracle for f = cos(k.x) e1, g = cos(l.x) e2."""
    X, Y, Z = grid16.x
    kv, lv = np.array([1.0, 2.0, 0.0]), np.array([0.0, 1.0, -1.0])
    pk = kv[0] * X + kv[1] * Y + kv[2] * Z
    pl = lv[0] * X + lv[1] * Y + lv[2] * Z
    ones = np.ones((16,) * 3)
    f = np.zeros((3, 16, 16, 16))
    g = np.zeros((3, 16, 16, 16))
    f[0] = np.cos(pk) * ones
    g[1] = np.cos(pl) * ones
    i, j = 0, 1
    got = sp.null_form_Q(grid16, i, j, f, g, s2)
    # [e1, e2] = e3; Q = (k_i l_j - k_j l_i) sin(k.x) sin(l.x) e3
    coeff = kv[i] * lv[j] - kv[j] * lv[i]
    expect = np.zeros_like(got)
    expect[2] = coeff * np.sin(pk) * np.sin(pl) * ones
    assert np.max(np.abs(got - expect)) < 1e-12


def test_null_form_zero_input(grid16, rng, s2):
    f = smooth(grid16, rng, shape=(3,))       # su(2)-valued scalar
    z = np.zeros_like(f)
    assert np.max(np.abs(sp.null_form_N(grid16, "div_q", f, z, s2))) == 0.0
    v = smooth(grid16, rng, shape=(3, 3))     # su(2)-valued vector
    assert np.max(np.abs(sp.null_form_N(grid16, "q_div", v, z, s2))) == 0.0
    with pytest.raises(ValueError):
        sp.null_form_N(grid16, "bogus", f, z, s2)


def test_classical_identity_line1(grid32, rng):
    """P_j(phi grad psi) = InvLap d^i Q_ij(phi, psi) for real scalars,
    modulo the spatial mean the torus inversion drops."""
    phi = smooth(grid32, rng, cut=4.0)
    psi = smooth(grid32, rng, cut=4.0)
    grad_psi = sp.gradient(grid32, psi)
    lhs = demean(sp.leray_df(grid32, np.stack(
        [sp.dealias(grid32, phi * grad_psi[j]) for j in range(3)])))
    rhs = sp.null_form_N(grid32, "div_q", phi, psi)
    rel = grid32.l2_norm(lhs - rhs) / grid32.l2_norm(lhs)
    assert rel < 1e-11


def test_classical_identity_line2(grid32, rng):
    """(PA)^i d_i phi = Q_ij(InvLap d_i A_j, phi) on mean-free
    divergence-free A."""
    A = demean(sp.leray_df(grid32, smooth(grid32, rng, cut=4.0, shape=(3,))))
    phi = smooth(grid32, rng, cut=4.0)
    grad_phi = sp.gradient(grid32, phi)
    lhs = sp.dealias(grid32, sum(A[i] * grad_phi[i] for i in range(3)))
    rhs = sp.null_form_N(grid32, "q_div", A, phi)
    rel = grid32.l2_norm(lhs - rhs) / grid32.l2_norm(lhs)
    assert rel < 1e-11


def test_classical_identities_lie_valued(grid16, rng, s2):
    """The same identities hold with the bracket pairing."""
    from ymlab.algebra import bracket
    phi = smooth(grid16, rng, cut=2.5, shape=(3,))
    psi = smooth(grid16, rng, cut=2.5, shape=(3,))
    grad_psi = np.stack([sp.derivative(grid16, psi, j) for j in range(3)])
    lhs = demean(sp.leray_df(grid16, np.stack(
        [sp.dealias(grid16, bracket(phi, grad_psi[j], s2)) for j in range(3)])))
    rhs = sp.null_form_N(grid16, "div_q", phi, psi, s2)
    assert grid16.l2_norm(lhs - rhs) / grid16.l2_norm(lhs) < 1e-11


def test_w_zero_time_and_symmetry(grid8, rng):
    a = smooth(grid8, rng, cut=2.0)
    b = smooth(grid8, rng, cut=2.0)
    assert np.max(np.abs(sp.bilinear_W(grid8, a, b, 0.0))) == 0.0
    w1 = sp.bilinear_W(grid8, a, b, 0.1)
    w2 = sp.bilinear_W(grid8, b, a, 0.1)
    assert np.max(np.abs(w1 - w2)) < 1e-12 * max(np.max(np.abs(w1)), 1e-30)


def test_w_orthogonal_pair_closed_form():
    """Single modes with xi.eta = 0: W = s exp(-s |xi+eta|^2)."""
    g = Grid(8)
    X, Y, _ = g.x
    ones = np.ones((8,) * 3)
    f = np.cos(1 * X) * ones           # xi = (1, 0, 0)
    h = np.cos(2 * Y) * ones           # eta = (0, 2, 0)
    s = 0.2
    out = sp.bilinear_W(g, f, h, s, mode="symbol")
    # product of the two cosines splits into modes (1, +-2, 0), all with
    # xi.eta = 0 and |xi+eta|^2 = 5
    expect = s * np.exp(-5 * s) * (np.cos(X) * np.cos(2 * Y) * ones)
    assert np.max(np.abs(out - expect)) < 1e-13


def test_w_duhamel_vs_symbol(grid8, rng):
    f = smooth(grid8, rng, cut=2.5)
    h = smooth(grid8, rng, cut=2.5)
    for s in (0.01, 0.1, 1.0):
        wd = sp.bilinear_W(grid8, f, h, s, mode="duhamel")
        ws = sp.bilinear_W(grid8, f, h, s, mode="symbol")
        rel = np.max(np.abs(wd - ws)) / np.max(np.abs(ws))
        assert rel < 1e-8


def test_w_duhamel_raises_when_unconverged(grid8, rng):
    from ymlab.gauge import ConvergenceError
    assert ConvergenceError is sp.ConvergenceError
    f = smooth(grid8, rng, cut=2.0)
    h = smooth(grid8, rng, cut=2.0)
    with pytest.raises(ConvergenceError) as err:
        sp.bilinear_W(grid8, f, h, 0.1, tol=1e-30)
    assert len(err.value.history) == 4  # 16 -> 32 -> ... -> 256 nodes


def test_w_symbol_guard_and_validation(grid32, rng):
    f = rng.standard_normal((32,) * 3)
    with pytest.raises(ValueError):
        sp.bilinear_W(grid32, f, f, 0.1, mode="symbol")
    with pytest.raises(ValueError):
        sp.bilinear_W(grid32, f, f, -0.1)
    with pytest.raises(ValueError):
        sp.bilinear_W(grid32, f, f, 0.1, mode="nope")


def test_w_symbol_function_limits():
    # removable singularity: xi.eta -> 0 gives s e^{-s|xi+eta|^2}
    s = 0.3
    val = sp.w_symbol(4.0, 9.0, 0.0, s)
    assert abs(val - s * np.exp(-s * 13.0)) < 1e-15
    # large positive 2 s xi.eta must not overflow
    big = sp.w_symbol(1e4, 1e4, 1e4 - 1.0, 1.0)
    assert np.isfinite(big)
