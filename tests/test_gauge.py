import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymlab import algebra as alg
from ymlab import config, datagen
from ymlab import gauge as gt
from ymlab import spectral as sp


def fd6(grid, f, axis):
    h = grid.dx
    out = np.zeros_like(f)
    for shift, w in ((-3, -1 / 60), (-2, 3 / 20), (-1, -3 / 4),
                     (1, 3 / 4), (2, -3 / 20), (3, 1 / 60)):
        out += w * np.roll(f, -shift, axis=axis - 3)
    return out / h


@pytest.mark.parametrize("name, value", [("mode_cut", -3.0), ("mode_cut", 0.0),
                                         ("decay", -5.0), ("decay", 0.0),
                                         ("amplitude", -0.1)])
def test_random_alg_field_rejects_a_bad_recipe(grid8, s2, name, value):
    """A negative mode_cut would draw the field of its absolute value, a
    decay <= 0 the mean mode alone, a negative amplitude the negated field."""
    kwargs = {"amplitude": 0.1, "mode_cut": 2.0, "decay": 2.0, name: value}
    with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$"):
        gt.random_alg_field(grid8, s2, np.random.default_rng(1), **kwargs)


def test_curvature_zero_and_abelian(grid16, s2, ab, rng):
    A = np.zeros((3, 3, 16, 16, 16))
    assert np.max(np.abs(gt.curvature(grid16, A, s2))) == 0.0
    # single algebra direction: brackets contribute nothing
    Au = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.5, components=3)
    A1 = np.zeros((3, 3, 16, 16, 16))
    A1[:, 0] = Au[:, 0]
    F = gt.curvature(grid16, A1, s2)
    for c, (i, j) in enumerate(gt.PAIRS):
        lin = sp.derivative(grid16, A1[j], i) - sp.derivative(grid16, A1[i], j)
        assert np.max(np.abs(F[c] - lin)) < 1e-12


def test_curvature_fd_oracle(grid32, s2, rng):
    A = gt.random_alg_field(grid32, s2, rng, 0.3, mode_cut=3.0, components=3)
    F = gt.curvature(grid32, A, s2)
    h = grid32.dx
    tol = 30 * (3.0 * h) ** 6 * np.max(np.abs(A)) + 1e-12
    for c, (i, j) in enumerate(gt.PAIRS):
        oracle = (fd6(grid32, A[j], i) - fd6(grid32, A[i], j)
                  + alg.bracket(A[i], A[j], s2))
        assert np.max(np.abs(F[c] - oracle)) < tol


def test_covariant_derivative(grid16, s2, rng):
    B = gt.random_alg_field(grid16, s2, rng, 0.2, mode_cut=2.0)
    A0 = np.zeros((3, 3, 16, 16, 16))
    d = gt.covariant_derivative(grid16, A0, B, 0, s2)
    assert np.max(np.abs(d - sp.derivative(grid16, B, 0))) < 1e-13
    const = np.ones((3, 16, 16, 16))
    assert np.max(np.abs(gt.covariant_derivative(grid16, A0, const, 1, s2))) < 1e-13


def test_leibniz_rule(grid16, s2, rng):
    A = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    B = gt.random_alg_field(grid16, s2, rng, 0.2, mode_cut=2.0)
    C = gt.random_alg_field(grid16, s2, rng, 0.2, mode_cut=2.0)
    lhs = sp.derivative(grid16, alg.inner(B, C, s2), 0)
    rhs = (alg.inner(gt.covariant_derivative(grid16, A, B, 0, s2), C, s2)
           + alg.inner(B, gt.covariant_derivative(grid16, A, C, 0, s2), s2))
    assert grid16.l2_norm(lhs - rhs) / grid16.l2_norm(rhs) < 1e-10


def test_gauge_transform_identity_and_abelian(grid16, s2, ab, rng):
    A = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    E = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    U = alg.identity_group(s2, (16,) * 3)
    At, Et = gt.gauge_transform(grid16, A, E, U, s2)
    assert np.max(np.abs(At - sp.dealias(grid16, A))) < 1e-13
    assert np.max(np.abs(Et - sp.dealias(grid16, E))) < 1e-13
    # abelian closed form
    phi = gt.random_alg_field(grid16, ab, rng, 0.5, mode_cut=2.0)
    Uu = alg.exp_map(phi, ab)
    A0 = np.zeros((3, 1, 16, 16, 16))
    At, _ = gt.gauge_transform(grid16, A0, None, Uu, ab)
    grad = np.stack([sp.derivative(grid16, phi, i) for i in range(3)])
    assert np.max(np.abs(At + grad)) < 1e-10


def test_curvature_covariance_and_energy_invariance(grid32, s2, rng):
    A = gt.random_alg_field(grid32, s2, rng, 0.25, mode_cut=2.5, components=3)
    E = gt.random_alg_field(grid32, s2, rng, 0.25, mode_cut=2.5, components=3)
    F = gt.curvature(grid32, A, s2)
    U = gt.random_gauge(grid32, s2, seed=5, amplitude=0.4, mode_cut=1.5)
    At, Et = gt.gauge_transform(grid32, A, E, U, s2)
    Ft = gt.curvature(grid32, At, s2)
    AdF = np.stack([gt.adjoint_field(U, F[c], s2) for c in range(3)])
    assert np.max(np.abs(Ft - AdF)) / np.max(np.abs(F)) < 1e-9
    e0 = 0.5 * (grid32.l2_norm(F) ** 2 + grid32.l2_norm(E) ** 2)
    e1 = 0.5 * (grid32.l2_norm(Ft) ** 2 + grid32.l2_norm(Et) ** 2)
    assert abs(e1 - e0) / e0 < 1e-10


def test_bianchi_identity(grid32, s2, rng):
    A = gt.random_alg_field(grid32, s2, rng, 0.4, mode_cut=3.0, components=3)
    F = gt.curvature(grid32, A, s2)
    res = (gt.covariant_derivative(grid32, A, gt.pair_component(F, 1, 2), 0, s2)
           + gt.covariant_derivative(grid32, A, gt.pair_component(F, 2, 0), 1, s2)
           + gt.covariant_derivative(grid32, A, gt.pair_component(F, 0, 1), 2, s2))
    assert grid32.l2_norm(res) / grid32.l2_norm(F) < 1e-9


def test_cd_commutator(grid32, s2, rng):
    A = gt.random_alg_field(grid32, s2, rng, 0.4, mode_cut=3.0, components=3)
    B = gt.random_alg_field(grid32, s2, rng, 0.3, mode_cut=3.0)
    F = gt.curvature(grid32, A, s2)
    for a, b in gt.PAIRS:
        lhs = (gt.covariant_derivative(
            grid32, A, gt.covariant_derivative(grid32, A, B, b, s2), a, s2)
            - gt.covariant_derivative(
            grid32, A, gt.covariant_derivative(grid32, A, B, a, s2), b, s2))
        rhs = sp.dealias(grid32, alg.bracket(gt.pair_component(F, a, b), B, s2))
        assert grid32.l2_norm(lhs - rhs) / grid32.l2_norm(rhs) < 1e-9


def test_gauss_residual(grid16, s2, ab, rng):
    A = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    E0 = np.zeros_like(A)
    _, r = gt.gauss_residual(grid16, A, E0, s2)
    assert r == 0.0
    Eu = sp.leray_df(grid16, gt.random_alg_field(
        grid16, ab, rng, 0.3, mode_cut=2.0, components=3))
    Au = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    assert gt.gauss_residual(grid16, Au, Eu, ab)[1] < 1e-11


def test_constraint_repair(grid16, s2, ab, rng):
    A = gt.random_alg_field(grid16, s2, rng, 0.15, mode_cut=2.0, components=3)
    E = gt.random_alg_field(grid16, s2, rng, 0.15, mode_cut=2.0, components=3)
    E2 = gt.constraint_repair(grid16, A, E, s2, tol=1e-9)
    _, res = gt.gauss_residual(grid16, A, E2, s2)
    assert res <= 1e-9
    assert res < 1e-8 * grid16.l2_norm(E2)
    # already-satisfying data is a fixed point
    E3 = gt.constraint_repair(grid16, A, E2, s2, tol=1e-9)
    assert grid16.l2_norm(E3 - E2) < 1e-7 * grid16.l2_norm(E2)
    # abelian case: exact linear projection in one pass
    Au = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    Eu = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    Eu2 = gt.constraint_repair(grid16, Au, Eu, ab, tol=1e-12)
    assert np.max(np.abs(Eu2 - sp.leray_df(grid16, Eu))) < 1e-12


def test_constraint_repair_converges_small_h_half(grid16, s2, rng):
    """Small-data contraction: residual below 1e-9 within 20 sweeps."""
    A = gt.random_alg_field(grid16, s2, rng, 1.0, mode_cut=2.0, components=3)
    A *= 0.05 / sp.sobolev_norm(grid16, A, 0.5, homogeneous=True)
    E = gt.random_alg_field(grid16, s2, rng, 0.05, mode_cut=2.0, components=3)
    E2 = gt.constraint_repair(grid16, A, E, s2, tol=1e-9, max_iter=20)
    assert gt.gauss_residual(grid16, A, E2, s2)[1] <= 1e-9


def _band_field(grid, spec, rng, lead=()):
    """White noise restricted to the two-thirds band, as an rfft."""
    f = rng.standard_normal(lead + (spec.dim,) + (grid.n,) * 3)
    return grid.dealias_mask * grid.fft(f)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), amplitude=st.floats(0.01, 2.0),
       smooth=st.booleans())
def test_gauss_operator_symmetric_negative(grid16, s2, seed, amplitude, smooth):
    """The repair's CG assumption: on the range of the mask, the dealiased
    covariant Laplacian is symmetric and negative definite in the
    bi-invariant L2 product, for smooth or rough su(2) connections."""
    rng = np.random.default_rng(seed)
    if smooth:
        A = gt.random_alg_field(grid16, s2, rng, amplitude, components=3)
    else:
        A = amplitude * rng.standard_normal((3, 3) + (16,) * 3)
    xh, yh = _band_field(grid16, s2, rng), _band_field(grid16, s2, rng)
    x, y = grid16.ifft(xh), grid16.ifft(yh)
    Lx = grid16.ifft(gt._gauss_operator(grid16, A, s2, xh)[0])
    Ly = grid16.ifft(gt._gauss_operator(grid16, A, s2, yh)[0])

    def dot(u, v):
        return grid16.integrate(alg.inner(u, v, s2))

    xLy, yLx = dot(x, Ly), dot(y, Lx)
    assert abs(xLy - yLx) <= 1e-12 * np.sqrt(dot(x, x) * dot(Ly, Ly))
    assert dot(x, Lx) < 0.0
    assert dot(y, Ly) < 0.0


def test_constraint_repair_keeps_satisfying_pulses(grid16, s2):
    """Pulses data has a Gauss residual of exactly 0 and a third of its
    spectrum off the band; it comes back as it went in, with no 0/0."""
    cfg = config.ExperimentConfig(n=16, family="pulses")
    st_p, _ = datagen.colliding_pulses(grid16, s2, cfg.amplitude)
    assert gt.gauss_residual(grid16, st_p.A, st_p.E, s2)[1] == 0.0
    E = gt.constraint_repair(grid16, st_p.A, st_p.E, s2, tol=1e-12)
    assert np.all(np.isfinite(E))
    assert np.array_equal(E, st_p.E)


def test_constraint_repair_rough_data(grid16, s2, rng):
    """Connection and field with most of their spectrum off the band: the
    flat solve off the band, then CG on it, reach tol."""
    A = 0.1 * rng.standard_normal((3, 3) + (16,) * 3)
    E_raw = 0.1 * rng.standard_normal((3, 3) + (16,) * 3)
    Eh = grid16.fft(E_raw)
    off = grid16.spectral_l2(np.where(grid16.dealias_mask, 0.0, Eh))
    assert off > 0.5 * grid16.spectral_l2(Eh)
    for tol in (1e-9, 1e-12):
        E = gt.constraint_repair(grid16, A, E_raw, s2, tol=tol)
        assert gt.gauss_residual(grid16, A, E, s2)[1] <= tol


def test_constraint_repair_history_per_iteration(grid16, s2, rng):
    """Too few iterations for tol raise ConvergenceError with one residual
    per iteration."""
    A = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    E = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    with pytest.raises(sp.ConvergenceError) as err:
        gt.constraint_repair(grid16, A, E, s2, tol=1e-12, max_iter=3)
    hist = err.value.history
    assert len(hist) == 3
    assert all(np.isfinite(hist)) and hist[-1] < hist[0]


def test_coulomb_projection(grid16, s2, ab, rng):
    # divergence-free connection is a fixed point
    Adf = sp.leray_df(grid16, gt.random_alg_field(
        grid16, s2, rng, 0.2, mode_cut=2.0, components=3))
    At, U, hist = gt.coulomb_project(grid16, Adf, s2, tol=1e-10)
    assert np.max(np.abs(At - Adf)) < 1e-12
    assert np.max(np.abs(U - alg.identity_group(s2, (16,) * 3))) < 1e-12
    # abelian: single exact step
    Au = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    At, _, hist = gt.coulomb_project(grid16, Au, ab, tol=1e-11)
    assert len(hist) <= 3
    assert np.max(np.abs(At - sp.leray_df(grid16, Au))) < 1e-10
    # su(2): geometric contraction
    A = gt.random_alg_field(grid16, s2, rng, 0.1, mode_cut=2.0, components=3)
    At, U, hist = gt.coulomb_project(grid16, A, s2, tol=1e-11)
    assert hist[-1] <= 1e-11
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 2)]
    assert max(ratios) < 0.2


def test_coulomb_preserves_gauss_norm(grid32, s2, rng):
    A = gt.random_alg_field(grid32, s2, rng, 0.1, mode_cut=2.0, components=3)
    E = gt.constraint_repair(grid32, A, gt.random_alg_field(
        grid32, s2, rng, 0.1, mode_cut=2.0, components=3), s2, tol=1e-10)
    r0 = gt.gauss_residual(grid32, A, E, s2)[1]
    At, U, _ = gt.coulomb_project(grid32, A, s2, tol=1e-11)
    A2, E2 = gt.gauge_transform(grid32, A, E, U, s2)
    r1 = gt.gauss_residual(grid32, A2, E2, s2)[1]
    assert abs(r1 - r0) < 1e-9


def test_random_gauge_deterministic_and_smooth(grid16, s2):
    U1 = gt.random_gauge(grid16, s2, seed=3, amplitude=0.3)
    U2 = gt.random_gauge(grid16, s2, seed=3, amplitude=0.3)
    assert np.array_equal(U1, U2)
    U0 = gt.random_gauge(grid16, s2, seed=3, amplitude=0.0)
    assert np.max(np.abs(U0 - alg.identity_group(s2, (16,) * 3))) < 1e-14
    # gradient magnitude scales linearly with amplitude at fixed decay
    grads = []
    for amp in (0.1, 0.2):
        U = gt.random_gauge(grid16, s2, seed=3, amplitude=amp, mode_cut=1.5)
        dU = np.stack([sp.derivative(grid16, U, i) for i in range(3)])
        grads.append(np.max(np.abs(dU)))
    assert abs(grads[1] / grads[0] - 2.0) < 0.1


def test_mc_derivative_routes_agree(grid16, s2):
    """Log-chart route vs quaternion-derivative route on a smooth gauge."""
    U = gt.random_gauge(grid16, s2, seed=9, amplitude=0.5, mode_cut=1.5)
    mc_log = gt.mc_derivative(grid16, U, s2)
    # force the quaternion route by scaling the log above the chart guard
    big = gt.random_gauge(grid16, s2, seed=9, amplitude=0.5 * np.pi, mode_cut=1.0)
    mc_big, resid = gt.mc_derivative(grid16, big, s2, return_residual=True)
    assert np.isfinite(mc_big).all()
    # cross-check the two routes on the same smooth field
    X = alg.log_map(U, s2)
    dU = np.stack([grid16.ifft(
        sp.derivative_hat(grid16, grid16.fft(U), i)) for i in range(3)])
    mc_q = np.stack([alg.maurer_cartan_coeff(U, dU[i], s2) for i in range(3)])
    assert np.max(np.abs(mc_log - mc_q)) < 1e-9


def test_mc_derivative_fallback_is_right_invariant(grid16, s2):
    """(d(U V)) (U V)^{-1} = (dU) U^{-1} for a constant V.  A rotation V by
    0.95 pi puts U V beyond the log chart's 0.9 pi guard, so the product
    takes the componentwise fallback route, U the chart."""
    U = gt.random_gauge(grid16, s2, seed=9, amplitude=0.3, mode_cut=1.5)
    axis = np.array([1.0, 2.0, 2.0]) / 3.0
    V = alg.exp_map((0.95 * np.pi * axis)[:, None, None, None] * np.ones((16,) * 3), s2)
    UV = alg.group_mul(U, V, s2)
    X = alg.log_map(UV, s2)
    assert np.max(np.sqrt(np.einsum("a...,a...->...", X, X))) >= 0.9 * np.pi
    want = gt.mc_derivative(grid16, U, s2)
    got = gt.mc_derivative(grid16, UV, s2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
