import numpy as np
import pytest

from ymlab import spectral as sp
from ymlab.grid import Grid


def fd6_derivative(grid, f, axis):
    """6th-order centered finite differences by circular shifts."""
    h = grid.dx
    ax = axis - 3
    out = np.zeros_like(f)
    for shift, w in ((-3, -1 / 60), (-2, 3 / 20), (-1, -3 / 4),
                     (1, 3 / 4), (2, -3 / 20), (3, 1 / 60)):
        out += w * np.roll(f, -shift, axis=ax)
    return out / h


def band_limited(grid, rng, cut=2.5, shape=()):
    f = rng.standard_normal(shape + (grid.n,) * 3)
    keep = grid.mode_mag2 <= cut**2
    return grid.ifft(keep * grid.fft(f))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(12)
    with pytest.raises(ValueError):
        Grid(4)
    with pytest.raises(ValueError):
        Grid(16, -1.0)


def test_transforms_reject_wrong_shapes(grid16):
    """Every transform names the shape it refuses; cifft takes the full
    complex layout, not the rfft one."""
    real = np.zeros((3, 8, 16, 16))
    for fn in (grid16.fft, grid16.cfft):
        with pytest.raises(ValueError, match=r"\(3, 8, 16, 16\)"):
            fn(real)
    with pytest.raises(ValueError, match=r"\(16, 16, 16\)"):
        grid16.ifft(np.zeros((16, 16, 16), complex))
    with pytest.raises(ValueError, match=r"\(2, 16, 16, 9\)"):
        grid16.cifft(np.zeros((2, 16, 16, 9), complex))


def test_round_trip_and_parseval(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    assert np.max(np.abs(grid16.ifft(grid16.fft(f)) - f)) < 1e-13
    assert abs(grid16.l2_norm(f) - grid16.spectral_l2(grid16.fft(f))) < 1e-12


def test_constant_field_single_mode(grid16):
    fh = grid16.fft(np.full((16,) * 3, 2.5))
    assert abs(fh[0, 0, 0] - 2.5 * 16**3) < 1e-9
    fh[0, 0, 0] = 0.0
    assert np.max(np.abs(fh)) < 1e-9


def test_cosine_two_conjugate_modes(grid16):
    X, _, _ = grid16.x
    f = np.cos(2 * np.pi * X / grid16.L) * np.ones((16,) * 3)
    fh = grid16.fft(f)
    # the pair m = (+1, 0, 0) and m = (-1, 0, 0), equal by conjugacy
    assert abs(fh[1, 0, 0] - 0.5 * 16**3) < 1e-8
    assert abs(fh[-1, 0, 0] - 0.5 * 16**3) < 1e-8
    fh[1, 0, 0] = fh[-1, 0, 0] = 0.0
    assert np.max(np.abs(fh)) < 1e-8


def test_derivative_cosine_and_constant(grid16):
    X, _, _ = grid16.x
    c = np.cos(X) * np.ones((16,) * 3)
    d = sp.derivative(grid16, c, 0)
    assert np.max(np.abs(d + np.sin(X) * np.ones((16,) * 3))) < 1e-12
    assert np.max(np.abs(sp.derivative(grid16, np.ones((16,) * 3), 1))) < 1e-13


def test_derivative_against_fd6(grid32, rng):
    f = band_limited(grid32, rng, cut=3.0)
    for axis in range(3):
        d_sp = sp.derivative(grid32, f, axis)
        d_fd = fd6_derivative(grid32, f, axis)
        # FD6 error ~ (k h)^6 / 140 per mode
        h = grid32.dx
        bound = 20 * (3.0 * h) ** 6 * np.max(np.abs(f))
        assert np.max(np.abs(d_sp - d_fd)) < bound


def test_derivative_axis_validation(grid16, rng):
    with pytest.raises(ValueError):
        sp.derivative(grid16, rng.standard_normal((16,) * 3), 3)


def test_inverse_laplacian(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    lf = sp.laplacian(grid16, f)
    back = sp.inverse_laplacian(grid16, lf)
    # round trip recovers f minus its mean (and minus unrepresentable
    # Nyquist content, absent from band-limited data)
    fb = sp.dealias(grid16, f)
    back_b = sp.inverse_laplacian(grid16, sp.laplacian(grid16, fb))
    assert np.max(np.abs(back_b - (fb - fb.mean()))) < 1e-12
    assert np.max(np.abs(sp.inverse_laplacian(grid16, np.ones((16,) * 3)))) < 1e-13
    X, _, _ = grid16.x
    c = np.cos(2 * X) * np.ones((16,) * 3)
    assert np.max(np.abs(sp.inverse_laplacian(grid16, c) + c / 4.0)) < 1e-12


def test_heat_propagate(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    assert np.array_equal(sp.heat_propagate(grid16, f, 0.0),
                          grid16.ifft(np.ones_like(grid16.k2) * grid16.fft(f)))
    h1 = sp.heat_propagate(grid16, sp.heat_propagate(grid16, f, 0.1), 0.2)
    h2 = sp.heat_propagate(grid16, f, 0.3)
    assert np.max(np.abs(h1 - h2)) < 1e-12
    X, _, _ = grid16.x
    c = np.cos(3 * X) * np.ones((16,) * 3)
    decayed = sp.heat_propagate(grid16, c, 0.05)
    assert np.max(np.abs(decayed - np.exp(-0.05 * 9) * c)) < 1e-13
    with pytest.raises(ValueError):
        sp.heat_propagate(grid16, f, -0.1)


def test_i_multiplier_endpoints(grid32, rng):
    N, sigma = 4.0, 5.0 / 6.0
    X, _, _ = grid32.x
    low = np.cos(2 * X) * np.ones((32,) * 3)      # |xi| = 2 <= N
    out = sp.i_multiplier(grid32, low, N, sigma)
    assert np.max(np.abs(out - low)) < 1e-12
    hi = np.cos(8 * X) * np.ones((32,) * 3)       # |xi| = 2N
    out = sp.i_multiplier(grid32, hi, N, sigma)
    assert np.max(np.abs(out - 0.5 ** (1.0 - sigma) * hi)) < 1e-12
    assert np.allclose(sp.i_multiplier(grid32, np.zeros((32,) * 3), N, sigma), 0)
    with pytest.raises(ValueError):
        sp.i_multiplier(grid32, low, N, 1.2)
    # monotone non-increasing in |xi|, equal to 1 at low frequency
    sym = sp.i_multiplier_symbol(grid32, N, sigma)
    kmag = grid32.kmag.ravel()
    order = np.argsort(kmag)
    vals = sym.ravel()[order]
    assert np.all(np.diff(vals) < 1e-12)
    assert np.allclose(vals[kmag[order] <= N], 1.0)


def test_lp_partition_and_shell_center(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    acc = sp.lp_lowpass(grid16, f, 0)
    for k in range(sp.lp_max_shell(grid16) + 1):
        acc = acc + sp.lp_project(grid16, f, k)
    assert np.max(np.abs(acc - f)) < 1e-12
    X, _, _ = grid16.x
    mode = np.cos(4 * X) * np.ones((16,) * 3)   # |xi| = 4 = 2^2 exactly
    assert np.max(np.abs(sp.lp_project(grid16, mode, 2) - mode)) < 1e-12
    with pytest.raises(ValueError):
        sp.lp_project(grid16, f, -1)


def test_lp_almost_orthogonality(grid32, rng):
    f = rng.standard_normal((32,) * 3)
    total = grid32.l2_norm(f) ** 2
    parts = grid32.l2_norm(sp.lp_lowpass(grid32, f, 0)) ** 2
    for k in range(sp.lp_max_shell(grid32) + 1):
        parts += grid32.l2_norm(sp.lp_project(grid32, f, k)) ** 2
    assert abs(parts - total) / total < 0.02


def test_leray_projections(grid16, rng):
    v = rng.standard_normal((3, 16, 16, 16))
    pv, qv = sp.leray_df(grid16, v), sp.leray_cf(grid16, v)
    assert np.max(np.abs(pv + qv - v)) < 1e-12
    assert grid16.l2_norm(sp.divergence(grid16, pv)) < 1e-11
    assert np.max(np.abs(sp.leray_df(grid16, pv) - pv)) < 1e-12
    # curl of the curl-free part
    for i, j in ((0, 1), (0, 2), (1, 2)):
        curl = sp.derivative(grid16, qv[j], i) - sp.derivative(grid16, qv[i], j)
        assert grid16.l2_norm(curl) < 1e-11
    phi = rng.standard_normal((16,) * 3)
    gp = sp.gradient(grid16, phi)
    assert grid16.l2_norm(sp.leray_df(grid16, gp)) < 1e-11
    # divergence-free polarization is fixed by the projection
    X, _, _ = grid16.x
    w = np.zeros((3, 16, 16, 16))
    w[1] = np.cos(2 * X)
    assert np.max(np.abs(sp.leray_df(grid16, w) - w)) < 1e-12
    with pytest.raises(ValueError):
        sp.leray_df(grid16, rng.standard_normal((2, 16, 16, 16)))


def test_multiplier_commutation(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    a = sp.heat_propagate(grid16, sp.derivative(grid16, f, 1), 0.03)
    b = sp.derivative(grid16, sp.heat_propagate(grid16, f, 0.03), 1)
    assert np.max(np.abs(a - b)) < 1e-12
    v = rng.standard_normal((3, 16, 16, 16))
    a = sp.heat_propagate(grid16, sp.leray_df(grid16, v), 0.03)
    b = sp.leray_df(grid16, sp.heat_propagate(grid16, v, 0.03))
    assert np.max(np.abs(a - b)) < 1e-12


def test_sobolev_norm(grid16, rng):
    X, _, _ = grid16.x
    c = np.cos(3 * X) * np.ones((16,) * 3)
    l2 = grid16.l2_norm(c)
    assert abs(sp.sobolev_norm(grid16, c, 1.0, homogeneous=True) - 3 * l2) < 1e-10
    f = rng.standard_normal((16,) * 3)
    assert abs(sp.sobolev_norm(grid16, f, 0.0) - grid16.l2_norm(f)) < 1e-10
    # independent mode-sum oracle at s = 0.75
    fh = grid16.fft(f)
    w = (1 + grid16.k2) ** 0.75
    total = np.sum(grid16.parseval_weight * w * np.abs(fh) ** 2)
    oracle = np.sqrt(total * grid16.volume) / grid16.n**3
    assert abs(sp.sobolev_norm(grid16, f, 0.75) - oracle) < 1e-12


def test_dealias_idempotent_and_fine_grid_oracle(grid16, rng):
    f = rng.standard_normal((16,) * 3)
    once = sp.dealias(grid16, f)
    assert np.max(np.abs(sp.dealias(grid16, once) - once)) < 1e-13
    low = band_limited(grid16, rng, cut=2.0)
    assert np.max(np.abs(sp.dealias(grid16, low) - low)) < 1e-13
    # alias-free product against the doubled grid
    g2 = Grid(32, grid16.L)
    a = sp.dealias(grid16, rng.standard_normal((16,) * 3))
    b = sp.dealias(grid16, rng.standard_normal((16,) * 3))
    prod = sp.dealias(grid16, a * b)

    def upsample(x):
        xs = grid16.fft(x)
        out = np.zeros((32, 32, 17), complex)
        ix = np.r_[0:8, 32 - 8:32]
        out[np.ix_(ix, ix, np.arange(9))] = xs * (32 / 16) ** 3
        return g2.ifft(out)

    fine = upsample(a) * upsample(b)
    fh = g2.fft(fine)
    keep = (np.abs(g2.modes)[:, None, None] <= 16 / 3) \
        & (np.abs(g2.modes)[None, :, None] <= 16 / 3) \
        & (np.abs(g2.modes_half)[None, None, :] <= 16 / 3)
    fine_trunc = g2.ifft(fh * keep)
    assert np.max(np.abs(fine_trunc[::2, ::2, ::2] - prod)) < 1e-12


def test_grid_reads_thread_count_once(monkeypatch, rng):
    """YMLAB_THREADS is read when the grid is made, not on every transform."""
    monkeypatch.setenv("YMLAB_THREADS", "2")
    g = Grid(8)
    monkeypatch.setenv("YMLAB_THREADS", "not a number")
    assert g.workers == 2
    f = rng.standard_normal((8, 8, 8))
    assert np.allclose(g.ifft(g.fft(f)), f)
    monkeypatch.delenv("YMLAB_THREADS")
    assert Grid(8).workers == 1


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", ""])
def test_grid_rejects_a_bad_thread_count(monkeypatch, value):
    """A YMLAB_THREADS that is not an integer of at least 1 raises a
    ValueError naming it (it used to run on one worker)."""
    monkeypatch.setenv("YMLAB_THREADS", value)
    with pytest.raises(ValueError, match=f"^YMLAB_THREADS must be an integer of at least 1, "
                                         f"got '{value}'$"):
        Grid(8)


def test_gradient_batches_one_inverse(grid16, rng):
    """gradient and cgradient make one batched inverse call; the stacked
    derivatives equal the per-axis ones bit for bit."""
    f = rng.standard_normal((2, 16, 16, 16))
    c = rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3)
    calls = []
    g = Grid(16)
    for name in ("ifft", "cifft"):
        def counted(fh, _fn=getattr(g, name), _name=name):
            calls.append((_name, fh.shape[:-3]))
            return _fn(fh)
        setattr(g, name, counted)
    d = sp.gradient(g, f)
    dc = sp.cgradient(g, c)
    assert calls == [("ifft", (3, 2)), ("cifft", (3,))]
    for i in range(3):
        assert np.array_equal(d[i], grid16.ifft(sp.derivative_hat(grid16, grid16.fft(f), i)))
        assert np.array_equal(dc[i], grid16.cifft(1j * grid16.kfull(i) * grid16.cfft(c)))
    assert np.array_equal(g.ik[1], np.broadcast_to(1j * g.k(1), g.ik.shape[1:]))
