import numpy as np
import pytest

from ymlab import dynamics as dyn
from ymlab import gauge as gt
from ymlab import heatflow as hf
from ymlab import mkg
from ymlab import spectral as sp
from ymlab.datagen import mkg_random, mkg_wave


def test_zero_state(grid16):
    shape = (3, 1) + (16,) * 3
    z = mkg.MkgState(grid16, 0.0, np.zeros(shape), np.zeros(shape),
                     np.zeros((16,) * 3, complex), np.zeros((16,) * 3, complex))
    dA, dE, dphi, dphit = mkg.mkg_rhs(z)
    for arr in (dA, dE, dphi, dphit):
        assert np.max(np.abs(arr)) == 0.0
    assert mkg.mkg_energy(z) == 0.0


def test_pure_maxwell_linear(grid16, ab, rng):
    """phi = 0 reduces to the linear Maxwell wave."""
    A = gt.random_alg_field(grid16, ab, rng, 0.2, mode_cut=2.0, components=3)
    E = sp.leray_df(grid16, gt.random_alg_field(grid16, ab, rng, 0.2,
                                                mode_cut=2.0, components=3))
    st = mkg.MkgState(grid16, 0.0, A, E, np.zeros((16,) * 3, complex),
                      np.zeros((16,) * 3, complex))
    _, dE, _, dphit = mkg.mkg_rhs(st)
    lin = sp.laplacian(grid16, A) - np.stack(
        [sp.derivative(grid16, sp.divergence(grid16, A), i) for i in range(3)])
    assert np.max(np.abs(dE - lin)) < 1e-11
    assert np.max(np.abs(dphit)) == 0.0
    out = dyn.evolve(st, 2e-3, 0.2, sample_every=20)
    e = np.asarray(out.columns["hamiltonian"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-10


def test_plane_wave_current_closed_form(grid16):
    """Im(phi conj(grad phi)) = -k |phi|^2 for phi = a e^{i k.x}."""
    X, Y, _ = grid16.x
    kv = np.array([1.0, 2.0, 0.0])
    phase = kv[0] * X + kv[1] * Y
    phi = 0.1 * np.exp(1j * phase) * np.ones((16,) * 3)
    A0 = np.zeros((3, 1) + (16,) * 3)
    J = mkg.scalar_current(grid16, A0, phi)
    for i in range(3):
        assert np.max(np.abs(J[i, 0] + kv[i] * np.abs(phi) ** 2)) < 1e-12


def test_klein_gordon_standing_wave(grid16):
    """Exact linear solution phi = a cos(kx) cos(wt)."""
    st = mkg_wave(grid16, 0.1)
    out = dyn.evolve(st, 5e-3, 1.0, sample_every=50)
    fin = out.final
    X, _, _ = grid16.x
    exact = 0.1 * np.cos(X) * np.cos(fin.t) * np.ones((16,) * 3)
    assert np.max(np.abs(fin.phi - exact)) < 1e-9
    e = np.asarray(out.columns["hamiltonian"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-10


def test_mkg_samples_match_physical_hamiltonian(grid16, ab):
    """The spectral evolve samples against 1/2 (|F|^2 + |E|^2 + |phi_t|^2
    + |D phi|^2) assembled in physical space."""
    st = mkg_random(grid16, 0.3, seed=7, mode_cut=2.5, decay=1e6)
    dt, marks = 2e-3, [0, 5, 10]
    out = dyn.evolve(st, dt, marks[-1] * dt, sample_every=5)
    states = []
    dyn.wave_legs(st, dt, marks, lambda s, _hat, _kept: states.append(s.copy()))
    assert len(out.columns["hamiltonian"]) == len(states) == 3
    for s, e in zip(states, out.columns["hamiltonian"]):
        F = gt.curvature(grid16, s.A, ab)
        Dphi = sp.cgradient(grid16, s.phi) + 1j * sp.cdealias(grid16, s.A[:, 0] * s.phi)
        e_ref = 0.5 * (grid16.l2_norm(F) ** 2 + grid16.l2_norm(s.E) ** 2
                       + grid16.integrate(np.abs(s.phit) ** 2 + np.sum(np.abs(Dphi) ** 2, 0)))
        assert abs(e - e_ref) <= 1e-14 * e_ref
    assert np.array_equal(states[-1].phi, out.final.phi)


def test_evolve_uses_cfl_bound(grid16):
    st = mkg_wave(grid16, 0.1)
    dt = 0.4 / dyn.active_kmax(grid16)
    assert dyn.evolve(st, dt, dt).final.t == pytest.approx(dt)
    with pytest.raises(ValueError, match="CFL"):
        dyn.evolve(st, dt, dt, cfl=0.25)


def test_conservation_coupled(grid16):
    st = mkg_random(grid16, 0.2, seed=3, mode_cut=2.0, decay=1e6)
    assert mkg.constraint_residual(st)[1] < 1e-12
    out = dyn.evolve(st, 2e-3, 0.4, sample_every=40)
    e = np.asarray(out.columns["hamiltonian"])
    q = np.asarray(out.columns["charge"])
    c = np.asarray(out.columns["constraint"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-9
    assert np.max(np.abs(q - q[0])) < 1e-9 * e[0]
    # n=16 truncation floor; the dt-order study runs at n=32 in acceptance
    assert c.max() < 5e-6


def test_constraint_propagation_order(grid32):
    """The constraint drift must shrink at 4th order in dt (measured at
    n=32, where the dealiasing cascade floor sits far below the dt term;
    the IF step's dt term is about 4x below classical RK4's and meets that
    floor at dt = 6e-3, so dt is twice what classical RK4 needed; every leg
    takes its 5 steps)."""
    st = mkg_random(grid32, 0.3, seed=4, mode_cut=2.5, decay=1e6)
    drifts = []
    for dt in (2.4e-2, 1.2e-2):
        out = dyn.evolve(st, dt, 0.24, sample_every=5)
        drifts.append(np.max(np.asarray(out.columns["constraint"])))
    order = np.log2(drifts[0] / drifts[1])
    assert order > 3.4, (drifts, order)


def test_gauge_invariance(grid16, ab, rng):
    st = mkg_random(grid16, 0.2, seed=5, mode_cut=2.0, decay=1e6)
    chi = gt.random_alg_field(grid16, ab, rng, 0.4, mode_cut=1.5)[0]
    grad_chi = sp.gradient(grid16, chi)
    st2 = mkg.MkgState(grid16, 0.0, st.A - grad_chi[:, None], st.E.copy(),
                       np.exp(1j * chi) * st.phi, np.exp(1j * chi) * st.phit)
    h0, h1 = mkg.mkg_energy(st), mkg.mkg_energy(st2)
    assert abs(h1 - h0) / h0 < 1e-10


def test_bit_identical_u1_path(grid16, ab, rng):
    A = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.5, components=3)
    E = sp.leray_df(grid16, gt.random_alg_field(grid16, ab, rng, 0.3,
                                                mode_cut=2.5, components=3))
    stm = mkg.MkgState(grid16, 0.0, A.copy(), E.copy(),
                       np.zeros((16,) * 3, complex), np.zeros((16,) * 3, complex))
    sty = dyn.CauchyState(grid16, ab, 0.0, A.copy(), E.copy())
    for _ in range(25):
        stm = dyn.step_rk4(stm, 1e-3)
        sty = dyn.step_rk4(sty, 1e-3)
    assert np.array_equal(stm.A, sty.A)
    assert np.array_equal(stm.E, sty.E)


def test_heatflow_rhs_reductions(grid16, ab, rng):
    A = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    dA, dphi = mkg.mkg_heatflow_rhs(grid16, A, np.zeros((16,) * 3, complex))
    assert np.max(np.abs(dA - sp.laplacian(grid16, A))) == 0.0
    phi = gt.random_alg_field(grid16, ab, rng, 0.2, mode_cut=2.0)[0] + 0.0j
    dA2, dphi2 = mkg.mkg_heatflow_rhs(grid16, np.zeros_like(A), phi)
    assert np.max(np.abs(dphi2 - sp.claplacian(grid16, phi))) == 0.0
    assert np.max(np.abs(dA2)) < 1e-16


def test_heatflow_rhs_term_oracle(grid16, rng, ab):
    """Independent assembly of the parabolic right-hand side."""
    st = mkg_random(grid16, 0.2, seed=6, mode_cut=2.0, decay=1e6)
    dA, dphi = mkg.mkg_heatflow_rhs(grid16, st.A, st.phi)
    J = mkg.scalar_current(grid16, st.A, st.phi)
    oracle_A = sp.laplacian(grid16, st.A) + J
    assert np.max(np.abs(dA - oracle_A)) < 1e-12
    a = st.A[:, 0]
    grad_phi = sp.cgradient(grid16, st.phi)
    a2 = sp.dealias(grid16, a[0] ** 2 + a[1] ** 2 + a[2] ** 2)
    oracle_phi = (sp.claplacian(grid16, st.phi)
                  + 2j * sp.cdealias(grid16, a[0] * grad_phi[0]
                                     + a[1] * grad_phi[1] + a[2] * grad_phi[2])
                  - sp.cdealias(grid16, a2 * st.phi))
    assert np.max(np.abs(dphi - oracle_phi)) < 1e-12


def test_mkg_tension_linear_zero(grid16):
    """Tension fields vanish on exact linear solutions."""
    st = mkg_wave(grid16, 0.1)
    dt = 2e-3
    out = dyn.evolve(st, dt, 0.05)
    v, w = mkg.mkg_tension(out.final, 1 / 256.0, substeps=4)
    scale = max(grid16.l2_norm(np.abs(st.phi)), 1e-30)
    assert grid16.l2_norm(np.abs(v)) < 1e-6 * scale
    assert grid16.l2_norm(w) < 1e-10 * scale


def test_mkg_tension_onshell_small(grid16):
    st = mkg_random(grid16, 0.2, seed=8, mode_cut=1.5, decay=1e6)
    dt = 2e-3
    out = dyn.evolve(st, dt, 0.05)
    v, w = mkg.mkg_tension(out.final, 0.0, substeps=4)
    h = mkg.mkg_energy(out.final)
    assert grid16.l2_norm(np.abs(v)) < 1e-5 * np.sqrt(h)
    assert grid16.l2_norm(w) < 1e-5 * np.sqrt(h)


def test_flow_jets_are_the_t_derivatives_of_the_flow(grid8):
    """The jets of one flow against five-point differences of five flowed
    Cauchy slices: the first-derivative gap falls at fourth order in the
    slice spacing delta, the second derivatives agree to the stencil's
    noise, and at s = 0 the tension is round-off."""
    st = mkg_random(grid8, 0.2, seed=11, mode_cut=1.5, decay=1e6)
    s = 1 / 256.0

    def jets(state):                       # each field's jet on its leading axis
        f = mkg.flow_jets(state, [s])[-1]
        return {"A": np.moveaxis(f["A"], 1, 0), "phi": f["phi"], "A0": f["A0"]}

    centre = jets(st)

    def gaps(delta, order):
        stn = hf.make_stencil(st, delta, delta / 4)
        slices = [jets(x) for x in stn.states]
        w = hf.fornberg_weights(np.arange(5) * delta, 2 * delta, order)
        return {key: np.linalg.norm(sum(wm * x[key][0] for wm, x in zip(w, slices))
                                    - ref[order]) / np.linalg.norm(ref[order])
                for key, ref in centre.items() if order < len(ref)}

    coarse, fine = gaps(4e-3, 1), gaps(2e-3, 1)
    for key in ("A", "phi", "A0"):
        assert 14 < coarse[key] / fine[key] < 18, (key, coarse[key] / fine[key])
    second = gaps(4e-3, 2)
    assert sorted(second) == ["A", "phi"] and max(second.values()) < 1e-9, second
    v, w = mkg.mkg_tension(st, 0.0)
    h = mkg.mkg_energy(st)
    assert grid8.l2_norm(np.abs(v)) <= 1e-13 * np.sqrt(h)
    assert grid8.l2_norm(w) <= 1e-13 * np.sqrt(h)


def test_mkg_w2_amplitude_sweep(grid16):
    """Leading quadratic tension: cubic remainder under amplitude scaling."""
    s_test = 1 / 256.0
    gaps, leads = [], []
    for a in (0.1, 0.2):
        st = mkg_random(grid16, a, seed=11, mode_cut=1.5, decay=1e6)
        _, w = mkg.mkg_tension(st, s_test, substeps=4)
        w2 = mkg.mkg_w2_leading(st, s_test)
        Pw = sp.leray_df(grid16, w[:, 0])[:, None]
        gaps.append(grid16.l2_norm(Pw - w2))
        leads.append(grid16.l2_norm(w2))
    slope = np.log2(gaps[1] / gaps[0])
    assert abs(slope - 3.0) < 0.3
    assert leads[0] > 2 * gaps[0]


def test_mkg_modified_energy_oracle(grid16):
    """phi = 0 Maxwell sector against the 1-D quadrature oracle."""
    from scipy.integrate import quad
    from ymlab.datagen import abelian_wave
    from ymlab.algebra import u1 as u1spec
    wave = abelian_wave(grid16, u1spec(), 0.2)
    st = mkg.MkgState(grid16, 0.0, wave.A, wave.E,
                      np.zeros((16,) * 3, complex), np.zeros((16,) * 3, complex))
    N, sigma = 8.0, 5.0 / 6.0
    val, _ = mkg.mkg_modified_energy(st, N, sigma, n_samples=32)
    E0 = mkg.mkg_energy(st)
    om = 1.0 - sigma
    s0 = 1.0 / N**2
    integral = (N * N) ** om / om * quad(
        lambda u: E0 * np.exp(-2.0 * u ** (1.0 / om)), 0.0, s0**om, limit=200)[0]
    ss = np.geomspace(1e-14, s0, 200001)
    sup = np.max((N * N * ss) ** om * E0 * np.exp(-2.0 * ss))
    oracle = integral + sup
    assert abs(val - oracle) / oracle < 1e-3


def test_hamiltonian_identity(grid16):
    st = mkg_random(grid16, 0.35, seed=12, mode_cut=1.5, decay=1e6)
    s = 1 / 256.0
    res1, lhs1, rhs1 = mkg.mkg_hamiltonian_identity_check(
        st, 0.1, s, n_nodes=5, dt=2.5e-3, substeps=4)
    assert res1 < 1e-3, (res1, lhs1, rhs1)
    res2, _, _ = mkg.mkg_hamiltonian_identity_check(
        st, 0.1, s, n_nodes=9, dt=1.25e-3, substeps=6)
    assert res2 < 0.5 * res1


def test_hamiltonian_identity_flows_each_node_once(grid8, monkeypatch):
    st = mkg_random(grid8, 0.2, seed=12, mode_cut=1.5, decay=1e6)
    calls = [0]
    flow = mkg.flow_jets

    def counted(*args, **kwargs):
        calls[0] += 1
        return flow(*args, **kwargs)

    monkeypatch.setattr(mkg, "flow_jets", counted)
    mkg.mkg_hamiltonian_identity_check(st, 0.01, 1 / 256.0, n_nodes=3,
                                       dt=2.5e-3, substeps=1)
    assert calls[0] == 3                        # 6 when the tension re-flows


def test_stencil_if_step_transform_count(monkeypatch):
    """One IF step of the MKG jet flow makes 3 x 61 scalar 3-D transforms in
    `_IFSystem.step` (4 x when it made its own first stage), each call
    counted over the steps of one leg: its first stage is the last step's
    end right-hand side, made by the leg controller."""
    from ymlab import heatflow as hf
    from ymlab.grid import Grid
    g = Grid(8)
    st = mkg_random(g, 0.2, seed=3, mode_cut=1.5, decay=1e6)
    count = [0]
    for name in ("fft", "ifft", "cfft", "cifft"):
        def counted(f, _fn=getattr(g, name)):
            count[0] += int(np.prod(f.shape[:-3]))
            return _fn(f)
        setattr(g, name, counted)
    per_step = []
    step = hf._IFSystem.step

    def counted_step(self, *args):
        before = count[0]
        out = step(self, *args)
        per_step.append(count[0] - before)
        return out

    monkeypatch.setattr(hf._IFSystem, "step", counted_step)
    mkg.flow_jets(st, [1 / 256.0], substeps=1)
    assert per_step and per_step == [3 * 61] * len(per_step)


def test_repair_requires_neutral_charge(grid16, ab, rng):
    phi = (gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0)[0]
           + 1j * gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0)[0])
    phit = 1j * phi  # maximally charged
    shape = (3, 1) + (16,) * 3
    st = mkg.MkgState(grid16, 0.0, np.zeros(shape), np.zeros(shape), phi, phit)
    with pytest.raises(ValueError):
        mkg.repair_constraint(st)
