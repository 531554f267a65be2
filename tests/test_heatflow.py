from types import SimpleNamespace

import numpy as np
import pytest

from ymlab import dynamics as dyn
from ymlab import gauge as gt
from ymlab import heatflow as hf
from ymlab import spectral as sp


def su2_state(grid, s2, rng, amp=0.2, cut=2.0):
    A = gt.random_alg_field(grid, s2, rng, amp, mode_cut=cut, components=3)
    E = gt.random_alg_field(grid, s2, rng, amp, mode_cut=cut, components=3)
    E = gt.constraint_repair(grid, A, E, s2, tol=1e-10)
    return dyn.CauchyState(grid, s2, 0.0, A, E)


def abelian_state(grid, ab, rng, amp=0.3):
    A = gt.random_alg_field(grid, ab, rng, amp, mode_cut=2.5, components=3)
    E = sp.leray_df(grid, gt.random_alg_field(grid, ab, rng, amp,
                                              mode_cut=2.5, components=3))
    return dyn.CauchyState(grid, ab, 0.0, A, E)


def test_deturck_rhs_zero_and_abelian(grid16, s2, ab, rng):
    z = hf.FlowState(grid16, s2, 0.0,
                     np.zeros((3, 3, 16, 16, 16)), np.zeros((3, 3, 16, 16, 16)))
    da, db = hf.deturck_rhs(z)
    assert np.max(np.abs(da)) == 0.0 and np.max(np.abs(db)) == 0.0
    st = abelian_state(grid16, ab, rng)
    fl = hf.FlowState(grid16, ab, 0.0, st.A, st.E)
    da, db = hf.deturck_rhs(fl)
    assert np.max(np.abs(da - sp.laplacian(grid16, st.A))) < 1e-11
    assert np.max(np.abs(db - sp.laplacian(grid16, st.E))) < 1e-11


def test_deturck_rhs_term_oracle(grid16, s2, rng):
    """Independent assembly from gauge-toolbox primitives."""
    from ymlab.algebra import bracket
    st = su2_state(grid16, s2, rng)
    A, B = st.A, st.E
    fl = hf.FlowState(grid16, s2, 0.0, A, B)
    da, db = hf.deturck_rhs(fl)
    g = grid16
    dA = [[sp.derivative(g, A[i], l) for i in range(3)] for l in range(3)]
    dB = [[sp.derivative(g, B[i], l) for i in range(3)] for l in range(3)]
    F = gt.curvature(g, A, s2)
    for i in range(3):
        acc = sp.laplacian(g, A[i])
        accB = sp.laplacian(g, B[i])
        for l in range(3):
            acc = acc + 2.0 * bracket(A[l], dA[l][i], s2) \
                      - bracket(A[l], dA[i][l], s2)
            if l != i:
                inner = sp.dealias(g, bracket(A[l], A[i], s2))
                acc = acc + bracket(A[l], inner, s2)
                accB = accB + 2.0 * bracket(B[l], gt.pair_component(F, l, i), s2)
            accB = accB + 2.0 * bracket(A[l], dB[l][i], s2)
            accB = accB + bracket(A[l], sp.dealias(g, bracket(A[l], B[i], s2)), s2)
        # production path dealiases the summed bracket terms
        lin_a = sp.laplacian(g, A[i])
        lin_b = sp.laplacian(g, B[i])
        oracle_a = lin_a + sp.dealias(g, acc - lin_a)
        oracle_b = lin_b + sp.dealias(g, accB - lin_b)
        assert np.max(np.abs(da[i] - oracle_a)) < 1e-12
        assert np.max(np.abs(db[i] - oracle_b)) < 1e-12


def test_flow_step_zero_fixed_point_and_abelian_exact(grid16, s2, ab, rng):
    z = hf.FlowState(grid16, s2, 0.0,
                     np.zeros((3, 3, 16, 16, 16)), np.zeros((3, 3, 16, 16, 16)))
    z2 = hf.flow_step(z, 0.01)
    assert np.max(np.abs(z2.A)) == 0.0
    st = abelian_state(grid16, ab, rng)
    fl = hf.FlowState(grid16, ab, 0.0, st.A, st.E)
    one = hf.flow_step(fl, 0.02)
    assert np.max(np.abs(one.A - sp.heat_propagate(grid16, st.A, 0.02))) < 1e-13
    with pytest.raises(ValueError):
        hf.flow_step(fl, -0.01)


def test_flow_step_richardson(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.25)
    f0 = hf.FlowState(grid16, s2, 0.0, st.A, st.E)
    h = 0.01
    one = hf.flow_step(f0, h)
    two = hf.flow_step(hf.flow_step(f0, h / 2), h / 2)
    four = f0
    for _ in range(4):
        four = hf.flow_step(four, h / 4)
    e1 = np.max(np.abs(one.A - four.A))
    e2 = np.max(np.abs(two.A - four.A))
    assert 10.0 < e1 / e2 < 25.0  # ~16 with the 1/(1-1/16) Richardson bias


def test_run_flow_abelian_heat_and_monotone(grid16, s2, ab, rng):
    st = abelian_state(grid16, ab, rng)
    flows = hf.run_flow(st, hf.sample_grid(0.05, n_samples=10, span=128))
    for f in flows:
        assert np.max(np.abs(f.A - sp.heat_propagate(grid16, st.A, f.s))) < 1e-10
        assert np.max(np.abs(f.B - sp.heat_propagate(grid16, st.E, f.s))) < 1e-10
    st2 = su2_state(grid16, s2, rng, amp=0.3)
    flows = hf.run_flow(st2, hf.sample_grid(1 / 16.0, n_samples=12), substeps=4)
    me = [0.5 * grid16.l2_norm(f.magnetic()) ** 2 for f in flows]
    assert all(me[i + 1] <= me[i] * (1 + 1e-12) for i in range(len(me) - 1))
    assert me[-1] < me[0]  # strictly decreasing while F != 0


def test_caloric_transport_properties(grid16, s2, ab, rng):
    # abelian divergence-free data: div A = 0, transport stays at identity
    st = abelian_state(grid16, ab, rng)
    st = dyn.CauchyState(grid16, ab, 0.0, sp.leray_df(grid16, st.A), st.E)
    flows = hf.run_flow(st, [0.0, 0.01, 0.02], with_transport=True)
    for f in flows:
        assert np.max(np.abs(f.U)) < 1e-12 or f.s == 0.0
    # su(2): U stays on the group
    st2 = su2_state(grid16, s2, rng, amp=0.2)
    flows = hf.run_flow(st2, [0.0, 0.005, 0.02], with_transport=True, substeps=6)
    assert np.max(np.abs(flows[0].U - np.array([1, 0, 0, 0]).reshape(4, 1, 1, 1))) == 0.0
    for f in flows[1:]:
        nrm = np.sqrt(np.einsum("a...,a...->...", f.U, f.U))
        assert np.max(np.abs(nrm - 1.0)) < 1e-12
    with pytest.raises(ValueError):
        hf.to_caloric(hf.run_flow(st2, [0.0, 0.01]))


def test_caloric_two_routes_agree(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.05)
    cut = np.floor(grid16.n / 3.0)
    k2max = 3.0 * (2 * np.pi / grid16.L * cut) ** 2
    ds = 0.9 * 0.25 / k2max
    s_star = 4 * ds
    flows = hf.run_flow(st, [s_star], substeps=16, with_transport=True)
    A_cal = hf.to_caloric(flows)[-1]
    A_dir = hf.run_caloric_direct(st.A, grid16, s2, s_star, ds)
    rel = np.max(np.abs(A_cal - A_dir)) / np.max(np.abs(A_dir))
    assert rel < 1e-6
    with pytest.raises(ValueError):
        hf.run_caloric_direct(st.A, grid16, s2, 1.0, 1.0)
    with pytest.raises(ValueError, match=f"s_end = {2.5 * ds} .*ds = {ds}"):
        hf.run_caloric_direct(st.A, grid16, s2, 2.5 * ds, ds)


def test_to_caloric_s0_identity_and_covariance(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.15)
    flows = hf.run_flow(st, [0.0, 0.01], with_transport=True, substeps=6)
    cal = hf.to_caloric(flows)
    assert np.array_equal(cal[0], st.A)
    Fd = flows[-1].magnetic()
    Fc = gt.curvature(grid16, cal[-1], s2)
    AdF = np.stack([gt.adjoint_field(flows[-1].U, Fd[c], s2) for c in range(3)])
    # n=16 dealias cut limits the adjoint/Maurer-Cartan products here; the
    # tight covariance checks run at n=32 in test_gauge
    assert np.max(np.abs(Fc - AdF)) / np.max(np.abs(Fd)) < 2e-7


def test_caloric_abelian_closed_form(grid16, ab, rng):
    """Abelian caloric flow heats the divergence-free part and freezes the
    curl-free part: A_cal(s) = e^{s Lap} P A(0) + Pperp A(0)."""
    st = abelian_state(grid16, ab, rng)
    st = dyn.CauchyState(grid16, ab, 0.0,
                         st.A + 0.3 * sp.leray_cf(
                             grid16, gt.random_alg_field(
                                 grid16, ab, rng, 0.3, mode_cut=2.0,
                                 components=3)), st.E)
    s = 0.02
    flows = hf.run_flow(st, [s], with_transport=True, substeps=8)
    A_cal = hf.to_caloric(flows)[-1]
    expect = (sp.heat_propagate(grid16, sp.leray_df(grid16, st.A), s)
              + sp.leray_cf(grid16, st.A))
    assert np.max(np.abs(A_cal - expect)) / np.max(np.abs(st.A)) < 1e-10
    # the caloric gauge freezes div A
    div_cal = sp.divergence(grid16, A_cal)
    div_0 = sp.divergence(grid16, st.A)
    assert np.max(np.abs(div_cal - div_0)) < 1e-10


def test_first_leg_starts_cold_only_where_the_estimate_sees_every_block(
        grid16, ab, rng, monkeypatch):
    """On the caloric test's data the u(1) transport block has no linear part
    and a right-hand side free of U, where the embedded estimate read 0 (a
    cold one-step first leg passed it, 1.6e-9 from the closed form).
    `run_flow` with transport keeps its first leg at max(2 substeps, 4) =
    16 steps; without it, the leg starts cold at two half steps.  The
    Simpson estimate sees the transport block: a cold start, forced here,
    misses LEG_TOL and is redone at 3 steps, within 1e-10 of the closed
    form too."""
    st = abelian_state(grid16, ab, rng)
    st = dyn.CauchyState(grid16, ab, 0.0,
                         st.A + 0.3 * sp.leray_cf(
                             grid16, gt.random_alg_field(
                                 grid16, ab, rng, 0.3, mode_cut=2.0,
                                 components=3)), st.E)
    s = 0.02
    expect = (sp.heat_propagate(grid16, sp.leray_df(grid16, st.A), s)
              + sp.leray_cf(grid16, st.A))
    sample_legs, legs = hf.sample_legs, []
    for cold in (False, True):
        if cold:
            monkeypatch.setattr(hf, "sample_legs",
                                lambda *a: sample_legs(*a[:7], True))
        flows = hf.run_flow(st, [s], with_transport=True, substeps=8, legs=legs)
        gap = np.max(np.abs(hf.to_caloric(flows)[-1] - expect)) / np.max(np.abs(st.A))
        assert legs[-1].counts == ([3] if cold else [16]) and legs[-1].redone == cold
        assert legs[-1].max_error <= (hf.LEG_TOL if cold else 1e-15) and gap < 1e-10
    monkeypatch.undo()
    hf.run_flow(st, [s], substeps=8, legs=legs)
    assert legs[-1].counts == [2]


def test_fornberg_weights():
    w = hf.fornberg_weights(np.arange(5.0), 2.0, 1)
    assert np.allclose(w, np.array([1, -8, 0, 8, -1]) / 12.0)
    w2 = hf.fornberg_weights(np.arange(5.0), 2.0, 2)
    assert np.allclose(w2, np.array([-1, 16, -30, 16, -1]) / 12.0)
    # one-sided first derivative at the left node
    wl = hf.fornberg_weights(np.arange(5.0), 0.0, 1)
    assert np.allclose(wl, np.array([-25, 48, -36, 16, -3]) / 12.0)


def test_stencil_construction(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.1)
    dt = 2e-3
    stn = hf.make_stencil(st, 5 * dt, dt)
    assert stn.center is not None
    assert np.array_equal(stn.center.A, st.A)
    ts = [s.t for s in stn.states]
    assert np.allclose(np.diff(ts), 5 * dt)
    with pytest.raises(ValueError):
        hf.make_stencil(st, 5.3 * dt, dt)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        hf.make_stencil(st, 2.5 * dt, dt)


def test_tension_on_shell_small_and_abelian_zero(grid16, s2, ab, rng):
    dt = 2e-3
    st = su2_state(grid16, s2, rng, amp=0.2)
    tr = dyn.evolve(st, dt, 0.05)
    assert np.all(hf.tension_field(tr.final, 0.0) == 0.0)     # exact by construction
    # the five-slice oracle takes d_t B from the trajectory itself
    stn = hf.make_stencil(tr.final, 5 * dt, dt)
    w0 = hf.slice_tension(stn, hf.flow_stencil(stn, [0.0])[-1])
    F = gt.curvature(grid16, tr.final.A, s2)
    assert grid16.l2_norm(w0) < 1e-6 * grid16.l2_norm(F)
    # abelian: w vanishes at every s
    stu = abelian_state(grid16, ab, rng)
    tru = dyn.evolve(stu, dt, 0.05)
    scale = grid16.l2_norm(stu.E)
    assert grid16.l2_norm(hf.tension_field(tru.final, 0.0)) < 1e-7 * scale
    assert grid16.l2_norm(hf.tension_field(tru.final, 1 / 64.0, substeps=4)) < 1e-7 * scale


def test_b_compatibility(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.2)
    assert hf.b_compatibility_residual(st, 1 / 64.0, substeps=6) < 1e-7


def test_deturck_tangent_is_exact_derivative(grid8, s2, rng):
    """deturck_nonlinear in the tangent algebra on (A|a, B|b) gives, in its
    tangent block, the derivative of the primal output p(h) at (A + h a,
    B + h b): the 4-point central difference is exact, p being cubic in h."""
    from ymlab.algebra import tangent
    g, h = grid8, 0.25
    A, B, a, b = (gt.random_alg_field(g, s2, rng, 0.3, mode_cut=2.0, components=3)
                  for _ in range(4))
    tan = hf.deturck_nonlinear(g, tangent(s2), np.concatenate((A, a), axis=1),
                               np.concatenate((B, b), axis=1))

    p2, p1, p0, m1, m2 = (hf.deturck_nonlinear(g, s2, A + x * a, B + x * b)
                          for x in (2 * h, h, 0.0, -h, -2 * h))

    def blocks(u):            # (primal, tangent); DB has no spatial-index axis
        return (u[:, :3], u[:, 3:]) if u.ndim == 5 else (u[:3], u[3:])

    for k, out in enumerate(tan):
        primal, deriv = blocks(out)
        fd = (8.0 * (p1[k] - m1[k]) - (p2[k] - m2[k])) / (12.0 * h)
        assert np.max(np.abs(primal - p0[k])) <= 1e-14 * np.max(np.abs(p0[k])), k
        assert np.max(np.abs(deriv - fd)) <= 1e-12 * np.max(np.abs(fd)), k


def test_tangent_tension_agrees_with_stencil_to_delta4(grid8, s2, rng):
    """The stencil's w differs from the tangent flow's by O(delta^4): the gap
    shrinks 16x when delta halves (dt fixed)."""
    st = su2_state(grid8, s2, rng, amp=0.3)
    s, dt = 1 / 64.0, 1e-3
    w = hf.tension_field(st, s, substeps=4)
    gaps = []
    for m in (16, 8):
        stn = hf.make_stencil(st, m * dt, dt)
        slices = hf.flow_stencil(stn, [s], substeps=4)[-1]
        gaps.append(grid8.l2_norm(hf.slice_tension(stn, slices) - w))
    assert gaps[0] < 1e-4 * grid8.l2_norm(w)
    assert 14.0 < gaps[0] / gaps[1] < 18.0


def test_f_bilinear_routes(grid16, s2, ab, rng):
    st = su2_state(grid16, s2, rng, amp=0.15)
    s = 0.01
    mag1, ele1 = hf.f_bilinear_part(st, s, substeps=8)
    mag2, ele2 = hf.f_bilinear_duhamel(st, s, n_quad=24, substeps=6)
    scale = max(np.max(np.abs(mag1)), np.max(np.abs(ele1)))
    assert np.max(np.abs(mag1 - mag2)) / scale < 1e-6
    assert np.max(np.abs(ele1 - ele2)) / scale < 1e-6
    # abelian and s = 0 cases vanish
    stu = abelian_state(grid16, ab, rng)
    magu, eleu = hf.f_bilinear_part(stu, s, substeps=8)
    fscale = grid16.l2_norm(gt.curvature(grid16, stu.A, ab))
    assert grid16.l2_norm(magu) < 1e-10 * fscale
    mag0, ele0 = hf.f_bilinear_part(st, 0.0)
    assert np.max(np.abs(mag0)) < 1e-14 and np.max(np.abs(ele0)) < 1e-14


def test_w2_zero_cases(grid16, s2, ab, rng):
    z = dyn.CauchyState(grid16, s2, 0.0,
                        gt.random_alg_field(grid16, s2, rng, 0.2,
                                            mode_cut=2.0, components=3),
                        np.zeros((3, 3, 16, 16, 16)))
    assert np.max(np.abs(hf.w2_leading(z, 0.01))) == 0.0
    stu = abelian_state(grid16, ab, rng)
    assert np.max(np.abs(hf.w2_leading(stu, 0.01))) == 0.0


def test_w2_leading_symbol_oracle(grid8, s2, rng):
    """w2_i = -2 sum_l W([E^l, d_i E_l - 2 d_l E_i]), rebuilt by expanding the
    bracket in the basis and taking each scalar W from the closed-form symbol."""
    from ymlab.algebra import bracket
    E = gt.random_alg_field(grid8, s2, rng, 0.3, mode_cut=2.0, components=3)
    st = dyn.CauchyState(grid8, s2, 0.0, np.zeros_like(E), E)
    s = 0.05
    dE = sp.gradient(grid8, E)                   # dE[l][i] = d_l E_i
    basis = np.eye(3).reshape(3, 3, 1, 1, 1)
    oracle = np.zeros_like(E)
    for a in range(3):
        for b in range(3):
            c_ab = bracket(basis[a], basis[b], s2)      # [e_a, e_b]
            if not c_ab.any():
                continue
            for i in range(3):
                for l in range(3):
                    G = dE[i][l] - 2.0 * dE[l][i]
                    oracle[i] += -2.0 * c_ab * sp.bilinear_W(
                        grid8, E[l, a], G[b], s, mode="symbol")
    w2 = hf.w2_leading(st, s)
    assert np.max(np.abs(w2 - oracle)) <= 1e-10 * np.max(np.abs(oracle))


def _scalar_legs(rhs, times, substeps, state):
    """`sample_legs` on small arrays with the classical RK4 step; returns the
    record, the emitted samples and the step sizes taken."""
    hs, out = [], []

    def step(y, h, f, k1, mid):
        hs.append(h)
        return dyn.rk4_step(y, h, rhs, k1=k1, mid=mid)

    def norm(y):
        return float(np.sqrt(sum(np.sum(u * u) for u in y)))

    band = SimpleNamespace(pack=lambda z: z, unpack=lambda z: z,
                           propagate=lambda tau, z: z, norm=norm)
    record = hf.sample_legs(state, times, substeps, step, rhs, band,
                            lambda s, y: out.append((s, y[0][0])))
    return record, out, hs


def test_sample_legs_schedule_and_validation(grid8, s2, rng):
    record, out, hs = _scalar_legs(lambda y: (np.ones(1),), [0.3, 0.0, 0.1, 0.2], 2,
                                   (np.zeros(1),))
    assert [s for s, _ in out] == [0.0, 0.1, 0.2, 0.3]
    # the first leg starts cold at two half steps; a round-off estimate keeps every
    # later leg at one
    assert record.counts == [2, 1, 1] and record.steps == len(hs) == 4
    assert record.redone == 0 and record.max_error < 1e-15
    assert abs(out[-1][1] - 0.3) < 1e-15
    with pytest.raises(ValueError, match="substeps"):
        _scalar_legs(lambda y: (np.ones(1),), [0.1], 0, (np.zeros(1),))
    with pytest.raises(hf.ParabolicBlowUpError):   # any field, not only the first
        _scalar_legs(lambda y: (np.zeros(1), np.full(1, np.nan)), [0.1], 1,
                     (np.zeros(1), np.zeros(1)))
    with pytest.raises(ValueError, match="substeps"):
        hf.run_flow(su2_state(grid8, s2, rng), [0.0, 1e-3], substeps=0)


def test_sample_legs_redoes_a_leg_above_the_tolerance():
    """y' = 5 max(s - 1, 0) y, with s as the second field: the estimate is 0
    up to s = 1, so the cold first leg keeps its two half steps, the leg to
    1 takes one step and the leg to 1.1 is predicted at one step; its own
    estimate exceeds LEG_TOL, and it is redone with substeps steps.  Their
    first step's nodes straddle the kink at s = 1, so the kept leg's
    estimate still reads above LEG_TOL, while it ends within LEG_TOL of the
    closed form.  The flow makes 4 x steps + 1 right-hand sides, the redone
    leg included."""
    calls = [0]

    def rhs(y):
        calls[0] += 1
        return 5.0 * np.maximum(y[1] - 1.0, 0.0) * y[0], np.ones(1)

    record, out, hs = _scalar_legs(rhs, [0.5, 1.0, 1.1], 8, (np.ones(1), np.zeros(1)))
    assert record.counts == [2, 1, 8] and record.redone == 1
    assert record.steps == len(hs) == 2 + 1 + 1 + 8
    assert hs[3] == pytest.approx(0.1) and hs[4:] == [pytest.approx(0.1 / 8)] * 8
    assert record.max_error > hf.LEG_TOL
    assert calls[0] == 4 * record.steps + 1
    assert abs(out[-1][1] - np.exp(2.5 * 0.1**2)) < 1e-11


def _rel_gap(fields, ref):
    num = sum(np.sum((u - v) ** 2) for u, v in zip(fields, ref))
    return float(np.sqrt(num / sum(np.sum(v * v) for v in ref)))


@pytest.mark.parametrize("amp", [0.1, 1.0])
def test_controlled_flows_match_a_refined_fixed_step_flow(grid8, s2, amp, monkeypatch):
    """Against a fixed-step flow of 32x the steps, the samples of a
    controlled `run_flow` and `flow_tangent` are no further than 100 x
    LEG_TOL of the state's L2 norm beyond the samples of fixed substeps per leg,
    which a leg keeps where fewer steps do not meet LEG_TOL (at amplitude 1
    the last leg does not meet it even so).  The first leg of `run_flow`
    starts cold at two half steps; that of `flow_tangent`, with its "ode"
    A_0 block, takes max(2 substeps, 4); no later leg takes more than
    substeps."""
    rng = np.random.default_rng(3)
    st = su2_state(grid8, s2, rng, amp=amp, cut=1.5)
    samples, substeps = hf.sample_grid(1 / 32.0, 3, 16.0), 2
    legs, counts = [], []
    flow = hf.run_flow(st, samples, substeps, legs=legs)
    sample_legs = hf.sample_legs

    def recorded(*args):
        counts.append(sample_legs(*args).counts)
        return counts[-1]

    monkeypatch.setattr(hf, "sample_legs", recorded)
    tangent = hf.flow_tangent(st, samples, substeps)
    monkeypatch.undo()
    for c, first in ((legs[0].counts, 2), (counts[0], 4)):
        assert c[0] == first and max(c[1:]) <= substeps and len(c) == 3
        assert min(c[1:]) < substeps or amp == 1.0   # amplitude 0.1: a leg is cut
    bound = 100 * hf.LEG_TOL
    monkeypatch.setattr(hf, "LEG_TOL", -1.0)       # no estimate meets it: fixed steps
    fixed = (hf.run_flow(st, samples, substeps), hf.flow_tangent(st, samples, substeps))
    ref = (hf.run_flow(st, samples, 32 * substeps),
           hf.flow_tangent(st, samples, 32 * substeps))
    for got, today, want in zip((flow, tangent), fixed, ref):
        for f, t, r in zip(got, today, want):
            fields = [(u.A, u.B) if u.A0 is None else (u.A, u.B, u.A0) for u in (f, t, r)]
            assert _rel_gap(fields[0], fields[2]) <= bound + _rel_gap(fields[1], fields[2])


def test_nested_sample_grids_share_one_lattice():
    n_s, span = 32, 1024.0
    s0s = [1.0 / 4**2, 1.0 / 8**2]
    grids = hf.nested_sample_grids(s0s, n_s, span)
    # the largest s0, and a single s0, give sample_grid bit for bit
    assert np.array_equal(grids[0], hf.sample_grid(s0s[0], n_s, span))
    assert np.array_equal(hf.nested_sample_grids(s0s[1:], n_s, span)[0],
                          hf.sample_grid(s0s[1], n_s, span))
    log_r = np.log(span) / (n_s - 1)
    for s0, g in zip(s0s, grids):
        assert len(g) == n_s + 1 and g[0] == 0.0
        assert g[1] == s0 / span and g[-1] == s0          # exact endpoints
        gaps = np.diff(np.log(g[1:])) / log_r
        assert gaps.min() >= 0.5 - 1e-12 and gaps.max() <= 1.5 + 1e-12
    union = np.unique(np.concatenate(grids))
    assert len(union) - 1 == 39                 # 63 positive points unnested
    for k, s in enumerate(grids[1][2:-1]):      # the lattice is shared
        assert s in grids[0] or s < s0s[0] / span, k


@pytest.mark.parametrize("s0s, n_s, union", [
    ([1 / 16, 1 / 64], 16, 19),                 # 20 with an ulp duplicate
    ([1 / 16, 1 / 64], 11, 13),
    ([1 / 16, 1 / 64, 1 / 256, 1 / 1024], 16, 25)])
def test_nested_sample_grids_one_sample_per_lattice_point(s0s, n_s, union):
    grids = hf.nested_sample_grids(s0s, n_s, 1024.0)
    assert np.array_equal(grids[0], hf.sample_grid(s0s[0], n_s, 1024.0))
    for s0, g in zip(s0s, grids):
        assert abs(g[-1] - s0) <= 1e-12 * s0 and len(g) == n_s + 1
    positive = np.unique(np.concatenate(grids))[1:]
    assert len(positive) == union
    assert np.diff(np.log(positive)).min() > 0.4


def test_tension_profile_one_flow(grid8, s2, rng, monkeypatch):
    """One tangent flow through [0, s0/4, s0] gives the w of separate flows."""
    st = su2_state(grid8, s2, rng)
    samples = [0.0, 1 / 256.0, 1 / 64.0]
    calls = [0]
    step = hf._IFSystem.step

    def counted(self, *args):
        calls[0] += 1
        return step(self, *args)

    monkeypatch.setattr(hf._IFSystem, "step", counted)
    ws = hf.tension_profile(st, samples, substeps=4)
    monkeypatch.undo()
    assert calls[0] == 8 + 3                    # 8 + 4 at fixed steps, 16 with one flow per s
    assert np.array_equal(ws[0], hf.tension_field(st, 0.0))
    for s, w in zip(samples[1:], ws[1:]):
        ref = grid8.l2_norm(hf.tension_field(st, s, substeps=4))
        assert abs(grid8.l2_norm(w) - ref) <= 1e-8 * ref


def test_w2_amplitude_sweep_slope(grid16, s2, rng):
    """||w - w2|| must scale cubically in the data amplitude."""
    base = su2_state(grid16, s2, rng, amp=0.2)
    s_test = 1 / 256.0
    gaps = []
    amps = (0.04, 0.08)
    for a in amps:
        A = base.A * (a / 0.2)
        E = gt.constraint_repair(grid16, A, base.E * (a / 0.2), s2, tol=1e-12)
        st = dyn.CauchyState(grid16, s2, 0.0, A, E)
        w = hf.tension_field(st, s_test, substeps=6)
        w2 = hf.w2_leading(st, s_test)
        gaps.append(grid16.l2_norm(w - w2))
        assert grid16.l2_norm(w2) > 3 * gaps[-1]  # w2 really is the leading part
    slope = np.log2(gaps[1] / gaps[0])
    assert abs(slope - 3.0) < 0.3


def test_smoothing_profile_shells(grid32, s2, rng):
    """Per-shell decay e^{-c s 4^k} with c >= 1.5, eta <= 0.5 on flat-band data."""
    A = gt.random_alg_field(grid32, s2, rng, 0.04, mode_cut=8.0, decay=1e6,
                            components=3)
    E = gt.constraint_repair(
        grid32, A, gt.random_alg_field(grid32, s2, rng, 0.04, mode_cut=8.0,
                                       decay=1e6, components=3), s2, tol=1e-9)
    st = dyn.CauchyState(grid32, s2, 0.0, A, E)
    s0 = 1 / 64.0
    flows = hf.run_flow(st, hf.sample_grid(s0, n_samples=10, span=256), substeps=4)
    F0 = np.concatenate([flows[0].magnetic(), flows[0].B])
    total = grid32.l2_norm(F0) ** 2
    shell0 = {k: grid32.l2_norm(sp.lp_project(grid32, F0, k)) ** 2
              for k in range(sp.lp_max_shell(grid32) + 1)}
    active = [k for k, v in shell0.items() if v >= 1e-6 * total]
    assert len(active) >= 3
    for f in flows[1:]:
        Fs = np.concatenate([f.magnetic(), f.B])
        for k in active:
            ratio = grid32.l2_norm(sp.lp_project(grid32, Fs, k)) ** 2 / shell0[k]
            bound = np.exp(-1.5 * f.s * 2.0 ** (2 * k)) * 1.5
            assert ratio <= bound


def test_covariant_derivative_trend(grid16, s2, rng):
    """(N s^{1/2})^{1-sigma} ||(s^{1/2} D)^m F|| stays within a fixed multiple
    of its m = 0 value along the flow (monitored, m <= 3)."""
    st = su2_state(grid16, s2, rng, amp=0.1)
    N, sigma = 8.0, 5.0 / 6.0
    s0 = 1.0 / N**2
    flows = hf.run_flow(st, hf.sample_grid(s0, n_samples=8, span=64), substeps=4)
    worst = 0.0
    base = None
    for f in flows[1:]:
        F = np.concatenate([f.magnetic(), f.B])
        vals = []
        cur = F
        for m in range(4):
            vals.append((N * np.sqrt(f.s)) ** (1 - sigma) * f.s ** (m / 2.0)
                        * grid16.l2_norm(cur))
            if m < 3:
                comps = cur if cur.ndim == 5 else cur[None]
                cur = np.stack([
                    gt.covariant_derivative(grid16, f.A, comps[c], l, s2)
                    for l in range(3) for c in range(comps.shape[0])])
        if base is None:
            base = max(vals[0], 1e-30)
        worst = max(worst, max(vals) / base)
    assert worst < 50.0


def _physical_if_rk4(grid, kinds, y, h, nonlin):
    """IF-RK4 on physical fields, each heat factor applied by a transform
    round trip: the form that the spectral `_IFSystem` step replaces."""
    def prop(u, kind, t):
        if kind == "heat":
            return grid.ifft(np.exp(-t * grid.k2) * grid.fft(u))
        if kind == "cheat":
            return grid.cifft(np.exp(-t * grid.k2_full) * grid.cfft(u))
        return u

    k1 = nonlin(y)
    ya = [prop(u0 + 0.5 * h * k, kd, 0.5 * h) for u0, k, kd in zip(y, k1, kinds)]
    k2 = nonlin(ya)
    yb = [prop(u0, kd, 0.5 * h) + 0.5 * h * k for u0, k, kd in zip(y, k2, kinds)]
    k3 = nonlin(yb)
    yc = [prop(u0, kd, h) + h * prop(k, kd, 0.5 * h) for u0, k, kd in zip(y, k3, kinds)]
    k4 = nonlin(yc)
    return [prop(u0, kd, h) + (h / 6.0) * (prop(a1, kd, h)
                                          + 2.0 * prop(a2 + a3, kd, 0.5 * h) + a4)
            for u0, a1, a2, a3, a4, kd in zip(y, k1, k2, k3, k4, kinds)]


def _toy_quadratic(y):
    """Pointwise quadratic couplings; real for real fields, complex for the
    complex scalar of a "cheat" field (always the second one here)."""
    u, v, w = y
    if np.iscomplexobj(v):
        return u * w + np.abs(v) ** 2, u * v, w * w - u * u
    return u * v, u * u - v * w, v * w


@pytest.mark.parametrize("kinds", [("heat", "heat", "ode"), ("heat", "cheat", "heat")])
def test_spectral_if_step_matches_physical_oracle(grid16, kinds):
    g = grid16
    rng = np.random.default_rng(7)
    y = [0.5 * rng.standard_normal((2,) + (16,) * 3) for _ in kinds]
    if kinds[1] == "cheat":
        y[1] = y[1] + 0.5j * rng.standard_normal((2,) + (16,) * 3)
    sys = hf._IFSystem(g, kinds)
    yh = sys.spectral(tuple(y))
    for _ in range(4):
        y = _physical_if_rk4(g, kinds, y, 0.01, _toy_quadratic)
        yh = sys.step(yh, 0.01, lambda z: sys.spectral(_toy_quadratic(sys.physical(z))))
    for ref, got in zip(y, sys.physical(yh)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_flow_step_transform_count(s2, rng):
    """One su(2) DeTurck IF-RK4 step at n = 16 makes at most 648 scalar 3-D
    transforms, state conversion included (972 with physical-space stages)."""
    from ymlab.grid import Grid
    g = Grid(16)
    st = su2_state(g, s2, rng)
    count = [0]
    for name in ("fft", "ifft", "cfft", "cifft"):
        def counted(f, _fn=getattr(g, name)):
            count[0] += int(np.prod(f.shape[:-3]))
            return _fn(f)
        setattr(g, name, counted)
    hf.flow_step(hf.FlowState(g, s2, 0.0, st.A, st.E), 1e-3)
    assert 0 < count[0] <= 648


def test_if_step_writes_no_input_and_matches_textbook(grid8, rng):
    """The nonlinearity returns arrays of its input: _IFSystem.step leaves y
    and every k as they were, and gives the allocating textbook IF-RK4
    expression, in the operand order of `rk4_step`'s five half-step
    factors, bit for bit, for heat, cheat and ode fields."""
    sys = hf._IFSystem(grid8, ("heat", "cheat", "ode"))
    y = sys.spectral((rng.standard_normal((2, 8, 8, 8)),
                      rng.standard_normal((8, 8, 8)) + 1j * rng.standard_normal((8, 8, 8)),
                      rng.standard_normal((8, 8, 8))))

    def nonlin(z):
        return z[0], z[1] * z[2], z[2]

    def textbook(y, h):
        def P(z):
            return sys.propagate(0.5 * h, z)

        k1 = nonlin(y)
        a = P(y)
        k2 = nonlin(tuple(u + 0.5 * h * p for u, p in zip(a, P(k1))))
        z3 = tuple(u + 0.5 * h * k for u, k in zip(a, k2))
        k3 = nonlin(z3)
        a = tuple(z - 0.5 * h * k for z, k in zip(z3, k2))
        k4 = nonlin(P(tuple(u + h * k for u, k in zip(a, k3))))
        s = tuple(u + (h / 3.0) * (a2 + a3) + (h / 6.0) * p
                  for u, a2, a3, p in zip(a, k2, k3, P(k1)))
        return tuple(u + (h / 6.0) * a4 for u, a4 in zip(P(s), k4))

    y0 = [u.copy() for u in y]
    seen = []

    def recorded(z):
        k = nonlin(z)
        seen.append((z, [u.copy() for u in z], k, [u.copy() for u in k]))
        return k

    got = sys.step(y, 0.05, recorded)
    assert len(seen) == 4
    for u, u0 in zip(y, y0):
        assert u.tobytes() == u0.tobytes()
    for z, z0, k, k0 in seen:
        for u, u0 in zip(z + k, z0 + k0):
            assert u.tobytes() == u0.tobytes()
    for u, want in zip(got, textbook(y, 0.05)):
        assert u.dtype == want.dtype and u.tobytes() == want.tobytes()
