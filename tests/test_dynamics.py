import tracemalloc

import numpy as np
import pytest

from ymlab import dynamics as dyn
from ymlab import gauge as gt
from ymlab import heatflow as hf
from ymlab import spectral as sp
from ymlab.datagen import abelian_wave, random_state


def su2_state(grid, s2, rng, amp=0.15, cut=2.0):
    A = gt.random_alg_field(grid, s2, rng, amp, mode_cut=cut, components=3)
    E = gt.random_alg_field(grid, s2, rng, amp, mode_cut=cut, components=3)
    E = gt.constraint_repair(grid, A, E, s2, tol=1e-10)
    return dyn.CauchyState(grid, s2, 0.0, A, E)


def test_zero_state_fixed_point(grid16, s2):
    st = dyn.CauchyState(grid16, s2, 0.0,
                         np.zeros((3, 3, 16, 16, 16)), np.zeros((3, 3, 16, 16, 16)))
    da, de = dyn.ym_rhs(st)
    assert np.max(np.abs(da)) == 0.0 and np.max(np.abs(de)) == 0.0
    st2 = dyn.step_rk4(st, 1e-2)
    assert np.max(np.abs(st2.A)) == 0.0


def test_abelian_plane_wave_linear_rhs(grid16, ab):
    st = abelian_wave(grid16, ab, 0.1)
    _, Edot = dyn.ym_rhs(st)
    # div-free single mode |k| = 1: Edot = -|k|^2 A
    assert np.max(np.abs(Edot + st.A)) < 1e-12


def test_plane_wave_period_return_and_order(grid16, ab):
    """The IF step takes the abelian plane wave exactly: through `evolve` it
    returns after one period to round-off.  Classical RK4, written out on
    `ym_rhs`, converges to it at order 4."""
    st = abelian_wave(grid16, ab, 0.1)
    period = 2.0 * np.pi
    tr = dyn.evolve(st, period / 128, period)
    assert np.max(np.abs(tr.final.A - st.A)) < 1e-14
    assert np.max(np.abs(tr.final.E - st.E)) < 1e-14
    errs = []
    for div in (128, 256):
        y = (st.A, st.E)
        for _ in range(div):
            y = dyn.rk4_step(y, period / div,
                             lambda z: dyn.ym_rhs(dyn.CauchyState(grid16, ab, 0.0, *z)))
        errs.append(np.max(np.abs(y[0] - st.A)))
    order = np.log2(errs[0] / errs[1])
    assert abs(order - 4.0) < 0.3


def test_rk4_self_convergence(grid16, s2, rng):
    st = su2_state(grid16, s2, rng)
    dt = 4e-2
    one = dyn.step_rk4(st, dt)
    half = dyn.step_rk4(dyn.step_rk4(st, dt / 2), dt / 2)
    quarter = st
    for _ in range(4):
        quarter = dyn.step_rk4(quarter, dt / 4)
    e1 = np.max(np.abs(one.A - quarter.A))
    e2 = np.max(np.abs(half.A - quarter.A))
    assert 16 * 0.8 < e1 / e2 < 16 / 0.8 * 1.1


def _linear_part(grid, A):
    """-|k|^2 A + k (k . A), the linear part of sum_j D_j F_ji, physical."""
    Ah = grid.fft(A)
    kA = sum(grid.k(i) * Ah[i] for i in range(3))
    return grid.ifft(np.stack([-grid.k2 * Ah[i] + grid.k(i) * kA for i in range(3)]))


def test_wave_legs_matches_physical_loop(grid16, s2, rng):
    """The spectral-state driver against Lawson IF-RK4 with physical-space
    stages, written out here on the steps the driver's `LegRecord` took:
    legs to the marks 4 and 10 and one step back.  The first leg's two
    cold half steps miss WAVE_LEG_TOL, so it is redone once, at the 4 steps
    its estimate asks for (2 + 4 IF steps), and ends within 4 x
    WAVE_LEG_TOL of 64 IF steps; the emitted t is t0 + mark dt."""
    st = su2_state(grid16, s2, rng, amp=0.3, cut=3.0)
    dt = 4e-3

    def nonlinear(z):
        return None, dyn.covariant_curl_div(grid16, s2, z[0]) - _linear_part(grid16, z[0])

    def prop(tau, z):
        zh = tuple(None if u is None else grid16.fft(u) for u in z)
        return tuple(grid16.ifft(u) for u in st.propagate(tau, zh))

    def physical_loop(marks, counts, h):
        y, out = (st.A, st.E), []
        for a, b, m in zip([0] + marks, marks, counts):
            for _ in range(m):
                y = dyn.rk4_step(y, (b - a) * h / m, nonlinear, prop)
            out.append(y)
        return out

    got, legs = [], []
    final = dyn.wave_legs(st, dt, [4, 10], lambda state, _hat, _kept: got.append(state), legs)
    assert final is got[-1]
    assert legs[0].counts[0] == 4 and 1 <= legs[0].counts[1] <= 6 and legs[0].redone == 1
    ref = st.spectral()
    for _ in range(64):
        ref = dyn.rk4_step(ref, 4 * dt / 64, st.spectral_rhs, st.propagate)
    gap = [u - v for u, v in zip(got[0].spectral(), ref)]
    m = legs[0].counts[0]                       # WAVE_LEG_TOL holds per step
    assert dyn.spectral_norm(grid16, gap) <= m * dyn.WAVE_LEG_TOL * dyn.spectral_norm(grid16, ref)
    back = []
    dyn.wave_legs(st, -dt, [1], lambda state, _hat, _kept: back.append(state), legs)
    assert legs[1].counts == [2]                 # two cold half steps
    want = physical_loop([4, 10], legs[0].counts, dt) + physical_loop([1], [2], -dt)
    for t, state, (A, E) in zip((4 * dt, 10 * dt, -dt), got + back, want):
        assert state.t == st.t + t
        for ref, val in ((A, state.A), (E, state.E)):
            assert np.max(np.abs(val - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_wave_propagator_group_law(grid16, s2, rng):
    """P_h P_h = P_2h and P_-h P_h = 1 to round-off, on random spectral
    (A, E) and on MKG scalar pairs (cfft layout), zero blocks included."""
    g, h = grid16, 0.037
    A, E = (g.fft(rng.standard_normal((3, 3, 16, 16, 16))) for _ in range(2))
    phi, phit = (g.cfft(rng.standard_normal((16,) * 3) + 1j * rng.standard_normal((16,) * 3))
                 for _ in range(2))
    for pair, full in (((A, E), False), ((phi, phit), True), ((None, E), False)):
        def flow(tau, y):
            return dyn._wave_flow(g, tau, *y, full=full)

        twice, double = flow(h, flow(h, pair)), flow(2 * h, pair)
        back = flow(-h, flow(h, pair))
        for u, v, w in zip(twice, double, back):
            scale = np.max(np.abs(v))
            assert np.max(np.abs(u - v)) <= 1e-13 * scale
        for u, w in zip(pair, back):
            ref = np.zeros_like(w) if u is None else u
            assert np.max(np.abs(w - ref)) <= 1e-13 * np.max(np.abs(back[1]))


@pytest.mark.parametrize("amp", [0.1, 1.0])
def test_controlled_evolve_accuracy(grid16, s2, amp):
    """su(2) data sampled every 5 dt: the controlled IF `evolve` ends no
    further from classical RK4 at dt/4 than fixed-dt classical RK4 does,
    in fewer steps; its energy drifts by less than 1e-10, and its Gauss
    residual grows by at most 1.001 times the growth under fixed-dt
    classical RK4 (the truncation cascade at n = 16 grows it 7x for both)."""
    st, _ = random_state(grid16, s2, amp, seed=2, mode_cut=3.0, decay=1e6)
    dt, nsteps = 2e-3, 25

    def classical(h, n, every):
        y, gauss = (st.A, st.E), [gt.gauss_residual(grid16, st.A, st.E, s2)[1]]
        for m in range(1, n + 1):
            y = dyn.rk4_step(y, h, lambda z: dyn.ym_rhs(dyn.CauchyState(grid16, s2, 0.0, *z)))
            if m % every == 0:
                gauss.append(gt.gauss_residual(grid16, *y, s2)[1])
        return y, np.array(gauss)

    tr = dyn.evolve(st, dt, nsteps * dt, 5)
    assert tr.legs.steps < nsteps
    ref, _ = classical(dt / 4, 4 * nsteps, 4 * nsteps)
    fixed, gauss = classical(dt, nsteps, 5)

    def gap(y):
        return np.sqrt(sum(np.sum((u - v) ** 2) for u, v in zip(y, ref)))

    assert gap((tr.final.A, tr.final.E)) <= gap(fixed)
    e, gs = np.array(tr.columns["energy"]), np.array(tr.columns["gauss_residual"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-10
    assert gs.max() / gs[0] < 1.001 * gauss.max() / gauss[0]


def test_evolve_keeps_and_logs_its_legs(grid16, s2, rng, caplog):
    """`evolve` keeps the wave's `LegRecord` of either system and logs it in
    one INFO record each.  Sampled at every dt, the first leg takes two cold
    half steps; then a step spans several legs, and the samples inside it
    come from its dense output: a leg inside a step counts 0 steps, and the
    record counts those samples."""
    from ymlab.datagen import mkg_random
    st = su2_state(grid16, s2, rng)
    with caplog.at_level("INFO", logger="ymlab.dynamics"):
        tr = dyn.evolve(st, 2e-3, 0.02, 1)
        out = dyn.evolve(mkg_random(grid16, 0.2, seed=3, mode_cut=2.0, decay=1e6),
                         2e-3, 0.02, sample_every=1)
    for rec, steps in ((tr.legs, 6), (out.legs, 7)):
        assert rec.counts[0] == 2 and len(rec.counts) == 10 and rec.redone == 0
        assert sum(rec.counts) == rec.steps == steps
        assert rec.inner == rec.counts.count(0) == 10 - (steps - 1)
        assert 0.0 < rec.max_error <= dyn.WAVE_LEG_TOL
    msgs = [r.getMessage() for r in caplog.records]
    assert msgs == [f"evolve to t = 0.02: {rec.steps} IF steps, {rec.inner} samples between "
                    f"them, 0 legs redone, step error <= {rec.max_error:.1e}"
                    for rec in (tr.legs, out.legs)]


def _l2(y):
    return float(np.sqrt(sum(np.sum(u * u) for u in y)))


def _scalar_controlled(rhs, y0, spans, caps, tol, cold=True):
    """`controlled_legs` on small arrays with the classical RK4 step; returns
    the record, the emitted states and the step sizes taken."""
    hs, out = [], []

    def step(y, h, k1, mid):
        hs.append(h)
        return dyn.rk4_step(y, h, rhs, k1=k1, mid=mid)

    record = dyn.controlled_legs(y0, spans, caps, step, rhs, lambda tau, z: z, _l2,
                                 out.append, dyn.BlowUpError, tol, cold)
    return record, out, hs


def test_missed_cold_leg_is_redone_at_the_size_its_estimate_asks():
    """y' = cos(2 s) + c y, s' = 1, from y = 1: the first leg, of span 0.1,
    takes two cold half steps, and the Simpson estimate e of the second
    (the first one's nodes are its history) misses tol.  The leg is redone
    once from the kept state, at the fewest m for which e (2/m)^5 is at
    most tol, and is then bit for bit a warm leg of m steps that ends
    within m tol of a fine reference.  Its own estimates exceed tol by up
    to 4x (the errors fall like h^4.8 here, not h^5), and it is kept."""
    tol, span, cap, y0 = dyn.WAVE_LEG_TOL, 0.1, 50, (np.ones(1), np.zeros(1))
    for c, m_want in ((0.01, 14), (0.1, 16)):
        def rhs(y):
            return np.cos(2.0 * y[1]) + c * y[0], np.ones(1)

        e = _scalar_controlled(rhs, y0, [span / 2] * 2, [1, 1], 0.0, cold=False)[0].max_error
        m = next(q for q in range(1, cap) if e * (2.0 / q) ** 5 <= tol)
        assert m == m_want
        record, (end,), hs = _scalar_controlled(rhs, y0, [span], [cap], tol)
        assert hs == [span / 2] * 2 + [span / m] * m
        assert record.redone == 1
        assert record.counts == [m] and record.steps == len(hs) == 2 + m
        assert tol < record.max_error < 4 * tol
        ref = y0
        for _ in range(4000):
            ref = dyn.rk4_step(ref, span / 4000, rhs)
        assert _l2([u - v for u, v in zip(end, ref)]) <= m * tol * _l2(ref)
        _, (warm,), _ = _scalar_controlled(rhs, y0, [span], [m], tol, cold=False)
        assert all(u.tobytes() == v.tobytes() for u, v in zip(end, warm))


def test_evolve_rejects_T_off_the_dt_grid(grid8, s2):
    """T = 0.01 is no multiple of dt = 0.003: evolve raises for both wave
    systems, naming T and dt, instead of ending at t = 0.009."""
    from ymlab.datagen import mkg_wave
    with pytest.raises(ValueError, match=r"T = 0.01 .*dt = 0.003"):
        dyn.evolve(abelian_wave(grid8, s2, 0.1), 0.003, 0.01)
    with pytest.raises(ValueError, match=r"T = 0.01 .*dt = 0.003"):
        dyn.evolve(mkg_wave(grid8, 0.1), 0.003, 0.01)


@pytest.mark.parametrize("name, dt, T, cfl", [
    ("dt", 0.0, 0.01, 0.5), ("dt", -1e-3, 0.01, 0.5), ("dt", float("nan"), 0.01, 0.5),
    ("T", 1e-3, -0.01, 0.5), ("cfl", 1e-3, 0.01, 0.0), ("cfl", 1e-3, 0.01, 1.5)],
    ids=["dt-zero", "dt-negative", "dt-nan", "T-negative", "cfl-zero", "cfl-above-1"])
def test_wave_evolves_reject_a_bad_schedule_alike(grid8, s2, name, dt, T, cfl):
    """evolve raises the same ValueError for both wave systems, naming the
    value, before any step: `sample_marks` is its one check."""
    from ymlab.datagen import mkg_wave
    value = {"dt": dt, "T": T, "cfl": cfl}[name]
    messages = []
    for state in (abelian_wave(grid8, s2, 0.1), mkg_wave(grid8, 0.1)):
        with pytest.raises(ValueError, match=f"^{name} must be .*, got {value}$") as info:
            dyn.evolve(state, dt, T, cfl=cfl)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_missed_cold_leg_takes_its_cap_without_a_finite_estimate():
    """With tol <= 0 (the fixed-step idiom) the cold half steps miss and the
    leg is redone at its cap; an estimate that is not finite (here the
    squared norm of a state near 1e200 overflows) redoes it at its cap too;
    neither raises."""
    def rhs(y):
        return (y[0],)

    record, _, hs = _scalar_controlled(rhs, (np.ones(1),), [0.5], [20], -1.0)
    assert record.counts == [20] and record.redone == 1 and hs == [0.25] * 2 + [0.025] * 20
    with np.errstate(over="ignore", invalid="ignore"):
        record, (end,), hs = _scalar_controlled(rhs, (np.full(1, 1e200),), [0.5], [20],
                                                dyn.WAVE_LEG_TOL)
    assert record.counts == [20] and record.redone == 1
    assert hs == [0.25] * 2 + [0.025] * 20 and np.isfinite(end[0]).all()


def _one_step_errors(y, rhs, prop, h, norm, band=None):
    """The Simpson estimate of a second IF step of size h from y (the
    first one's nodes its history) and that step's true error against 64
    steps."""
    out = []

    def step(z, tau, k1, mid):
        return dyn.rk4_step(z, tau, rhs, prop, k1, mid)

    record = dyn.controlled_legs(y, [h, h], [1, 1], step, rhs, prop, norm, out.append,
                                 dyn.BlowUpError, 0.0, cold=False, band=band)
    one = ref = out[0]
    one = dyn.rk4_step(one, h, rhs, prop)
    for _ in range(64):
        ref = dyn.rk4_step(ref, h / 64, rhs, prop)
    return record.max_error, norm(tuple(u - v for u, v in zip(one, ref))) / norm(ref)


@pytest.mark.parametrize("case, amp, h", [("wave", 0.1, 0.02), ("wave", 1.0, 0.04),
                                          ("deturck", 1.0, 0.016)])
def test_simpson_estimate_reads_the_one_step_error(grid16, s2, case, amp, h):
    """The leg controller's estimate, Simpson's error from the fourth
    divided difference of the last two steps' g-nodes, lies within [0.5, 2]
    x the true error of one IF step (1.0x to 1.5x here): on the su(2) wave
    at amplitudes 0.1 and 1 (with the band packing and band propagator of
    `wave_legs`) and on the DeTurck flow.  The midpoint node (k2 + k3)/2
    carries an O(h^3) stage error, so at smaller steps the estimate reads
    high: 7x at amplitude 1 and h = 0.005."""
    from dataclasses import replace
    st = su2_state(grid16, s2, np.random.default_rng(20240817), amp=amp)

    def norm(y):
        return dyn.spectral_norm(grid16, y)

    if case == "wave":
        band = dyn.Band(grid16)
        args = (st.spectral(), st.spectral_rhs, st.propagate, h, norm,
                (band.pack, band.unpack, replace(st, grid=band).propagate,
                 lambda z: dyn.spectral_norm(band, z)))
    else:
        flow = hf._IFSystem(grid16, ("heat", "heat"))
        args = (flow.spectral((st.A, st.E)), lambda z: hf._deturck_hat(grid16, s2, *z),
                flow.propagate, h, norm)
    estimate, true = _one_step_errors(*args)
    assert true > 1e-11 and 0.5 <= estimate / true <= 2.0


def test_sweep_wave_leg_ends_no_further_than_classical_rk4():
    """The sweep-n16 benchmark's wave leg (50 dt, seed 1): its two cold half
    steps miss WAVE_LEG_TOL, and the leg that `wave_legs` then takes at the
    size their estimate asks for ends no further from 256 IF steps than
    fixed-dt classical RK4."""
    from ymlab import config, datagen, grid
    cfg = config.ExperimentConfig(kind="acl-sweep", n=16, T=0.1, time_samples=2)
    g = grid.Grid(cfg.n, cfg.L)
    st, _ = datagen.make_data(cfg, g)
    span, ref = 50 * cfg.dt, st.spectral()
    for _ in range(256):
        ref = dyn.rk4_step(ref, span / 256, st.spectral_rhs, st.propagate)
    record = []
    sized = dyn.wave_legs(st, cfg.dt, [0, 50], None, record)
    assert record[0].counts[0] < 50 and record[0].redone == 1
    fixed = (st.A, st.E)
    for _ in range(50):
        fixed = dyn.rk4_step(fixed, cfg.dt,
                             lambda z: dyn.ym_rhs(dyn.CauchyState(g, st.spec, 0.0, *z)))
    exact = st.from_spectral(st.t + span, ref)

    def gap(A, E):
        return np.sqrt(np.sum((A - exact.A) ** 2) + np.sum((E - exact.E) ** 2))

    assert gap(sized.A, sized.E) <= gap(*fixed)


def test_default_sweep_wave_legs_end_no_further_than_classical_rk4():
    """On the default `acl-sweep` config (n = 16, T = 0.5, seed 1: four legs
    of 62-63 dt), each wave leg of `wave_legs`, replayed from its own start
    against 128 IF steps, ends no further from them than fixed-dt classical
    RK4 from the same start (0.44-0.54x; the embedded estimate the leg
    controller used before ended the later legs 35x further)."""
    from ymlab import config, datagen, grid
    cfg = config.ExperimentConfig(kind="acl-sweep")
    g = grid.Grid(cfg.n, cfg.L)
    st, _ = datagen.make_data(cfg, g)
    marks = [int(m) for m in np.round(np.linspace(0, round(cfg.T / cfg.dt), cfg.time_samples))]
    ends = []
    dyn.wave_legs(st, cfg.dt, marks, lambda s, y, kept: ends.append(y))

    def rk4(z):
        return dyn.ym_rhs(dyn.CauchyState(g, st.spec, 0.0, *z))

    def norm(y):
        return dyn.spectral_norm(g, y)

    for a, b, y0, y1 in zip(marks, marks[1:], ends, ends[1:]):
        ref, fixed = y0, (g.ifft(y0[0]), g.ifft(y0[1]))
        for _ in range(128):
            ref = dyn.rk4_step(ref, (b - a) * cfg.dt / 128, st.spectral_rhs, st.propagate)
        for _ in range(b - a):
            fixed = dyn.rk4_step(fixed, cfg.dt, rk4)
        gaps = [norm(tuple(u - v for u, v in zip(y, ref))) for y in (y1, tuple(map(g.fft, fixed)))]
        assert gaps[0] <= gaps[1]


def _counted_transforms(g, owner, name, monkeypatch):
    """Count the scalar 3-D transforms of grid g; returns the running total
    and the per-call totals of owner.name, which the test's monkeypatch
    wraps."""
    count, per_call, fn = [0], [], getattr(owner, name)
    for meth in ("fft", "ifft"):
        def counted(f, _fn=getattr(g, meth)):
            count[0] += int(np.prod(f.shape[:-3]))
            return _fn(f)
        setattr(g, meth, counted)

    def counted_call(*args, **kwargs):
        before = count[0]
        out = fn(*args, **kwargs)
        per_call.append(count[0] - before)
        return out

    monkeypatch.setattr(owner, name, counted_call)
    return count, per_call


def test_evolve_transform_count(s2, rng, monkeypatch):
    """An evolve step makes 108 scalar 3-D transforms in `rk4_step` (144
    when it made its own first stage, 180 with physical-space stages): its
    first stage is the last step's end right-hand side, made by the leg
    controller, each call counted over the steps of one leg."""
    from ymlab.grid import Grid
    g = Grid(16)
    st = su2_state(g, s2, rng)
    _, per_step = _counted_transforms(g, dyn, "rk4_step", monkeypatch)
    legs = dyn.evolve(st, 1e-3, 8e-3).legs
    assert legs.steps >= 1 and per_step == [108] * legs.steps


def test_energy_zero_and_plane_wave(grid16, s2, ab):
    z = dyn.CauchyState(grid16, s2, 0.0,
                        np.zeros((3, 3, 16, 16, 16)), np.zeros((3, 3, 16, 16, 16)))
    assert dyn.energy(z) == 0.0
    a, k = 0.1, 1.0
    st = abelian_wave(grid16, ab, a)
    # |grad A|^2 and |E|^2 average to (a k)^2 / 2 each over the torus
    expect = (a * k) ** 2 * grid16.volume / 2.0
    assert abs(dyn.energy(st) - expect) < 1e-12
    tr = dyn.evolve(st, 2e-3, 0.5, 50)
    e = np.array(tr.columns["energy"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-10


def test_energy_conservation_su2(grid16, s2, rng):
    st = su2_state(grid16, s2, rng)
    tr = dyn.evolve(st, 2e-3, 0.3, 30)
    e = np.array(tr.columns["energy"])
    assert np.max(np.abs(e - e[0])) / e[0] < 1e-9


def test_energy_gauge_invariance(grid32, s2, rng):
    st = su2_state(grid32, s2, rng, amp=0.2, cut=2.5)
    e0 = dyn.energy(st)
    U = gt.random_gauge(grid32, s2, seed=21, amplitude=0.4, mode_cut=1.5)
    A2, E2 = gt.gauge_transform(grid32, st.A, st.E, U, s2)
    e1 = dyn.energy(dyn.CauchyState(grid32, s2, 0.0, A2, E2))
    assert abs(e1 - e0) / e0 < 1e-10


def test_cfl_guard(grid16, s2, rng):
    st = su2_state(grid16, s2, rng)
    with pytest.raises(ValueError):
        dyn.evolve(st, 0.2, 1.0)
    with pytest.raises(ValueError):
        dyn.evolve(st, 1e-3, 1.0, cfl=1.5)


def test_blowup_detection(grid16, s2):
    huge = np.full((3, 3, 16, 16, 16), 1e200)
    st = dyn.CauchyState(grid16, s2, 0.0, huge, huge)
    with pytest.raises(dyn.BlowUpError):
        dyn.step_rk4(st, 1e-3)
    with pytest.raises(dyn.BlowUpError):
        dyn.evolve(st, 1e-3, 1e-3)


def test_flow_gauge_covariance(grid16, s2, rng):
    """Evolve-then-transform equals transform-then-evolve for spatial U."""
    st = su2_state(grid16, s2, rng, amp=0.1)
    U = gt.random_gauge(grid16, s2, seed=4, amplitude=0.1, mode_cut=1.0)
    ev_then = dyn.evolve(st, 2e-3, 0.1).final
    A1, E1 = gt.gauge_transform(grid16, ev_then.A, ev_then.E, U, s2)
    A0, E0 = gt.gauge_transform(grid16, st.A, st.E, U, s2)
    then_ev = dyn.evolve(dyn.CauchyState(grid16, s2, 0.0, A0, E0), 2e-3, 0.1).final
    rel = np.max(np.abs(then_ev.A - A1)) / np.max(np.abs(A1))
    assert rel < 1e-6


def test_df_cf_consistency(grid16, s2, ab, rng):
    st = su2_state(grid16, s2, rng, amp=0.1)
    res = dyn.df_cf_consistency(st)
    assert res["cf_residual"] < 1e-9
    assert res["df_residual"] < 1e-9
    z = dyn.CauchyState(grid16, s2, 0.0, np.zeros_like(st.A), np.zeros_like(st.E))
    rz = dyn.df_cf_consistency(z)
    assert rz["cf_residual"] == 0.0 and rz["df_residual"] == 0.0
    wave = abelian_wave(grid16, ab, 0.2)
    rw = dyn.df_cf_consistency(wave)
    assert rw["cf_residual"] < 1e-12 and rw["df_residual"] < 1e-12


def test_gauss_propagation(grid16, s2, rng):
    st = su2_state(grid16, s2, rng, amp=0.1)
    tr = dyn.evolve(st, 2e-3, 0.2, 20)
    gs = np.array(tr.columns["gauss_residual"])
    # at n=16 the truncation cascade sets the floor; the strict 10x growth
    # criterion runs at n=32 in the acceptance suite
    assert gs.max() < 1e-8


def test_rescale(grid16, s2, rng):
    st = su2_state(grid16, s2, rng)
    same = dyn.rescale(st, 1.0)
    assert np.array_equal(same.A, st.A) and same.grid.L == st.grid.L
    lam = 2.0
    st2 = dyn.rescale(st, lam)
    for sig in (0.5, 5.0 / 6.0, 1.0):
        r = (sp.sobolev_norm(st2.grid, st2.A, sig, homogeneous=True)
             / sp.sobolev_norm(st.grid, st.A, sig, homogeneous=True))
        assert abs(r - lam ** (0.5 - sig)) < 1e-12
    assert abs(dyn.energy(st2) / dyn.energy(st) - 1.0 / lam) < 1e-12
    with pytest.raises(ValueError):
        dyn.rescale(st, -1.0)


def test_random_state_norms(grid16, s2):
    st, report = random_state(grid16, s2, 0.1, seed=7, mode_cut=2.0,
                              decay=1e6, sigma=5.0 / 6.0)
    assert abs(report["A_hsigma"] - 0.1) / 0.1 < 0.02
    assert report["gauss_residual"] < 1e-8


def _recorded(f, seen):
    """f that records copies of each input and output, with the outputs."""
    def wrapped(z):
        k = f(z)
        seen.append((z, [u.copy() for u in z], k, [u.copy() for u in k]))
        return k
    return wrapped


def test_rk4_step_writes_no_input_and_matches_textbook(rng):
    """f returns arrays of its input (as `wave_legs` returns Eh as dA/dt):
    rk4_step leaves y and every k as they were, and gives the allocating
    textbook expression, in the operand order of its Lawson schedule
    (y + dt/3 (k2 + k3) + dt/6 k1 + dt/6 k4), bit for bit."""
    y = (rng.standard_normal((3, 8)), rng.standard_normal((3, 8)) + 1j,
         rng.standard_normal((3, 8)))

    def f(z):
        return z[1], z[0] * z[2], z[2]

    def textbook(y, dt):
        k1 = f(y)
        k2 = f(tuple(a + 0.5 * dt * b for a, b in zip(y, k1)))
        k3 = f(tuple(a + 0.5 * dt * b for a, b in zip(y, k2)))
        k4 = f(tuple(a + dt * b for a, b in zip(y, k3)))
        return tuple(a + (dt / 3.0) * (b2 + b3) + (dt / 6.0) * b1 + (dt / 6.0) * b4
                     for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4))

    y0 = [u.copy() for u in y]
    seen = []
    got = dyn.rk4_step(y, 0.3, _recorded(f, seen))
    assert len(seen) == 4
    for u, u0 in zip(y, y0):
        assert u.tobytes() == u0.tobytes()
    for z, z0, k, k0 in seen:
        for u, u0 in zip(z + k, z0 + k0):
            assert u.tobytes() == u0.tobytes()
    for u, want in zip(got, textbook(y, 0.3)):
        assert u.dtype == want.dtype and u.tobytes() == want.tobytes()


def test_lawson_step_makes_five_half_step_propagations(s2, rng, monkeypatch):
    """A Lawson step applies its propagator five times, all over h/2: three
    on full states, two on k1 (seven, and over h too, when stage 4 and the
    end each propagated y again), on a wave state and on an `_IFSystem`
    with heat, cheat and ode blocks."""
    from ymlab.grid import Grid
    g, h = Grid(8), 1e-3
    seen = []
    rk4 = dyn.rk4_step

    def counted(y, dt, f, prop=None, k1=None, mid=None):
        def counted_prop(tau, z):
            seen.append((tau, "k1" if z is k1 else
                         "full" if all(u is not None for u in z) else "part"))
            return prop(tau, z)
        return rk4(y, dt, f, counted_prop, k1, mid)

    st = su2_state(g, s2, rng)
    y = st.spectral()
    counted(y, h, st.spectral_rhs, st.propagate, k1=st.spectral_rhs(y))
    sys = hf._IFSystem(g, ("heat", "cheat", "ode"))
    y = sys.spectral((st.A, st.A[0, 0] + 1j * st.E[0, 0], st.E))

    def nonlin(z):
        return 0.5 * z[0], z[1] * z[1], z[2]

    monkeypatch.setattr(hf, "rk4_step", counted)
    sys.step(y, h, nonlin, nonlin(y))
    for case in (seen[:5], seen[5:]):
        assert sorted(case) == [(h / 2, "full")] * 3 + [(h / 2, "k1")] * 2
    assert len(seen) == 10


def _stage_memory(step, f):
    """Traced bytes held at each call of f during step(f), allocations made
    before the step not counted."""
    seen = []

    def traced(z):
        seen.append(tracemalloc.get_traced_memory()[0] - base)
        return f(z)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(traced)
    finally:
        tracemalloc.stop()
    return seen


def test_lawson_stages_hold_at_most_two_full_states(s2, rng, monkeypatch):
    """Traced memory at each right-hand side of one IF step at n = 16, y and
    k1 not counted, is at most two full states (5 % slack), on the wave and
    on a ("heat", "heat") flow, whose k2 is a full state: a step that kept
    a = P y through f(z3) would hold three there."""
    from ymlab.grid import Grid
    g, h = Grid(16), 1e-3
    st = su2_state(g, s2, rng)
    y = st.spectral()
    k1 = st.spectral_rhs(y)
    dyn.rk4_step(y, h, st.spectral_rhs, st.propagate, k1=k1)    # fills the symbol cache
    sys = hf._IFSystem(g, ("heat", "heat"))
    yf = sys.spectral((st.A, st.E))

    def nonlin(z):
        return hf._deturck_hat(g, s2, *z)

    kf = nonlin(yf)
    for z, f, step in (
            (y, st.spectral_rhs, lambda f: dyn.rk4_step(y, h, f, st.propagate, k1=k1)),
            (yf, nonlin, lambda f: sys.step(yf, h, f, kf))):
        seen = _stage_memory(step, f)
        assert len(seen) == 3 and max(seen) <= 2.1 * sum(u.nbytes for u in z)


def test_evolve_sample_energy_matches_a_fresh_curvature(grid16, s2, rng):
    """Each evolve sample after the first takes A and the curvature hat
    from the leg-end right-hand side: its energy equals energy(from_spectral
    (t, y), Ah) with nothing recorded, and its A the inverse of Ah, bit for
    bit."""
    st = su2_state(grid16, s2, rng, amp=0.3, cut=3.0)
    dt, T, every = 2e-3, 0.02, 5
    energies = dyn.evolve(st, dt, T, every).columns["energy"]
    ref, recorded = [], []

    def emit(s, hat, kept):
        bare = s if s.t == st.t else st.from_spectral(s.t, hat)
        assert bare.A.tobytes() == s.A.tobytes()
        recorded.append(sorted(kept))
        ref.append(dyn.energy(bare, hat[0]))

    dyn.wave_legs(st, dt, dyn.sample_marks(grid16, dt, T, 0.5, every), emit)
    assert recorded == [[], ["A", "Ah", "Fh"], ["A", "Ah", "Fh"]]
    assert energies == ref


def test_evolve_sample_transform_count(s2, rng, monkeypatch):
    """An evolve sample at a step end makes 12 transforms: the driver's 9
    inverses of E and 3 forward for the Gauss residual, A and the curvature
    hat taken from the step end's right-hand side (30 when the sample
    inverted Ah and rebuilt the curvature, 93 when energy, Gauss residual
    and H^sigma transformed A and E again).  A sample inside a step, and
    the end of a step that has one, make those 30: the record is released
    before the samples inside, which would hold it.  Sampled at every dt, 4
    dt take two half steps to the first mark and then one step over three
    legs: 12 + 2 x 30 + 18 more than sampled at the last only, the
    transforms of the right-hand sides, counted per call, taken out."""
    from ymlab.grid import Grid
    g = Grid(16)
    st = su2_state(g, s2, rng)
    count, rhs = _counted_transforms(g, dyn.CauchyState, "spectral_rhs", monkeypatch)
    totals = []
    for every in (1, 4):
        count[0] = 0
        rhs.clear()
        legs = dyn.evolve(st, 1e-3, 4e-3, every).legs
        totals.append(count[0] - sum(rhs))
    assert legs.counts == [2] and dyn.evolve(st, 1e-3, 4e-3, 1).legs.counts == [2, 0, 0, 1]
    assert totals[0] - totals[1] == 12 + 2 * 30 + 18


def test_evolve_samples_match_physical_diagnostics(grid16, s2, rng):
    """The spectral samples against the physical-space diagnostics."""
    st = su2_state(grid16, s2, rng, amp=0.3, cut=3.0)
    dt, T, every = 2e-3, 0.02, 5
    tr = dyn.evolve(st, dt, T, every)
    states = []
    dyn.wave_legs(st, dt, dyn.sample_marks(grid16, dt, T, 0.5, every),
                  lambda s, _hat, _kept: states.append(s.copy()))
    assert list(tr.columns) == ["t", "energy", "gauss_residual", "h_sigma"]
    assert len(states) == len(tr.columns["energy"]) == 3
    for s, e, gauss, hs in zip(states, *list(tr.columns.values())[1:]):
        F = gt.curvature(grid16, s.A, s2)
        e_ref = 0.5 * (grid16.l2_norm(F) ** 2 + grid16.l2_norm(s.E) ** 2)
        assert abs(e - e_ref) <= 1e-14 * e_ref
        assert abs(hs - sp.sobolev_norm(grid16, s.A, 5.0 / 6.0)) <= 1e-14 * hs
        g_ref = gt.gauss_residual(grid16, s.A, s.E, s2)[1]
        assert abs(gauss - g_ref) <= 1e-15 * grid16.l2_norm(s.E)
