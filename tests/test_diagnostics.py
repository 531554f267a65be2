import logging

import numpy as np
import pytest
import scipy
from scipy.integrate import quad, simpson

from ymlab import config, datagen, runner
from ymlab import diagnostics as dg
from ymlab import dynamics as dyn
from ymlab import gauge as gt
from ymlab import heatflow as hf
from ymlab.datagen import abelian_wave, random_state


def test_energy_at_reduces_to_state_energy(grid16, s2, rng):
    st, _ = random_state(grid16, s2, 0.1, seed=5, mode_cut=2.0, decay=1e6)
    fl = hf.FlowState(grid16, s2, 0.0, st.A, st.E)
    assert abs(dg.energy_at(fl) - dyn.energy(st)) < 1e-12
    zero = hf.FlowState(grid16, s2, 0.0, np.zeros_like(st.A), np.zeros_like(st.E))
    assert dg.energy_at(zero) == 0.0


def test_weight_sanity():
    N = 16.0
    assert dg.weight(1.0 / N**2, N, 5.0 / 6.0) == 1.0


SIMPSON_COUNTS = (2, 3, 4, 5, 6, 32, 33)


def _simpson_abscissae():
    """Uniform, log-s and nested-grid abscissae at every count in
    SIMPSON_COUNTS (the nested grids with and without s = 0)."""
    for n in SIMPSON_COUNTS:
        yield np.linspace(0.0, 0.1, n)
        yield np.log(hf.sample_grid(1 / 64.0, n_samples=n)[1:])
    grids = [np.log(hf.sample_grid(1 / 64.0)[1:])]
    for g in hf.nested_sample_grids([1 / 16.0, 1 / 64.0], 32, 1024.0):
        grids += [g, np.log(g[1:])]
    for x in grids:
        for n in SIMPSON_COUNTS:
            if n <= len(x):
                yield x[:n]
                yield x[-n:]


@pytest.mark.skipif(tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 11),
                    reason="scipy before 1.11 used another rule for even counts")
def test_simpson_matches_scipy_bit_for_bit(rng):
    """ymlab's rule repeats scipy's arithmetic: odd counts, the two-point
    trapezoid and Cartwright's end correction for even counts >= 4."""
    cases = 0
    for x in _simpson_abscissae():
        for y in (rng.standard_normal(len(x)), np.exp(-3.0 * np.arange(len(x)))):
            assert dg._simpson(y, x) == simpson(y, x=x), len(x)
            cases += 1
    assert cases > 80


def test_simpson_rejects_bad_abscissae():
    for x in ([0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [1.0, 0.0], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError, match="increasing"):
            dg._simpson(np.ones(len(x)), x)
    with pytest.raises(ValueError, match="at least 2"):
        dg._simpson([1.0], [0.0])
    with pytest.raises(ValueError, match="at least 2"):
        dg._simpson([1.0, 2.0], [0.0, 1.0, 2.0])


def test_modified_energy_validation(grid16):
    with pytest.raises(ValueError):
        dg.modified_energy([0.0, 1.0], [1.0, 1.0], N=2.0, sigma=1.2)
    with pytest.raises(ValueError):
        dg.modified_energy([0.0, 0.1], [1.0, 1.0], N=8.0, sigma=5 / 6.0)
    with pytest.raises(ValueError):
        dg.modified_energy([0.01, 1.0], [1.0, 1.0], N=1.0, sigma=5 / 6.0)


def test_modified_energy_zero_and_homogeneity(grid16, ab):
    st = abelian_wave(grid16, ab, 0.2)
    N, sigma = 8.0, 5.0 / 6.0
    v1, _ = dg.modified_energy_of_state(st, N, sigma)
    st3 = dyn.CauchyState(grid16, ab, 0.0, 3 * st.A, 3 * st.E)
    v9, _ = dg.modified_energy_of_state(st3, N, sigma)
    assert abs(v9 / v1 - 9.0) < 1e-10
    z = dyn.CauchyState(grid16, ab, 0.0, np.zeros_like(st.A), np.zeros_like(st.E))
    vz, _ = dg.modified_energy_of_state(z, N, sigma)
    assert vz == 0.0


def test_modified_energy_single_mode_oracle(grid16, ab):
    """1-D quadrature oracle for a single abelian mode |k| = 1."""
    st = abelian_wave(grid16, ab, 0.2)
    N, sigma = 8.0, 5.0 / 6.0
    val, parts = dg.modified_energy_of_state(st, N, sigma)
    E0 = dyn.energy(st)
    s0 = 1.0 / N**2
    om = 1.0 - sigma
    # substitution u = s^{1-sigma} removes the s^{-sigma} singularity
    integral = (N * N) ** om / om * quad(
        lambda u: E0 * np.exp(-2.0 * u ** (1.0 / om)), 0.0, s0**om,
        limit=200)[0]
    ss = np.geomspace(1e-14, s0, 200001)
    sup = np.max((N * N * ss) ** om * E0 * np.exp(-2.0 * ss))
    oracle = integral + sup
    assert abs(val - oracle) / oracle < 1e-4


def test_energy_identity_converges(grid16, s2, rng):
    A = gt.random_alg_field(grid16, s2, rng, 0.35, mode_cut=2.0, components=3)
    E = gt.constraint_repair(grid16, A, gt.random_alg_field(
        grid16, s2, rng, 0.35, mode_cut=2.0, components=3), s2, tol=1e-11)
    st = dyn.CauchyState(grid16, s2, 0.0, A, E)
    s = 1 / 256.0
    res1, lhs1, rhs1 = dg.energy_identity_check(
        st, 0.1, s, n_nodes=5, dt=2.5e-3, substeps=4)
    assert res1 < 1e-3
    res2, _, _ = dg.energy_identity_check(
        st, 0.1, s, n_nodes=9, dt=1.25e-3, substeps=6)
    assert res2 < 0.5 * res1
    with pytest.raises(ValueError):
        dg.energy_identity_check(st, 0.1, s, n_nodes=4)


def test_energy_identity_rejects_a_node_spacing_off_the_dt_grid(grid8, s2):
    st = abelian_wave(grid8, s2, 0.1)
    with pytest.raises(ValueError, match="integer multiple of dt"):
        dg.energy_identity_check(st, 25 * 2e-3, 1 / 256.0, n_nodes=11, dt=2e-3)


def test_energy_identity_abelian_zero(grid16, ab):
    st = abelian_wave(grid16, ab, 0.2)
    res, lhs, rhs = dg.energy_identity_check(
        st, 0.05, 1 / 256.0, n_nodes=5, dt=2.5e-3, substeps=4)
    # both sides vanish for the linear flow
    assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10


def test_invariant_audit(grid16, s2, ab, rng):
    z = np.zeros((3, 3, 16, 16, 16))
    audit = dg.invariant_audit(grid16, s2, z, z, rng=rng)
    assert audit["bianchi"] == 0.0 and audit["gauss"] == 0.0
    Au = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    Eu = gt.random_alg_field(grid16, ab, rng, 0.3, mode_cut=2.0, components=3)
    audit_u = dg.invariant_audit(grid16, ab, Au, Eu, rng=rng)
    assert audit_u["bianchi"] < 1e-11
    A = gt.random_alg_field(grid16, s2, rng, 0.3, mode_cut=2.0, components=3)
    E = gt.constraint_repair(grid16, A, gt.random_alg_field(
        grid16, s2, rng, 0.3, mode_cut=2.0, components=3), s2, tol=1e-10)
    audit_s = dg.invariant_audit(grid16, s2, A, E, rng=rng)
    for name in ("bianchi", "cd_commutator", "leibniz", "gauss"):
        assert audit_s[name] < 1e-9, (name, audit_s[name])


def test_gn_probe(grid16, s2, rng):
    worst = 0.0
    for trial in range(20):
        trial_rng = np.random.default_rng(1000 + trial)
        phi = gt.random_alg_field(grid16, s2, trial_rng, 0.3, mode_cut=3.0)
        phi -= phi.mean(axis=(-3, -2, -1), keepdims=True)
        A = gt.random_alg_field(grid16, s2, trial_rng, 0.2, mode_cut=2.0,
                                components=3)
        ratios = dg.gn_inequality_probe(grid16, s2, phi, A)
        worst = max(worst, max(ratios.values()))
    assert worst < 10.0


def test_gn_probe_single_mode(grid16, ab):
    """Closed-form check: phi = cos(x) e1 with A = 0."""
    X, _, _ = grid16.x
    phi = np.zeros((1, 16, 16, 16))
    phi[0] = np.cos(X)
    A = np.zeros((3, 1, 16, 16, 16))
    r = dg.gn_inequality_probe(grid16, ab, phi, A)
    V = grid16.volume
    l2 = np.sqrt(V / 2.0)
    l3 = (V * 4.0 / (3.0 * np.pi)) ** (1.0 / 3.0)
    d1 = l2  # |grad cos| = |sin|, same L2 norm
    # |cos|^3 has a kink, so its lattice average carries O(1e-4) quadrature
    # error at n = 16
    assert abs(r["L3"] - l3 / (l2 ** 0.5 * d1 ** 0.5)) < 1e-3


def test_sweep_small(grid16, s2, rng):
    """Smoke test of the almost-conservation sweep machinery (tiny sizes)."""
    st, _ = random_state(grid16, s2, 0.08, seed=9, mode_cut=2.0, decay=1e6)
    res = dg.almost_conservation_sweep(
        st, [4.0, 8.0], 5.0 / 6.0, T=0.05, dt=2.5e-3, n_time_samples=3,
        n_s=12, span=256.0, substeps=2)
    assert len(res.drifts) == 2
    assert all(d >= 0 for d in res.drifts)
    assert np.isfinite(res.slope)


def test_sweep_if_steps_and_progress_log(grid16, s2, caplog, capsys, monkeypatch):
    """test_sweep_small's sweep: 17 nested samples and 18 IF steps per time
    sample, two cold half steps on the first leg, 1 on each later leg but
    the last, which its Simpson estimate takes in 2 (16 when the embedded
    estimate sized them, 34 with a fixed 2 per later leg, 50 with disjoint
    grids); one INFO record per time sample with the legs redone and the
    largest step error estimate, one more with the wave's legs and the
    samples between its steps, nothing on stdout."""
    st, _ = random_state(grid16, s2, 0.08, seed=9, mode_cut=2.0, decay=1e6)
    calls = [0]
    step = hf._IFSystem.step

    def counted(self, *args):
        calls[0] += 1
        return step(self, *args)

    monkeypatch.setattr(hf._IFSystem, "step", counted)
    caplog.set_level(logging.INFO, logger="ymlab.diagnostics")
    caplog.set_level(logging.INFO, logger="ymlab.dynamics")
    dg.almost_conservation_sweep(
        st, [4.0, 8.0], 5.0 / 6.0, T=0.05, dt=2.5e-3, n_time_samples=3,
        n_s=12, span=256.0, substeps=2)
    assert 0 < calls[0] <= 3 * 34
    assert calls[0] == 3 * 18
    msgs = [r.getMessage() for r in caplog.records if r.name == "ymlab.diagnostics"]
    assert len(msgs) == 3
    for t, msg in zip(("0", "0.025", "0.05"), msgs):
        head, error = msg.split(", step error <= ")
        assert head == f"sweep t = {t}: 17 flow samples, 18 IF steps, 0 legs redone"
        assert 0.0 < float(error) <= hf.LEG_TOL
    wave = [r.getMessage() for r in caplog.records if r.name == "ymlab.dynamics"]
    head, error = wave[0].split(", step error <= ")
    assert len(wave) == 1 and head == ("sweep wave to t = 0.05: 4 IF steps, 0 samples between "
                                       "them, 0 legs redone")
    assert 0.0 < float(error) <= dyn.WAVE_LEG_TOL
    assert capsys.readouterr().out == ""


def test_sweep_rejects_T_off_the_dt_grid(grid8, s2):
    with pytest.raises(ValueError, match=r"T = 0.0031 .*dt = 0.002"):
        dg.almost_conservation_sweep(abelian_wave(grid8, s2, 0.1), [2.0, 4.0],
                                     5.0 / 6.0, T=0.0031, dt=0.002)


def test_sweep_rejects_one_time_sample(grid8, s2):
    """One time sample would measure only t = 0: every drift 0, no wave run."""
    with pytest.raises(ValueError, match="n_time_samples must be at least 2, got 1"):
        dg.almost_conservation_sweep(abelian_wave(grid8, s2, 0.1), [2.0, 4.0],
                                     5.0 / 6.0, T=0.004, dt=0.002, n_time_samples=1)


@pytest.mark.parametrize("N_values", [[4.0], [4.0, 4.0], [2.0, 4.0, 2.0]],
                         ids=["one", "repeated", "repeated-of-three"])
def test_sweep_rejects_fewer_than_two_distinct_thresholds(grid8, s2, N_values):
    """A single threshold, or a repeated one, leaves the log-log slope a
    degenerate fit (numpy's RankWarning, and 4 4 gave two identical rows)."""
    with pytest.raises(ValueError, match="N_values must be two or more distinct thresholds"):
        dg.almost_conservation_sweep(abelian_wave(grid8, s2, 0.1), N_values, 5.0 / 6.0,
                                     T=0.004, dt=0.002, n_time_samples=2, n_s=4)


def test_sweep_checks_the_wave_cfl(grid8, s2, tmp_path):
    """dt * kmax = 0.69 at n = 8, dt = 0.2: the sweep and the acl-sweep run
    raise on the CFL bound of `sample_marks` at the default cfl 0.5, and the
    sweep runs its wave at cfl 0.7."""
    st = abelian_wave(grid8, s2, 0.1)
    with pytest.raises(ValueError, match=r"CFL violation: dt\*kmax = 0.693 > cfl = 0.5"):
        dg.almost_conservation_sweep(st, [2.0, 4.0], 5.0 / 6.0, T=0.4, dt=0.2)
    with pytest.raises(ValueError, match=r"CFL violation: dt\*kmax = 0.693 > cfl = 0.5"):
        runner.run(config.ExperimentConfig(kind="acl-sweep", n=8, dt=0.2, T=0.4),
                   str(tmp_path))
    res = dg.almost_conservation_sweep(st, [2.0, 4.0], 5.0 / 6.0, T=0.4, dt=0.2,
                                       n_time_samples=2, n_s=8, cfl=0.7)
    assert res.times == [0.0, 0.4]


def test_sweep_times_are_the_steps_it_reached(grid8, monkeypatch):
    """T = 0.5 is 250 steps of dt = 2e-3: five samples measure at the steps
    nearest to evenly spaced times, 0, 62, 125, 188 and 250, and the sweep
    reports those times, ending at T (not 0.125, ..., 0.5 at 0.124, ...,
    0.496)."""
    cfg = config.ExperimentConfig(kind="acl-sweep", n=8, N_list=(2.0, 4.0),
                                  s_samples=8, T=0.5, time_samples=5)
    st, _ = datagen.make_data(cfg, grid8)
    measured, run_flow = [], hf.run_flow
    monkeypatch.setattr(hf, "run_flow", lambda state, *a, **k: (
        measured.append(state.t), run_flow(state, *a, **k))[1])
    res = dg.almost_conservation_sweep(st, list(cfg.N_list), cfg.sigma, cfg.T, cfg.dt,
                                       n_time_samples=cfg.time_samples,
                                       n_s=cfg.s_samples, substeps=cfg.substeps)
    assert res.times == measured == [m * cfg.dt for m in (0, 62, 125, 188, 250)]
    assert res.times[-1] == cfg.T
    assert res.times == pytest.approx([0.0, 0.124, 0.25, 0.376, 0.5], abs=1e-15)


def test_sweep_abelian_noise_floor(grid16, ab):
    st = abelian_wave(grid16, ab, 0.1)
    res = dg.almost_conservation_sweep(
        st, [4.0, 8.0], 5.0 / 6.0, T=0.05, dt=2.5e-3, n_time_samples=3,
        n_s=12, span=256.0, substeps=2)
    for N, drift in zip(res.N_values, res.drifts):
        ie0 = res.modified_energies[N][0]
        assert drift < 1e-7 * ie0
