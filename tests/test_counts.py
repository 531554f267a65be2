"""Per-call transform and bracket counts of the four baseline functions at
n = 16, counted the way the benchmark's traced run counts them: every module
binding of `algebra.bracket` is replaced, and the grid transforms are wrapped
on the class, one count per scalar 3-D transform of the batched leading axes.
A kernel that bypasses `bracket` or the `Grid` transforms shows up here.
The names the benchmark's tracer wraps are guarded here too."""

import inspect
import sys
import types

import numpy as np
import pytest

from ymlab import (algebra, ckpt, config, datagen, diagnostics, dynamics, gauge,
                   grid, heatflow, mkg, runner, spectral)

# (forward, inverse) transforms and brackets per call
EXPECTED = {
    "covariant_curl_div": (27, 18, 9),
    "deturck_nonlinear": (72, 63, 36),
    "step_rk4": (90, 90, 36),
    "flow_step": (234, 342, 144),
}


@pytest.fixture()
def counter(monkeypatch):
    counts = {"fwd": 0, "inv": 0, "brackets": 0}
    bracket = algebra.bracket

    def counted_bracket(*args, **kwargs):
        counts["brackets"] += 1
        return bracket(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "ymlab" or name.startswith("ymlab."):
            for attr, obj in list(vars(mod).items()):
                if obj is bracket:
                    monkeypatch.setattr(mod, attr, counted_bracket)
    for meth, key in (("fft", "fwd"), ("cfft", "fwd"), ("ifft", "inv"), ("cifft", "inv")):
        def counted(self, f, _fn=getattr(grid.Grid, meth), _key=key):
            counts[_key] += int(np.prod(f.shape[:-3]))
            return _fn(self, f)
        monkeypatch.setattr(grid.Grid, meth, counted)
    return counts


def test_baseline_per_call_counts(counter):
    cfg = config.ExperimentConfig(n=16)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    spec = state.spec
    flow = heatflow.FlowState(g, spec, 0.0, state.A, state.E)
    calls = {
        "covariant_curl_div": lambda: dynamics.covariant_curl_div(g, spec, state.A),
        "deturck_nonlinear": lambda: heatflow.deturck_nonlinear(g, spec, state.A, state.E),
        "step_rk4": lambda: dynamics.step_rk4(state, cfg.dt),
        "flow_step": lambda: heatflow.flow_step(flow, 1e-4),
    }
    got = {}
    for name, call in calls.items():
        before = dict(counter)
        call()
        got[name] = tuple(counter[k] - before[k] for k in ("fwd", "inv", "brackets"))
    assert got == EXPECTED
    # a step makes four right-hand-side calls, and only they take brackets
    assert got["step_rk4"][2] == 4 * got["covariant_curl_div"][2]
    assert got["flow_step"][2] == 4 * got["deturck_nonlinear"][2]


def test_energy_at_transforms(counter):
    """A flow sample's energy: 18 forward transforms by Parseval (36 when the
    curvature went through `gauge.curvature`)."""
    cfg = config.ExperimentConfig(n=16)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    before = dict(counter)
    diagnostics.energy_at(heatflow.FlowState(g, state.spec, 0.0, state.A, state.E))
    assert (counter["fwd"] - before["fwd"], counter["inv"] - before["inv"]) == (18, 0)


def _transforms_per_call(counter, monkeypatch, owner, name):
    """Replace owner.name by a wrapper that lists the (forward, inverse)
    transforms of each call."""
    fn, calls = getattr(owner, name), []

    def counted(*args, **kwargs):
        before = dict(counter)
        out = fn(*args, **kwargs)
        calls.append((counter["fwd"] - before["fwd"], counter["inv"] - before["inv"]))
        return out

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_heatflow_sample_energy_reads_the_held_curvature(counter, monkeypatch, tmp_path):
    """`energy_at` given the magnetic curvature hat makes no transform and
    agrees bit for bit; the heatflow experiment passes the hat its magnetic
    column already holds, so no sample's energy rebuilds it (9 forward
    transforms and 3 brackets per sample when it did)."""
    cfg = config.ExperimentConfig(kind="heatflow", n=8, s_samples=4)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    flow = heatflow.FlowState(g, state.spec, 0.0, state.A, state.E)
    Fh = dynamics._curvature_hat(g, state.spec, state.A, g.fft(state.A))
    before = dict(counter)
    held = diagnostics.energy_at(flow, Fh)
    assert tuple(counter[k] - before[k] for k in counter) == (0, 0, 0)
    assert held == diagnostics.energy_at(flow) > 0.0
    calls = _transforms_per_call(counter, monkeypatch, diagnostics, "energy_at")
    runner.run(cfg, str(tmp_path))
    assert calls == [(0, 0)] * (cfg.s_samples + 1)


def test_mkg_step_transforms(counter, monkeypatch):
    """An MKG wave step makes 3 x (8 + 12) transforms on the spectral state
    in `rk4_step` (4 x when it made its own first stage), each call counted
    over the steps of one leg: its first stage is the last step's end
    right-hand side, made by the leg controller.  The abelian Maxwell
    brackets are skipped (4 x (14 + 15) when their 6 + 3 transforms ran;
    192 with physical-space stages)."""
    g = grid.Grid(8)
    st = datagen.mkg_random(g, 0.2, seed=3, mode_cut=1.5, decay=1e6)
    per_step = _transforms_per_call(counter, monkeypatch, dynamics, "rk4_step")
    legs = dynamics.evolve(st, 1e-3, 8e-3).legs
    assert legs.steps >= 1 and per_step == [(3 * 8, 3 * 12)] * legs.steps


def test_mkg_sample_transforms(counter, monkeypatch):
    """An MKG evolve sample at a step end makes 4 + 2 transforms besides the
    driver's 4 inverses of E and phit, taking A and phi from the step end's
    right-hand side (8 inverses when it did not), reading the energy and
    the Gauss-law residual from the spectral fields and skipping the
    abelian curvature brackets (7 + 2 with them; 28 when the energy and
    residual were physical).  A sample inside a step, and the end of a
    step that has one, invert A and phi too (4 more): the record is
    released before the samples inside, which would hold it.  Sampled at
    every dt, 4 dt take two half steps to the first mark and one step over
    three legs: 3 x 4 forward and 3 x (2 + 4) + 3 x 4 inverse transforms
    more than sampled at the last only, the transforms of the right-hand
    sides, counted per call, taken out.  `mkg_energy` takes 7 (10 with the
    brackets, 22 in physical space)."""
    g = grid.Grid(8)
    st = datagen.mkg_random(g, 0.2, seed=3, mode_cut=1.5, decay=1e6)
    rhs = _transforms_per_call(counter, monkeypatch, mkg.MkgState, "spectral_rhs")
    totals = []
    for every in (1, 4):
        before = dict(counter)
        rhs.clear()
        legs = dynamics.evolve(st, 1e-3, 4e-3, sample_every=every).legs
        totals.append(tuple(counter[k] - before[k] - sum(c[i] for c in rhs)
                            for i, k in enumerate(("fwd", "inv"))))
    assert legs.counts == [2] and dynamics.evolve(st, 1e-3, 4e-3, 1).legs.counts == [2, 0, 0, 1]
    assert (totals[0][0] - totals[1][0], totals[0][1] - totals[1][1]) == (
        3 * 4, 3 * (2 + 4) + 3 * 4)
    before = dict(counter)
    mkg.mkg_energy(st)
    assert (counter["fwd"] - before["fwd"], counter["inv"] - before["inv"]) == (7, 0)


def test_make_data_transforms(counter):
    """One `make_data` at the default config: 372 transforms with the CG
    constraint repair (4884 with the Picard repair it replaced; 402 when the
    data report measured the Gauss residual again after the repair)."""
    cfg = config.ExperimentConfig(n=16)
    datagen.make_data(cfg, grid.Grid(cfg.n, cfg.L))
    total = counter["fwd"] + counter["inv"]
    assert total <= 4884 // 3
    assert (counter["fwd"], counter["inv"]) == (204, 168)


def test_make_data_pulses_transforms(counter):
    """`make_data` for the pulses family: 34 transforms, the Gauss residual
    taken from the constraint repair (64 when the data report measured it
    again after the repair)."""
    cfg = config.ExperimentConfig(n=16, family="pulses")
    _, report = datagen.make_data(cfg, grid.Grid(cfg.n, cfg.L))
    assert (counter["fwd"], counter["inv"]) == (20, 14)
    assert report["gauss_residual"] == 0.0


def test_wave_evolve_steps_and_right_hand_sides(monkeypatch):
    """The evolve experiment's wave and 4 x steps + 1 right-hand sides.  At
    n = 32, T = 0.2 (50 legs of 2 dt, the wave-n32 benchmark) 27 IF steps:
    two cold half steps to the first mark, then one step over each two
    legs and one over the last, 24 samples from dense output (50 steps at
    one per leg; 100 RK4 steps at fixed dt).  At the default config (50
    legs of 5 dt) 100 steps, two per leg: WAVE_LEG_TOL holds per step (50
    when the embedded estimate sized them; 250 at fixed dt)."""
    calls = [0]
    rhs = dynamics.CauchyState.spectral_rhs

    def counted(self, y, kept=None):
        calls[0] += 1
        return rhs(self, y, kept)

    monkeypatch.setattr(dynamics.CauchyState, "spectral_rhs", counted)
    for n, T, every, counts in ((32, 0.2, 2, [2] + [0, 1] * 24 + [1]), (16, 0.5, 5, [2] * 50)):
        cfg = config.ExperimentConfig(n=n, T=T)
        g = grid.Grid(cfg.n, cfg.L)
        state, _ = datagen.make_data(cfg, g)
        calls[0] = 0
        legs = dynamics.evolve(state, cfg.dt, cfg.T, every).legs
        assert calls[0] == 4 * legs.steps + 1 and legs.redone == 0
        assert legs.counts == counts and legs.steps == sum(counts)
        assert legs.inner == counts.count(0)


def test_cold_wave_leg_above_the_tolerance_is_redone_once(monkeypatch):
    """The sweep-n16 benchmark's wave is one leg of 50 dt.  Its two cold
    half steps miss WAVE_LEG_TOL, so the leg is redone from the kept state
    at the 12 steps their Simpson estimate asks for: 2 + 12 = 14 IF steps
    (15 when a step-doubling probe sized the redo, 51 when it took its cap
    of 50), and the state of a warm leg of 12 steps, bit for bit."""
    cfg = config.ExperimentConfig(kind="acl-sweep", n=16, T=0.1, time_samples=2)
    state, _ = datagen.make_data(cfg, grid.Grid(cfg.n, cfg.L))
    legs = []
    final = dynamics.wave_legs(state, cfg.dt, [0, 50], None, legs)
    assert legs[0].counts == [12] and legs[0].steps == 14 and legs[0].redone == 1
    controlled = dynamics.controlled_legs
    monkeypatch.setattr(dynamics, "controlled_legs", lambda y, spans, caps, *rest, **kw:
                        controlled(y, spans, [0, 12], *rest, **kw, cold=False))
    warm = dynamics.wave_legs(state, cfg.dt, [0, 50], None, legs)
    assert legs[1].counts == [12] and legs[1].steps == 12 and legs[1].redone == 0
    assert final.A.tobytes() == warm.A.tobytes() and final.E.tobytes() == warm.E.tobytes()


def test_gauss_operator_counts(counter):
    """One application of the repair's operator: 12 + 12 transforms and 6
    brackets at su(2)."""
    g = grid.Grid(16)
    spec = algebra.su2()
    rng = np.random.default_rng(1)
    A = rng.standard_normal((3, 3, 16, 16, 16))
    psih = g.dealias_mask * g.fft(rng.standard_normal((3, 16, 16, 16)))
    before = dict(counter)
    gauge._gauss_operator(g, A, spec, psih)
    got = tuple(counter[k] - before[k] for k in ("fwd", "inv", "brackets"))
    assert got == (12, 12, 6)


def test_tangent_if_step_counts(counter, monkeypatch):
    """One IF step of the tangent flow: 3 x (2 x 54 + 3, 2 x 81 + 12)
    transforms in `_IFSystem.step`, deturck_nonlinear on the doubled state
    plus the A_0 ODE; its first stage is the last step's end right-hand
    side, made by the leg controller (4 x when the step made it).  A
    tangent bracket counts as itself and its three base brackets, so the
    36 brackets of a right-hand side count 4 x 36, plus one for A_0."""
    cfg = config.ExperimentConfig(n=16)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    per_step = []
    step = heatflow._IFSystem.step

    def counted(self, *args):
        before = dict(counter)
        out = step(self, *args)
        per_step.append(tuple(counter[k] - before[k] for k in ("fwd", "inv", "brackets")))
        return out

    monkeypatch.setattr(heatflow._IFSystem, "step", counted)
    heatflow.flow_tangent(state, [1e-4], substeps=1)
    assert per_step == [(3 * 111, 3 * 174, 3 * 145)] * 4


def test_tension_run_flows_once_without_wave_steps(counter, monkeypatch, tmp_path):
    """The tension experiment at the default config: 10 IF steps of one
    tangent flow, 8 to s0/4 and the 2 the leg error estimate asks for to s0
    (12 with a fixed 4 per later leg), and no wave RK4 step (the five-slice
    stencil took 20 wave steps to build)."""
    calls = {"if": 0, "wave_rhs": 0}
    step, rhs = heatflow._IFSystem.step, dynamics.CauchyState.spectral_rhs

    def counted_step(self, *args):
        calls["if"] += 1
        return step(self, *args)

    def counted_rhs(self, *args):
        calls["wave_rhs"] += 1
        return rhs(self, *args)

    monkeypatch.setattr(heatflow._IFSystem, "step", counted_step)
    monkeypatch.setattr(dynamics.CauchyState, "spectral_rhs", counted_rhs)
    runner.run(config.ExperimentConfig(kind="tension"), str(tmp_path))
    assert calls == {"if": 10, "wave_rhs": 0}


def test_controlled_flow_right_hand_sides(monkeypatch):
    """A controlled flow makes 4 x steps + 1 right-hand sides: the last one
    of each step is a node of its error estimate and the next step's first
    stage.  Every IF step is one `_IFSystem.step` call, as the record counts
    them: two cold half steps to the first sample, one step on each leg
    after it but the last, whose Simpson estimate asks for two."""
    cfg = config.ExperimentConfig(n=16)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    calls = {"step": 0, "rhs": 0}
    step, rhs = heatflow._IFSystem.step, heatflow.deturck_nonlinear

    def counted_step(self, *args):
        calls["step"] += 1
        return step(self, *args)

    def counted_rhs(*args):
        calls["rhs"] += 1
        return rhs(*args)

    monkeypatch.setattr(heatflow._IFSystem, "step", counted_step)
    monkeypatch.setattr(heatflow, "deturck_nonlinear", counted_rhs)
    legs = []
    heatflow.run_flow(state, heatflow.sample_grid(cfg.s0_value, 6), substeps=2,
                      legs=legs)
    assert calls == {"step": legs[0].steps, "rhs": 4 * legs[0].steps + 1}
    assert legs[0].counts == [2, 1, 1, 1, 1, 2] and legs[0].redone == 0
    calls.update(step=0, rhs=0)
    heatflow.flow_tangent(state, (0.0, cfg.s0_value / 4, cfg.s0_value), substeps=4)
    assert calls == {"step": 10, "rhs": 4 * 10 + 1}


# Names the benchmark's tracer and worker reach by attribute.  The tracer
# wraps module-level functions whose __module__ is their module and skips a
# name that has gone, leaving its metrics out of the report.
TRACED = {
    algebra: ("bracket",),
    spectral: ("dealias", "heat_propagate"),
    gauge: ("curvature", "constraint_repair"),
    dynamics: ("covariant_curl_div", "step_rk4"),
    heatflow: ("deturck_nonlinear", "flow_stencil", "w2_leading", "flow_step",
               "run_flow"),
    diagnostics: ("energy_at",),
    datagen: ("make_data",),
    ckpt: ("write_checkpoint",),
}


def test_traced_names_are_module_functions():
    for owner, names in [*TRACED.items(), (grid.Grid, ("fft", "ifft", "cfft", "cifft")),
                         (heatflow._IFSystem, ("step",))]:
        module = owner.__name__ if isinstance(owner, types.ModuleType) else owner.__module__
        for name in names:
            fn = vars(owner).get(name)
            assert isinstance(fn, types.FunctionType), f"{owner.__name__}.{name}"
            assert fn.__module__ == module, f"{owner.__name__}.{name}"
    assert isinstance(heatflow.FlowState, type)
    assert heatflow.FlowState.__module__ == heatflow.__name__
    assert runner.make_data is datagen.make_data
    assert list(inspect.signature(heatflow.run_flow).parameters)[1] == "s_samples"
    assert list(inspect.signature(ckpt.write_checkpoint).parameters)[0] == "path"
