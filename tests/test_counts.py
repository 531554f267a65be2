"""Per-call transform and bracket counts of the four baseline functions at
n = 16, counted the way the benchmark's traced run counts them: every module
binding of `algebra.bracket` is replaced, and the grid transforms are wrapped
on the class, one count per scalar 3-D transform of the batched leading axes.
A kernel that bypasses `bracket` or the `Grid` transforms shows up here."""

import sys

import numpy as np
import pytest

from ymlab import algebra, config, datagen, dynamics, grid, heatflow

# (forward, inverse) transforms and brackets per call
EXPECTED = {
    "covariant_curl_div": (27, 18, 9),
    "deturck_nonlinear": (72, 63, 36),
    "step_rk4": (108, 72, 36),
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
