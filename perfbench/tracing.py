"""Counts and spans for ymlab's layers, installed from outside the package.

Every public module-level function of a layer module is replaced, in every
ymlab module that binds it by name, by a wrapper that counts its calls and
records its span.  Modules bind helpers with `from .algebra import bracket`,
so patching `ymlab.algebra.bracket` alone would miss the calls made from
`heatflow`, `dynamics` and the rest; replacing each binding catches them.

Two class methods are wrapped on the class as well: the grid transforms
(`Grid.fft`, `ifft`, `cfft`, `cifft`), which count one scalar 3-D transform
per element of the batched leading axes, and `heatflow._IFSystem.step`, the
one stepper every parabolic flow goes through.  A name that no longer exists
is skipped, and its metrics are left out of the report.

Spans are not kept one by one: each closing span adds its self time (its
duration minus that of the spans it contains) to its layer, and its full
duration to its function when it is the function's outermost call.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
import types
from collections import Counter, defaultdict

LAYERS = ("algebra", "grid", "spectral", "gauge", "dynamics", "heatflow",
          "diagnostics", "mkg", "datagen", "ckpt", "runner")

# Forward transforms first: the counter keeps (forward, inverse) separately.
TRANSFORMS = (("fft", 0), ("cfft", 0), ("ifft", 1), ("cifft", 1))
IF_STEP = "heatflow._IFSystem.step"
RK4_STEP = "dynamics.step_rk4"


class Tracer:
    def __init__(self):
        self.calls = Counter()              # function -> calls
        self.total_s = defaultdict(float)   # function -> seconds, outermost calls
        self.self_s = defaultdict(float)    # layer -> self seconds
        self.inside = defaultdict(lambda: [0, 0])  # function -> transforms in it
        self.transforms = [0, 0]            # scalar 3-D (forward, inverse)
        self.bytes_computed = 0             # transform input + output bytes
        self.ckpt_bytes = 0
        self.flow_samples = 0               # s-samples passed to run_flow
        self.present = set()                # functions that were wrapped
        self._stack = []                    # child seconds of each open span
        self._depth = Counter()

    # --- installation ---------------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and the two class boundaries."""
        replaced = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"ymlab.{layer}")
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[obj] = self._wrap(layer, f"{layer}.{attr}", obj,
                                           self._after_hook(layer, attr))
        for name, mod in list(sys.modules.items()):
            if name != "ymlab" and not name.startswith("ymlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in replaced:
                    setattr(mod, attr, replaced[obj])

        grid_cls = getattr(sys.modules["ymlab.grid"], "Grid", None)
        for meth, direction in TRANSFORMS:
            fn = getattr(grid_cls, meth, None)
            if fn is not None:
                setattr(grid_cls, meth, self._wrap(
                    "grid", f"grid.Grid.{meth}", fn, self._transform_hook(direction)))
        if_cls = getattr(sys.modules["ymlab.heatflow"], "_IFSystem", None)
        step = getattr(if_cls, "step", None)
        if step is not None:
            if_cls.step = self._wrap("heatflow", IF_STEP, step)
        return self

    def _after_hook(self, layer, attr):
        if layer == "ckpt" and attr == "write_checkpoint":
            def after(args, kwargs, out):
                self.ckpt_bytes += os.path.getsize(args[0] if args else kwargs["path"])
            return after
        if layer == "heatflow" and attr == "run_flow":
            def after(args, kwargs, out):
                self.flow_samples += len(args[1] if len(args) > 1
                                         else kwargs["s_samples"])
            return after
        return None

    def _transform_hook(self, direction):
        def after(args, kwargs, out):
            field = args[1]
            self.transforms[direction] += math.prod(field.shape[:-3])
            self.bytes_computed += field.nbytes + out.nbytes
        return after

    def _wrap(self, layer, name, fn, after=None):
        self.present.add(name)
        clock = time.perf_counter
        stack, depth, counts = self._stack, self._depth, self.transforms

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[name] += 1
            depth[name] += 1
            before = (counts[0], counts[1])
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                self.self_s[layer] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
            if after is not None:
                after(args, kwargs, out)
            if depth[name] == 0:
                self.total_s[name] += dt
                inside = self.inside[name]
                inside[0] += counts[0] - before[0]
                inside[1] += counts[1] - before[1]
            return out

        return traced

    # --- reading ----------------------------------------------------------------

    def snapshot(self):
        """Counters that `delta` compares across one call."""
        return (dict(self.calls), tuple(self.transforms))

    def delta(self, before):
        calls, (fwd, inv) = before
        return {"r2c": self.transforms[0] - fwd, "c2r": self.transforms[1] - inv,
                "brackets": self.calls["algebra.bracket"]
                - calls.get("algebra.bracket", 0)}

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}; absent names are left out."""
        out = {}

        def put(metric, value, unit, *needs):
            if all(n in self.present for n in needs):
                out[metric] = (value, unit)

        calls, total, self_s = self.calls, self.total_s, self.self_s
        steps_at = IF_STEP if calls[IF_STEP] else RK4_STEP
        grid_fns = [f"grid.Grid.{m}" for m, _ in TRANSFORMS]
        put("grid.transforms", sum(self.transforms), "count", *grid_fns)
        put("grid.transforms_per_step",
            sum(self.inside[steps_at]) / max(calls[steps_at], 1), "count",
            *grid_fns, steps_at)
        put("grid.fft_s", self_s["grid"], "s", *grid_fns)
        put("grid.bytes_computed", self.bytes_computed, "B", *grid_fns)
        for fn in ("algebra.bracket", "spectral.dealias", "spectral.heat_propagate",
                   "gauge.curvature", "dynamics.covariant_curl_div",
                   "heatflow.deturck_nonlinear", "diagnostics.energy_at"):
            put(f"{fn}.calls", calls[fn], "count", fn)
        for fn in ("gauge.constraint_repair", "heatflow.flow_stencil",
                   "heatflow.w2_leading", "datagen.make_data"):
            put(f"{fn}_s", total[fn], "s", fn)
        put("dynamics.rk4_steps", calls[RK4_STEP], "count", RK4_STEP)
        put("dynamics.rk4_step_ms",
            1e3 * total[RK4_STEP] / max(calls[RK4_STEP], 1), "ms", RK4_STEP)
        put("heatflow.if_steps", calls[IF_STEP], "count", IF_STEP)
        put("heatflow.if_step_ms",
            1e3 * total[IF_STEP] / max(calls[IF_STEP], 1), "ms", IF_STEP)
        put("diagnostics.flow_samples",
            self.flow_samples / max(calls["heatflow.run_flow"], 1), "count",
            "heatflow.run_flow")
        put("ckpt.bytes", self.ckpt_bytes, "B", "ckpt.write_checkpoint")
        for layer in ("algebra", "spectral", "gauge", "dynamics", "heatflow",
                      "diagnostics", "ckpt", "runner"):
            out[f"{layer}_s"] = (self_s[layer], "s")
        return out
