"""Run one ymlab workload in this process and write its timings as JSON.

    python3 perfbench/worker.py {run|setup|trace} KIND CONFIG SEED OUT RESULT

`run` goes through the CLI (`ymlab.cli.main`) exactly as a user would;
`setup` stops as soon as the initial data exists; `trace` is `run` with the
layers wrapped by `tracing.Tracer`, followed by the per-call count check at
n = 16.  The parent records the clock before it starts this process, so the
set-up time covers interpreter start, imports, config parsing, grid
construction and `datagen.make_data`.  Timestamps are `time.monotonic()`,
which is one system-wide clock for all processes.

Outside `trace`, the worker also times a fixed piece of the benchmark's own
work (`host_piece`) four times at its start and then every `PIECE_PERIOD_S`,
from a SIGALRM handler in this same thread.  The pieces' start times and durations
go into the result, so that the parent can take their time out of the
program's and scale the program's time by the host's speed measured during
it.  Traced runs do without, so that no piece falls inside a span.
"""

from __future__ import annotations

import json
import platform
import resource
import signal
import sys
import time

import numpy
import scipy
from scipy import fft as sfft
from tracing import Tracer
from ymlab import cli, config, datagen, dynamics, grid, heatflow, runner


PIECE_PERIOD_S = 0.1
_PIECE_FIELDS = (numpy.random.default_rng(0).standard_normal((3, 3, 16, 16, 16)),
                 numpy.random.default_rng(1).standard_normal((3, 32, 32, 32)))


def host_piece() -> None:
    """A fixed ~4 ms mix of the program's kinds of work: batched 3-D real
    FFTs at n = 16, elementwise products of su(2) components at n = 32 and
    interpreted Python.

    The host's speed drifts by up to a factor of two over tens of seconds,
    and each of these slows down by its own share.  Interleaved with IF-RK4
    and RK4 steps at n = 16 and 32 over 5 minutes, this mix, at three times
    this length, followed the steps' slow-downs best of the mixes tried:
    the steps' time over the mix's, per 15 steps, spread 0.03-0.04 against
    0.13-0.14 for the steps' time alone.  One piece's time varies by about
    0.17 of its mean from one piece to the next, so pieces are short and
    frequent rather than long and rare.
    """
    f, h = _PIECE_FIELDS
    for _ in range(2):
        sfft.irfftn(sfft.rfftn(f, axes=(-3, -2, -1)), s=(16,) * 3, axes=(-3, -2, -1))
    for _ in range(2):
        g = numpy.empty_like(h)
        g[0] = h[1] * h[2] - h[2] * h[0]
        g[1] = h[2] * h[0] - h[0] * h[1]
        g[2] = h[0] * h[1] - h[1] * h[2]
        h = h + 1e-3 * g
    acc = 0
    for i in range(13000):
        acc += i * i % 7


def start_pieces(pieces: list) -> None:
    """Time `host_piece` now and every PIECE_PERIOD_S, appending
    (start, duration) to `pieces`.

    The first piece is a warm-up (FFT plans, first page faults) that the
    parent takes out of the set-up time but leaves out of the host's speed;
    three more follow at once, so that the set-up has a speed of its own.
    """
    def tick(_signum=None, _frame=None):
        t = time.monotonic()
        host_piece()
        pieces.append((t, time.monotonic() - t))

    for _ in range(4):
        tick()
    signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PIECE_PERIOD_S, PIECE_PERIOD_S)


class _SetupDone(BaseException):
    """Ends a `setup` run; not an Exception, so the CLI does not catch it."""


def self_check(tracer: Tracer) -> dict:
    """Transforms and brackets counted for one call of each baseline function."""
    cfg = config.ExperimentConfig(n=16)
    g = grid.Grid(cfg.n, cfg.L)
    state, _ = datagen.make_data(cfg, g)
    spec = state.spec
    flow = heatflow.FlowState(g, spec, 0.0, state.A, state.E)
    calls = {
        "covariant_curl_div": (dynamics, lambda: dynamics.covariant_curl_div(
            g, spec, state.A)),
        "deturck_nonlinear": (heatflow, lambda: heatflow.deturck_nonlinear(
            g, spec, state.A, state.E)),
        "step_rk4": (dynamics, lambda: dynamics.step_rk4(state, cfg.dt)),
        "flow_step": (heatflow, lambda: heatflow.flow_step(flow, 1e-4)),
    }
    out = {}
    for name, (module, call) in calls.items():
        if not hasattr(module, name):
            continue
        before = tracer.snapshot()
        call()
        out[name] = tracer.delta(before)
    return out


def main(argv):
    mode, kind, config_path, seed, out_dir, result_path = argv
    tracer = Tracer().install() if mode == "trace" else None
    pieces = []
    if tracer is None:
        start_pieces(pieces)
    marks = {}
    make_data = runner.make_data

    def timed_make_data(*args, **kwargs):
        out = make_data(*args, **kwargs)
        marks["setup_end"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return out

    runner.make_data = timed_make_data
    try:
        rc = cli.main([kind, "--config", config_path, "--seed", seed,
                       "--out", out_dir])
    except _SetupDone:
        rc = 0
    marks["end"] = time.monotonic()
    signal.setitimer(signal.ITIMER_REAL, 0)
    result = {"rc": rc, **marks, "pieces": pieces,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "versions": {"python": platform.python_version(),
                           "numpy": numpy.__version__, "scipy": scipy.__version__}}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["self_check"] = self_check(tracer)
    with open(result_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
