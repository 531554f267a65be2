"""Time-to-solution benchmark for the ymlab CLI experiments.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from its
`src/`.  Each execution of a workload is a fresh single-threaded process
(`worker.py`).  Untraced, half of MIN_SETUPS set-up-only processes run
first; then whole executions run while the next one is expected to end within
`--seconds` (always at least one), and set-up-only processes run until
MIN_SETUPS set-ups have been timed; the medians of `setup_s`, `run_s`
and `peak_rss_mb` are reported, the times at the host speed PIECE_REF_S
stands for.  Traced, one untraced and one traced
execution give the per-layer metrics and the tracing overhead.  Every
execution's outputs are checked; the last line of standard output is the
JSON result.  See README.md for the workloads and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

# name -> (CLI experiment, config keys that differ from the default config)
WORKLOADS = {
    "flow-n32": ("heatflow", {"grid": {"n": 32}, "sweep": {"s_samples": 8}}),
    "wave-n32": ("evolve", {"grid": {"n": 32}, "integrator": {"T": 0.2}}),
    "sweep-n16": ("acl-sweep", {"grid": {"n": 16},
                                "integrator": {"T": 0.1, "substeps": 2},
                                "sweep": {"N_list": "4 8", "s_samples": 32,
                                          "time_samples": 2}}),
    "tension-n16": ("tension", {"grid": {"n": 16}}),
}
# Set-ups timed per run, by grid size; set-up-only processes make up the
# executions' shortfall.  One costs about 1 s at n = 16 and 3 s at n = 32.
MIN_SETUPS = {16: 8, 32: 3}
DEADLINE_S = 170.0           # a run ends within this, whatever --seconds says
# Per-call forward (r2c) and inverse (c2r) transforms and brackets at n = 16.
# The transform counts and the first two bracket counts are the ROADMAP
# baseline; an RK4 or IF-RK4 step makes four right-hand-side calls.
BASELINE = {
    "covariant_curl_div": {"r2c": 27, "c2r": 18, "brackets": 9},
    "deturck_nonlinear": {"r2c": 72, "c2r": 108, "brackets": 60},
    "step_rk4": {"r2c": 108, "c2r": 72, "brackets": 36},
    "flow_step": {"r2c": 414, "c2r": 558, "brackets": 240},
}
# Duration of the worker's `host_piece` when the host runs fast (its 10th
# percentile, timed back to back on a 2-vCPU KVM Xeon guest).  The
# host's speed drifts by up to 2x over tens of seconds, and the drifts last
# about as long as a run, so medians of wall time would differ by more
# between runs than the bounds allow.  `setup_s` and `run_s` are therefore
# reported at this host speed: the program's wall time, with the pieces taken
# out, times PIECE_REF_S over the mean duration of the pieces timed during it.
PIECE_REF_S = 0.0036
THREAD_ENV = {"YMLAB_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def config_text(keys: dict) -> str:
    lines = []
    for section, values in keys.items():
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in values.items()]
    return "\n".join(lines) + "\n"


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


# --- output check -------------------------------------------------------------

def flatten(obj, prefix, out):
    if isinstance(obj, dict):
        for key, value in obj.items():
            flatten(value, f"{prefix}.{key}", out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            flatten(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def read_outputs(out_dir: Path) -> dict:
    """summary.json leaves and results.csv cells as one flat dict."""
    values = flatten(json.loads((out_dir / "summary.json").read_text()), "summary", {})
    lines = (out_dir / "results.csv").read_text().splitlines()
    header = lines[0].split(",")
    for r, line in enumerate(lines[1:]):
        for col, cell in zip(header, line.split(",")):
            values[f"csv.{col}[{r}]"] = float(cell)
    values["csv.rows"] = len(lines) - 1
    return values


def finite(*xs) -> bool:
    return all(isinstance(x, (int, float)) and math.isfinite(x) for x in xs)


def invariants(workload: str, v: dict) -> list[str]:
    """Reference-free checks that hold for any seed."""
    rows = range(v.get("csv.rows", 0))
    if workload == "flow-n32":
        ok = v.get("summary.magnetic_monotone") is True
        return [] if ok else ["magnetic energy is not monotone along the flow"]
    if workload == "wave-n32":
        drift, growth = v.get("summary.energy_drift_rel"), v.get("summary.gauss_growth_ratio")
        if not (finite(drift, growth) and drift < 1e-10 and growth < 1.001):
            return [f"energy_drift_rel {drift} or gauss_growth_ratio {growth} out of range"]
        return []
    if workload == "sweep-n16":
        # Almost conservation: each drift is a small share of its energy.
        pairs = [(v.get(f"csv.drift[{r}]"), v.get(f"csv.ie_initial[{r}]")) for r in rows]
        if len(pairs) != 2 or not all(finite(d, e) and d <= 1e-4 * e for d, e in pairs):
            return [f"drift against modified energy per N out of range: {pairs}"]
        return []
    problems = []
    w0 = v.get("summary.w_at_0")
    if not (finite(w0) and w0 < 1e-7):
        problems.append(f"w_at_0 {w0} above the stencil error")
    # w2 is the leading part of w: the cubic remainder is small against w.
    for r in rows:
        w, rest = v.get(f"csv.w_norm[{r}]"), v.get(f"csv.w_minus_w2[{r}]")
        if v.get(f"csv.s[{r}]") and not (finite(w, rest) and rest <= 2.5e-3 * w):
            problems.append(f"w - w2 = {rest} not small against w = {w} at row {r}")
    return problems


def check_outputs(workload: str, seed: int, out_dir: Path, reference: dict) -> list[str]:
    try:
        values = read_outputs(out_dir)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable outputs: {exc}"]
    problems = invariants(workload, values)
    for key, (ref, tol) in reference[workload].get(str(seed), {}).items():
        got = values.get(key)
        if not finite(got) or abs(got - ref) > tol:
            problems.append(f"{key} = {got}, reference {ref} +- {tol:.3g}")
    return problems


def count_problems(counts: dict) -> list[str]:
    """Faults of the per-call counts that no change to the program explains."""
    problems = [f"{fn} counted no transforms or no brackets"
                for fn, c in counts.items()
                if c["brackets"] == 0 or c["r2c"] + c["c2r"] == 0]
    # A step makes four right-hand-side calls, and only they take brackets.
    for step, rhs in (("step_rk4", "covariant_curl_div"),
                      ("flow_step", "deturck_nonlinear")):
        if step in counts and rhs in counts and (
                counts[step]["brackets"] != 4 * counts[rhs]["brackets"]):
            problems.append(f"{step} counted {counts[step]['brackets']} brackets, "
                            f"not 4 x {counts[rhs]['brackets']} of {rhs}")
    return problems


# --- executions -----------------------------------------------------------------

def execute(mode: str, kind: str, keys: dict, seed: int, work: Path,
            deadline: float) -> dict:
    """Start one worker process; return its timings, or {"error": ...}."""
    config = work / "config.ini"
    config.write_text(config_text(keys))
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = work / "result.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), mode, kind, str(config),
           str(seed), str(out_dir), str(result_path)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} execution passed the {DEADLINE_S:.0f} s deadline"}
    if proc.returncode != 0 or not result_path.exists():
        return {"error": f"{mode} execution exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}"}
    res = json.loads(result_path.read_text())
    res["setup_raw_s"], res["setup_s"] = program_time(res["pieces"], t0, res["setup_end"])
    if mode != "setup":
        res["run_raw_s"], res["run_s"] = program_time(res["pieces"], res["setup_end"],
                                                      res["end"])
    res["out_dir"] = out_dir
    return res


def program_time(pieces: list, lo: float, hi: float) -> tuple[float, float]:
    """The program's seconds from `lo` to `hi`, as measured and at host speed.

    The host-speed pieces the worker timed in that window are taken out of
    it; the rest is scaled by PIECE_REF_S over the pieces' mean duration.
    The first piece is a warm-up: taken out, but not a speed.
    """
    inside = [(i, d) for i, (t, d) in enumerate(pieces) if lo <= t < hi]
    measured = hi - lo - sum(d for _, d in inside)
    speeds = [d for i, d in inside if i > 0]
    if not speeds:
        return measured, measured
    return measured, measured * PIECE_REF_S / statistics.fmean(speeds)


def machine_record(workload: str, versions: dict) -> dict:
    """What the numbers depend on: versions, cores, caches, field size."""
    record = dict(versions, nproc=os.cpu_count())
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                record["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(caches.glob("index*")):
            level = (index / "level").read_text().strip()
            if level in ("2", "3"):
                record[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    n = WORKLOADS[workload][1]["grid"]["n"]
    record["field_bytes"] = 9 * n**3 * 8   # one (3, 3, n, n, n) float64 field
    l2 = record.get("L2", "")
    if l2[:-1].isdigit() and l2[-1] in "KM":
        record["field_over_L2"] = record["field_bytes"] / (int(l2[:-1]) << (
            10 if l2[-1] == "K" else 20))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ymlab" / "__init__.py").is_file():
        print(f"perfbench: no ymlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    if str(args.seed) not in reference[args.workload]:
        print(f"{args.workload}: no reference for seed {args.seed}, "
              f"outputs are checked against the invariants only")
    work = BUILD / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    begin = time.monotonic()
    deadline = begin + DEADLINE_S
    done, failures = [], []

    def attempt(mode):
        res = execute(mode, *WORKLOADS[args.workload], args.seed, work, deadline)
        if "error" not in res and mode != "setup":
            problems = check_outputs(args.workload, args.seed, res["out_dir"], reference)
            if mode == "trace":
                problems += count_problems(res["self_check"])
            if problems:
                res = {"error": "; ".join(problems)}
        if "error" in res:
            failures.append(res["error"])
            print(f"FAILED {args.workload} ({mode}): {res['error']}", file=sys.stderr)
        else:
            done.append((mode, res))
            print(f"{args.workload} {mode}: setup_s {res['setup_s']:.3f}"
                  f" ({res['setup_raw_s']:.3f} measured)"
                  + (f" run_s {res['run_s']:.3f} ({res['run_raw_s']:.3f} measured)"
                     f" peak_rss_mb {res['peak_rss_mb']:.1f}"
                     if mode != "setup" else ""))
        return res

    try:
        if args.trace:
            plain, traced = attempt("run"), attempt("trace")
        else:
            # Half of the set-up-only processes go before the executions, so
            # that the set-ups sample the host over the whole window.
            setups = MIN_SETUPS[WORKLOADS[args.workload][1]["grid"]["n"]]
            for _ in range(setups // 2):
                attempt("setup")
            while True:
                start = time.monotonic()
                attempt("run")
                now = time.monotonic()
                if now + (now - start) - begin > args.seconds:
                    break
            for _ in range(setups - len(done) - len(failures)):
                attempt("setup")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(done) + len(failures)
    full = [res for mode, res in done if mode == "run"]
    metrics = {}
    if args.trace and "error" not in plain and "error" not in traced:
        for name, (value, unit) in traced["layers"].items():
            metrics[name] = {"value": value, "unit": unit}
        metrics["trace.overhead_s"] = {"value": traced["run_raw_s"] - plain["run_raw_s"],
                                       "unit": "s"}
        same = all(BASELINE[fn] == c for fn, c in traced["self_check"].items())
        print(f"self-check at n=16: per-call counts "
              f"{'match' if same else 'differ from (reported, not failed)'} "
              f"the ROADMAP baseline: "
              f"{json.dumps(traced['self_check'])}")
    elif not args.trace and full:
        setups = [res["setup_s"] for _, res in done]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in full), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in full),
                            "unit": "MB"},
        }
    if done:
        print(json.dumps({"machine": machine_record(args.workload, done[0][1]["versions"])}))
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {len(failures)} failed of {attempted} attempted "
          f"({len(failures) / max(attempted, 1):.0%})")
    result = {"correct": not failures and bool(metrics), "attempted": max(attempted, 1),
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
