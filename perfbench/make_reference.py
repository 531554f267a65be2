"""Record the reference outputs that run.py checks every execution against.

    python3 perfbench/make_reference.py

For REFINED_SEEDS, each workload runs once as configured and once with its
discretization refined (REFINED).  A value's tolerance is SAFETY times its
change under refinement, which estimates the method's discretization error,
plus FLOOR times the largest magnitude in its column, far above round-off.  A change
that alters step sizes, s-grids or the stencil by no more than today's
discretization error passes; a wrong result does not.  EXTRA_SEEDS run only
as configured and reuse, per value, the worst tolerance of REFINED_SEEDS as a
share of its column.  run.py compares only the seeds recorded here.
"""

from __future__ import annotations

import json
import shutil
import time

from run import BUILD, HERE, WORKLOADS, execute, read_outputs

REFINED = {
    "flow-n32": {"integrator": {"substeps": 8}},
    "wave-n32": {"integrator": {"dt": 0.001}},
    "sweep-n16": {"integrator": {"substeps": 4, "dt": 0.001}, "sweep": {"s_samples": 64}},
    "tension-n16": {"integrator": {"substeps": 8, "dt": 0.001}},
}
# Physical outputs compared against the reference.  Residuals that sit at
# round-off (Gauss constraint, energy drift) are checked as invariants instead.
COMPARED = {
    "flow-n32": ("csv.s", "csv.energy", "csv.magnetic_energy", "summary.modified_energy"),
    "wave-n32": ("csv.t", "csv.energy", "csv.h_sigma", "summary.energy_initial"),
    "sweep-n16": ("csv.N", "csv.drift", "csv.ie_initial"),
    "tension-n16": ("csv.s", "csv.w_norm", "csv.w2_norm", "csv.w_minus_w2"),
}
REFINED_SEEDS = (1, 2)       # the default seed and one held-out seed
EXTRA_SEEDS = (0, 3, 4, 5, 6, 7, 8, 9, 10)
SAFETY = 10.0
FLOOR = 1e-6


def merged(keys: dict, extra: dict) -> dict:
    return {section: {**keys.get(section, {}), **extra.get(section, {})}
            for section in {**keys, **extra}}


def outputs(kind: str, keys: dict, seed: int) -> dict:
    work = BUILD / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        res = execute("run", kind, keys, seed, work, time.monotonic() + 3600.0)
        if "error" in res:
            raise SystemExit(f"{kind} seed {seed}: {res['error']}")
        return read_outputs(res["out_dir"])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def column_scales(workload: str, values: dict) -> dict:
    """Compared keys, each with the largest magnitude in its column."""
    scale = {}
    for key, value in values.items():
        column = key.split("[")[0]
        if column in COMPARED[workload]:
            scale[column] = max(scale.get(column, 0.0), abs(value))
    return {key: scale[key.split("[")[0]] for key in values
            if key.split("[")[0] in scale}


def main():
    reference = {}
    for workload, (kind, keys) in WORKLOADS.items():
        reference[workload] = {}
        rel = {}    # key -> worst tolerance over REFINED_SEEDS, as a share of its column
        for seed in REFINED_SEEDS:
            base = outputs(kind, keys, seed)
            fine = outputs(kind, merged(keys, REFINED[workload]), seed)
            entry = {}
            for key, scale in column_scales(workload, base).items():
                tol = SAFETY * abs(base[key] - fine[key]) + FLOOR * scale
                entry[key] = [base[key], tol]
                rel[key] = max(rel.get(key, 0.0), tol / scale if scale else 0.0)
            reference[workload][str(seed)] = entry
        for seed in EXTRA_SEEDS:
            base = outputs(kind, keys, seed)
            reference[workload][str(seed)] = {
                key: [base[key], rel[key] * scale]
                for key, scale in column_scales(workload, base).items()}
        print(f"{workload}: seeds {sorted(reference[workload], key=int)}")
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
