"""Experiment orchestration: wire the modules, emit CSV/JSON artifacts.

Outputs per run: results.csv (columns documented in results.schema.json),
summary.json with the headline measurements, and field checkpoints.
Identical config + seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import diagnostics as dg
from . import dynamics as dyn
from . import heatflow as hf
from .ckpt import write_checkpoint
from .config import ConfigError, ExperimentConfig, dt_steps, emit_config
from .datagen import make_data, spec_of
from .gauge import random_alg_field
from .grid import Grid


def _fmt(x) -> str:
    return x if isinstance(x, str) else format(float(x), ".17g")


def _write_csv(path: str, columns: dict, descriptions: dict):
    names = list(columns)
    rows = len(next(iter(columns.values()))) if columns else 0
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(names) + "\n")
        for r in range(rows):
            fh.write(",".join(_fmt(columns[c][r]) for c in names) + "\n")
    schema = {
        "columns": [{"name": c, "description": descriptions.get(c, "")}
                    for c in names],
        "rows": rows,
    }
    with open(path.replace(".csv", ".schema.json"), "w", encoding="ascii") as fh:
        json.dump(schema, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_summary(out_dir: str, summary: dict):
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="ascii") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def run(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    if cfg.kind != "invariants" and (cfg.kind == "mkg") != cfg.family.startswith("mkg-"):
        raise ConfigError(f"family {cfg.family!r} does not fit kind {cfg.kind!r}: "
                          "kind mkg takes the mkg-* families, the other kinds "
                          "the Yang-Mills ones")
    if cfg.kind == "acl-sweep" and len(set(cfg.N_list)) < max(2, len(cfg.N_list)):
        raise ConfigError(f"N_list must hold two or more distinct thresholds for kind "
                          f"acl-sweep, got {cfg.N_list}: the drift slope is a fit over them")
    if cfg.kind == "heatflow" and not np.isclose(cfg.s0_value, 1.0 / cfg.N**2, rtol=1e-8):
        raise ConfigError(f"s0 = {cfg.s0_value} must be N^-2 = {1.0 / cfg.N**2} for kind "
                          "heatflow: the modified energy integrates up to N^-2")
    out_dir = out_dir or cfg.out_dir
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.echo"), "w", encoding="ascii") as fh:
        fh.write(emit_config(cfg))
    grid = Grid(cfg.n, cfg.L)
    handler = {
        "evolve": _run_evolve,
        "heatflow": _run_heatflow,
        "tension": _run_tension,
        "acl-sweep": _run_acl_sweep,
        "mkg": _run_mkg,
        "invariants": _run_invariants,
    }[cfg.kind]
    summary = handler(cfg, grid, out_dir)
    summary["experiment"] = cfg.kind
    summary["seed"] = cfg.seed
    _write_summary(out_dir, summary)
    return summary


# results.csv descriptions of the `observe` columns of both wave systems
_WAVE_COLUMNS = {"t": "physical time", "energy": "total curvature energy",
                "gauss_residual": "L2 norm of the Gauss constraint residual",
                "hamiltonian": "MKG energy", "charge": "Noether charge of the phase symmetry",
                "constraint": "L2 norm of the Gauss-law residual"}


def _run_wave(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> tuple:
    """`dynamics.evolve` of the config's data, about 50 samples, writing its
    columns and final state; returns the data report and the columns as arrays."""
    state, report = make_data(cfg, grid)
    traj = dyn.evolve(state, cfg.dt, cfg.T, max(1, round(dt_steps(cfg.T, cfg.dt) / 50)),
                      cfg.cfl, cfg.sigma)
    _write_csv(os.path.join(out_dir, "results.csv"), traj.columns,
               {**_WAVE_COLUMNS, "h_sigma": f"H^{cfg.sigma} norm of the connection"})
    if cfg.write_checkpoints:
        write_checkpoint(os.path.join(out_dir, "final.ckpt"), traj.final)
    return report, {name: np.asarray(v) for name, v in traj.columns.items()}


def _run_evolve(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    report, col = _run_wave(cfg, grid, out_dir)
    e, gs = col["energy"], col["gauss_residual"]
    return {
        "data_report": report,
        "energy_initial": float(e[0]),
        "energy_drift_rel": float(np.max(np.abs(e - e[0])) / max(e[0], 1e-300)),
        "gauss_initial": float(gs[0]),
        "gauss_max": float(gs.max()),
        "gauss_growth_ratio": float(gs.max() / max(gs[0], 1e-300)),
    }


def _run_heatflow(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    state, report = make_data(cfg, grid)
    s0 = cfg.s0_value
    samples = hf.sample_grid(s0, cfg.s_samples)
    rec = []

    def observe(f):                              # the magnetic part by Parseval
        Fh = dyn._curvature_hat(grid, f.spec, f.A, grid.fft(f.A))
        rec.append((f.s, dg.energy_at(f, Fh), 0.5 * grid.spectral_l2(Fh) ** 2))

    legs = []
    hf.run_flow(state, samples, substeps=cfg.substeps, observer=observe, legs=legs)
    dyn.log_legs("heatflow", s0, legs[0], "s")
    s_vals, e_vals, m_vals = np.array(rec).T
    ie, parts = dg.modified_energy(s_vals, e_vals, cfg.N, cfg.sigma)
    _write_csv(os.path.join(out_dir, "results.csv"),
               {"s": s_vals, "energy": e_vals, "magnetic_energy": m_vals},
               {"s": "parabolic time",
                "energy": "smoothed energy E(t, s)",
                "magnetic_energy": "half L2 square of the magnetic curvature"})
    mono = bool(np.all(np.diff(m_vals) <= 1e-12 * m_vals[0]))
    return {
        "data_report": report,
        "modified_energy": ie,
        "modified_energy_parts": parts,
        "magnetic_monotone": mono,
        "s0": s0,
    }


def _run_tension(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    state, report = make_data(cfg, grid)
    s0 = cfg.s0_value
    rows = {"s": [], "w_norm": [], "w2_norm": [], "w_minus_w2": []}
    samples = (0.0, s0 / 4.0, s0)
    for s, w in zip(samples, hf.tension_profile(state, samples, cfg.substeps)):
        rows["s"].append(s)
        rows["w_norm"].append(grid.l2_norm(w))
        if s > 0:
            w2 = hf.w2_leading(state, s)
            rows["w2_norm"].append(grid.l2_norm(w2))
            rows["w_minus_w2"].append(grid.l2_norm(w - w2))
        else:
            rows["w2_norm"].append(0.0)
            rows["w_minus_w2"].append(rows["w_norm"][-1])
    _write_csv(os.path.join(out_dir, "results.csv"), rows,
               {"s": "parabolic time",
                "w_norm": "L2 norm of the tension field",
                "w2_norm": "L2 norm of the leading bilinear part",
                "w_minus_w2": "L2 norm of the cubic remainder"})
    return {"data_report": report, "w_at_0": rows["w_norm"][0],
            "w_table": rows}


def _run_acl_sweep(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    state, report = make_data(cfg, grid)
    res = dg.almost_conservation_sweep(
        state, list(cfg.N_list), cfg.sigma, cfg.T, cfg.dt,
        n_time_samples=cfg.time_samples, n_s=cfg.s_samples,
        substeps=cfg.substeps, cfl=cfg.cfl)
    _write_csv(os.path.join(out_dir, "results.csv"),
               {"N": res.N_values, "drift": res.drifts,
                "ie_initial": [res.modified_energies[N][0] for N in res.N_values]},
               {"N": "frequency threshold",
                "drift": "max_t |IE(t) - IE(0)| over the sampled times",
                "ie_initial": "modified energy at t = 0"})
    mono = bool(all(res.drifts[i + 1] <= res.drifts[i]
                    for i in range(len(res.drifts) - 1)))
    return {"data_report": report, "drifts": dict(zip(map(str, res.N_values),
                                                      res.drifts)),
            "slope": res.slope, "drift_nonincreasing": mono,
            "times": res.times}


def _run_mkg(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    report, col = _run_wave(cfg, grid, out_dir)
    e, q, c = col["hamiltonian"], col["charge"], col["constraint"]
    return {
        "data_report": report,
        "energy_drift_rel": float(np.max(np.abs(e - e[0])) / max(e[0], 1e-300)),
        "charge_drift_abs": float(np.max(np.abs(q - q[0]))),
        "constraint_initial": float(c[0]),
        "constraint_max": float(c.max()),
    }


def _run_invariants(cfg: ExperimentConfig, grid: Grid, out_dir: str) -> dict:
    from .gauge import constraint_repair
    spec = spec_of(cfg.group)
    rng = np.random.default_rng(cfg.seed)
    cut = min(cfg.mode_cut, cfg.n / 6.0)     # pairwise products stay on the 2/3 band
    A = random_alg_field(grid, spec, rng, cfg.amplitude,
                         mode_cut=cut, decay=cfg.decay, components=3)
    E = random_alg_field(grid, spec, rng, cfg.amplitude,
                         mode_cut=cut, decay=cfg.decay, components=3)
    E = constraint_repair(grid, A, E, spec, tol=1e-9 * max(cfg.amplitude, 1e-6))
    audit = dg.invariant_audit(grid, spec, A, E, rng=rng)
    phi = random_alg_field(grid, spec, rng, cfg.amplitude, mode_cut=cfg.mode_cut)
    gn = dg.gn_inequality_probe(grid, spec, phi, A)
    _write_csv(os.path.join(out_dir, "results.csv"),
               {"check": list(audit) + list(gn),
                "value": list(audit.values()) + list(gn.values())},
               {"check": "identity or inequality name",
                "value": "normalized residual or ratio"})
    passed = all(v < 1e-8 for v in audit.values()) and all(
        v < 10.0 for v in gn.values())
    return {"audit": audit, "gn_ratios": gn, "all_pass": bool(passed),
            "audit_mode_cut": cut}
