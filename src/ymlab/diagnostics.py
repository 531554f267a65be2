"""Energy bookkeeping: smoothed energies, the modified energy, the
differentiated-energy identity, invariant audits, and the almost-conservation
experiment."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import heatflow as hf
from .algebra import StructureSpec, bracket, inner
from .config import dt_steps
from .dynamics import CauchyState, energy, log_legs, sample_marks, wave_legs
from .gauge import (PAIRS, covariant_derivative, curvature, gauss_residual,
                    pair_component, random_alg_field)
from .grid import Grid
from .spectral import dealias, derivative

SIGMA_DEFAULT = 5.0 / 6.0
log = logging.getLogger(__name__)


def energy_at(flow: hf.FlowState, Fh: np.ndarray | None = None) -> float:
    """Smoothed energy at level s: `dynamics.energy` of (A(s), B(s)), half the
    L2 square of all six curvature components (18 forward transforms, none
    when the caller passes the magnetic curvature hat of A(s) as Fh)."""
    return energy(CauchyState(flow.grid, flow.spec, flow.s, flow.A, flow.B), Fh=Fh)


def _simpson(y, x) -> float:
    """Composite Simpson rule for samples y at strictly increasing x, in the
    operation order of scipy.integrate.simpson (scipy >= 1.11), so results
    agree to the bit: the non-uniform three-point rule on pairs of intervals;
    for an even count, the trapezoid at two points, else the pairs up to the
    last interval plus Cartwright's correction for it (Cartwright, J. Math.
    Sci. Math. Educ. 12(2), 2017)."""
    y, x = np.asarray(y, float), np.asarray(x, float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValueError("Simpson rule needs matching 1-D samples, at least 2")
    h = np.diff(x)
    if not np.all(h > 0):
        raise ValueError("Simpson rule needs strictly increasing abscissae")
    n = len(x)
    if n == 2:
        return 0.5 * h[0] * (y[1] + y[0])
    stop = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum, r = h0 + h1, h0 / h1
    result = np.sum(hsum / 6.0 * (y[0:stop:2] * (2.0 - 1.0 / r)
                                  + y[1:stop + 1:2] * (hsum * (hsum / (h0 * h1)))
                                  + y[2:stop + 2:2] * (2.0 - r)))
    if n % 2 == 0:
        # 0-d arrays, as in scipy: b ** 2 is then np.square, not pow
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        beta = (b ** 2 + 3 * a * b) / (6 * a)
        eta = b ** 3 / (6 * a * (a + b))
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result


def weight(s, N: float, sigma: float):
    return (N * N * np.asarray(s)) ** (1.0 - sigma)


def modified_energy(s_values, energies, N: float, sigma: float):
    """Modified energy from sampled E(t, s): sup + ds/s integral of
    (N^2 s)^{1-sigma} E(t, s) over [0, s0], s0 = N^{-2}.

    Samples must contain s = 0 (for the analytic tail) and reach s0.
    The integral over the sampled range is Simpson in log s; the unsampled
    head [0, s_min] uses the exact power-weight integral against E(t, 0).
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError("sigma must lie in (0, 1): the s-weight degenerates")
    s = np.asarray(s_values, float)
    e = np.asarray(energies, float)
    if s.ndim != 1 or s.shape != e.shape:
        raise ValueError("mismatched sample arrays")
    order = np.argsort(s)
    s, e = s[order], e[order]
    s0 = 1.0 / (N * N)
    if not np.isclose(s[-1], s0, rtol=1e-8):
        raise ValueError(f"flow samples must reach s0 = N^-2 = {s0:.3e}; "
                         f"last sample {s[-1]:.3e}")
    if s[0] != 0.0:
        raise ValueError("samples must include s = 0")
    sb, eb = s[1:], e[1:]
    w = weight(sb, N, sigma)
    sup_part = float(np.max(w * eb))
    integral = float(_simpson(w * eb, np.log(sb)))
    tail = e[0] * weight(sb[0], N, sigma) / (1.0 - sigma)
    value = sup_part + integral + tail
    return value, {"sup": sup_part, "integral": integral, "tail": tail,
                   "n_samples": len(sb)}


def modified_energy_of_state(state: CauchyState, N: float, sigma: float):
    """Convenience wrapper: flow the state and assemble the modified energy."""
    rec = []
    hf.run_flow(state, hf.sample_grid(1.0 / N**2),
                observer=lambda f: rec.append((f.s, energy_at(f))))
    s_vals, e_vals = np.array(rec).T
    return modified_energy(s_vals, e_vals, N, sigma)


# --- the differentiated-energy identity --------------------------------------

def simpson_identity(state0, t_span: float, n_nodes: int, dt: float, node):
    """Residual of an energy identity E(t1) - E(t0) = int_t0^t1 I(t) dt, the
    integral composite Simpson over n_nodes (odd) equally spaced nodes.

    The nodes are `wave_legs` marks from state0 in steps of dt, which must
    divide the node spacing (`config.dt_steps`); node(state) returns (I, E)
    at one node.  Returns (residual_relative, lhs, rhs).
    """
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("Simpson rule needs an odd node count >= 3")
    node_dt = t_span / (n_nodes - 1)
    steps_per_node = dt_steps(node_dt, dt)
    if steps_per_node is None:
        raise ValueError(f"node spacing {node_dt} must be an integer multiple of dt = {dt}")
    values = []
    wave_legs(state0, dt, [q * steps_per_node for q in range(n_nodes)],
              lambda st, _hat, _kept: values.append(node(st)))
    integrand, energies = np.array(values).T
    rhs = float(_simpson(integrand, np.linspace(0.0, t_span, n_nodes)))
    lhs = energies[-1] - energies[0]
    residual = abs(lhs - rhs) / max(abs(lhs) + abs(rhs), 1e-300)
    return residual, lhs, rhs


def energy_identity_check(state0: CauchyState, t_span: float, s: float,
                          n_nodes: int = 11, dt: float = 2e-3, substeps: int = 4):
    """Residual of  E(t1,s) - E(t0,s) = int_t int_x (w_l(s), F_0l(s)).

    The time integral is `simpson_identity`'s; w and the smoothed curvature
    at each node come from one tangent flow (`heatflow.flow_tangent`) to
    level s.  Returns (residual_relative, lhs, rhs).
    """
    g, spec = state0.grid, state0.spec
    d = spec.dim

    def node(st):
        f = hf.flow_tangent(st, [s], substeps=substeps)[-1]
        w = hf.tangent_tension(f)
        B = f.B[:, :d]
        dens = sum(inner(w[i], B[i], spec) for i in range(3))
        return g.integrate(dens), energy_at(hf.FlowState(g, spec, s, f.A[:, :d], B))

    return simpson_identity(state0, t_span, n_nodes, dt, node)


# --- audits -------------------------------------------------------------------

def invariant_audit(grid: Grid, spec: StructureSpec, A: np.ndarray,
                    E: np.ndarray, rng: np.random.Generator) -> dict:
    """Normalized residuals of the structural identities on (A, E), the
    covariant-derivative checks on test fields drawn from rng."""
    F = curvature(grid, A, spec)
    scaleF = max(grid.l2_norm(F), 1e-30)
    bianchi = (covariant_derivative(grid, A, pair_component(F, 1, 2), 0, spec)
               + covariant_derivative(grid, A, pair_component(F, 2, 0), 1, spec)
               + covariant_derivative(grid, A, pair_component(F, 0, 1), 2, spec))
    B = random_alg_field(grid, spec, rng, 0.2, mode_cut=grid.n / 8.0)
    C = random_alg_field(grid, spec, rng, 0.2, mode_cut=grid.n / 8.0)
    cd_res = 0.0
    cd_scale = 1e-30
    for (a, b) in PAIRS:
        lhs = (covariant_derivative(grid, A, covariant_derivative(grid, A, B, b, spec), a, spec)
               - covariant_derivative(grid, A, covariant_derivative(grid, A, B, a, spec), b, spec))
        rhs = dealias(grid, bracket(pair_component(F, a, b), B, spec))
        cd_res = max(cd_res, grid.l2_norm(lhs - rhs))
        cd_scale = max(cd_scale, grid.l2_norm(rhs))
    lr_l = derivative(grid, inner(B, C, spec), 0)
    lr_r = (inner(covariant_derivative(grid, A, B, 0, spec), C, spec)
            + inner(B, covariant_derivative(grid, A, C, 0, spec), spec))
    _, gauss = gauss_residual(grid, A, E, spec)
    return {
        "bianchi": grid.l2_norm(bianchi) / scaleF,
        "cd_commutator": cd_res / cd_scale,
        "leibniz": grid.l2_norm(lr_l - lr_r) / max(grid.l2_norm(lr_r), 1e-30),
        "gauss": gauss / max(grid.l2_norm(E), 1e-30),
    }


def _lp_norm(grid: Grid, spec: StructureSpec, phi: np.ndarray, p: float) -> float:
    mag = np.sqrt(spec.metric_normalization * np.sum(phi * phi, axis=0))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * grid.site_measure) ** (1.0 / p))


def gn_inequality_probe(grid: Grid, spec: StructureSpec, phi: np.ndarray,
                        A: np.ndarray) -> dict:
    """Ratios of the covariant Gagliardo-Nirenberg / Sobolev inequalities.

    Reports ||phi||_p / (||phi||_2^{1-a} ||D phi||_2^a) for p = 3, 4, 6 and
    the L-infinity variant against first and second covariant derivatives.
    Degenerate for covariantly-constant fields; sample mean-free data.
    """
    Dphi = np.stack([covariant_derivative(grid, A, phi, l, spec) for l in range(3)])
    D2 = np.stack([covariant_derivative(grid, A, Dphi[l], m, spec)
                   for l in range(3) for m in range(3)])
    l2 = max(_lp_norm(grid, spec, phi, 2.0), 1e-300)
    d1 = max(grid.l2_norm(Dphi) * np.sqrt(spec.metric_normalization), 1e-300)
    d2 = max(grid.l2_norm(D2) * np.sqrt(spec.metric_normalization), 1e-300)
    out = {}
    for p in (3.0, 4.0, 6.0):
        alpha = 3.0 * (0.5 - 1.0 / p)
        out[f"L{int(p)}"] = _lp_norm(grid, spec, phi, p) / (l2 ** (1 - alpha) * d1 ** alpha)
    out["Linf"] = _lp_norm(grid, spec, phi, np.inf) / np.sqrt(d1 * d2)
    return out


# --- almost conservation -------------------------------------------------------

@dataclass
class SweepResult:
    N_values: list
    drifts: list
    slope: float
    modified_energies: dict = field(default_factory=dict)
    times: list = field(default_factory=list)


def almost_conservation_sweep(state0: CauchyState, N_values, sigma: float,
                              T: float, dt: float, n_time_samples: int = 5,
                              n_s: int = 32, span: float = 1024.0,
                              substeps: int = 2, cfl: float = 0.5) -> SweepResult:
    """Drift of the modified energy over [0, T] for each threshold N.

    dt, T and cfl pass the wave's checks (`dynamics.sample_marks`); the
    n_time_samples (at least 2) samples are the steps nearest to evenly
    spaced times, which `times` reports.  One heat flow per sampled time
    serves every N: the per-N s-grids are drawn from one lattice
    (`heatflow.nested_sample_grids`), so they share most of their points;
    their union is flowed once and each modified energy reads its own grid.
    Each time sample logs one INFO record with the t reached, the union
    size, the IF steps taken, the legs redone and the largest step error
    estimate (`heatflow.sample_legs`); the wave's `LegRecord` gets one more
    (`dynamics.log_legs`).  The fitted log-log slope is exploratory output.
    """
    if n_time_samples < 2:
        raise ValueError(f"n_time_samples must be at least 2, got {n_time_samples}")
    if len(set(N_values)) < max(2, len(N_values)):
        raise ValueError(f"N_values must be two or more distinct thresholds, got {N_values}")
    nsteps = sample_marks(state0.grid, dt, T, cfl, 0)[-1]
    N_values = sorted(N_values)
    grids = dict(zip(N_values, hf.nested_sample_grids(
        [1.0 / N**2 for N in N_values], n_s, span)))
    union = np.unique(np.concatenate(list(grids.values())))
    ie, times = {N: [] for N in N_values}, []

    def measure(st, _hat, kept):
        kept.clear()                            # no wave record held through the flows
        rec, legs = [], []
        times.append(st.t)
        hf.run_flow(st, union, substeps=substeps,
                    observer=lambda f: rec.append((f.s, energy_at(f))), legs=legs)
        log.info("sweep t = %.6g: %d flow samples, %d IF steps, %d legs redone, "
                 "step error <= %.1e", st.t, len(union),
                 legs[0].steps, legs[0].redone, legs[0].max_error)
        s_all, e_all = np.array(rec).T
        for N in N_values:
            sel = np.isin(s_all, grids[N]) | (s_all == 0.0)
            val, _ = modified_energy(s_all[sel], e_all[sel], N, sigma)
            ie[N].append(val)

    wave = []
    final = wave_legs(state0, dt, np.round(np.linspace(0, nsteps, n_time_samples)),
                      measure, wave)
    log_legs("sweep wave", final.t, wave[0])

    drifts = [max(abs(v - ie[N][0]) for v in ie[N]) for N in N_values]
    logs = np.log(np.asarray(N_values, float))
    safe = np.log(np.maximum(drifts, 1e-300))
    slope = float(np.polyfit(logs, safe, 1)[0])
    return SweepResult(list(N_values), drifts, slope, modified_energies=ie,
                       times=times)
