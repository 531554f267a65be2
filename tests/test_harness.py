import json
import math
import os
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from ymlab import cli
from ymlab import mkg
from ymlab.ckpt import CheckpointError, read_checkpoint, write_checkpoint
from ymlab.config import ConfigError, ExperimentConfig, emit_config, parse_config
from ymlab.datagen import make_data, mkg_random, spec_of
from ymlab.dynamics import CauchyState
from ymlab.grid import Grid
from ymlab.runner import run


def test_config_defaults_and_s0():
    cfg = parse_config("[physics]\nN = 4.0\n")
    assert cfg.s0_value == 1 / 16.0
    cfg2 = parse_config("[physics]\nN = 4.0\ns0 = 0.01\n")
    assert cfg2.s0_value == 0.01


def test_config_rejects_bad_sigma():
    with pytest.raises(ConfigError):
        parse_config("[physics]\nsigma = 1.2\n")
    with pytest.raises(ConfigError):
        parse_config("[physics]\nsigma = 0.4\n")


def test_config_strict_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config("[physics]\nsigmma = 0.9\n")
    assert "line 2" in str(err.value)
    with pytest.warns(UserWarning):
        cfg = parse_config("[physics]\nsigmma = 0.9\n", strict=False)
    assert cfg.sigma == ExperimentConfig().sigma


def test_config_round_trip():
    cfg = ExperimentConfig(kind="heatflow", n=32, N=16.0, sigma=0.9,
                           family="pulses", amplitude=0.05, seed=42,
                           N_list=(2.0, 4.0), s0=0.003)
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize("field, value", [
    ("substeps", 0), ("s_samples", 0), ("s_samples", 1), ("time_samples", -1),
    ("time_samples", 1), ("N_list", ()), ("N_list", (4.0, -8.0))],
    ids=["substeps", "s_samples", "s_samples-one", "time_samples", "time_samples-one",
         "N_list-empty", "N_list-negative"])
def test_config_rejects_bad_counts(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("mode_cut", -1.0), ("mode_cut", 0.0), ("decay", -5.0), ("decay", 0.0),
    ("amplitude", -0.1)],
    ids=["mode_cut-negative", "mode_cut-zero", "decay-negative", "decay-zero",
         "amplitude-negative"])
def test_config_rejects_bad_data_recipe(field, value):
    """A negative mode_cut would run as its absolute value, a decay <= 0 as
    1e-6 (the mean mode alone), a negative amplitude as its absolute value."""
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig(**{field: value})
    with pytest.raises(ConfigError, match=field):
        parse_config(f"[data]\n{field} = {value}\n")


def test_config_rejects_T_off_the_dt_grid():
    with pytest.raises(ConfigError, match="T must be an integer multiple of dt"):
        ExperimentConfig(T=0.0031, dt=0.002)
    for T in (0.0, 0.01, 0.1, 0.2, 0.5, 1.0):   # default and benchmark horizons
        assert ExperimentConfig(T=T).T == T
    assert ExperimentConfig(T=0.3, dt=0.1).T == 0.3  # 3 * 0.1 is not 0.3 in binary


def test_config_checks_the_dt_grid_only_for_kinds_that_step_in_time():
    assert ExperimentConfig(kind="tension", T=0.0031, dt=0.002).T == 0.0031
    for kind in ("heatflow", "invariants"):
        assert ExperimentConfig(kind=kind, T=0.0031, dt=0.002).T == 0.0031
    for kind in ("acl-sweep", "mkg"):
        with pytest.raises(ConfigError, match="T must be an integer multiple of dt"):
            ExperimentConfig(kind=kind, T=0.0031, dt=0.002)


@pytest.mark.parametrize("kind, family", [("mkg", "random"),
                                          ("evolve", "mkg-random")])
def test_runner_rejects_kind_family_mismatch(tmp_path, kind, family):
    group = "u1" if family.startswith("mkg") else "su2"
    cfg = ExperimentConfig(kind=kind, family=family, group=group, n=8, T=0.01)
    with pytest.raises(ConfigError, match="family"):
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("N_list", [(4.0,), (4.0, 4.0)], ids=["one", "repeated"])
def test_runner_rejects_an_acl_sweep_without_two_distinct_thresholds(tmp_path, N_list):
    """At n = 8, T = 0.02, N_list = 4 and 4 4 both reported the slope of a
    degenerate fit and exited 0: the run now stops before its output."""
    cfg = ExperimentConfig(kind="acl-sweep", n=8, T=0.02, s_samples=4, time_samples=2,
                           N_list=N_list)
    with pytest.raises(ConfigError, match="N_list"):
        run(cfg, out_dir=str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_cli_heatflow_rejects_an_s0_other_than_N_minus_2(tmp_path, capsys):
    """The heatflow's modified energy integrates up to s0 = N^-2: s0 = 0.01
    at N = 8 exits 2, naming s0, before the output directory or the data
    are made (it used to exit 1 after the whole flow); tension takes it."""
    cfg_path = tmp_path / "hf.ini"
    cfg_path.write_text("[grid]\nn = 8\n[physics]\ns0 = 0.01\n[sweep]\ns_samples = 4\n")
    out = tmp_path / "hf"
    assert cli.main(["heatflow", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "s0" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(["tension", "--config", str(cfg_path), "--out", str(tmp_path / "tn")]) == 0
    assert json.load(open(tmp_path / "tn" / "summary.json"))["experiment"] == "tension"


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cli_rejects_threads_below_one(value, capsys):
    """--threads 0 and -2 used to run on one worker, `Grid` clamping them."""
    with pytest.raises(SystemExit) as info:
        cli.build_parser().parse_args(["evolve", "--threads", value])
    assert info.value.code == 2
    assert f"argument --threads: must be at least 1, got {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_cli_rejects_a_bad_threads_variable(value, tmp_path, monkeypatch, capsys):
    """A YMLAB_THREADS that is not an integer of at least 1 is a config error
    naming it, before any output is written (it used to run on one worker);
    --threads overrides it."""
    monkeypatch.setenv("YMLAB_THREADS", value)
    out = tmp_path / "ev"
    assert cli.main(["evolve", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("ymlab: config error: YMLAB_THREADS must be an integer of at least 1")
    assert not out.exists()
    cfg_path = tmp_path / "small.ini"
    cfg_path.write_text("[grid]\nn = 8\n[integrator]\nT = 0.004\n")
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(out),
                     "--threads", "1"]) == 0


# Per wave experiment: its data, the results.csv columns with their schema
# descriptions, and the summary.json keys.
WAVE_ARTIFACTS = {
    "evolve": ("random", "su2",
               {"t": "physical time", "energy": "total curvature energy",
                "gauss_residual": "L2 norm of the Gauss constraint residual",
                "h_sigma": "H^0.8333333333333334 norm of the connection"},
               ["data_report", "energy_drift_rel", "energy_initial", "experiment",
                "gauss_growth_ratio", "gauss_initial", "gauss_max", "seed"]),
    "mkg": ("mkg-random", "u1",
            {"t": "physical time", "hamiltonian": "MKG energy",
             "charge": "Noether charge of the phase symmetry",
             "constraint": "L2 norm of the Gauss-law residual"},
            ["charge_drift_abs", "constraint_initial", "constraint_max", "data_report",
             "energy_drift_rel", "experiment", "seed"]),
}


@pytest.mark.parametrize("kind", sorted(WAVE_ARTIFACTS))
def test_wave_runs_keep_their_artifact_contract(tmp_path, kind):
    """The results.csv header, the schema's column names and descriptions,
    and the summary.json key set of the evolve and mkg experiments; T = 0.02
    is 10 steps of dt, each one sampled."""
    family, group, columns, keys = WAVE_ARTIFACTS[kind]
    out = tmp_path / kind
    run(ExperimentConfig(kind=kind, family=family, group=group, n=8, T=0.02), str(out))
    assert (out / "results.csv").read_text().splitlines()[0] == ",".join(columns)
    schema = json.load(open(out / "results.schema.json"))
    assert schema == {"columns": [{"name": c, "description": d} for c, d in columns.items()],
                      "rows": 11}
    assert sorted(json.load(open(out / "summary.json"))) == keys


def test_spec_of_rejects_unknown_group():
    assert spec_of("su2").name == "su2" and spec_of("u1").name == "u1"
    with pytest.raises(ValueError, match="su3"):
        spec_of("su3")


def test_config_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn 16\n")
    with pytest.raises(ConfigError):
        parse_config("n = 16\n")
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn = twelve\n")
    # a repeated key is ambiguous, not unknown: an error in lax mode too
    for strict in (True, False):
        with pytest.raises(ConfigError, match="line 3: key 'n' repeats line 2"):
            parse_config("[grid]\nn = 8\nn = 16\n", strict=strict)
        with pytest.raises(ConfigError, match="line 6: key 'dt' repeats line 2"):
            parse_config("[integrator]\ndt = 0.002\n[grid]\nn = 8\n[integrator]\ndt = 0.001\n",
                         strict=strict)


def test_checkpoint_round_trip(tmp_path, grid16, s2, rng):
    A = rng.standard_normal((3, 3, 16, 16, 16))
    E = rng.standard_normal((3, 3, 16, 16, 16))
    st = CauchyState(grid16, s2, 1.25, A, E)
    path = str(tmp_path / "state.ckpt")
    write_checkpoint(path, st)
    st2 = read_checkpoint(path)
    assert np.array_equal(st2.A, A) and np.array_equal(st2.E, E)
    assert st2.t == 1.25 and st2.spec.name == "su2"
    # writing again is byte-identical
    path2 = str(tmp_path / "state2.ckpt")
    write_checkpoint(path2, st2)
    assert open(path, "rb").read() == open(path2, "rb").read()


def test_checkpoint_mkg_round_trip(tmp_path, grid16):
    st = mkg_random(grid16, 0.1, seed=2, mode_cut=2.0, decay=1e6)
    path = str(tmp_path / "m.ckpt")
    write_checkpoint(path, st)
    st2 = read_checkpoint(path)
    assert np.array_equal(st2.phi, st.phi)
    assert np.array_equal(st2.E, st.E)


def test_checkpoint_layout_vector(tmp_path):
    """Byte-level layout: header fields and x-fastest payload order."""
    g = Grid(8, 2.0)
    A = np.zeros((3, 1, 8, 8, 8))
    E = np.zeros((3, 1, 8, 8, 8))
    A[0, 0, 3, 1, 2] = 7.5  # x = 3, y = 1, z = 2
    from ymlab.algebra import u1
    st = CauchyState(g, u1(), 0.0, A, E)
    path = str(tmp_path / "v.ckpt")
    write_checkpoint(path, st)
    raw = open(path, "rb").read()
    assert raw[:4] == b"YMLB"
    header = struct.Struct("<4sIIdIIIIdd")
    magic, version, n, L, group, kind, ncomp, algdim, t, s = header.unpack(
        raw[:header.size])
    assert (version, n, L, group, kind, ncomp, algdim) == (1, 8, 2.0, 1, 0, 6, 1)
    payload = np.frombuffer(raw[header.size:], dtype="<f8")
    # x-fastest: flat index x + n*y + n^2*z inside component 0
    assert payload[3 + 8 * 1 + 64 * 2] == 7.5
    assert np.count_nonzero(payload) == 1


def test_checkpoint_corruption(tmp_path, grid16, s2, rng):
    st = CauchyState(grid16, s2, 0.0,
                     rng.standard_normal((3, 3, 16, 16, 16)),
                     rng.standard_normal((3, 3, 16, 16, 16)))
    path = str(tmp_path / "c.ckpt")
    write_checkpoint(path, st)
    raw = bytearray(open(path, "rb").read())
    raw[0] = ord("X")
    bad = str(tmp_path / "bad.ckpt")
    open(bad, "wb").write(bytes(raw))
    with pytest.raises(CheckpointError):
        read_checkpoint(bad)
    open(bad, "wb").write(open(path, "rb").read()[:100])
    with pytest.raises(CheckpointError):
        read_checkpoint(bad)


@pytest.mark.parametrize("group, kind, ncomp, algdim, field", [
    (0, 0, 2, 3, "ncomp"),       # a Cauchy state stores six components
    (1, 2, 6, 1, "ncomp"),
    (0, 0, 6, 1, "algdim"),      # su(2) has three
    (1, 1, 6, 3, "algdim"),
    (2, 0, 6, 3, "group"),       # neither su(2) nor u(1)
    (0, 2, 10, 3, "group"),      # MKG states are u(1)
])
def test_checkpoint_rejects_inconsistent_header(tmp_path, group, kind, ncomp,
                                                algdim, field):
    n = 8
    header = struct.Struct("<4sIIdIIIIdd").pack(
        b"YMLB", 1, n, 2.0, group, kind, ncomp, algdim, 0.0, 0.0)
    path = tmp_path / "h.ckpt"
    path.write_bytes(header + bytes(8 * ncomp * algdim * n**3))
    with pytest.raises(CheckpointError, match=field):
        read_checkpoint(str(path))
    path.write_bytes(header)                    # rejected before the payload
    with pytest.raises(CheckpointError, match=field):
        read_checkpoint(str(path))


def test_make_data_families(grid16):
    for family, group in (("abelian-wave", "u1"), ("random", "su2"),
                          ("pulses", "su2"), ("mkg-random", "u1"),
                          ("mkg-wave", "u1")):
        cfg = ExperimentConfig(family=family, group=group, amplitude=0.05,
                               mode_cut=2.0)
        st, report = make_data(cfg, grid16)
        key = "gauss_residual" if not family.startswith("mkg") else "constraint"
        assert report[key] < 1e-6


def test_make_data_deterministic(grid16):
    cfg = ExperimentConfig(family="random", amplitude=0.1, seed=11)
    st1, _ = make_data(cfg, grid16)
    st2, _ = make_data(cfg, grid16)
    assert np.array_equal(st1.A, st2.A) and np.array_equal(st1.E, st2.E)
    p1, p2 = (make_data(ExperimentConfig(family="pulses", amplitude=0.1, seed=seed),
                        grid16)[0] for seed in (1, 2))
    assert np.array_equal(p1.A, p2.A) and np.array_equal(p1.E, p2.E)  # seed-free


def test_runner_invariants_all_pass(tmp_path):
    cfg = ExperimentConfig(kind="invariants", n=16, amplitude=0.2,
                           mode_cut=2.0, out_dir=str(tmp_path / "inv"))
    summary = run(cfg)
    assert summary["all_pass"]
    assert os.path.exists(tmp_path / "inv" / "results.csv")
    schema = json.load(open(tmp_path / "inv" / "results.schema.json"))
    assert schema["rows"] > 0


def test_runner_invariants_pass_at_the_default_config(tmp_path):
    """At n = 16 the default mode_cut 3 puts the audit's nested products
    off the two-thirds band (bianchi about 1e-5); the audit draws A and E
    at n / 6 instead, records that cut, and passes at its 1e-8 bound."""
    summary = run(ExperimentConfig(kind="invariants"), str(tmp_path / "inv"))
    assert summary["all_pass"] and summary["audit_mode_cut"] == 16 / 6.0
    assert max(summary["audit"].values()) < 1e-8


def test_runner_heatflow_logs_its_legs(tmp_path, caplog):
    """The heatflow experiment logs its flow's `LegRecord` in one INFO
    record and writes none of it to the summary."""
    cfg = ExperimentConfig(kind="heatflow", n=8, s_samples=4)
    with caplog.at_level("INFO", logger="ymlab.dynamics"):
        summary = run(cfg, str(tmp_path / "hf"))
    msgs = [r.getMessage() for r in caplog.records if r.name == "ymlab.dynamics"]
    assert len(msgs) == 1 and msgs[0].startswith("heatflow to s = 0.015625: ")
    assert " IF steps, 0 samples between them, 0 legs redone, step error <= " in msgs[0]
    assert sorted(summary) == ["data_report", "experiment", "magnetic_monotone",
                               "modified_energy", "modified_energy_parts", "s0", "seed"]


def test_runner_evolve_abelian(tmp_path):
    cfg = ExperimentConfig(kind="evolve", n=16, family="abelian-wave",
                           group="u1", amplitude=0.1, dt=2e-3, T=0.1,
                           out_dir=str(tmp_path / "ev"))
    summary = run(cfg)
    assert summary["energy_drift_rel"] < 1e-8
    header = open(tmp_path / "ev" / "results.csv").readline().strip().split(",")
    schema = json.load(open(tmp_path / "ev" / "results.schema.json"))
    assert [c["name"] for c in schema["columns"]] == header


def test_cli_reproducibility(tmp_path):
    cfg_path = tmp_path / "cfg.ini"
    cfg_path.write_text("\n".join([
        "[experiment]", "kind = evolve",
        "[grid]", "n = 16",
        "[physics]", "group = su2",
        "[integrator]", "dt = 0.002", "T = 0.05",
        "[data]", "family = random", "amplitude = 0.1", "seed = 5",
        "mode_cut = 2.0", "",
    ]))
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli.main(["evolve", "--config", str(cfg_path), "--out", out2]) == 0
    for name in ("results.csv", "summary.json", "final.ckpt",
                 "results.schema.json"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name


def test_cli_bad_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[physics]\nsigma = 2.0\n")
    assert cli.main(["evolve", "--config", str(bad)]) == 2
    missing = str(tmp_path / "nope.ini")
    assert cli.main(["evolve", "--config", missing]) == 2
    # a negative seed fails at the config, before the output directory exists
    out = tmp_path / "neg"
    assert cli.main(["evolve", "--seed", "-1", "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[experiment]\nkind = invariants\n[grid]\nn = 16\n")
    out = str(tmp_path / "o")
    assert cli.main(["invariants", "--config", str(cfg_path),
                     "--seed", "99", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["seed"] == 99


def test_cli_mkg_reproduces_with_threads(tmp_path, monkeypatch):
    """`mkg` through the CLI at n = 8, T = 0.02, once plain and once with
    --threads 1 (which sets YMLAB_THREADS): both exit 0 with finite summary
    values, their artifacts are byte-identical and the checkpoint reads back
    as an `MkgState`."""
    monkeypatch.delenv("YMLAB_THREADS", raising=False)   # restored afterwards
    cfg_path = tmp_path / "mkg.ini"
    cfg_path.write_text("[grid]\nn = 8\n[physics]\ngroup = u1\n"
                        "[integrator]\nT = 0.02\n[data]\nfamily = mkg-random\n")
    out1, out2 = str(tmp_path / "m1"), str(tmp_path / "m2")
    assert cli.main(["mkg", "--config", str(cfg_path), "--out", out1]) == 0
    assert cli.main(["mkg", "--config", str(cfg_path), "--out", out2,
                     "--threads", "1"]) == 0
    assert os.environ["YMLAB_THREADS"] == "1"
    summary = json.load(open(os.path.join(out1, "summary.json")))
    values = [v for v in summary.values() if isinstance(v, float)]
    values += list(summary["data_report"].values())
    assert summary["experiment"] == "mkg" and len(values) == 6
    assert np.isfinite(values).all()
    for name in ("results.csv", "summary.json", "final.ckpt"):
        b1 = open(os.path.join(out1, name), "rb").read()
        b2 = open(os.path.join(out2, name), "rb").read()
        assert b1 == b2, name
    assert isinstance(read_checkpoint(os.path.join(out1, "final.ckpt")), mkg.MkgState)


def test_cli_runs_without_a_config(tmp_path):
    """With no --config the experiment runs at the default config."""
    out = str(tmp_path / "ev")
    assert cli.main(["evolve", "--out", out]) == 0
    summary = json.load(open(os.path.join(out, "summary.json")))
    assert summary["seed"] == ExperimentConfig().seed
    assert np.isfinite(summary["energy_drift_rel"])


def test_cli_keeps_the_heap_through_mallopt(tmp_path, monkeypatch, caplog):
    """`cli.main` sets M_MMAP_THRESHOLD (-3) and then M_TRIM_THRESHOLD (-1) to
    2**30 with exactly two mallopt calls and logs what each returned.  A
    glibc that refuses the mmap threshold (mallopt(3) documents 32 MiB as its
    upper limit) gets no trim threshold either, which alone would pin the
    mmap threshold at 128 KiB.  A C library without mallopt, or one that
    cannot be loaded, sets nothing.  Every run exits 0 and writes the same
    artifacts."""
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 8\n[integrator]\nT = 0.02\n")
    calls = {"glibc": [], "refuses": []}

    def library(label, taken):
        def mallopt(param, value):
            calls[label].append((param, value))
            return taken
        return lambda name: types.SimpleNamespace(mallopt=mallopt)

    def unloadable(name):
        raise OSError("no C library")

    libraries = {"glibc": library("glibc", 1), "refuses": library("refuses", 0),
                 "no-mallopt": lambda name: types.SimpleNamespace(),
                 "unloadable": unloadable}
    logged = {"glibc": "M_MMAP_THRESHOLD 1, M_TRIM_THRESHOLD 1",
              "refuses": "M_MMAP_THRESHOLD 0, M_TRIM_THRESHOLD 0",
              "no-mallopt": "none set, no mallopt found in the C library",
              "unloadable": "none set, no mallopt found in the C library"}
    artifacts = {}
    for label, loader in libraries.items():
        monkeypatch.setattr(cli.ctypes, "CDLL", loader)
        caplog.clear()
        with caplog.at_level("INFO", logger="ymlab.cli"):
            assert cli.main(["evolve", "--config", str(cfg_path),
                             "--out", str(tmp_path / label)]) == 0
        records = [r.getMessage() for r in caplog.records if r.name == "ymlab.cli"]
        assert len(records) == 1 and logged[label] in records[0], records
        artifacts[label] = {name: (tmp_path / label / name).read_bytes()
                            for name in ("results.csv", "summary.json", "final.ckpt",
                                         "results.schema.json")}
    assert calls == {"glibc": [(-3, 2**30), (-1, 2**30)], "refuses": [(-3, 2**30)]}
    assert all(files == artifacts["glibc"] for files in artifacts.values())


def test_import_makes_no_mallopt_call():
    """Importing ymlab and all its modules leaves the allocator alone; only
    `cli.main` (here `keep_heap`, the positive control) asks for mallopt."""
    script = (
        "import ctypes, pkgutil, importlib\n"
        "asked = []\n"
        "class Recording(ctypes.CDLL):\n"
        "    def __getattr__(self, name):\n"
        "        asked.append(name)\n"
        "        return super().__getattr__(name)\n"
        "ctypes.CDLL = Recording\n"
        "import ymlab\n"
        "for m in pkgutil.iter_modules(ymlab.__path__):\n"
        "    importlib.import_module('ymlab.' + m.name)\n"
        "print('mallopt' in asked)\n"
        "importlib.import_module('ymlab.cli').keep_heap()\n"
        "print('mallopt' in asked)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.split() == ["False", "True"]


def test_cli_failure_is_a_json_record(tmp_path, capsys):
    """A run that fails past the config (here the CFL guard of the wave)
    exits 1 with a JSON record of the exception on stderr."""
    cfg_path = tmp_path / "cfl.ini"
    cfg_path.write_text("[grid]\nn = 8\n[integrator]\ndt = 0.2\nT = 0.2\n")
    assert cli.main(["evolve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "o")]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError" and "CFL" in record["message"]


def test_perfbench_traced_run_reports_every_layer():
    """The benchmark's traced flow-n32 run (about 7 s) exits 0 and ends in a
    strict-JSON result line: correct, with exactly the per-layer metrics
    that BENCHMARK.json declares, each finite.  A traced name that goes
    missing, an output off the reference or a failed per-call count check
    empties the metrics."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "flow-n32",
                           "--trace", "1"], cwd=root, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]

    def reject(token):
        raise ValueError(f"not strict JSON: {token}")

    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=reject)
    assert result["correct"] is True, proc.stderr[-2000:]
    declared = [m["name"] for m in json.loads(
        (root / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 30 and sorted(result["metrics"]) == sorted(declared)
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
