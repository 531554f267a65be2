"""Property tests at the two input boundaries: the config text and the
checkpoint header.  Hypothesis runs derandomized and without an example
database, so every run draws the same examples."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ymlab.algebra import su2, u1
from ymlab.ckpt import CheckpointError, read_checkpoint, write_checkpoint
from ymlab.config import (FAMILIES, GROUPS, KINDS, ConfigError, ExperimentConfig,
                          emit_config, parse_config)
from ymlab.dynamics import CauchyState
from ymlab.grid import Grid
from ymlab.heatflow import FlowState

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def _reals(lo=None, hi=None, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


@st.composite
def valid_configs(draw):
    dt = draw(_reals(1e-6, 1.0))
    return ExperimentConfig(
        kind=draw(st.sampled_from(KINDS)),
        n=2 ** draw(st.integers(3, 12)),
        L=draw(_reals(1e-6, 1e6)),
        group=draw(st.sampled_from(GROUPS)),
        N=draw(_reals(1e-6, 1e6)),
        sigma=draw(_reals(0.5, 1.0, exclude_min=True, exclude_max=True)),
        s0=draw(st.none() | _reals(1e-12, 1e3)),
        dt=dt,
        T=draw(st.integers(0, 10**6)) * dt,
        cfl=draw(_reals(1e-6, 1.0)),
        substeps=draw(st.integers(1, 64)),
        family=draw(st.sampled_from(FAMILIES)),
        amplitude=draw(_reals(0.0, 1e3)),
        seed=draw(st.integers(0, 2**63)),
        mode_cut=draw(_reals(0.0, 1e3, exclude_min=True)),
        decay=draw(_reals(0.0, 1e9, exclude_min=True)),
        N_list=tuple(draw(st.lists(_reals(1e-6, 1e6), min_size=1, max_size=6))),
        time_samples=draw(st.integers(2, 1000)),
        s_samples=draw(st.integers(2, 1000)),
        out_dir=draw(st.text(st.characters(min_codepoint=33, max_codepoint=126,
                                           blacklist_characters="#"), max_size=20)),
        write_checkpoints=draw(st.booleans()),
    )


@PROPERTY
@given(valid_configs())
def test_config_emit_parse_round_trip(cfg):
    assert parse_config(emit_config(cfg)) == cfg


@PROPERTY
@given(valid_configs(), st.text(max_size=8),
       st.sampled_from(["#", "\n", "\r", "\u2028", " ", "\t"]))
def test_config_rejects_out_dir_that_cannot_round_trip(cfg, text, bad):
    """A '#' or a line break anywhere, or whitespace at either end, would not
    survive emit_config and parse_config."""
    out_dirs = [bad + text, text + bad]
    if bad not in " \t":
        out_dirs.append("x" + bad + "x" + text)
    for out_dir in out_dirs:
        with pytest.raises(ConfigError, match="out_dir"):
            dataclasses.replace(cfg, out_dir=out_dir)


# One field of a valid config's text replaced by a value outside the domain;
# the error must be a ConfigError that names the field.
_INVALID = {
    ("experiment", "kind"): ["flow", "EVOLVE"],
    ("grid", "n"): ["0", "4", "12", "-16", "16.0", "x"],
    ("grid", "L"): ["0", "-1.0", "nan", "inf"],
    ("physics", "group"): ["su3", ""],
    ("physics", "N"): ["0", "-2", "nan", "-inf"],
    ("physics", "sigma"): ["0.5", "1.0", "1.2", "nan"],
    ("physics", "s0"): ["0", "-1e-3", "inf"],
    ("integrator", "dt"): ["0", "-0.002", "nan", "inf"],
    ("integrator", "T"): ["-0.1", "0.0031", "nan", "inf"],
    ("integrator", "cfl"): ["0", "-0.5", "1.5", "nan"],
    ("integrator", "substeps"): ["0", "-3", "2.5"],
    ("data", "family"): ["gauss", ""],
    ("data", "amplitude"): ["nan", "inf", "-0.1"],
    ("data", "seed"): ["1.5", "one", "-1"],
    ("data", "mode_cut"): ["nan", "0", "-1"],
    ("data", "decay"): ["-inf", "0", "-5"],
    ("sweep", "N_list"): ["", "4 -8", "4 0", "4 nan", "inf", "4 x"],
    ("sweep", "time_samples"): ["0", "-1", "1"],
    ("sweep", "s_samples"): ["0", "1"],
    ("output", "checkpoints"): ["maybe"],
}


def _with_value(text, section, key, value):
    out, current = [], None
    for line in text.splitlines():
        if line.startswith("["):
            current = line[1:-1]
        elif current == section and line.split("=")[0].strip() == key:
            line = f"{key} = {value}"
        out.append(line)
    if not any(line.startswith(f"{key} = ") for line in out):
        out.insert(out.index(f"[{section}]") + 1, f"{key} = {value}")
    return "\n".join(out) + "\n"


@PROPERTY
@given(valid_configs(), st.sampled_from(sorted(_INVALID)), st.data())
def test_config_rejects_values_outside_the_domain(cfg, where, data):
    section, key = where
    value = data.draw(st.sampled_from(_INVALID[where]))
    if value == "0.0031":         # off the dt grid, which only the stepping kinds check
        cfg = dataclasses.replace(cfg, kind="evolve")
    text = _with_value(emit_config(cfg), section, key, value)
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    # a parse error names the line; a validation error names the field
    msg = str(info.value)
    assert "line " in msg or key in msg, msg


_HEADER = struct.Struct("<4sIIdIIIIdd")
_U32 = st.integers(0, 2**32 - 1)
_F64 = st.floats(allow_nan=True, allow_infinity=True)
_FIELDS = {0: st.binary(min_size=4, max_size=4), 1: _U32, 2: _U32, 3: _F64, 4: _U32,
           5: _U32, 6: _U32, 7: _U32, 8: _F64, 9: _F64}


def _states():
    g = Grid(8, 3.0)
    rng = np.random.default_rng(3)
    out = []
    for spec in (su2(), u1()):
        A, E = (rng.standard_normal((3, spec.dim, 8, 8, 8)) for _ in range(2))
        out += [CauchyState(g, spec, 0.25, A, E), FlowState(g, spec, 0.01, A, E)]
    return out


class _Blobs(list):
    """The bytes of one checkpoint per state of `_states` (short repr, so a
    falsifying example stays readable), and a scratch path."""

    def __repr__(self):
        return f"<{len(self)} checkpoints>"


@pytest.fixture(scope="module")
def blobs(tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    raws = _Blobs()
    for state in _states():
        write_checkpoint(str(out / "s.ckpt"), state)
        raws.append((out / "s.ckpt").read_bytes())
    raws.path = out / "fuzz.ckpt"
    return raws


def _read(path, raw):
    path.write_bytes(raw)
    return read_checkpoint(str(path))


@PROPERTY
@given(index=st.integers(0, 3), data=st.data())
def test_checkpoint_header_fuzz_raises_only_checkpoint_error(blobs, index, data):
    raw = blobs[index]
    fields = list(_HEADER.unpack(raw[:_HEADER.size]))
    for pos in data.draw(st.sets(st.sampled_from(sorted(_FIELDS)), min_size=1)):
        fields[pos] = data.draw(_FIELDS[pos])
    try:
        state = _read(blobs.path, _HEADER.pack(*fields) + raw[_HEADER.size:])
    except CheckpointError:
        return
    # accepted: the header must describe the payload it came with
    assert state.grid.n == 8 and math.isfinite(state.grid.L) and state.grid.L > 0


@PROPERTY
@given(index=st.integers(0, 3), data=st.data())
def test_checkpoint_truncation_raises_checkpoint_error(blobs, index, data):
    raw = blobs[index]
    cut = data.draw(st.integers(0, len(raw) - 1))
    with pytest.raises(CheckpointError):
        _read(blobs.path, raw[:cut])
