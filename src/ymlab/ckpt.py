"""Fixed-layout binary field checkpoints.

Layout (all little-endian):
  magic   4 bytes  b"YMLB"
  version u32      1
  n       u32      sites per axis
  L       f64      period
  group   u32      0 = su2, 1 = u1
  kind    u32      0 = Cauchy state (A, E), 1 = flow state (A, B),
                   2 = MKG state (A, E, Re phi, Im phi, Re phi_t, Im phi_t)
  ncomp   u32      number of stored component fields
  algdim  u32      algebra dimension per component
  t       f64      physical time
  s       f64      parabolic time (0 for Cauchy/MKG states)
payload: ncomp * algdim arrays of n^3 f64, component-major, x varying
fastest within each array.  The reader checks kind, group, ncomp (6, 6, 10
by kind), algdim (by group), n (a power of two >= 8), L (finite, positive),
t and s (finite) and the payload size before it reads the payload.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from . import mkg as mkg_mod
from .algebra import su2, u1
from .dynamics import CauchyState
from .grid import Grid
from .heatflow import FlowState

MAGIC = b"YMLB"
VERSION = 1
_HEADER = struct.Struct("<4sIIdIIIIdd")


class CheckpointError(IOError):
    pass


def _group_tag(spec_name: str) -> int:
    return {"su2": 0, "u1": 1}[spec_name]


def _payload(fields) -> bytes:
    chunks = []
    for comp in fields:                    # comp: (algdim, n, n, n)
        for a in range(comp.shape[0]):
            arr = np.ascontiguousarray(comp[a], dtype="<f8")
            chunks.append(arr.ravel(order="F").tobytes())
    return b"".join(chunks)


def _components_of(state):
    if isinstance(state, CauchyState):
        return 0, list(state.A) + list(state.E), state.t, 0.0, state.spec.name
    if isinstance(state, FlowState):
        return 1, list(state.A) + list(state.B), 0.0, state.s, state.spec.name
    if isinstance(state, mkg_mod.MkgState):
        comps = list(state.A) + list(state.E)
        comps += [state.phi.real[None], state.phi.imag[None],
                  state.phit.real[None], state.phit.imag[None]]
        return 2, comps, state.t, 0.0, "u1"
    raise TypeError(f"cannot checkpoint {type(state).__name__}")


def write_checkpoint(path: str, state) -> None:
    kind, comps, t, s, spec_name = _components_of(state)
    n = comps[0].shape[-1]
    algdim = comps[0].shape[0]
    header = _HEADER.pack(MAGIC, VERSION, n, state.grid.L,
                          _group_tag(spec_name), kind, len(comps), algdim, t, s)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_payload(comps))


def read_checkpoint(path: str):
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise CheckpointError("truncated header")
        magic, version, n, L, group, kind, ncomp, algdim, t, s = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}")
        if version != VERSION:
            raise CheckpointError(f"unsupported version {version}")
        if kind not in (0, 1, 2):
            raise CheckpointError(f"unknown state kind {kind}")
        if group not in (0, 1) or (kind == 2 and group != 1):
            raise CheckpointError(f"group tag {group} does not fit kind {kind} "
                                  "(0 = su2 or 1 = u1; MKG states are u1)")
        spec = (su2, u1)[group]()
        if ncomp != (6, 6, 10)[kind]:
            raise CheckpointError(f"ncomp {ncomp} does not fit kind {kind}")
        if algdim != spec.dim:
            raise CheckpointError(f"algdim {algdim} does not fit group {spec.name}")
        if n < 8 or n & (n - 1):
            raise CheckpointError(f"n {n} is not a power of two >= 8")
        if not (np.isfinite([L, t, s]).all() and L > 0):
            raise CheckpointError(f"L {L} must be finite and positive, t {t} and s {s} finite")
        count = ncomp * algdim * n**3
        size = os.fstat(fh.fileno()).st_size - _HEADER.size
        if size != count * 8:
            raise CheckpointError("truncated payload" if size < count * 8
                                  else "trailing bytes after payload")
        data = np.frombuffer(fh.read(count * 8), dtype="<f8")
    # payload is x-fastest within each n^3 array: undo the Fortran raveling
    arr = np.empty((ncomp, algdim, n, n, n))
    flat = data.reshape(ncomp, algdim, -1)
    for c in range(ncomp):
        for a in range(algdim):
            arr[c, a] = flat[c, a].reshape((n, n, n), order="F")
    grid = Grid(n, L)
    if kind == 0:
        return CauchyState(grid, spec, t, arr[0:3], arr[3:6])
    if kind == 1:
        return FlowState(grid, spec, s, arr[0:3], arr[3:6])
    phi = arr[6, 0] + 1j * arr[7, 0]
    phit = arr[8, 0] + 1j * arr[9, 0]
    return mkg_mod.MkgState(grid, t, arr[0:3], arr[3:6], phi, phit)
