"""Strict line-oriented experiment configuration.

Format: `[section]` headers and `key = value` lines; `#` starts a comment.
Unknown sections or keys are errors in strict mode (silent typos in N or
sigma would invalidate an experiment), warnings otherwise.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

KINDS = ("evolve", "heatflow", "tension", "acl-sweep", "mkg", "invariants")
FAMILIES = ("abelian-wave", "random", "pulses", "mkg-random", "mkg-wave")
GROUPS = ("su2", "u1")
_STEPPED_KINDS = ("evolve", "acl-sweep", "mkg")     # the kinds that read T and dt


class ConfigError(ValueError):
    pass


def dt_steps(span: float, dt: float) -> int | None:
    """The whole steps of dt (finite, > 0) in span (finite, >= 0), the one
    rule by which a span of time becomes steps; None for a span off the grid
    of dt by more than 1e-9 of span, or a dt or span out of range."""
    if not (0 < dt < math.inf and 0 <= span < math.inf and span / dt < math.inf):
        return None
    steps = round(span / dt)
    return steps if abs(steps * dt - span) <= 1e-9 * span else None


@dataclass
class ExperimentConfig:
    kind: str = "evolve"
    # grid
    n: int = 16
    L: float = 6.283185307179586
    # physics
    group: str = "su2"
    N: float = 8.0
    sigma: float = 5.0 / 6.0
    s0: float | None = None          # defaults to N^-2
    # integrator
    dt: float = 2e-3
    T: float = 0.5
    cfl: float = 0.5
    substeps: int = 4
    # data recipe
    family: str = "random"
    amplitude: float = 0.1
    seed: int = 1
    mode_cut: float = 3.0
    decay: float = 1e6
    # sweep / diagnostics
    N_list: tuple = (4.0, 8.0, 16.0, 32.0)
    time_samples: int = 5
    s_samples: int = 32
    # output
    out_dir: str = "out"
    write_checkpoints: bool = True

    def __post_init__(self):
        self.validate()

    def validate(self):
        problems = []
        if self.kind not in KINDS:
            problems.append(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.group not in GROUPS:
            problems.append(f"group must be one of {GROUPS}")
        if self.family not in FAMILIES:
            problems.append(f"family must be one of {FAMILIES}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            problems.append("n must be a power of two >= 8")
        if not 0.5 < self.sigma < 1.0:
            problems.append(f"sigma must lie in (1/2, 1), got {self.sigma}")
        infinite = [name for _, _, name, typ in _KEYS
                    if typ is float and not math.isfinite(getattr(self, name) or 0)]
        if infinite:
            problems.append(f"{', '.join(infinite)} must be finite")
        if min(self.N, self.L, self.dt, 1 if self.s0 is None else self.s0) <= 0 or self.T < 0:
            problems.append("N, L, dt, s0 must be positive and T nonnegative")
        for name in ("mode_cut", "decay"):
            if getattr(self, name) <= 0:
                problems.append(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 < self.cfl <= 1.0:
            problems.append(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.kind in _STEPPED_KINDS and dt_steps(self.T, self.dt) is None:
            problems.append(f"T must be an integer multiple of dt = {self.dt}, got {self.T}")
        for name, low in (("substeps", 1), ("s_samples", 2), ("time_samples", 2),
                          ("seed", 0), ("amplitude", 0)):
            if getattr(self, name) < low:
                problems.append(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not self.N_list or not all(0 < x < math.inf for x in self.N_list):
            problems.append(f"N_list must hold positive thresholds, got {self.N_list}")
        if ("#" in self.out_dir or self.out_dir != self.out_dir.strip()
                or len(self.out_dir.splitlines()) > 1):
            problems.append(f"out_dir must hold no '#' or line break and no surrounding "
                            f"whitespace, got {self.out_dir!r}")
        if problems:
            raise ConfigError("; ".join(problems))

    @property
    def s0_value(self) -> float:
        return self.s0 if self.s0 is not None else 1.0 / (self.N * self.N)


# (section, key, field, type) of every config line, in `emit_config` order
_KEYS = (
    ("experiment", "kind", "kind", str),
    ("grid", "n", "n", int), ("grid", "L", "L", float),
    ("physics", "group", "group", str), ("physics", "N", "N", float),
    ("physics", "sigma", "sigma", float), ("physics", "s0", "s0", float),
    ("integrator", "dt", "dt", float), ("integrator", "T", "T", float),
    ("integrator", "cfl", "cfl", float), ("integrator", "substeps", "substeps", int),
    ("data", "family", "family", str), ("data", "amplitude", "amplitude", float),
    ("data", "seed", "seed", int), ("data", "mode_cut", "mode_cut", float),
    ("data", "decay", "decay", float),
    ("sweep", "N_list", "N_list", tuple), ("sweep", "time_samples", "time_samples", int),
    ("sweep", "s_samples", "s_samples", int),
    ("output", "dir", "out_dir", str), ("output", "checkpoints", "write_checkpoints", bool),
)
_BY_KEY = {(section, key): (name, typ) for section, key, name, typ in _KEYS}


def _convert(raw: str, typ, where: str):
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if typ is tuple:
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        return typ(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot parse {raw!r} as {typ.__name__}") from exc


def _unknown(msg: str, strict: bool) -> None:
    if strict:
        raise ConfigError(msg)
    warnings.warn(msg)


def parse_config(text: str, strict: bool = True) -> ExperimentConfig:
    values = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in {key[0] for key in _KEYS}:
                _unknown(f"line {lineno}: unknown section [{section}]", strict)
                section = None
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected key = value, got {body!r}")
        if section is None:
            _unknown(f"line {lineno}: key outside any known section", strict)
            continue
        key, raw = (part.strip() for part in body.split("=", 1))
        if (section, key) not in _BY_KEY:
            _unknown(f"line {lineno}: unknown key {key!r} in section [{section}]", strict)
            continue
        name, typ = _BY_KEY[(section, key)]
        if name in values:     # ambiguous, not unknown: an error in lax mode too
            raise ConfigError(f"line {lineno}: key {key!r} repeats line {values[name][0]}")
        values[name] = lineno, _convert(raw, typ, f"line {lineno}")
    return ExperimentConfig(**{name: value for name, (_, value) in values.items()})


def load_config(path: str, strict: bool = True) -> ExperimentConfig:
    with open(path, "r", encoding="ascii") as fh:
        return parse_config(fh.read(), strict=strict)


def _text(value, typ) -> str:
    if typ is tuple:
        return " ".join(repr(x) for x in value)
    if typ is bool:
        return str(value).lower()
    return repr(value) if typ is float else str(value)


def emit_config(cfg: ExperimentConfig) -> str:
    """Serialize a config so that parse(emit(c)) == c; s0 = None is left out."""
    lines, current = [], None
    for section, key, name, typ in _KEYS:
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        if getattr(cfg, name) is not None:
            lines.append(f"{key} = {_text(getattr(cfg, name), typ)}")
    return "\n".join(lines[1:]) + "\n"
