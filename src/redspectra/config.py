"""Run configuration: grids, scan sequences and record-scale settings.

A frozen dataclass holds what the record and its grid decide: steps,
horizons and widths, the zero amplitude and the corpus seed.  The
dimensionless thresholds are constants of the modules that read them.
Values can be loaded from a flat JSON file; unknown keys are rejected so
typos never silently fall back to defaults.  ``lattice_size`` refuses a
lattice of more samples than numpy allocates: a grid, a record or an
evolution solve that a config asks for.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class Config:
    # corpus / grids
    dt: float = 0.01                 # default sample spacing (seconds)
    t_end: float = 200.0             # default record horizon (seconds)
    grid_min: float = -5.0           # analysis frequency grid (rad/s)
    grid_max: float = 5.0
    grid_step: float = 0.1
    corpus_seed: int = 20406

    # half-plane scans:  lambda = a_k + i*omega, a_k decreasing toward 0
    a_seq: tuple = (0.4, 0.2, 0.1, 0.05, 0.025)
    # regularity-test kernel bandwidth ladder
    delta_seq: tuple = (1.0, 0.5, 0.25)
    conv_out_step: float = 0.2       # decimated output spacing for band work

    # class membership
    min_window: float = 30.0         # shortest usable analysis window
    so_mollify_h: float = 0.02       # h* for the slowly-oscillating split
    tol_zero_abs: float = 1e-8       # amplitude below which a record is zero

    # transform spectra
    wl_eps_seq: tuple = (0.25, 0.5)  # weak-Laplace window half-widths
    # a detected singularity contaminates the finite-depth boundary scan of
    # its neighbours: Regular verdicts this close to a Singular grid point
    # are demoted to Undecided (matches the band-pass transition blur)
    buffer_radius: float = 0.45
    evolution_dt: float = 0.001      # evolution-equation solve step

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _check_type(f.name, f.type, getattr(self, f.name))
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if f.name in _POSITIVE:
                if not v > 0:
                    raise ConfigError(f"{f.name} must be > 0, got {v!r}")
            elif f.name.endswith("_seq") and not all(x > 0 for x in v):
                raise ConfigError(f"{f.name} entries must be > 0, got {v!r}")
        if self.grid_step <= 0 or self.grid_max <= self.grid_min:
            raise ConfigError("bad frequency grid")
        if self.corpus_seed < 0:
            raise ConfigError(f"corpus_seed must be >= 0, got {self.corpus_seed}")
        if any(a <= b for a, b in zip(self.a_seq, self.a_seq[1:])):
            raise ConfigError("a_seq must be strictly decreasing")

    def replace(self, **kw) -> "Config":
        return dataclasses.replace(self, **kw)

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(data)
        for key in ("a_seq", "delta_seq", "wl_eps_seq"):
            if isinstance(data.get(key), list):
                data[key] = tuple(data[key])
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "Config":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"config file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a flat JSON object")
        return cls.from_dict(data)


#: fields that must be > 0: steps, widths and amplitudes (a zero step
#: divides by zero, a zero width turns every verdict undecided, and a zero
#: buffer radius keeps Regular verdicts next to a Singular one)
_POSITIVE = ("dt", "t_end", "conv_out_step", "min_window", "so_mollify_h",
             "tol_zero_abs", "buffer_radius", "evolution_dt")


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _check_type(name: str, annotation: str, v):
    """Raise ConfigError unless v fits the field's annotated type: an int
    for ``int``, a finite int or float for ``float``, a nonempty tuple of
    those for ``tuple``."""
    if annotation == "int":
        ok = isinstance(v, int) and not isinstance(v, bool)
        want = "an integer"
    elif annotation == "float":
        ok = _is_number(v)
        want = "a finite number"
    elif annotation == "tuple":
        ok = isinstance(v, tuple) and len(v) > 0 and all(map(_is_number, v))
        want = "a nonempty list of finite numbers"
    else:  # pragma: no cover - every field is annotated with one of these
        raise TypeError(f"{name}: unsupported annotation {annotation!r}")
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {v!r}")


def lattice_size(span: float, dt: float, what: str) -> int:
    """len(np.arange(0, span + dt / 2, dt)); ConfigError when numpy would
    not allocate that many complex samples (the probe touches no memory)."""
    n = (span + dt / 2) / dt
    try:
        return len(np.empty(math.ceil(n), complex))
    except (OverflowError, MemoryError, ValueError):
        raise ConfigError(f"{what}: {n:.6g} samples of step {dt:g} over "
                          f"{span:g}, more than memory holds") from None


DEFAULT = Config()
