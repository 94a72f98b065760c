#!/usr/bin/env python3
"""Demo: localize the pole of exp(i w0 t) with all four spectrum engines
and print the per-engine status around the pole.

Usage:
    python scripts/pole_scan_demo.py [w0]
"""

import sys

sys.path.insert(0, "src")

import numpy as np  # noqa: E402

from redspectra.config import Config  # noqa: E402
from redspectra.signals import Domain, SampledSignal  # noqa: E402
from redspectra.spectra import (FrequencyGrid, carleman_spectrum,  # noqa: E402
                                laplace_spectrum, reduced_spectrum,
                                weak_laplace_spectrum)
from redspectra.classes import FunctionClass  # noqa: E402


def run(w0=1.0):
    cfg = Config()
    t = np.arange(0.0, cfg.t_end + cfg.dt / 2, cfg.dt)
    tf = np.arange(-cfg.t_end, cfg.t_end + cfg.dt / 2, cfg.dt)
    half = SampledSignal(Domain.HALF_LINE, 0.0, cfg.dt, np.exp(1j * w0 * t))
    full = SampledSignal(Domain.FULL_LINE, -cfg.t_end, cfg.dt,
                         np.exp(1j * w0 * tf))
    grid = FrequencyGrid.from_config(cfg)
    engines = {
        "reduced(C0)": reduced_spectrum(half, FunctionClass.C0, grid, cfg),
        "weak-laplace": weak_laplace_spectrum(half, grid, cfg),
        "laplace": laplace_spectrum(half, grid, cfg),
        "carleman": carleman_spectrum(full, grid, cfg),
    }
    sel = np.abs(grid.values() - w0) <= 1.55
    print(f"pole at w0 = {w0:g}; statuses on [{w0 - 1.5:g}, {w0 + 1.5:g}]:")
    header = "omega:  " + " ".join(f"{w:5.1f}" for w in grid.values()[sel])
    print(header)
    code = {"regular": "  .  ", "singular": "  S  ", "undecided": "  ?  "}
    for name, est in engines.items():
        marks = [code[c.status.value]
                 for c, keep in zip(est.certificates, sel) if keep]
        print(f"{name:>13}: " + "".join(marks))


if __name__ == "__main__":
    run(float(sys.argv[1]) if len(sys.argv) > 1 else 1.0)
