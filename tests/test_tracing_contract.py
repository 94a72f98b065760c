"""The names the benchmark's span tracer patches exist in the package.

``perfbench/tracing.py`` wraps package functions and scanner methods by
name; a simplification that removes one of them would otherwise break
only the traced benchmark run.  The tracer is loaded from its file, not
installed, so no wrapper is put in place here."""

import importlib
import importlib.util
import os

import numpy as np

from redspectra.spectra import ReducedScanner
from redspectra.transforms import TransformScanner

from conftest import make_full

_TRACING = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "tracing.py")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  _TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_function_resolves():
    missing = [f"{mod}.{fn}" for mod, fn, _span in _tracing().FUNCTIONS
               if not callable(getattr(
                   importlib.import_module(f"redspectra.{mod}"), fn, None))]
    assert missing == []


def test_the_patched_scanner_members_exist():
    F = make_full(lambda t: np.exp(1j * t), t_end=20.0)
    sc = TransformScanner(F, [0.0, 1.0])
    for name in ("right_values", "left_values"):
        assert callable(getattr(TransformScanner, name))
    for name in ("_E_pos", "_E_neg"):
        assert isinstance(getattr(sc, name), np.ndarray)
    for name in ("test_regular", "band_output"):
        assert callable(getattr(ReducedScanner, name))
