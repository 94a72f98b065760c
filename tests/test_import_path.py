"""The package's runtime is numpy-only: importing it, every analyze kind
(the reduced kind's Bohr refinement included), the evolution checks of
verify (their matrix exponential) and the synthesized mollified chirp
(its Fresnel samples) load no scipy module.  scipy serves the tests as
an oracle only.  Each check runs in a fresh interpreter, since this test
session has scipy loaded already."""

import os
import subprocess
import sys

import redspectra

_SRC = os.path.dirname(os.path.dirname(redspectra.__file__))

_REPORT = ("import sys\n"
           "print(sorted(m for m in sys.modules\n"
           "             if m == 'scipy' or m.startswith('scipy.')))\n")


def _loaded_scipy(code: str, cwd) -> str:
    """The scipy modules loaded after running ``code`` in a new process."""
    env = dict(os.environ, PYTHONPATH=_SRC)
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                         cwd=cwd, check=True, capture_output=True, text=True)
    return out.stdout.strip().splitlines()[-1]


def test_import_loads_no_scipy(tmp_path):
    code = "import redspectra, redspectra.cli, redspectra.spectra, redspectra.theorems\n"
    assert _loaded_scipy(code, tmp_path) == "[]"


def test_transform_analysis_loads_no_scipy(tmp_path):
    code = ("from redspectra.cli import main\n"
            "assert main(['synth', 'exp_iw1', '--tmax', '60', '--out', '.']) == 0\n"
            "assert main(['analyze', 'exp_iw1.csv', '--kind', 'laplace',\n"
            "             '--out', 'r.json']) == 0\n")
    assert _loaded_scipy(code, tmp_path) == "[]"
    assert (tmp_path / "r.json").exists()


def test_reduced_analysis_loads_no_scipy(tmp_path):
    # the default 200 s record: its band outputs form a C0 cluster, so the
    # AAP detector refines Bohr frequencies (a 60 s record refines none)
    code = ("from redspectra.cli import main\n"
            "assert main(['synth', 'exp_iw1', '--out', '.']) == 0\n"
            "assert main(['analyze', 'exp_iw1.csv', '--kind', 'reduced',\n"
            "             '--class', 'aap', '--out', 'r.json']) == 0\n")
    assert _loaded_scipy(code, tmp_path) == "[]"
    assert (tmp_path / "r.json").exists()


def test_evolution_checks_load_no_scipy(tmp_path):
    code = ("from redspectra.cli import main\n"
            "assert main(['verify', '--builtin', '--only', 'evolution',\n"
            "             '--out', 'r.json']) == 0\n")
    assert _loaded_scipy(code, tmp_path) == "[]"
    assert (tmp_path / "r.json").exists()


def test_mollified_chirp_synthesis_loads_no_scipy(tmp_path):
    code = ("from redspectra.cli import main\n"
            "assert main(['synth', 'chirp_mollified', '--out', '.']) == 0\n")
    assert _loaded_scipy(code, tmp_path) == "[]"
    assert (tmp_path / "chirp_mollified.csv").exists()
