#!/usr/bin/env python3
"""Print the sha256 of every report the golden roster produces.

Usage:
    PYTHONPATH=src python scripts/report_digests.py

The first line names the BLAS thread environment: the
``OPENBLAS_NUM_THREADS`` and ``OMP_NUM_THREADS`` variables as set, and
the number of CPUs the process may run on.  The bytes of the verify
report depend on the BLAS thread count, so compare only outputs whose
first lines agree.  Then one line per file: first the ``results.json``
of ``redspectra verify --builtin``, then that of ``redspectra verify DIR
--only transform-identities`` on a directory holding a 100 s ``exp_iw1``
from ``redspectra synth``, then every ``redspectra analyze``
report of the case roster in ``scripts/make_golden.py``, then every file
that ``redspectra synth`` writes for each corpus signal at the default
configuration (records, sidecars, and the CSV and sidecar of each
registered kernel).  Run it on two checkouts and diff the output: an
empty diff means the change left every report and export byte-identical.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from make_golden import CASES, analyze_statuses, corpus_name  # noqa: E402

from redspectra.cli import main as cli_main  # noqa: E402
from redspectra.corpus import BUILDERS  # noqa: E402


def sha256_of(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def quiet(fn, *args):
    """``fn(*args)`` with the paths the CLI prints kept off stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def blas_environment() -> str:
    threads = " ".join(f"{var}={os.environ.get(var, 'unset')}"
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    return f"BLAS threads: {threads} cpus={cpus}"


def main():
    print(blas_environment(), flush=True)
    with tempfile.TemporaryDirectory() as work:
        results = os.path.join(work, "results.json")
        rc = quiet(cli_main, ["verify", "--builtin", "--out", results])
        print(f"{sha256_of(results)}  verify --builtin (exit {rc})", flush=True)
        corpus = os.path.join(work, "corpus")
        if quiet(cli_main, ["synth", "exp_iw1", "--tmax", "100",
                            "--out", corpus]) != 0:
            raise RuntimeError("synth exp_iw1 --tmax 100 failed")
        rc = quiet(cli_main, ["verify", corpus, "--only",
                              "transform-identities", "--out", results])
        print(f"{sha256_of(results)}  verify DIR --only transform-identities "
              f"(exit {rc})", flush=True)
        for name in dict.fromkeys(corpus_name(r) for r, _, _ in CASES):
            if quiet(cli_main, ["synth", name, "--out", work]) != 0:
                raise RuntimeError(f"synth {name} failed")
        for record, kind, cls in CASES:
            quiet(analyze_statuses, work, record, kind, cls, work)
            report = os.path.join(work, f"{record}-{kind}-{cls}.json")
            label = f"analyze {record} --kind {kind}" + \
                (f" --class {cls}" if cls else "")
            print(f"{sha256_of(report)}  {label}", flush=True)
        for name in BUILDERS:
            out = os.path.join(work, "synth", name)
            if quiet(cli_main, ["synth", name, "--out", out]) != 0:
                raise RuntimeError(f"synth {name} failed")
            for fname in sorted(os.listdir(out)):
                print(f"{sha256_of(os.path.join(out, fname))}  "
                      f"synth {name}: {fname}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
